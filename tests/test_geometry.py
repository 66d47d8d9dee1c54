import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdgdarcy import geometry
from sdgdarcy.benchmarks import get_benchmark
from sdgdarcy.errors import EmptyDomain, FractureNotAligned, GridTooLarge, MeshError, NotStarShaped
from sdgdarcy.geometry import (
    BOUNDARY,
    DUAL,
    FRACTURE,
    INTERIOR,
    MAX_INITIAL_CELLS,
    CycleTable,
    DomainSpec,
    PolygonalMesh,
    _closure,
    build_initial_mesh,
    check_regularity,
    initial_grid,
    refine,
    subdivide,
)

from conftest import cycle_table, doerfler_refinements, hanging, make_fracture, polygons


def test_two_square_fracture_counts(two_square_fractured):
    mesh = two_square_fractured
    assert mesh.n_elements == 2
    sub = mesh.subdivision
    assert sub.n_triangles == 8
    assert sub.edges_of_kind(INTERIOR).size == 0
    assert sub.edges_of_kind(FRACTURE).size == 1
    assert sub.edges_of_kind(BOUNDARY).size == 6
    assert sub.edges_of_kind(DUAL).size == 8


def test_two_square_plain_counts(two_square_plain):
    sub = two_square_plain.subdivision
    assert sub.edges_of_kind(INTERIOR).size == 1
    assert sub.edges_of_kind(FRACTURE).size == 0
    assert sub.edges_of_kind(BOUNDARY).size == 6


def test_subdivision_outliving_its_mesh_is_a_mesh_error():
    """A mesh and its cached subdivision form no reference cycle: dropping
    the mesh frees it without the cyclic collector, and the subdivision
    then says so instead of handing out None."""
    mesh = build_initial_mesh(DomainSpec(((0.0, 0.0, 1.0, 1.0),)), 0.5)
    sub = mesh.subdivision
    assert sub.mesh is mesh
    ref = weakref.ref(mesh)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del mesh
        freed = ref() is None
    finally:
        if enabled:
            gc.enable()
    assert freed
    with pytest.raises(MeshError, match="subdivision outlived its mesh"):
        sub.mesh


def test_every_triangle_has_one_primal_and_two_dual_edges(two_square_fractured):
    sub = two_square_fractured.subdivision
    # count edge-to-triangle incidences by kind
    per_tri_dual = np.zeros(sub.n_triangles, dtype=int)
    per_tri_primal = np.zeros(sub.n_triangles, dtype=int)
    for eid in range(sub.n_edges):
        for t in sub.edge_tris[eid]:
            if t < 0:
                continue
            if sub.edge_kind[eid] == DUAL:
                per_tri_dual[t] += 1
            else:
                per_tri_primal[t] += 1
    assert np.all(per_tri_primal == 1)
    assert np.all(per_tri_dual == 2)


def test_lshape_cell_count():
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0), (1.0, -1.0, 2.0, 0.0)])
    mesh = build_initial_mesh(dom, 0.5)
    assert mesh.n_elements == 12


def test_fracture_side_orientation(two_square_fractured):
    sub = two_square_fractured.subdivision
    (eid,) = sub.edges_of_kind(FRACTURE)
    assert np.allclose(sub.edge_normal[eid], [1.0, 0.0])
    t1, t2 = sub.edge_tris[eid]
    assert sub.tri_centroid[t1, 0] < 1.0 < sub.tri_centroid[t2, 0]
    assert two_square_fractured.element_regions.tolist() == [1, 2]


def test_refine_creates_pentagon_and_splits_fracture(two_square_fractured):
    mesh = two_square_fractured
    m2 = refine(mesh, [0])
    # left square -> 4 quads, right square survives as a pentagon
    assert m2.n_elements == 5
    sizes = sorted(len(c) for c in polygons(m2))
    assert sizes == [4, 4, 4, 4, 5]
    penta = [i for i, c in enumerate(polygons(m2)) if len(c) == 5][0]
    assert len(hanging(m2)[penta]) == 1
    (h,) = hanging(m2)[penta]
    assert np.allclose(m2.vertices[h], [1.0, 0.5])
    sub = m2.subdivision
    assert sub.edges_of_kind(FRACTURE).size == 2
    fe = sub.fracture_edges
    assert fe.n_edges == 2
    assert np.allclose(sub.vertices[fe.ends[0, 0]], [1.0, 0.0])
    assert np.allclose(sub.vertices[fe.ends[-1, 1]], [1.0, 1.0])
    assert abs(sub.edge_length[fe.edge].sum() - 1.0) < 1e-12
    # each fracture edge still has one triangle per side
    for eid in sub.edges_of_kind(FRACTURE):
        t1, t2 = sub.edge_tris[eid]
        assert t1 >= 0 and t2 >= 0
        assert sub.tri_centroid[t1, 0] < 1.0 < sub.tri_centroid[t2, 0]


def test_uniform_refinement_counts(two_square_fractured):
    mesh = two_square_fractured
    counts = [mesh.n_elements]
    for _ in range(2):
        mesh = refine(mesh, range(mesh.n_elements))
        counts.append(mesh.n_elements)
    assert counts == [2, 8, 32]


def test_closure_blocks_stacked_hanging_nodes():
    dom = DomainSpec(rectangles=[(0.0, 0.0, 3.0, 1.0)])
    mesh = build_initial_mesh(dom, 1.0)  # cells A, B, C left to right
    m1 = refine(mesh, [0])
    assert m1.n_elements == 6  # 4 children + pentagon B + square C
    # find the child of A with an edge on x = 1 touching the hanging node
    target = None
    for i, cyc in enumerate(polygons(m1)):
        pts = m1.vertices[list(cyc)]
        if len(cyc) == 4 and np.all(pts[:, 0] <= 1.0) and np.isclose(pts[:, 0].max(), 1.0):
            if np.isclose(pts[pts[:, 0] == 1.0][:, 1].max(), 0.5):
                target = i
                break
    assert target is not None
    m2 = refine(m1, [target])
    # closure must also refine the pentagon, which splits at its absorbed
    # vertex into 4 children: 6 - 2 marked + 4 + 4
    assert m2.n_elements == 12


def test_refine_empty_marked_is_identity(two_square_fractured):
    assert refine(two_square_fractured, []) is two_square_fractured


def test_regularity_unit_squares(two_square_fractured):
    rep = check_regularity(two_square_fractured)
    assert abs(rep.rho_E - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(rep.rho_S - 0.5 / math.sqrt(2.0)) < 1e-12
    assert abs(rep.h_max - math.sqrt(2.0)) < 1e-12
    assert rep.rho_S >= 0.2 and rep.rho_E >= 0.2


def test_regularity_pentagon_with_flat_vertex(two_square_fractured):
    m2 = refine(two_square_fractured, [0])
    rep = check_regularity(m2)
    # pentagon edges 1/2; its diameter stays sqrt(2)
    assert abs(rep.rho_E - 0.5 / math.sqrt(2.0)) < 1e-12
    # inscribed ball of the flat-vertex pentagon is still the square's
    assert rep.rho_S > 0.3


def test_sliver_flagged():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.02], [0.0, 0.02]])
    mesh = PolygonalMesh(
        vertices=verts,
        cycles=cycle_table([(0, 1, 2, 3)], [frozenset()]),
        fractures=(),
        tolerance=1e-10,
    )
    rep = check_regularity(mesh)
    assert rep.rho_S < 0.2 and rep.rho_E < 0.2


def test_initial_grid_bounds_the_union_by_its_largest_rectangle():
    """Overlapping rectangles: the cell bound is the larger one's count, 8,
    not the sum, 16; their union has 12 cells."""
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0), (1.0, 0.0, 3.0, 1.0)])
    ranges, cells = initial_grid(dom, 0.5)
    assert ranges == [(0, 0, 4, 2), (2, 0, 6, 2)] and cells == 8
    assert build_initial_mesh(dom, 0.5).n_elements == 12


def test_grid_over_the_cell_bound_is_rejected_before_its_cells(monkeypatch):
    """`build_initial_mesh` checks the cell bound of `initial_grid` against
    `MAX_INITIAL_CELLS` before it visits a cell.  The bound is faked one
    above the limit on the 32-cell grid of case1-a0.1 at h0 = 0.25, so a
    missing check builds 32 cells, never a million."""
    spec, _, _ = get_benchmark("case1-a0.1")
    ranges, cells = initial_grid(spec.domain, 0.25)
    assert cells == 32
    monkeypatch.setattr(geometry, "initial_grid", lambda domain, h: (ranges, MAX_INITIAL_CELLS + 1))
    with pytest.raises(GridTooLarge, match=rf"h0=0.25 gives at least {MAX_INITIAL_CELLS + 1} initial cells") as err:
        build_initial_mesh(spec.domain, 0.25)
    assert isinstance(err.value, MeshError)
    monkeypatch.setattr(geometry, "initial_grid", lambda domain, h: (ranges, MAX_INITIAL_CELLS))
    assert build_initial_mesh(spec.domain, 0.25).n_elements == 32


def test_fracture_misaligned_rejected():
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[0.3, 0.0], [0.3, 1.0]])],
    )
    with pytest.raises(FractureNotAligned):
        build_initial_mesh(dom, 0.25)


def test_fracture_on_boundary_rejected():
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[0.0, 0.0], [0.0, 1.0]])],
    )
    with pytest.raises(FractureNotAligned):
        build_initial_mesh(dom, 0.5)


def test_fracture_snapping():
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0 + 1e-12, 0.0], [1.0 - 1e-12, 1.0]])],
    )
    mesh = build_initial_mesh(dom, 0.5)
    assert np.allclose(mesh.fractures[0].points, [[1.0, 0.0], [1.0, 1.0]])


def _reference_initial_mesh(domain, target_h):
    """Per-cell walk over a set of covered cells: (vertices, polygons,
    snapped fractures), the vertices numbered in first use over the cells
    in sorted order."""
    ranges, _ = initial_grid(domain, target_h)
    h = float(target_h)
    ox, oy = domain.origin
    tol = domain.tolerance
    cells = {(i, j) for i0, j0, i1, j1 in ranges for i in range(i0, i1) for j in range(j0, j1)}
    snapped = [_reference_snap_fracture(fr, h, ox, oy, tol, cells) for fr in domain.fractures]
    vid, coords, cycles = {}, [], []
    for i, j in sorted(cells):
        cycle = []
        for key in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)):
            if key not in vid:
                vid[key] = len(coords)
                coords.append((ox + key[0] * h, oy + key[1] * h))
            cycle.append(vid[key])
        cycles.append(tuple(cycle))
    return np.array(coords), cycles, snapped


def _reference_snap_fracture(fr, h, ox, oy, tol, cells):
    """Snap point by point, then look up the two cells beside every grid
    edge of each segment in the cell set."""
    pts = fr.points.copy()
    for p in range(pts.shape[0]):
        for c, o in ((0, ox), (1, oy)):
            idx = round((pts[p, c] - o) / h)
            if abs(o + idx * h - pts[p, c]) > tol:
                raise FractureNotAligned(f"fracture point {tuple(fr.points[p])} is not on the grid of spacing {h}")
            pts[p, c] = o + idx * h
    for s in range(pts.shape[0] - 1):
        dx, dy = pts[s + 1] - pts[s]
        if abs(dx) > tol and abs(dy) > tol:
            raise FractureNotAligned("fracture segments must follow grid lines (axis-aligned)")
        i0 = round((pts[s, 0] - ox) / h)
        j0 = round((pts[s, 1] - oy) / h)
        i1 = round((pts[s + 1, 0] - ox) / h)
        j1 = round((pts[s + 1, 1] - oy) / h)
        if abs(dx) <= tol:
            sides = [((i0 - 1, j), (i0, j)) for j in range(min(j0, j1), max(j0, j1))]
        else:
            sides = [((i, j0 - 1), (i, j0)) for i in range(min(i0, i1), max(i0, i1))]
        if any(a not in cells or b not in cells for a, b in sides):
            raise FractureNotAligned("fracture segment lies on the domain boundary or outside the domain")
    return pts


_OVERLAPPING = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0), (1.0, 0.0, 3.0, 1.0)])


@pytest.mark.parametrize(
    "name,refine_h",
    [(name, r) for name in ("patch", "case1-a0.1", "case1-a0.01", "case2", "lshape", "multifrac") for r in (1, 2, 8)]
    + [("overlapping", 1)],
)
def test_initial_mesh_matches_cell_walk(name, refine_h):
    """The array-built grid equals the per-cell walk bit for bit: vertices,
    cycle table and snapped fracture points, on every benchmark at h0,
    h0/2 and h0/8 and on two overlapping rectangles."""
    if name == "overlapping":
        domain, h0 = _OVERLAPPING, 0.5
    else:
        spec, _, h0 = get_benchmark(name)
        domain = spec.domain
    mesh = build_initial_mesh(domain, h0 / refine_h)
    vertices, cycles, snapped = _reference_initial_mesh(domain, h0 / refine_h)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.cycles.offsets, 4 * np.arange(len(cycles) + 1))
    assert np.array_equal(mesh.cycles.vertex, np.ravel(cycles)) and not mesh.cycles.hanging.any()
    assert mesh.cycles.vertex.dtype == mesh.cycles.offsets.dtype == int
    assert len(mesh.fractures) == len(snapped)
    for got, ref in zip(mesh.fractures, snapped):
        assert np.array_equal(got.points, ref)


@pytest.mark.parametrize(
    "points",
    [
        [[2.0, 0.0], [2.0, 1.0]],  # the far boundary: its right-hand cells are one past the grid
        [[0.0, 1.0], [2.0, 1.0]],  # the top boundary
        [[1.0, 0.0], [1.0, 1.0], [2.0, 1.0]],  # turns onto the top boundary
        [[3.0, 0.0], [3.0, 1.0]],  # outside, one cell past the grid
        [[-1.5, 0.0], [-1.5, 1.0]],  # outside, three cells before it
        [[0.5, 1.5], [0.5, 2.0]],  # above it, where key i * rows + j would alias a cell
    ],
    ids=["far", "top", "turn-onto-top", "past-end", "before-start", "above"],
)
def test_fracture_off_the_interior_rejected_as_the_cell_walk_does(points):
    """A segment on the boundary or outside the grid raises the cell walk's
    FractureNotAligned and message, wherever its side cells fall."""
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=[make_fracture(points)])
    with pytest.raises(FractureNotAligned) as ref:
        _reference_initial_mesh(dom, 0.5)
    with pytest.raises(FractureNotAligned) as got:
        build_initial_mesh(dom, 0.5)
    assert str(got.value) == str(ref.value) == "fracture segment lies on the domain boundary or outside the domain"


@pytest.mark.parametrize(
    "first,second,point",
    [
        ([[1.0, 0.0], [1.0, 1.0]], [[0.5, 0.5], [1.0, 0.5]], (1.0, 0.5)),  # T-junction
        ([[1.0, 0.0], [1.0, 0.75]], [[1.0, 0.5], [1.0, 1.0]], (1.0, 0.75)),  # collinear overlap
        ([[0.5, 0.25], [1.5, 0.75]], [[0.5, 0.75], [1.5, 0.25]], (1.0, 0.5)),  # crossing
        ([[0.5, 0.5], [1.0, 0.5], [1.0, 1.0]], [[1.0, 0.0], [1.0, 0.5]], (1.0, 0.5)),  # shared tip
    ],
    ids=["t-junction", "collinear-overlap", "crossing", "shared-tip"],
)
def test_touching_fractures_rejected(first, second, point):
    """Fractures are closed sets: a touch, a shared point or a collinear
    overlap is rejected when the domain is made, naming both fractures and
    a point where they meet."""
    with pytest.raises(ValueError, match=re.escape(f"fractures 0 and 1 meet at {point}")):
        DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=[make_fracture(first), make_fracture(second)])


@pytest.mark.parametrize(
    "points,message",
    [
        ([[0.5, 0.5], [1.5, 0.5], [1.0, 0.5]], "segments 0 and 1 meet at (1.0, 0.5)"),  # folds back
        ([[1.0, 0.5], [1.0, 0.75], [1.0, 0.25]], "segments 0 and 1 meet at (1.0, 0.5)"),  # folds back past the start
        ([[0.5, 0.5], [1.0, 0.5], [1.0, 1.0], [0.5, 1.0], [0.5, 0.5]], "segments 0 and 3 meet at (0.5, 0.5)"),  # closed
        ([[0.5, 0.5], [1.5, 0.5], [1.5, 0.75], [1.0, 0.75], [1.0, 0.25]], "segments 0 and 3 meet at (1.0, 0.5)"),  # crosses itself
    ],
    ids=["fold-back", "fold-back-past-start", "closed", "self-crossing"],
)
def test_self_touching_polyline_rejected(points, message):
    with pytest.raises(ValueError, match=re.escape(f"fracture polyline {message}")):
        make_fracture(points)


@pytest.mark.parametrize("name", ["patch", "case1-a0.1", "case1-a0.01", "case2", "lshape", "multifrac"])
def test_benchmark_fractures_are_accepted(name):
    """Consecutive segments that continue straight on (case2, lshape) or
    turn (lshape) share their joint only, and every benchmark builds."""
    spec, _, h0 = get_benchmark(name)
    assert build_initial_mesh(spec.domain, h0).subdivision.fracture_edges.n_edges > 0


def test_empty_domain_rejected():
    with pytest.raises(EmptyDomain):
        DomainSpec(rectangles=[])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_rectangle_rejected(bad):
    rect = (0.0, 0.0, 1.0, bad)
    with pytest.raises(ValueError, match=f"rectangle {re.escape(repr(rect))} has a non-finite"):
        DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0), rect])


def test_not_star_shaped_rejected():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5], [0.0, 2.0]])
    mesh = PolygonalMesh(
        vertices=verts,
        cycles=cycle_table([(0, 1, 2, 3)], [frozenset()]),
        fractures=(),
        tolerance=1e-10,
    )
    with pytest.raises(NotStarShaped):
        subdivide(mesh)


def test_random_refinement_invariants():
    rng = np.random.default_rng(20240817)
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    base = build_initial_mesh(dom, 0.5)
    for _ in range(100):
        mesh = base
        for _ in range(3):
            n = mesh.n_elements
            k = int(rng.integers(1, max(2, n // 3)))
            marked = rng.choice(n, size=k, replace=False)
            mesh = refine(mesh, marked)
        sub = mesh.subdivision
        # triangle incidence: one primal-family edge, two dual edges each
        dual_count = np.zeros(sub.n_triangles, dtype=int)
        primal_count = np.zeros(sub.n_triangles, dtype=int)
        for eid in range(sub.n_edges):
            kind = sub.edge_kind[eid]
            for t in sub.edge_tris[eid]:
                if t < 0:
                    continue
                if kind == DUAL:
                    dual_count[t] += 1
                else:
                    primal_count[t] += 1
        assert np.all(primal_count == 1)
        assert np.all(dual_count == 2)
        # fracture conformity: edges chain tip to tip with full length
        fe = sub.fracture_edges
        assert abs(sub.edge_length[fe.edge].sum() - 1.0) < 1e-12
        assert np.array_equal(fe.ends[1:, 0], fe.ends[:-1, 1])
        assert np.allclose(sub.vertices[fe.ends[0, 0]], [1.0, 0.0], atol=1e-12)
        assert np.allclose(sub.vertices[fe.ends[-1, 1]], [1.0, 1.0], atol=1e-12)
        # sanity bound only: arbitrary random marking is harsher than
        # error-driven marking (a cell can keep hanging nodes on several
        # edges while staying unrefined); the 0.2 floor for adaptive runs
        # is audited in test_adaptivity.py
        assert mesh.rho_E > 0.15


def _check_incidence_and_irregularity(mesh):
    sub = mesh.subdivision
    tv = sub.tri_vertices
    # side l of triangle t is the edge between its vertices l and l+1
    sides = np.stack([tv, np.roll(tv, -1, axis=1)], axis=-1)
    assert np.array_equal(
        np.sort(sub.edge_vertices[sub.tri_edges], axis=-1), np.sort(sides, axis=-1)
    )
    tris = np.arange(sub.n_triangles)[:, None, None]
    assert np.all((sub.edge_tris[sub.tri_edges] == tris).any(axis=-1))
    assert np.all(sub.edge_kind[sub.tri_edges[:, 0]] != DUAL)
    assert np.all(sub.edge_kind[sub.tri_edges[:, 1:]] == DUAL)
    # 1-irregularity: at most one hanging node per original side, and it
    # sits at the midpoint of the two corners around it
    for cyc, hang in zip(polygons(mesh), hanging(mesh)):
        n = len(cyc)
        for i, v in enumerate(cyc):
            if v not in hang:
                continue
            prev, nxt = cyc[i - 1], cyc[(i + 1) % n]
            assert prev not in hang and nxt not in hang
            mid = 0.5 * (mesh.vertices[prev] + mesh.vertices[nxt])
            assert np.allclose(mesh.vertices[v], mid, atol=1e-12)


def _fractured_mesh():
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    return build_initial_mesh(dom, 0.5)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_incidence_table_under_doerfler_refinement(data):
    for mesh, _ in doerfler_refinements(data, _fractured_mesh()):
        _check_incidence_and_irregularity(mesh)


def _reference_measures(mesh):
    """Per-polygon walk: vertex centroids, diameters and rho_E."""
    centroids = np.empty((mesh.n_elements, 2))
    diam = np.empty(mesh.n_elements)
    rho_e = np.inf
    for i, cyc in enumerate(polygons(mesh)):
        pts = mesh.vertices[list(cyc)]
        centroids[i] = pts.mean(axis=0)
        d = pts[:, None, :] - pts[None, :, :]
        diam[i] = np.sqrt((d * d).sum(-1).max())
        e = np.roll(pts, -1, axis=0) - pts
        rho_e = min(rho_e, np.hypot(e[:, 0], e[:, 1]).min() / diam[i])
    return centroids, diam, float(rho_e)


def _reference_subdivide(mesh):
    """Vertex-pair dict walk over the polygons: every Subdivision array, and
    under "fracture_edges" every field of its FractureEdgeTable, by name."""
    nv = mesh.vertices.shape[0]
    centroids = _reference_measures(mesh)[0]
    all_vertices = np.vstack([mesh.vertices, centroids])
    tri_v, tri_poly, tri_primal, ranges = [], [], [], []
    primal = {}  # sorted vertex pair -> edge id
    primal_adj = {}  # sorted vertex pair -> triangles
    for p, cyc in enumerate(polygons(mesh)):
        start = len(tri_v)
        for i in range(len(cyc)):
            a, b = cyc[i], cyc[(i + 1) % len(cyc)]
            key = (min(a, b), max(a, b))
            primal_adj.setdefault(key, []).append(len(tri_v))
            tri_primal.append(primal.setdefault(key, len(primal)))
            tri_v.append((a, b, nv + p))
            tri_poly.append(p)
        ranges += [(start, len(tri_v))] * len(cyc)
    tri_v = np.array(tri_v)
    coords = all_vertices[tri_v]
    e01, e02, e12 = (coords[:, j] - coords[:, i] for i, j in ((0, 1), (0, 2), (1, 2)))
    out = {
        "vertices": all_vertices,
        "tri_vertices": tri_v,
        "tri_polygon": np.array(tri_poly),
        "tri_area": 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0]),
        "tri_centroid": coords.mean(axis=1),
        "tri_diameter": np.maximum(
            np.hypot(e01[:, 0], e01[:, 1]),
            np.maximum(np.hypot(e02[:, 0], e02[:, 1]), np.hypot(e12[:, 0], e12[:, 1])),
        ),
    }

    n_primal, nt = len(primal), len(tri_v)
    edge_v = np.empty((n_primal + nt, 2), dtype=int)
    edge_kind = np.full(n_primal + nt, DUAL)
    edge_tris = np.full((n_primal + nt, 2), -1)
    edge_frac = np.full(n_primal + nt, -1)
    edge_seg = np.full(n_primal + nt, -1)
    for key, eid in primal.items():
        edge_v[eid] = key
        adj = primal_adj[key]
        edge_kind[eid] = BOUNDARY if len(adj) == 1 else INTERIOR
        edge_tris[eid, : len(adj)] = adj
    nxt = []
    for t, (start, stop) in enumerate(ranges):
        n = stop - start
        edge_v[n_primal + t] = tri_v[t, [0, 2]]
        edge_tris[n_primal + t] = (start + (t - start - 1) % n, t)
        nxt.append(start + (t - start + 1) % n)
    for eid in range(n_primal):
        va, vb = all_vertices[edge_v[eid]]
        for fi, fr in enumerate(mesh.fractures):
            for s in range(fr.n_segments):
                a, t, L, tol = fr.points[s], fr.seg_tangents[s], fr.seg_lengths[s], mesh.tolerance
                da, db = va - a, vb - a
                if (
                    abs(da[0] * t[1] - da[1] * t[0]) <= tol
                    and abs(db[0] * t[1] - db[1] * t[0]) <= tol
                    and -tol <= da @ t <= L + tol
                    and -tol <= db @ t <= L + tol
                ):
                    edge_kind[eid], edge_frac[eid], edge_seg[eid] = FRACTURE, fi, s
    delta = all_vertices[edge_v[:, 1]] - all_vertices[edge_v[:, 0]]
    edge_len = np.hypot(delta[:, 0], delta[:, 1])
    edge_mid = 0.5 * (all_vertices[edge_v[:, 0]] + all_vertices[edge_v[:, 1]])
    edge_normal = np.column_stack([delta[:, 1], -delta[:, 0]]) / edge_len[:, None]
    for eid in np.flatnonzero(edge_kind == FRACTURE):
        edge_normal[eid] = mesh.fractures[edge_frac[eid]].seg_normals[edge_seg[eid]]
    for eid in range(edge_v.shape[0]):
        t1, t2 = edge_tris[eid]
        if (out["tri_centroid"][t1] - edge_mid[eid]) @ edge_normal[eid] > 0:
            if t2 >= 0:
                edge_tris[eid] = (t2, t1)
            else:
                edge_normal[eid] *= -1.0
    tri_edges = np.column_stack([tri_primal, n_primal + np.array(nxt), n_primal + np.arange(nt)])
    tri_side = np.zeros((nt, 3), dtype=int)
    tri_flip = np.zeros((nt, 3), dtype=bool)
    for t in range(nt):
        for l in range(3):
            tri_side[t, l] = list(edge_tris[tri_edges[t, l]]).index(t)
            tri_flip[t, l] = tri_v[t, l] > tri_v[t, (l + 1) % 3]
    out.update(
        edge_vertices=edge_v,
        edge_kind=edge_kind,
        edge_tris=edge_tris,
        edge_normal=edge_normal,
        edge_length=edge_len,
        edge_midpoint=edge_mid,
        tri_edges=tri_edges,
        tri_side=tri_side,
        tri_flip=tri_flip,
        edge_fracture=edge_frac,
    )

    # the fracture edges row by row, fracture by fracture, each walked
    # along its polyline with a running arclength
    table = {name: [] for name in ("edge", "ends", "segment", "arclength", "thickness", "eta", "K_gamma")}
    offsets = [0]
    for fi, fr in enumerate(mesh.fractures):
        ids = np.flatnonzero(edge_frac == fi)
        mids = 0.5 * (all_vertices[edge_v[ids, 0]] + all_vertices[edge_v[ids, 1]])
        ids = ids[np.argsort(fr.param_of(mids), kind="stable")]
        arclength = 0.0
        for eid in ids:
            a, b = edge_v[eid]
            pa, pb = fr.param_of(all_vertices[[a, b]])
            ends = (a, b) if pa <= pb else (b, a)
            assert len(table["edge"]) == offsets[-1] or table["ends"][-1][1] == ends[0]
            s = edge_seg[eid]
            table["edge"].append(eid)
            table["ends"].append(ends)
            table["segment"].append(s)
            table["arclength"].append(arclength)
            table["thickness"].append(fr.thickness)
            table["eta"].append(fr.thickness / fr.kappa_n[s])
            table["K_gamma"].append(fr.kappa_t[s] * fr.thickness)
            arclength += edge_len[eid]
        offsets.append(len(table["edge"]))
    out["fracture_edges"] = {name: np.array(rows) for name, rows in table.items()}
    out["fracture_edges"]["ends"] = out["fracture_edges"]["ends"].reshape(-1, 2)
    out["fracture_edges"]["offsets"] = np.array(offsets)
    return out


def _reference_closure(mesh, marked):
    """Worklist over a vertex-pair adjacency dict: the marked set grown
    until no unmarked neighbour keeps a hanging node on a shared edge."""
    adj = {}
    for p, cyc in enumerate(polygons(mesh)):
        for i in range(len(cyc)):
            a, b = cyc[i], cyc[(i + 1) % len(cyc)]
            adj.setdefault((min(a, b), max(a, b)), []).append(p)
    marked = set(int(m) for m in marked)
    work = sorted(marked)
    while work:
        nxt = []
        for p in work:
            cyc = polygons(mesh)[p]
            for i in range(len(cyc)):
                a, b = cyc[i], cyc[(i + 1) % len(cyc)]
                for q in adj[(min(a, b), max(a, b))]:
                    if q != p and q not in marked and (a in hanging(mesh)[q] or b in hanging(mesh)[q]):
                        marked.add(q)
                        nxt.append(q)
        work = sorted(set(nxt))
    return sorted(marked)


def _reference_refine(mesh, closed):
    """Vertex-pair dict walk over the polygons: refine the polygons of
    `closed`, a closure-complete id list, into child quads."""
    closed = np.isin(np.arange(mesh.n_elements), closed)
    coords = [tuple(xy) for xy in mesh.vertices]
    midpoint = {}

    def mid_of(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            midpoint[key] = len(coords)
            coords.append(
                (
                    0.5 * (coords[a][0] + coords[b][0]),
                    0.5 * (coords[a][1] + coords[b][1]),
                )
            )
        return midpoint[key]

    # create all fresh side midpoints of marked polygons first; cycle edges
    # touching an absorbed vertex are halves of a side that splits there
    for p in np.flatnonzero(closed).tolist():
        cyc = polygons(mesh)[p]
        n = len(cyc)
        hang = hanging(mesh)[p]
        for i in range(n):
            a, b = cyc[i], cyc[(i + 1) % n]
            if a not in hang and b not in hang:
                mid_of(a, b)

    new_polys = []
    new_hang = []
    for p, cyc in enumerate(polygons(mesh)):
        n = len(cyc)
        if not closed[p]:
            out = []
            extra = set(hanging(mesh)[p])
            for i in range(n):
                a, b = cyc[i], cyc[(i + 1) % n]
                out.append(a)
                key = (a, b) if a < b else (b, a)
                if key in midpoint:
                    m = midpoint[key]
                    out.append(m)
                    extra.add(m)
            new_polys.append(tuple(out))
            new_hang.append(frozenset(extra))
        else:
            c_id = len(coords)
            pts = mesh.vertices[list(cyc)]
            # area centroid: insensitive to absorbed (flat) cycle vertices,
            # which keeps child shapes from drifting under repeated hanging
            # node absorption
            nxt = np.roll(pts, -1, axis=0)
            w = pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]
            area6 = 3.0 * w.sum()
            coords.append(
                (
                    float(((pts[:, 0] + nxt[:, 0]) * w).sum() / area6),
                    float(((pts[:, 1] + nxt[:, 1]) * w).sum() / area6),
                )
            )
            hang = hanging(mesh)[p]
            corners = [i for i in range(n) if cyc[i] not in hang]
            m = len(corners)
            splits = []
            for idx in range(m):
                i, j = corners[idx], corners[(idx + 1) % m]
                between = (i + 1) % n
                if between == j:
                    splits.append(mid_of(cyc[i], cyc[j]))
                else:
                    splits.append(cyc[between])  # side splits at the absorbed vertex
            for idx in range(m):
                v0, v1, v3 = cyc[corners[idx]], splits[idx], splits[idx - 1]
                child = [v0, v1, c_id, v3]
                extra = set()
                # a same-pass neighbor refining across a half side may have
                # put a midpoint on an outer child edge; absorb it (keys hold
                # only pre-existing vertex pairs, fresh splits never match)
                key = (v0, v1) if v0 < v1 else (v1, v0)
                if key in midpoint:
                    child.insert(1, midpoint[key])
                    extra.add(midpoint[key])
                key = (v3, v0) if v3 < v0 else (v0, v3)
                if key in midpoint:
                    child.append(midpoint[key])
                    extra.add(midpoint[key])
                new_polys.append(tuple(child))
                new_hang.append(frozenset(extra))

    return PolygonalMesh(
        vertices=np.array(coords, dtype=float),
        cycles=cycle_table(new_polys, new_hang),
        fractures=mesh.fractures,
        tolerance=mesh.tolerance,
    )


def _assert_same_mesh(got, ref):
    assert np.array_equal(got.vertices, ref.vertices)
    for field in ("offsets", "vertex", "hanging"):
        assert np.array_equal(getattr(got.cycles, field), getattr(ref.cycles, field)), field
    assert polygons(got) == polygons(ref)
    assert hanging(got) == hanging(ref)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_geometry_matches_polygon_walk(data):
    """The cycle-table geometry and refinement equal the per-polygon walks
    bit for bit."""
    for mesh, marked in doerfler_refinements(data, _fractured_mesh()):
        cycles = cycle_table(polygons(mesh), hanging(mesh))
        fresh = PolygonalMesh(mesh.vertices, cycles, mesh.fractures, mesh.tolerance)
        centroids, diam, rho_e = _reference_measures(fresh)
        assert np.array_equal(fresh.element_centroids, centroids)
        assert np.array_equal(fresh.element_diameters, diam)
        assert fresh.rho_E == rho_e
        assert check_regularity(fresh).rho_E == rho_e

        sub = subdivide(fresh)
        for name, ref in _reference_subdivide(fresh).items():
            if name == "fracture_edges":
                for field, value in ref.items():
                    assert np.array_equal(getattr(sub.fracture_edges, field), value), (name, field)
            else:
                assert np.array_equal(getattr(sub, name), ref) and getattr(sub, name).dtype == ref.dtype, name

        if marked is None:
            continue
        closed = _reference_closure(mesh, marked)
        assert np.array_equal(np.flatnonzero(_closure(mesh, marked)), closed)
        _assert_same_mesh(refine(mesh, marked), _reference_refine(mesh, closed))


def test_refine_eight_vertex_cycle_matches_walk():
    """Perturbed quads with a hanging midpoint on every side: 8-term
    centroid sums, which no benchmark cycle reaches.  The area centroids of
    `refine` add pairwise and the vertex centroids in sequence, as the
    walks' per-polygon sums do."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        corners += rng.uniform(-0.2, 0.2, corners.shape)
        mids = 0.5 * (corners + np.roll(corners, -1, axis=0))
        mesh = PolygonalMesh(
            vertices=np.vstack([corners, mids]),
            cycles=cycle_table([(0, 4, 1, 5, 2, 6, 3, 7)], [{4, 5, 6, 7}]),
            fractures=(),
            tolerance=1e-10,
        )
        assert np.array_equal(mesh.element_centroids, _reference_measures(mesh)[0])
        _assert_same_mesh(refine(mesh, [0]), _reference_refine(mesh, [0]))


def _kept_oracle(old, new):
    """Per new polygon, the id of the old polygon with the same vertex-id
    cycle, or -1."""
    ids = {cyc: p for p, cyc in enumerate(polygons(old))}
    return np.array([ids.get(cyc, -1) for cyc in polygons(new)])


def _eight_vertex_mesh():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mids = 0.5 * (corners + np.roll(corners, -1, axis=0))
    return PolygonalMesh(
        vertices=np.vstack([corners, mids]),
        cycles=cycle_table([(0, 4, 1, 5, 2, 6, 3, 7)], [{4, 5, 6, 7}]),
        fractures=(),
        tolerance=1e-10,
    )


@pytest.mark.parametrize("name", ["case1-a0.1", "multifrac", "eight-vertex"])
def test_refine_kept_map_matches_cycle_oracle(name):
    """`kept_from` names exactly the polygons whose cycle survives
    refinement, and a kept polygon keeps its hanging flags.  The marked
    eight-vertex polygon gains no vertex on its sides, yet is refined."""
    if name == "eight-vertex":
        mesh = _eight_vertex_mesh()
    else:
        spec, _, h0 = get_benchmark(name)
        mesh = build_initial_mesh(spec.domain, h0)
    rng = np.random.default_rng(11)
    kept_total = 0
    for _ in range(4):
        marked = rng.choice(mesh.n_elements, max(1, mesh.n_elements // 5), replace=False)
        new = refine(mesh, marked)
        expected = _kept_oracle(mesh, new)
        assert np.array_equal(new.kept_from, expected)
        assert new.parent is mesh
        kept = np.flatnonzero(expected >= 0)
        assert [hanging(new)[p] for p in kept] == [hanging(mesh)[q] for q in expected[kept]]
        kept_total += kept.size
        mesh = new
    assert kept_total > 0


def test_polygon_gaining_a_hanging_midpoint_is_not_kept(two_square_fractured):
    """The right square only gains the left square's midpoint on the shared
    side; its blocks change, so it is not kept."""
    m2 = refine(two_square_fractured, [0])
    assert np.all(m2.kept_from == -1)
    # refining a child of the left square leaves the pentagon alone
    child = next(p for p, cyc in enumerate(polygons(m2)) if 0 in cyc)
    m3 = refine(m2, [child])
    penta = next(p for p, cyc in enumerate(polygons(m2)) if len(cyc) == 5)
    assert penta in m3.kept_from
    assert np.array_equal(m3.kept_from, _kept_oracle(m2, m3))


@pytest.mark.parametrize(
    "marked, culprit",
    [(np.arange(32) == 5, "False"), ([2.7], "2.7"), ([2.0], "2.0"), ([-1], "-1"), ([32], "32")],
    ids=["bool-mask", "fractional", "float", "negative", "too-large"],
)
def test_refine_rejects_bad_marked_entries(marked, culprit):
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    mesh = build_initial_mesh(dom, 0.25)
    with pytest.raises(ValueError, match=f"marked (entry|element) {culprit} "):
        refine(mesh, marked)


@pytest.mark.parametrize(
    "cycle", [(0, 1, 7), (0, 1, -1), (0, 1)], ids=["id-too-large", "negative-id", "two-vertices"]
)
def test_malformed_cycle_rejected(cycle):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="polygon 1 "):
        PolygonalMesh(
            vertices=verts,
            cycles=cycle_table([(0, 1, 2, 3), cycle], [frozenset(), frozenset()]),
            fractures=(),
            tolerance=1e-10,
        )


@pytest.mark.parametrize(
    "table",
    [
        dict(offsets=[0, 4], vertex=[0, 1, 2, 3], hanging=[False] * 3),
        dict(offsets=[0, 5], vertex=[0, 1, 2, 3], hanging=[False] * 4),
        dict(offsets=[0, 5, 4], vertex=[0, 1, 2, 3], hanging=[False] * 4),
    ],
    ids=["short-hanging", "offsets-past-end", "offsets-decreasing"],
)
def test_cycle_table_out_of_sync_rejected(table):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="out of sync"):
        PolygonalMesh(vertices=verts, cycles=CycleTable(**table), fractures=(), tolerance=1e-10)


@pytest.mark.parametrize("name", ["case1-a0.1", "multifrac", "lshape"])
def test_regions_and_params_match_all_segment_distances(name):
    """`element_regions` and `Fracture.param_of` equal a lookup in the table
    of distances from every point to every (fracture, segment): the first
    minimum in (fracture, segment) order wins, bit for bit.  Fracture vertex
    points are passed with the midpoints of the segments, so that ties at
    a shared segment end are met."""
    spec, exact, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)
    def table(segs, pts):
        """Per segment and point: distance, clipped projection, gap."""
        proj = np.stack([np.clip((pts - fr.points[s]) @ fr.seg_tangents[s], 0.0, fr.seg_lengths[s]) for fr, s in segs])
        feet = np.stack([fr.points[s] + p[:, None] * fr.seg_tangents[s] for (fr, s), p in zip(segs, proj)])
        gap = pts - feet
        return np.hypot(gap[..., 0], gap[..., 1]), proj, gap

    segs = [(fr, s) for fr in mesh.fractures for s in range(fr.n_segments)]
    dist, _, gap = table(segs, mesh.element_centroids)
    first = np.argmin(dist, axis=0)
    normal = np.stack([fr.seg_normals[s] for fr, s in segs])[first]
    side = np.einsum("ec,ec->e", gap[first, np.arange(first.size)], normal)
    assert np.array_equal(mesh.element_regions, np.where(side <= 0, 1, 2))

    for fr in mesh.fractures:
        pts = np.concatenate([fr.points, 0.5 * (fr.points[1:] + fr.points[:-1])])
        dist, proj, _ = table([(fr, s) for s in range(fr.n_segments)], pts)
        first = np.argmin(dist, axis=0)
        assert np.array_equal(fr.param_of(pts), fr.arclength[first] + proj[first, np.arange(first.size)])
