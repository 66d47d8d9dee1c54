import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdgdarcy.adaptivity import dorfler_mark
from sdgdarcy.errors import EmptyDomain, FractureNotAligned, MeshError, NotStarShaped
from sdgdarcy.geometry import (
    BOUNDARY,
    DUAL,
    FRACTURE,
    INTERIOR,
    DomainSpec,
    PolygonalMesh,
    _closure,
    build_initial_mesh,
    check_regularity,
    refine,
    subdivide,
)

from conftest import make_fracture


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
    sizes = sorted(len(c) for c in m2.polygons)
    assert sizes == [4, 4, 4, 4, 5]
    penta = [i for i, c in enumerate(m2.polygons) if len(c) == 5][0]
    assert len(m2.hanging[penta]) == 1
    (h,) = m2.hanging[penta]
    assert np.allclose(m2.vertices[h], [1.0, 0.5])
    sub = m2.subdivision
    assert sub.edges_of_kind(FRACTURE).size == 2
    fm = sub.fracture_meshes[0]
    assert fm.n_edges == 2
    assert np.allclose(sub.vertices[fm.vertex_ids[0]], [1.0, 0.0])
    assert np.allclose(sub.vertices[fm.vertex_ids[-1]], [1.0, 1.0])
    assert abs(fm.edge_length.sum() - 1.0) < 1e-12
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
    for i, cyc in enumerate(m1.polygons):
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
    assert rep.ok(0.2, 0.2)


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
        polygons=[(0, 1, 2, 3)],
        hanging=[frozenset()],
        fractures=(),
        tolerance=1e-10,
    )
    rep = check_regularity(mesh)
    assert rep.rho_S < 0.2
    assert not rep.ok(rho_S_floor=0.2)


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


def test_empty_domain_rejected():
    with pytest.raises(EmptyDomain):
        DomainSpec(rectangles=[])


def test_not_star_shaped_rejected():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5], [0.0, 2.0]])
    mesh = PolygonalMesh(
        vertices=verts,
        polygons=[(0, 1, 2, 3)],
        hanging=[frozenset()],
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
        fm = sub.fracture_meshes[0]
        assert abs(fm.edge_length.sum() - 1.0) < 1e-12
        assert np.allclose(sub.vertices[fm.vertex_ids[0]], [1.0, 0.0], atol=1e-12)
        assert np.allclose(sub.vertices[fm.vertex_ids[-1]], [1.0, 1.0], atol=1e-12)
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
    for cyc, hang in zip(mesh.polygons, mesh.hanging):
        n = len(cyc)
        for i, v in enumerate(cyc):
            if v not in hang:
                continue
            prev, nxt = cyc[i - 1], cyc[(i + 1) % n]
            assert prev not in hang and nxt not in hang
            mid = 0.5 * (mesh.vertices[prev] + mesh.vertices[nxt])
            assert np.allclose(mesh.vertices[v], mid, atol=1e-12)


def _doerfler_refinements(data):
    """Yield (mesh, marked) along three Doerfler refinements of the
    fractured 2x1 mesh, with drawn indicators and theta, then the last
    mesh with marked None."""
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    mesh = build_initial_mesh(dom, 0.5)
    for _ in range(3):
        n = mesh.n_elements
        ind = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        theta = data.draw(st.floats(0.1, 0.9))
        marked = dorfler_mark(np.array(ind) ** 4, theta)
        yield mesh, marked
        mesh = refine(mesh, marked)
    yield mesh, None


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_incidence_table_under_doerfler_refinement(data):
    for mesh, _ in _doerfler_refinements(data):
        _check_incidence_and_irregularity(mesh)


def _reference_measures(mesh):
    """Per-polygon walk: vertex centroids, diameters and rho_E."""
    centroids = np.empty((mesh.n_elements, 2))
    diam = np.empty(mesh.n_elements)
    rho_e = np.inf
    for i, cyc in enumerate(mesh.polygons):
        pts = mesh.vertices[list(cyc)]
        centroids[i] = pts.mean(axis=0)
        d = pts[:, None, :] - pts[None, :, :]
        diam[i] = np.sqrt((d * d).sum(-1).max())
        e = np.roll(pts, -1, axis=0) - pts
        rho_e = min(rho_e, np.hypot(e[:, 0], e[:, 1]).min() / diam[i])
    return centroids, diam, float(rho_e)


def _reference_subdivide(mesh):
    """Vertex-pair dict walk over the polygons: every Subdivision array and
    the fields of each FractureLineMesh, by name."""
    nv = mesh.vertices.shape[0]
    centroids = _reference_measures(mesh)[0]
    all_vertices = np.vstack([mesh.vertices, centroids])
    tri_v, tri_poly, tri_primal, ranges = [], [], [], []
    primal = {}  # sorted vertex pair -> edge id
    primal_adj = {}  # sorted vertex pair -> triangles
    for p, cyc in enumerate(mesh.polygons):
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
    out.update(
        edge_vertices=edge_v,
        edge_kind=edge_kind,
        edge_tris=edge_tris,
        edge_normal=edge_normal,
        edge_length=edge_len,
        edge_midpoint=edge_mid,
        tri_edges=np.column_stack([tri_primal, n_primal + np.array(nxt), n_primal + np.arange(nt)]),
        edge_fracture=edge_frac,
    )

    for fi, fr in enumerate(mesh.fractures):
        ids = np.flatnonzero(edge_frac == fi)
        mids = 0.5 * (all_vertices[edge_v[ids, 0]] + all_vertices[edge_v[ids, 1]])
        ids = ids[np.argsort(fr.param_of(mids), kind="stable")]
        verts = []
        for eid in ids:
            a, b = edge_v[eid]
            pa, pb = fr.param_of(all_vertices[[a, b]])
            lo, hi = (a, b) if pa <= pb else (b, a)
            assert not verts or verts[-1] == lo
            verts += [lo, hi] if not verts else [hi]
        out[f"fracture {fi}"] = dict(
            fracture_index=fi,
            edge_ids=ids,
            vertex_ids=np.array(verts),
            edge_segment=edge_seg[ids],
            edge_tangent=fr.seg_tangents[edge_seg[ids]],
            edge_length=edge_len[ids],
            vertex_arclength=np.concatenate([[0.0], np.cumsum(edge_len[ids])]),
        )
    return out


def _reference_closure(mesh, marked):
    """Worklist over a vertex-pair adjacency dict: the marked set grown
    until no unmarked neighbour keeps a hanging node on a shared edge."""
    adj = {}
    for p, cyc in enumerate(mesh.polygons):
        for i in range(len(cyc)):
            a, b = cyc[i], cyc[(i + 1) % len(cyc)]
            adj.setdefault((min(a, b), max(a, b)), []).append(p)
    marked = set(int(m) for m in marked)
    work = sorted(marked)
    while work:
        nxt = []
        for p in work:
            cyc = mesh.polygons[p]
            for i in range(len(cyc)):
                a, b = cyc[i], cyc[(i + 1) % len(cyc)]
                for q in adj[(min(a, b), max(a, b))]:
                    if q != p and q not in marked and (a in mesh.hanging[q] or b in mesh.hanging[q]):
                        marked.add(q)
                        nxt.append(q)
        work = sorted(set(nxt))
    return sorted(marked)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_geometry_matches_polygon_walk(data):
    """The cycle-table geometry equals the per-polygon walks bit for bit;
    refine is compared with the walk's closed set through its unchanged
    child construction."""
    for mesh, marked in _doerfler_refinements(data):
        fresh = PolygonalMesh(mesh.vertices, mesh.polygons, mesh.hanging, mesh.fractures, mesh.tolerance)
        centroids, diam, rho_e = _reference_measures(fresh)
        assert np.array_equal(fresh.element_centroids, centroids)
        assert np.array_equal(fresh.element_diameters, diam)
        assert fresh.rho_E == rho_e
        assert check_regularity(fresh).rho_E == rho_e

        sub = subdivide(fresh)
        for name, ref in _reference_subdivide(fresh).items():
            if name.startswith("fracture"):
                fm = sub.fracture_meshes[ref["fracture_index"]]
                for field, value in ref.items():
                    assert np.array_equal(getattr(fm, field), value), (name, field)
            else:
                assert np.array_equal(getattr(sub, name), ref), name

        if marked is None:
            continue
        closed = _reference_closure(mesh, marked)
        assert np.array_equal(np.flatnonzero(_closure(mesh, marked)), closed)
        got, ref = refine(mesh, marked), refine(mesh, closed)
        assert np.array_equal(got.vertices, ref.vertices)
        assert got.polygons == ref.polygons
        assert got.hanging == ref.hanging


@pytest.mark.parametrize(
    "cycle", [(0, 1, 7), (0, 1, -1), (0, 1)], ids=["id-too-large", "negative-id", "two-vertices"]
)
def test_malformed_cycle_rejected(cycle):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="polygon 1 "):
        PolygonalMesh(
            vertices=verts,
            polygons=[(0, 1, 2, 3), cycle],
            hanging=[frozenset(), frozenset()],
            fractures=(),
            tolerance=1e-10,
        )
