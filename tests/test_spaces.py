from dataclasses import is_dataclass, replace
from itertools import permutations
from types import MappingProxyType

import numpy as np
import pytest

from sdgdarcy.adaptivity import AmrConfig, amr_loop, dorfler_mark
from sdgdarcy.assembly import DiscreteSolution
from sdgdarcy.benchmarks import get_benchmark
from sdgdarcy.errors import ConfigError
from sdgdarcy.geometry import (
    BOUNDARY,
    DUAL,
    FRACTURE,
    INTERIOR,
    DomainSpec,
    PolygonalMesh,
    build_initial_mesh,
    refine,
)
from sdgdarcy.quadrature import edge_rule, map_to_triangles, triangle_rule
from sdgdarcy.spaces import (
    SpaceConfig,
    _lattice_nodes,
    _monomial_exponents,
    _monomial_gradients,
    _monomial_values,
    _powers,
    _reference_flux_dofs,
    build_S_h,
    build_V_h,
    build_W_h,
    edge_tables,
    lagrange_1d,
    reference,
    triangle_tables,
)

from conftest import (
    cycle_table,
    flux_basis_divergence,
    flux_basis_values,
    interpolate_flux,
    interpolate_fracture,
    interpolate_pressure,
    make_fracture,
    mass_matrix,
)


@pytest.fixture
def plain_fine():
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=[])
    return build_initial_mesh(dom, 0.5)


@pytest.fixture
def fractured_fine():
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    return build_initial_mesh(dom, 0.25)


def test_space_config_rejects_unsupported_order():
    with pytest.raises(ConfigError):
        SpaceConfig(k=3)
    with pytest.raises(ConfigError):
        SpaceConfig(k=0)


# ---------------------------------------------------------------------------
# dimension oracles


def test_S_dimension_no_fracture(two_square_plain):
    S = build_S_h(two_square_plain, SpaceConfig(k=1))
    # 8 triangles x 3 nodes, minus 2 identifications on the one interior edge
    assert S.ndof == 22
    S2 = build_S_h(two_square_plain, SpaceConfig(k=2))
    assert S2.ndof == 8 * 6 - 3


def test_S_dimension_with_fracture(two_square_fractured):
    S = build_S_h(two_square_fractured, SpaceConfig(k=1))
    # no interior edges: fully discontinuous across the fracture
    assert S.ndof == 24


def test_V_dimension_with_fracture(two_square_fractured):
    V = build_V_h(two_square_fractured, SpaceConfig(k=1))
    assert V.ndof == 48 - 16
    sub = two_square_fractured.subdivision
    n_dual = len(sub.edges_of_kind(DUAL))
    V2 = build_V_h(two_square_fractured, SpaceConfig(k=2))
    assert V2.ndof == 2 * 6 * sub.n_triangles - 3 * n_dual


def test_V_dimension_single_square():
    dom = DomainSpec(rectangles=[(0.0, 0.0, 1.0, 1.0)], fractures=[])
    mesh = build_initial_mesh(dom, 1.0)
    V = build_V_h(mesh, SpaceConfig(k=1))
    assert V.ndof == 24 - 8


def test_W_dimensions():
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    mesh_2 = build_initial_mesh(dom, 0.5)  # 2 fracture edges
    W = build_W_h(mesh_2, SpaceConfig(k=1), dirichlet_tips=[(0, 0), (0, 1)])
    assert W.ndof == 3 and W.n_free == 1

    mesh_1 = build_initial_mesh(dom, 1.0)  # single fracture edge
    W2 = build_W_h(mesh_1, SpaceConfig(k=2), dirichlet_tips=[(0, 0), (0, 1)])
    assert W2.ndof == 3 and W2.n_free == 1

    mesh_4 = build_initial_mesh(dom, 0.25)  # n = 4 edges
    W3 = build_W_h(mesh_4, SpaceConfig(k=1), dirichlet_tips=[(0, 0)])
    assert W3.n_free == 4


def test_W_rejects_bad_tip_spec(two_square_fractured):
    with pytest.raises(ConfigError):
        build_W_h(two_square_fractured, SpaceConfig(k=1), dirichlet_tips=[(1, 0)])
    with pytest.raises(ConfigError):
        build_W_h(two_square_fractured, SpaceConfig(k=1), dirichlet_tips=[(0, 2)])


# ---------------------------------------------------------------------------
# edge orientation


def test_edge_sides_orientation(two_square_fractured):
    sub = two_square_fractured.subdivision
    t1, t2 = sub.edge_tris.T
    assert np.all(t1 >= 0)
    assert np.all(t2[sub.edge_kind == BOUNDARY] == -1)
    assert np.all(t2[sub.edge_kind != BOUNDARY] >= 0)


# ---------------------------------------------------------------------------
# partition of unity and polynomial reproduction


@pytest.mark.parametrize("k", [1, 2])
def test_partition_of_unity(fractured_fine, k):
    S = build_S_h(fractured_fine, SpaceConfig(k=k))
    vals = triangle_tables(k, triangle_rule(2 * k + 2).points).p
    assert vals.shape[-1] == S.nloc
    assert np.max(np.abs(vals.sum(axis=-1) - 1.0)) < 1e-13


@pytest.mark.parametrize("k", [1, 2])
def test_pressure_polynomial_reproduction(fractured_fine, k):
    S = build_S_h(fractured_fine, SpaceConfig(k=k))
    sub = fractured_fine.subdivision

    def poly(p):
        x, y = p[..., 0], p[..., 1]
        out = 1.0 + 2.0 * x - 3.0 * y
        if k == 2:
            out = out + 0.5 * x * x - x * y + 2.0 * y * y
        return out

    coeffs = interpolate_pressure(S, lambda pts, tris: poly(pts))
    ref = triangle_rule(5).points
    vals_ref = triangle_tables(k, ref).p  # (nq, nloc)
    phys = sub.tri_coords[:, 0, None, :] + np.einsum(
        "qr,trc->tqc", ref, np.stack(
            [sub.tri_coords[:, 1] - sub.tri_coords[:, 0],
             sub.tri_coords[:, 2] - sub.tri_coords[:, 0]], axis=1)
    )
    field = np.einsum("ql,tl->tq", vals_ref, coeffs[S.tri_dofs])
    assert np.max(np.abs(field - poly(phys))) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_flux_polynomial_reproduction(fractured_fine, k):
    V = build_V_h(fractured_fine, SpaceConfig(k=k))
    sub = fractured_fine.subdivision

    def poly(p):
        x, y = p[..., 0], p[..., 1]
        ux = 1.0 + x - 2.0 * y
        uy = 3.0 - x + y
        if k == 2:
            ux = ux + x * x - x * y
            uy = uy + y * y + 0.5 * x * x
        return np.stack([ux, uy], axis=-1)

    coeffs = interpolate_flux(V, poly)
    ref = triangle_rule(5).points
    tris = np.arange(sub.n_triangles)
    phys = sub.tri_coords[:, 0, None, :] + np.einsum(
        "qr,trc->tqc", ref, np.stack(
            [sub.tri_coords[:, 1] - sub.tri_coords[:, 0],
             sub.tri_coords[:, 2] - sub.tri_coords[:, 0]], axis=1)
    )
    basis = flux_basis_values(V, tris, phys)  # (nt, nq, nloc, 2)
    field = np.einsum("tqlc,tl->tqc", basis, coeffs[V.tri_dofs])
    assert np.max(np.abs(field - poly(phys))) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_flux_divergence_exact(fractured_fine, k):
    V = build_V_h(fractured_fine, SpaceConfig(k=k))
    sub = fractured_fine.subdivision
    coeffs = interpolate_flux(V, lambda p: np.stack([p[..., 0], p[..., 1]], axis=-1))
    ref = triangle_rule(3).points
    tris = np.arange(sub.n_triangles)
    phys = sub.tri_coords[:, 0, None, :] + np.einsum(
        "qr,trc->tqc", ref, np.stack(
            [sub.tri_coords[:, 1] - sub.tri_coords[:, 0],
             sub.tri_coords[:, 2] - sub.tri_coords[:, 0]], axis=1)
    )
    div = np.einsum("tql,tl->tq", flux_basis_divergence(V, tris, phys), coeffs[V.tri_dofs])
    assert np.max(np.abs(div - 2.0)) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_fracture_polynomial_reproduction(k):
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    mesh = build_initial_mesh(dom, 0.25)
    W = build_W_h(mesh, SpaceConfig(k=k))
    sub = mesh.subdivision

    def poly(s):
        out = 0.5 - 2.0 * s
        if k == 2:
            out = out + 3.0 * s * s
        return out

    coeffs = interpolate_fracture(sub, W, lambda pts, par, fr: poly(par))
    le = sub.edge_length[sub.fracture_edges.edge]
    ts = edge_rule(6).points
    vals = edge_tables(k, ts).p[0]  # (nq, k+1)
    vparam = np.concatenate([[0.0], np.cumsum(le)])
    for j in range(le.size):
        par = vparam[j] + ts * le[j]
        approx = vals @ coeffs[W.edge_dofs[j]]
        assert np.max(np.abs(approx - poly(par))) < 1e-12


# ---------------------------------------------------------------------------
# constraint verification on random members


@pytest.mark.parametrize("k", [1, 2])
def test_flux_normal_continuity_random(fractured_fine, k):
    V = build_V_h(fractured_fine, SpaceConfig(k=k))
    sub = fractured_fine.subdivision
    rng = np.random.default_rng(7)
    duals = sub.edges_of_kind(DUAL)
    ts = edge_rule(2 * k + 2).points
    ev = sub.edge_vertices[duals]
    lo = sub.vertices[ev.min(axis=1)]
    hi = sub.vertices[ev.max(axis=1)]
    pts = lo[:, None, :] + ts[None, :, None] * (hi - lo)[:, None, :]
    worst = 0.0
    for side_pair in [sub.edge_tris[duals]]:
        t1, t2 = side_pair[:, 0], side_pair[:, 1]
        b1 = np.einsum(
            "tqlc,tc->tql", flux_basis_values(V, t1, pts), sub.edge_normal[duals]
        )
        b2 = np.einsum(
            "tqlc,tc->tql", flux_basis_values(V, t2, pts), sub.edge_normal[duals]
        )
        for _ in range(100):
            c = rng.standard_normal(V.ndof)
            tr1 = np.einsum("tql,tl->tq", b1, c[V.tri_dofs[t1]])
            tr2 = np.einsum("tql,tl->tq", b2, c[V.tri_dofs[t2]])
            worst = max(worst, float(np.max(np.abs(tr1 - tr2))))
    assert worst <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_pressure_trace_continuity_random(plain_fine, k):
    S = build_S_h(plain_fine, SpaceConfig(k=k))
    sub = plain_fine.subdivision
    rng = np.random.default_rng(11)
    inner = sub.edges_of_kind(INTERIOR)
    assert inner.size > 0
    ts = edge_rule(2 * k + 2).points
    ev = sub.edge_vertices[inner]
    lo = sub.vertices[ev.min(axis=1)]
    hi = sub.vertices[ev.max(axis=1)]
    pts = lo[:, None, :] + ts[None, :, None] * (hi - lo)[:, None, :]
    t1 = sub.edge_tris[inner, 0]
    t2 = sub.edge_tris[inner, 1]
    r1 = sub.reference_coords(t1, pts)
    r2 = sub.reference_coords(t2, pts)
    b1 = triangle_tables(k, r1).p  # (ne, nq, nloc)
    b2 = triangle_tables(k, r2).p
    worst = 0.0
    for _ in range(100):
        c = rng.standard_normal(S.ndof)
        tr1 = np.einsum("eql,el->eq", b1, c[S.tri_dofs[t1]])
        tr2 = np.einsum("eql,el->eq", b2, c[S.tri_dofs[t2]])
        worst = max(worst, float(np.max(np.abs(tr1 - tr2))))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Dirichlet marking


def test_dirichlet_node_marking(two_square_fractured):
    sub = two_square_fractured.subdivision
    bottom = [
        int(e)
        for e in sub.edges_of_kind(BOUNDARY)
        if abs(sub.edge_midpoint[e, 1]) < 1e-12
    ]
    assert len(bottom) == 2
    S = build_S_h(two_square_fractured, SpaceConfig(k=1), dirichlet_edges=bottom)
    marked = np.flatnonzero(S.dirichlet_mask)
    assert marked.size == 4
    assert np.array_equal(marked, np.sort(S.edge_side_dofs[bottom, 0].ravel()))
    # the marked nodes of every triangle sit on the bottom side
    tc = sub.tri_coords
    nodes = tc[:, :1] + _lattice_nodes(1) @ (tc[:, 1:] - tc[:, :1])
    on = S.dirichlet_mask[S.tri_dofs]
    assert set(S.tri_dofs[on].tolist()) == set(marked.tolist())
    assert np.max(np.abs(nodes[on][:, 1])) < 1e-12
    assert S.n_free == S.ndof - 4


def test_dirichlet_rejects_interior_edge(two_square_plain):
    sub = two_square_plain.subdivision
    inner = sub.edges_of_kind(INTERIOR)
    with pytest.raises(ConfigError):
        build_S_h(two_square_plain, SpaceConfig(k=1), dirichlet_edges=[int(inner[0])])


def test_dirichlet_error_names_the_lowest_stray_edge(two_square_fractured):
    """Among boundary, repeated and stray edges given in any order, the
    ConfigError names the lowest edge that is not a boundary edge."""
    sub = two_square_fractured.subdivision
    boundary = sub.edges_of_kind(BOUNDARY)
    stray = np.concatenate([sub.edges_of_kind(kind) for kind in (INTERIOR, FRACTURE, DUAL)])
    assert stray.size and boundary.min() < stray.min()
    given = np.concatenate([stray[::-1], boundary, stray[:2]])
    with pytest.raises(ConfigError, match=rf"^Dirichlet edge {stray.min()} is not a boundary edge$"):
        build_S_h(two_square_fractured, SpaceConfig(k=1), dirichlet_edges=given)
    with pytest.raises(ConfigError, match=rf"^Dirichlet edge {stray.max()} is not a boundary edge$"):
        build_S_h(two_square_fractured, SpaceConfig(k=1), dirichlet_edges=[*boundary.tolist(), stray.max()])


# ---------------------------------------------------------------------------
# dof numbering against a per-triangle reference


def _reference_S_numbering(sub, k, dirichlet_edges):
    """Pressure node numbering by a walk over the triangles: each triangle
    numbers its new nodes in turn, primal-edge nodes first (the first
    triangle on an interior edge creates them from the lower vertex id)."""
    edge_of = {tuple(sorted(ev)): e for e, ev in enumerate(sub.edge_vertices.tolist())}
    edge_locals = [0, 1] if k == 1 else [0, 3, 1]
    nloc = 3 if k == 1 else 6
    tri_dofs = np.full((sub.n_triangles, nloc), -1, dtype=int)
    dof_edge = []
    shared = {}
    for t, (v0, v1, _) in enumerate(sub.tri_vertices.tolist()):
        e = edge_of[tuple(sorted((v0, v1)))]
        if sub.edge_kind[e] == INTERIOR:
            if e not in shared:
                shared[e] = list(range(len(dof_edge), len(dof_edge) + k + 1))
                dof_edge += [-1] * (k + 1)
            slots = shared[e] if v0 < v1 else shared[e][::-1]
            tri_dofs[t, edge_locals] = slots
        else:
            for loc in edge_locals:
                tri_dofs[t, loc] = len(dof_edge)
                dof_edge.append(e if e in dirichlet_edges else -1)
        for loc in range(nloc):
            if tri_dofs[t, loc] < 0:
                tri_dofs[t, loc] = len(dof_edge)
                dof_edge.append(-1)
    return tri_dofs, np.array(dof_edge)


def _reference_V_numbering(sub, k):
    """Flux dof numbering: k+1 shared dofs per dual edge in edge order, then
    per triangle the dofs of its non-dual sides and its interior moments."""
    edge_of = {tuple(sorted(ev)): e for e, ev in enumerate(sub.edge_vertices.tolist())}
    k1, n_int = k + 1, (3 if k == 2 else 0)
    duals = sub.edges_of_kind(DUAL)
    base = {int(e): i * k1 for i, e in enumerate(duals)}
    counter = duals.size * k1
    tri_dofs = np.full((sub.n_triangles, 3 * k1 + n_int), -1, dtype=int)
    edge_side_dofs = np.full((sub.n_edges, 2, k1), -1, dtype=int)
    for t, tv in enumerate(sub.tri_vertices.tolist()):
        for l in range(3):
            e = edge_of[tuple(sorted((tv[l], tv[(l + 1) % 3])))]
            if sub.edge_kind[e] == DUAL:
                ids = np.arange(base[e], base[e] + k1)
            else:
                ids = np.arange(counter, counter + k1)
                counter += k1
            tri_dofs[t, l * k1 : (l + 1) * k1] = ids
            edge_side_dofs[e, 0 if sub.edge_tris[e, 0] == t else 1] = ids
        tri_dofs[t, 3 * k1 :] = np.arange(counter, counter + n_int)
        counter += n_int
    return tri_dofs, edge_side_dofs, counter


@pytest.mark.parametrize("k", [1, 2])
def test_numbering_matches_triangle_walk(k):
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    mesh = build_initial_mesh(dom, 0.5)
    rng = np.random.default_rng(7)
    for _ in range(3):  # hanging nodes, fracture, interior and boundary edges
        mesh = refine(mesh, rng.choice(mesh.n_elements, mesh.n_elements // 3, replace=False))
    sub = mesh.subdivision
    bnd = sub.edges_of_kind(BOUNDARY)
    dirichlet = set(bnd[sub.edge_midpoint[bnd, 0] < 1.0].tolist())

    S = build_S_h(mesh, SpaceConfig(k), dirichlet_edges=dirichlet)
    tri_dofs, dof_edge = _reference_S_numbering(sub, k, dirichlet)
    assert np.array_equal(S.tri_dofs, tri_dofs)
    assert np.array_equal(S.dirichlet_mask, dof_edge >= 0)
    assert S.ndof == dof_edge.size
    edges = np.array(sorted(dirichlet))
    got_edge = np.full(S.ndof, -1)
    got_edge[S.edge_side_dofs[edges, 0]] = edges[:, None]
    assert np.array_equal(got_edge, dof_edge)
    # the triangles that share a node put it at the same lattice point
    lattice = sub.tri_coords[:, :1] + np.einsum(
        "lj,tjc->tlc", _lattice_nodes(S.k), sub.tri_coords[:, 1:] - sub.tri_coords[:, :1]
    )
    node = np.empty((S.ndof, 2))
    node[S.tri_dofs] = lattice
    assert np.allclose(node[S.tri_dofs], lattice, atol=1e-14)

    V = build_V_h(mesh, SpaceConfig(k))
    tri_dofs, edge_side_dofs, ndof = _reference_V_numbering(sub, k)
    assert np.array_equal(V.tri_dofs, tri_dofs)
    assert np.array_equal(V.edge_side_dofs, edge_side_dofs)
    assert V.ndof == ndof


# ---------------------------------------------------------------------------
# the Piola-mapped flux basis against the physical dof functionals


def _doerfler_fractured_mesh():
    """Three Doerfler refinements of the fractured 2x1 mesh, seeded indicators."""
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    mesh = build_initial_mesh(dom, 0.5)
    rng = np.random.default_rng(5)
    for _ in range(3):
        mesh = refine(mesh, dorfler_mark(rng.random(mesh.n_elements) ** 4, 0.5))
    return mesh


def _sliver_mesh():
    """A 2 x 0.05 strip under a 2 x 0.95 block: the strip's long sides give
    obtuse slivers.  Vertex ids are reversed, so the polygon centroids come
    first and every side runs against its edge's low-to-high order where the
    standard numbering runs with it.  The mesh caches the reversed
    subdivision in place of its own."""
    verts = [[0.0, 0.0], [2.0, 0.0], [2.0, 0.05], [0.0, 0.05], [2.0, 1.0], [0.0, 1.0]]
    mesh = PolygonalMesh(verts, cycle_table([(0, 1, 2, 3), (3, 2, 4, 5)], [(), ()]), [], 1e-9)
    sub = mesh.subdivision
    nv = sub.vertices.shape[0]
    new_id = nv - 1 - np.arange(nv)
    tri_vertices = new_id[sub.tri_vertices]
    sliver = replace(
        sub,
        vertices=sub.vertices[::-1],
        tri_vertices=tri_vertices,
        edge_vertices=new_id[sub.edge_vertices],
        tri_flip=tri_vertices > np.roll(tri_vertices, -1, axis=1),
    )
    vars(mesh)["subdivision"] = sliver  # the spaces of `mesh` are built on it
    return mesh


PIOLA_MESHES = {"doerfler": _doerfler_fractured_mesh, "sliver": _sliver_mesh}


def _tri_sides(sub):
    """The side table as the spaces and the assembly derived it on every
    call: (side, flip), both (nt, 3)."""
    tv = sub.tri_vertices
    side = sub.edge_tris[sub.tri_edges, 0] != np.arange(sub.n_triangles)[:, None]
    return side.astype(int), tv > np.roll(tv, -1, axis=1)


@pytest.mark.parametrize("name", ["case2", "multifrac"])
def test_side_table_matches_the_per_call_derivation(name):
    """`subdivide`'s tri_side and tri_flip equal the per-call derivation, in
    value and dtype, on a benchmark mesh refined three times, which has
    hanging nodes and fracture and boundary edges."""
    spec, _, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)
    rng = np.random.default_rng(3)
    for _ in range(3):
        mesh = refine(mesh, dorfler_mark(rng.random(mesh.n_elements) ** 4, 0.5))
    sub = mesh.subdivision
    kinds = set(sub.edge_kind[sub.tri_edges].ravel().tolist())
    assert mesh.cycles.hanging.any() and kinds == {BOUNDARY, INTERIOR, FRACTURE, DUAL}
    side, flip = _tri_sides(sub)
    assert np.array_equal(sub.tri_side, side) and sub.tri_side.dtype == side.dtype
    assert np.array_equal(sub.tri_flip, flip) and sub.tri_flip.dtype == flip.dtype


def _side_runs_low_to_high(sub):
    a = sub.tri_vertices
    return a < np.roll(a, -1, axis=1)  # (nt, 3): side l runs a[l] -> a[l+1]


def test_piola_meshes_cover_both_side_orientations():
    seen = np.concatenate([_side_runs_low_to_high(make().subdivision) for make in PIOLA_MESHES.values()])
    for l in range(3):
        assert seen[:, l].any() and not seen[:, l].all(), l
    sliver = _sliver_mesh().subdivision
    angles = []
    for tri in sliver.tri_coords:
        e = np.roll(tri, -1, axis=0) - tri
        cos = -np.einsum("ic,ic->i", e, np.roll(e, 1, axis=0))
        angles.append(np.arccos(cos / np.hypot(*e.T) / np.hypot(*np.roll(e, 1, axis=0).T)).max())
    assert np.degrees(max(angles)) > 170.0


def _apply_flux_dofs(sub, V, fields):
    """The local dof functionals of every triangle applied to m fields.

    fields(pts (nt, nq, 2)) -> values (nt, nq, m, 2) of each triangle's own
    fields; returns (nt, nloc, m).  Edge dofs are v.n_e at the Gauss points
    of each side's edge from its lower vertex id; the k=2 moments are the
    two means and the h/|T|-weighted integral against curl(l0 l1 l2), with
    barycentric gradients taken from the physical vertices."""
    rows = []
    for l in range(3):
        e = sub.tri_edges[:, l]
        vals = fields(sub.edge_points(e, edge_rule(2 * V.k + 1).points))
        rows.append(np.einsum("tqmc,tc->tqm", vals, sub.edge_normal[e]))
    if V.k == 2:
        rule = triangle_rule(6)
        qp, qw = map_to_triangles(rule, sub.tri_coords)
        vals = fields(qp)
        area = sub.tri_area
        rows.append(np.einsum("tq,tqmc->tcm", qw, vals) / area[:, None, None])
        x = sub.tri_coords
        grad_l = np.stack(
            [
                np.stack([x[:, (i + 1) % 3, 1] - x[:, (i + 2) % 3, 1],
                          x[:, (i + 2) % 3, 0] - x[:, (i + 1) % 3, 0]], axis=-1)
                for i in range(3)
            ],
            axis=1,
        ) / (2.0 * area)[:, None, None]  # (nt, 3, 2)
        lam = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])  # (nq, 3)
        grad_b = sum(
            (lam[:, (i + 1) % 3] * lam[:, (i + 2) % 3])[None, :, None] * grad_l[:, None, i]
            for i in range(3)
        )
        curl = np.stack([grad_b[..., 1], -grad_b[..., 0]], axis=-1)
        w = sub.tri_diameter / area
        rows.append(w[:, None, None] * np.einsum("tq,tqmc,tqc->tm", qw, vals, curl)[:, None])
    return np.concatenate(rows, axis=1)


def _physical_dual_basis(sub, V):
    """Brute-force basis: vector monomials in (x - centroid) / h, per
    triangle combined by the inverse of their dof matrix.  Returns a
    function (t, pts (nq, 2)) -> (nq, nloc, 2)."""
    exps = [(a, d - a) for d in range(V.k + 1) for a in range(d, -1, -1)]

    def monomials(tris, pts):
        z = (pts - sub.tri_centroid[tris][..., None, :]) / sub.tri_diameter[tris][..., None, None]
        m = np.stack([z[..., 0] ** a * z[..., 1] ** b for a, b in exps], axis=-1)
        out = np.zeros(m.shape + (2, 2))
        out[..., 0, 0] = m
        out[..., 1, 1] = m
        return out.reshape(m.shape[:-1] + (-1, 2))  # (..., 2s, 2)

    tris = np.arange(sub.n_triangles)
    coeff = np.linalg.inv(_apply_flux_dofs(sub, V, lambda pts: monomials(tris, pts)))
    return lambda t, pts: np.einsum("qmc,ml->qlc", monomials(t, pts), coeff[t])


@pytest.mark.parametrize("name", sorted(PIOLA_MESHES))
@pytest.mark.parametrize("k", [1, 2])
def test_piola_basis_is_dual_to_dofs(k, name):
    mesh = PIOLA_MESHES[name]()
    sub = mesh.subdivision
    V = build_V_h(mesh, SpaceConfig(k))
    assert V.sub is sub
    tris = np.arange(sub.n_triangles)
    D = _apply_flux_dofs(sub, V, lambda pts: flux_basis_values(V, tris, pts))
    assert np.max(np.abs(D - np.eye(V.nloc))) < 1e-12


@pytest.mark.parametrize("name", sorted(PIOLA_MESHES))
@pytest.mark.parametrize("k", [1, 2])
def test_mass_blocks_match_physical_quadrature(k, name):
    """assemble_mass against quadrature of the brute-force physical basis,
    one triangle at a time, with an anisotropic K on every element; entries
    are compared relative to sqrt(M_ii M_jj)."""
    mesh = PIOLA_MESHES[name]()
    sub = mesh.subdivision
    V = build_V_h(mesh, SpaceConfig(k))
    rng = np.random.default_rng(3)
    A = rng.standard_normal((mesh.n_elements, 2, 2))
    K_elem = A @ np.swapaxes(A, 1, 2) + np.eye(2)
    basis = _physical_dual_basis(sub, V)
    qp, qw = map_to_triangles(triangle_rule(2 * k + 2), sub.tri_coords)
    oracle = np.zeros((V.ndof, V.ndof))
    for t in range(sub.n_triangles):
        b = basis(t, qp[t])
        assert np.max(np.abs(flux_basis_values(V, [t], qp[t][None])[0] - b)) < 1e-12
        Kinv = np.linalg.inv(K_elem[sub.tri_polygon[t]])
        dofs = V.tri_dofs[t]
        oracle[np.ix_(dofs, dofs)] += np.einsum("q,qlc,cd,qmd->lm", qw[t], b, Kinv, b)
    M = mass_matrix(sub, V, K_elem).toarray()
    d = np.sqrt(np.diag(oracle))
    assert np.max(np.abs(M - oracle) / np.outer(d, d)) < 1e-13


# ---------------------------------------------------------------------------
# edge traces read from the edge dofs against point evaluation


@pytest.mark.parametrize("name", sorted(PIOLA_MESHES))
@pytest.mark.parametrize("k", [1, 2])
def test_edge_traces_match_point_evaluation(k, name):
    """p_trace and u_normal_trace, read from the k+1 dofs on one side of an
    edge, against p_at and u_at . n_e at the edge points, on both sides of
    every edge kind, and the fracture traces in polyline direction; random
    coefficients, compared relative to the largest value."""
    mesh = PIOLA_MESHES[name]()
    sub = mesh.subdivision
    config = SpaceConfig(k)
    S, V, W = build_S_h(mesh, config), build_V_h(mesh, config), build_W_h(mesh, config)
    rng = np.random.default_rng(7)
    sol = DiscreteSolution(
        V=V, S=S, W=W,
        u=rng.standard_normal(V.ndof), p=rng.standard_normal(S.ndof), p_gamma=np.zeros(W.ndof),
    )
    ts = edge_rule(2 * k + 2).points

    def check(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    for kind in (DUAL, INTERIOR, BOUNDARY) + ((FRACTURE,) if mesh.fractures else ()):
        edges = sub.edges_of_kind(kind)
        assert edges.size
        pts = sub.edge_points(edges, ts)
        for side in (0,) if kind == BOUNDARY else (0, 1):
            tris = sub.edge_tris[edges, side]
            check(sol.p_trace(edges, side, ts), sol.p_at(tris, pts))
            un = np.einsum("eqc,ec->eq", sol.u_at(tris, pts), sub.edge_normal[edges])
            check(sol.u_normal_trace(edges, side, ts), un)

    fe = sub.fracture_edges
    if fe.n_edges:
        assert fe.descending.any() and not fe.descending.all()
        pts, _ = sub.fracture_points(ts)
        p1, p2, un1, un2 = sol.fracture_traces(ts)
        for side, p, un in ((0, p1, un1), (1, p2, un2)):
            tris = sub.edge_tris[fe.edge, side]
            check(p, sol.p_at(tris, pts))
            check(un, np.einsum("eqc,ec->eq", sol.u_at(tris, pts), sub.edge_normal[fe.edge]))


def test_solution_reads_the_subdivision_of_its_spaces():
    """A DiscreteSolution on spaces built on the reversed-id sliver takes its
    subdivision from them, not from its mesh, and its point evaluation
    agrees with the edge traces there; pressure and flux spaces on two
    different subdivisions are rejected."""
    mesh = _sliver_mesh()
    sub = mesh.subdivision
    config = SpaceConfig(2)
    S, V, W = build_S_h(mesh, config), build_V_h(mesh, config), build_W_h(mesh, config)
    vars(mesh).pop("subdivision")  # the mesh subdivides anew, with its own ids
    assert sub is not mesh.subdivision
    rng = np.random.default_rng(11)
    values = dict(u=rng.standard_normal(V.ndof), p=rng.standard_normal(S.ndof), p_gamma=np.zeros(W.ndof))
    sol = DiscreteSolution(V=V, S=S, W=W, **values)
    assert sol.sub is sub
    ts = edge_rule(6).points
    edges = np.arange(sub.n_edges)
    tris = sub.edge_tris[edges, 0]
    un = np.einsum("eqc,ec->eq", sol.u_at(tris, sub.edge_points(edges, ts)), sub.edge_normal[edges])
    assert np.max(np.abs(sol.u_normal_trace(edges, 0, ts) - un)) <= 1e-13 * np.max(np.abs(un))

    other = build_S_h(mesh, config)
    with pytest.raises(ValueError, match="different subdivisions"):
        DiscreteSolution(V=V, S=other, W=W, **values)


@pytest.mark.parametrize("k", [1, 2])
def test_lagrange_1d_derivatives_match_monomial_form(k):
    """Values and first and second derivatives of the 1D Lagrange basis,
    by the product rule, against the derivatives of its monomial form; the
    second derivative is 0 at k=1 and exactly (4, -8, 4) at k=2."""
    P = np.polynomial.polynomial
    nodes = np.linspace(0.0, 1.0, k + 1)
    ts = edge_rule(6).points
    coeff = np.linalg.inv(np.vander(nodes, k + 1, increasing=True))  # column j: basis j
    for order in range(3):
        ref = P.polyval(ts, P.polyder(coeff, order)).T
        assert np.max(np.abs(lagrange_1d(nodes, ts, order) - ref)) <= 1e-12
    exact = [0.0, 0.0] if k == 1 else [4.0, -8.0, 4.0]
    assert np.array_equal(lagrange_1d(nodes, ts, 2), np.tile(exact, (ts.size, 1)))


def _lagrange_value(nodes, t, order):
    """The product rule at one parameter t, (len(nodes),): basis j is the
    product of (t - x_i) / (x_j - x_i) over i != j, and each ordered choice
    of `order` factors to differentiate adds one term."""
    m = nodes.size
    out = np.zeros(m)
    for j in range(m):
        others = [i for i in range(m) if i != j]
        for picked in permutations(others, order):
            term = 1.0 / np.prod(nodes[j] - nodes[list(picked)])
            for i in others:
                if i not in picked:
                    term *= (t - nodes[i]) / (nodes[j] - nodes[i])
            out[j] += term
    return out


@pytest.mark.parametrize("nodes", ["lattice", "gauss"])
@pytest.mark.parametrize("k", [1, 2])
def test_lagrange_1d_is_exact_value_by_value_and_read_only(k, nodes):
    """Through the pressure's lattice nodes and the flux dofs' Gauss points,
    at shared parameters and at per-edge ones flipped to 1 - t on some
    edges, for orders 0-2, every row is bit-equal to the product rule
    evaluated at its parameter alone; writing into the result raises."""
    nodes = np.linspace(0.0, 1.0, k + 1) if nodes == "lattice" else edge_rule(2 * k + 1).points
    ts = edge_rule(6).points
    per_edge = np.where(np.array([[False], [True], [True], [False]]), 1.0 - ts, ts)
    for order in range(3):
        for t in (ts, per_edge):
            ref = np.array([_lagrange_value(nodes, v, order) for v in t.ravel()]).reshape(t.shape + (k + 1,))
            got = lagrange_1d(nodes, t, order)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1.0


@pytest.mark.parametrize("name", sorted(PIOLA_MESHES))
def test_grad_p_exact_on_interpolated_quadratic(name):
    """grad_p_at_ref of the k=2 interpolant of a quadratic pressure is the
    exact gradient at the images of shared reference points, on every
    triangle and on a subset of them."""
    mesh = PIOLA_MESHES[name]()
    sub = mesh.subdivision
    config = SpaceConfig(2)
    S, V, W = build_S_h(mesh, config), build_V_h(mesh, config), build_W_h(mesh, config)

    def poly(p):
        x, y = p[..., 0], p[..., 1]
        return 1.0 + 2.0 * x - 3.0 * y + 0.5 * x * x - x * y + 2.0 * y * y

    def grad(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([2.0 + x - y, -3.0 - x + 4.0 * y], axis=-1)

    sol = DiscreteSolution(
        V=V, S=S, W=W,
        u=np.zeros(V.ndof), p=interpolate_pressure(S, lambda pts, tris: poly(pts)), p_gamma=np.zeros(W.ndof),
    )
    rule = triangle_rule(6)
    exact = grad(map_to_triangles(rule, sub.tri_coords)[0])
    for tris in (slice(None), np.arange(1, sub.n_triangles, 2)):
        got = sol.grad_p_at_ref(rule.points, tris)
        assert np.max(np.abs(got - exact[tris])) <= 1e-12 * np.max(np.abs(exact))


# ---------------------------------------------------------------------------
# reference tables


def _per_call_tables(k):
    """Every table of `reference(k)` as its consumers derived it on each
    call before the tables were stored: the oracle for `reference`."""
    exps = _monomial_exponents(k)
    nodes = _lattice_nodes(k)
    coeff = np.linalg.inv(_monomial_values(exps, nodes))
    lattice = np.linspace(0.0, 1.0, k + 1)
    gauss = edge_rule(2 * k + 1).points
    edge, mean, curl = _reference_flux_dofs(k)
    out = {
        "exps": exps, "nodes": nodes, "coeff": coeff, "edge_nodes": lattice, "gauss_ts": gauss,
        "flux_mean": mean, "flux_curl": curl,
        "flux_inv": np.linalg.inv(edge) if k == 1 else None,
    }
    # _edge_pseudoinverse, at k=2
    _, _, vt = np.linalg.svd(edge)
    out["flux_pinv"], out["flux_null"] = (np.linalg.pinv(edge), vt[edge.shape[0] :].T.copy()) if k == 2 else (None, None)
    for d in (2 * k + 2, 2 * k + 4, 2 * k + 12):
        pts = triangle_rule(d).points
        g = _monomial_gradients(exps, pts)
        out[f"triangles[{d}].mono"] = _monomial_values(exps, pts)
        out[f"triangles[{d}].div"] = g.reshape(g.shape[:-2] + (-1,))
        out[f"triangles[{d}].p"] = _monomial_values(exps, pts) @ coeff
        out[f"triangles[{d}].grad_p"] = np.einsum("...mc,ml->...lc", g, coeff)
    for d in (2 * k + 1, 2 * k + 2, 2 * k + 4, 2 * k + 12, max(2 * k - 2, 0)):
        ts = edge_rule(d).points
        for order in range(3):
            out[f"edges[{d}].p[{order}]"] = lagrange_1d(lattice, ts, order)
        out[f"edges[{d}].u"] = lagrange_1d(gauss, ts)
    # assemble_mass's M^ and assemble_bh's B^ and E
    rule, erule = triangle_rule(2 * k + 2), edge_rule(2 * k + 2)
    m = _monomial_values(exps, rule.points)
    gref = np.einsum("...mc,ml->...lc", _monomial_gradients(exps, rule.points), coeff)
    out["mass"] = m.T @ (rule.weights[:, None] * m)
    out["bh"] = np.einsum("q,qsc,qi->sic", rule.weights, gref, m).reshape(nodes.shape[0], -1)
    ts, ws = erule.points, erule.weights
    out["bh_edge"] = lagrange_1d(lattice, ts).T @ (ws[:, None] * lagrange_1d(gauss, ts))
    # assemble_interface's edge mass
    lam = lagrange_1d(lattice, ts)
    out["edge_mass"] = lam.T @ (ws[:, None] * lam)
    # data_oscillation's projections
    rule, erule = triangle_rule(2 * k + 12), edge_rule(2 * k + 12)
    mono = _monomial_values(exps, rule.points)
    wm = rule.weights[:, None] * mono
    out["osc_proj"] = wm @ np.linalg.inv(mono.T @ wm)
    mono = _powers(erule.points - 0.5, k)
    out["osc_mono_1d"] = mono
    out["osc_gram_1d"] = np.einsum("q,qi,qj->ij", erule.weights, mono, mono)
    return out


def _leaves(value, name=""):
    """(name, array or None) of every table in a `Reference`, named as
    `_per_call_tables` names them."""
    if is_dataclass(value):
        for field, v in vars(value).items():
            yield from _leaves(v, f"{name}.{field}" if name else field)
    elif isinstance(value, (MappingProxyType, tuple)):
        for key, v in value.items() if isinstance(value, MappingProxyType) else enumerate(value):
            yield from _leaves(v, f"{name}[{key}]")
    elif value is None or isinstance(value, np.ndarray):
        yield name, value


@pytest.mark.parametrize("k", [1, 2])
def test_reference_tables_are_the_per_call_derivations(k):
    """`reference(k)` stores exactly the per-call derivations, each with its
    bits, shape and dtype, and read-only."""
    stored, oracle = dict(_leaves(reference(k))), _per_call_tables(k)
    assert stored.keys() == oracle.keys()
    for name, want in oracle.items():
        got = stored[name]
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name


@pytest.mark.parametrize("k", [1, 2])
def test_spaces_read_the_tables_of_a_stored_rule(k):
    """`triangle_tables` and `edge_tables` give a stored rule's tables, with
    the bits of tabulating its points; a rule that `reference` does not
    store is a KeyError that names its kind and degree."""
    for tables, rule in ((triangle_tables, triangle_rule(2 * k + 4)), (edge_tables, edge_rule(2 * k + 2))):
        got, want = tables(k, rule), tables(k, rule.points)
        assert got is tables(k, rule)
        for (name, g), (_, w) in zip(_leaves(got), _leaves(want), strict=True):
            assert g.tobytes() == w.tobytes() and g.shape == w.shape, name
    with pytest.raises(KeyError, match=f"triangle rule of degree 30 at k={k}"):
        triangle_tables(k, triangle_rule(30))
    with pytest.raises(KeyError, match=f"edge rule of degree 30 at k={k}"):
        edge_tables(k, edge_rule(30))


def _random_solution(mesh, k, seed):
    config = SpaceConfig(k)
    V, S, W = build_V_h(mesh, config), build_S_h(mesh, config), build_W_h(mesh, config)
    rng = np.random.default_rng(seed)
    return DiscreteSolution(
        V=V, S=S, W=W, u=rng.standard_normal(V.ndof), p=rng.standard_normal(S.ndof),
        p_gamma=rng.standard_normal(W.ndof),
    )


@pytest.mark.parametrize("k", [1, 2])
def test_fracture_traces_read_the_reversed_row_bit_for_bit(k):
    """`fracture_traces` picks the row of 1 - ts on descending edges from
    one table of two rows; the oracle evaluates each edge's own parameters,
    reversed where the edge descends, and gets the same bits.  lshape's
    initial mesh has edges of both directions."""
    spec, _, h0 = get_benchmark("lshape")
    sol = _random_solution(build_initial_mesh(spec.domain, h0), k, seed=5)
    fe = sol.sub.fracture_edges
    assert 0 < fe.descending.sum() < fe.n_edges
    ts = edge_rule(2 * k + 4).points
    s = np.where(fe.descending[:, None], 1.0 - ts, ts)
    ref = reference(k)
    want = [
        (lagrange_1d(nodes, s) @ x[dofs[fe.edge, side]][..., None])[..., 0]
        for nodes, x, dofs in ((ref.edge_nodes, sol.p, sol.S.edge_side_dofs), (ref.gauss_ts, sol.u, sol.V.edge_side_dofs))
        for side in (0, 1)
    ]
    for got, w in zip(sol.fracture_traces(ts), want, strict=True):
        assert got.shape == w.shape and got.tobytes() == w.tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_p_gamma_at_orders_match_the_einsums(k):
    """`p_gamma_at(at, order)` has the bits of the per-order einsums it
    replaced: the value, dp/dt over the edge length and d2p/dt2 over its
    square, at a stored rule and at the fracture ends."""
    spec, _, h0 = get_benchmark("lshape")
    sol = _random_solution(build_initial_mesh(spec.domain, h0), k, seed=6)
    coef = sol.p_gamma[sol.W.edge_dofs]
    le = sol.sub.edge_length[sol.sub.fracture_edges.edge]
    nodes = reference(k).edge_nodes
    erule, ends = edge_rule(2 * k + 2), np.array([0.0, 1.0])
    for at, ts, order in [(erule, erule.points, 0), (erule, erule.points, 1), (erule, erule.points, 2), (ends, ends, 1)]:
        want = np.einsum("qj,ej->eq", lagrange_1d(nodes, ts, order), coef)
        want = want / le[:, None] ** 2 if order == 2 else want / le[:, None] if order == 1 else want
        got = sol.p_gamma_at(at, order)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), order


def test_reference_is_built_once_per_order():
    """One adaptive loop builds the tables of its order once, on first use;
    a second loop builds none."""
    spec, exact, h0 = get_benchmark("case1-a0.1")
    config = AmrConfig(k=2, max_iterations=4)
    reference.cache_clear()
    history = amr_loop(build_initial_mesh(spec.domain, h0), spec, config, exact=exact)
    assert len(history.records) == 4
    assert reference.cache_info().misses == 1
    amr_loop(build_initial_mesh(spec.domain, h0), spec, config, exact=exact)
    assert reference.cache_info().misses == 1
