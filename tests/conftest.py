import functools
import itertools
import math

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import strategies as st

from sdgdarcy.adaptivity import dorfler_mark
from sdgdarcy.assembly import (
    _block,
    _coo,
    _sym,
    assemble_bh,
    assemble_fracture_stiffness,
    assemble_interface,
    assemble_mass,
    assemble_rhs,
    build_spaces,
    dirichlet_values,
)
from sdgdarcy.errors import ConfigError
from sdgdarcy.geometry import (
    BOUNDARY,
    FRACTURE,
    INTERIOR,
    CycleTable,
    DomainSpec,
    Fracture,
    PolygonalMesh,
    build_initial_mesh,
    refine,
)
from sdgdarcy.quadrature import edge_rule, map_to_triangles, triangle_rule
from sdgdarcy.spaces import _SIDE_NODES, _bubble_curl_ref, edge_tables, reference, triangle_tables


def make_fracture(points, kappa_n=100.0, kappa_t=100.0, thickness=0.01):
    return Fracture(
        points=np.asarray(points, dtype=float),
        kappa_n=kappa_n,
        kappa_t=kappa_t,
        thickness=thickness,
    )


def doerfler_refinements(data, mesh):
    """Yield (mesh, marked) along three Doerfler refinements of mesh, with
    drawn indicators and theta, then the last mesh with marked None."""
    for _ in range(3):
        n = mesh.n_elements
        ind = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        theta = data.draw(st.floats(0.1, 0.9))
        marked = dorfler_mark(np.array(ind) ** 4, theta)
        yield mesh, marked
        mesh = refine(mesh, marked)
    yield mesh, None


def jittered(mesh, amp, seed):
    """mesh with every vertex off the boundary and the fractures moved by a
    seeded uniform draw in [-amp h, amp h]^2, h the shortest cycle edge:
    general quadrilaterals in place of squares, on the same boundary and
    fractures."""
    cyc = mesh.cycles
    v = mesh.vertices
    h = np.hypot(*(v[cyc.vertex[cyc.next]] - v[cyc.vertex]).T).min()
    sub = mesh.subdivision
    fixed = sub.edge_vertices[np.isin(sub.edge_kind, (BOUNDARY, FRACTURE))].ravel()
    free = np.setdiff1d(np.arange(v.shape[0]), fixed)
    moved = v.copy()
    moved[free] += np.random.default_rng(seed).uniform(-amp * h, amp * h, (free.size, 2))
    return PolygonalMesh(moved, mesh.cycles, mesh.fractures, mesh.tolerance)


@pytest.fixture
def two_square_fractured():
    """(0,2)x(0,1) split by the fracture {1}x(0,1), one square per side."""
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    return build_initial_mesh(dom, 1.0)


@pytest.fixture
def two_square_plain():
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)])
    return build_initial_mesh(dom, 1.0)


# -- mesh views ------------------------------------------------------------
# cached per mesh, as the loops over polygons in the tests read them often


@functools.lru_cache(maxsize=16)
def polygons(mesh) -> tuple:
    """Per polygon, the tuple of its cycle's vertex ids."""
    v, o = mesh.cycles.vertex.tolist(), mesh.cycles.offsets.tolist()
    return tuple(tuple(v[a:b]) for a, b in zip(o[:-1], o[1:]))


@functools.lru_cache(maxsize=16)
def hanging(mesh) -> tuple:
    """Per polygon, the frozenset of its absorbed hanging nodes."""
    v, o, h = mesh.cycles.vertex.tolist(), mesh.cycles.offsets.tolist(), mesh.cycles.hanging.tolist()
    return tuple(frozenset(itertools.compress(v[a:b], h[a:b])) for a, b in zip(o[:-1], o[1:]))


def cycle_table(cycles, hang=None) -> CycleTable:
    """The `CycleTable` of hand-written vertex-id cycles; hang[p] holds the
    vertices of cycle p that are absorbed hanging nodes (none when omitted)."""
    cycles = [list(cyc) for cyc in cycles]
    hang = [()] * len(cycles) if hang is None else [set(h) for h in hang]
    assert len(hang) == len(cycles), "hanging bookkeeping out of sync with the cycles"
    return CycleTable(
        offsets=np.cumsum([0] + [len(cyc) for cyc in cycles]),
        vertex=[v for cyc in cycles for v in cyc],
        hanging=[v in h for cyc, h in zip(cycles, hang) for v in cyc],
    )


# -- rates and exact interface conditions ------------------------------------


def convergence_slope(ns, values, last: int = 4) -> float:
    """Least-squares slope of log(values) against log(ns) over the last
    `last` points."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.size < 2:
        raise ConfigError("slope needs at least two points")
    n = min(last, ns.size)
    return float(np.polyfit(np.log(ns[-n:]), np.log(values[-n:]), 1)[0])


def _interface_samples(fr: Fracture):
    """(points, arclength, normal, eta) of 100 points along the fracture, at
    the centres of 100 cells of equal arclength."""
    params = (np.arange(100) + 0.5) / 100.0 * fr.arclength[-1]
    seg = np.searchsorted(fr.arclength[1:-1], params, side="right")
    pts = fr.points[seg] + (params - fr.arclength[seg])[:, None] * fr.seg_tangents[seg]
    return pts, params, fr.seg_normals[seg], fr.normal_resistance[seg]


def verify_interface(exact, spec) -> float:
    """Max violation of the two interface conditions by an exact solution,
    sampled along the fractures of `spec`.

    Checks eta*{u.n} = [p] and alpha*[u.n] = {p} - p_gamma at 100 points per
    fracture, with side 1 the side the fracture normal points out of.
    """
    fractures = spec.domain.fractures
    if not fractures:
        return 0.0
    pts, params, nrm, eta = (np.concatenate(a) for a in zip(*map(_interface_samples, fractures)))
    ones = np.ones(params.size, dtype=int)
    un1 = np.einsum("nc,nc->n", exact.u(pts, ones), nrm)
    un2 = np.einsum("nc,nc->n", exact.u(pts, 2 * ones), nrm)
    p1 = exact.p(pts, ones)
    p2 = exact.p(pts, 2 * ones)
    pg = exact.p_gamma(pts, params, np.repeat(np.arange(len(fractures)), 100))

    r1 = eta * 0.5 * (un1 + un2) - (p1 - p2)
    r2 = spec.exchange_resistance(eta) * (un1 - un2) - (0.5 * (p1 + p2) - pg)
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))


# -- physical bases and interpolants of the spaces --------------------------


def pressure_basis_values(S, tris, pts):
    """Pressure basis values at physical points; (n, nq, 2) -> (n, nq, nloc)."""
    return triangle_tables(S.k, S.sub.reference_coords(tris, pts)).p


def flux_basis_values(V, tris, pts):
    """Flux basis fields at physical points; (n, nq, 2) -> (n, nq, nloc, 2)."""
    m = triangle_tables(V.k, V.sub.reference_coords(tris, pts)).mono  # (n, nq, s)
    n, nq, s = m.shape
    C = V.ref_coeff[tris].reshape(n, s, 2 * V.nloc)
    vhat = np.swapaxes((m @ C).reshape(n, nq, 2, V.nloc), 2, 3)
    return V.piola(tris, vhat)


def flux_basis_divergence(V, tris, pts):
    """Flux basis divergences at physical points; (n, nq, 2) -> (n, nq, nloc)."""
    div = triangle_tables(V.k, V.sub.reference_coords(tris, pts)).div @ V.ref_coeff[tris]
    return div / (2.0 * V.sub.tri_area[tris])[:, None, None]


def interpolate_pressure(S, fn):
    """Nodal interpolation in S_h; fn(points (n,2), triangles (n,)) -> values.
    Each triangle maps the reference nodes to its own node points."""
    nt, nloc = S.tri_dofs.shape
    tris = np.repeat(np.arange(nt), nloc)
    tc = S.sub.tri_coords
    pts = (tc[:, :1, :] + reference(S.k).nodes @ (tc[:, 1:, :] - tc[:, :1, :])).reshape(-1, 2)
    vals = np.asarray(fn(pts, tris), dtype=float)
    out = np.zeros(S.ndof)
    out[S.tri_dofs.ravel()] = vals
    return out


def interpolate_flux(V, fn):
    """Dof-functional interpolation in V_h of a vector field fn(pts (...,2)) -> (...,2)."""
    sub = V.sub
    out = np.zeros(V.ndof)
    k1 = V.k + 1
    ts = edge_rule(2 * V.k + 1).points  # the k+1 Gauss points of the edge dofs
    nt = sub.n_triangles
    for l in range(3):
        e = sub.tri_edges[:, l]
        vals = np.asarray(fn(sub.edge_points(e, ts)))
        out[V.tri_dofs[:, l * k1 : (l + 1) * k1]] = np.einsum("tqc,tc->tq", vals, sub.edge_normal[e])
    if V.k == 2:
        rule = triangle_rule(2 * V.k + 2)
        qp, qw = map_to_triangles(rule, sub.tri_coords)
        fv = np.asarray(fn(qp.reshape(-1, 2))).reshape(nt, -1, 2)
        area = sub.tri_area
        mean = np.einsum("tq,tqc->tc", qw, fv) / area[:, None]
        curl = V.piola(slice(None), np.broadcast_to(_bubble_curl_ref(rule.points), qp.shape))
        mom = np.einsum("tq,tqc,tqc->t", qw, fv, curl) * (sub.tri_diameter / area)
        base = 3 * k1
        out[V.tri_dofs[:, base]] = mean[:, 0]
        out[V.tri_dofs[:, base + 1]] = mean[:, 1]
        out[V.tri_dofs[:, base + 2]] = mom
    return out


def interpolate_fracture(sub, W, fn):
    """Nodal interpolation in W_h on the subdivision `sub`; fn(points (n,2),
    arclength (n,), fracture (n,)) -> values."""
    nodes = np.linspace(0.0, 1.0, W.k + 1)
    pts, par = sub.fracture_points(nodes)  # (n_fe, k+1, 2), (n_fe, k+1)
    fracture = np.repeat(sub.fracture_edges.fracture, nodes.size)
    out = np.zeros(W.ndof)
    out[W.edge_dofs] = np.asarray(fn(pts.reshape(-1, 2), par.ravel(), fracture)).reshape(W.edge_dofs.shape)
    return out


# -- estimator and error sums ---------------------------------------------


def fracture_edge_sq(bd):
    """Per fracture edge, the squared total of the three edgewise families."""
    return bd.fracture_sq.sum(axis=1)


def total_sq(bd):
    """The sum of the squared family values of an EstimatorBreakdown."""
    return float((bd.terms**2).sum())


def parts_sq(er):
    """The sum of the squared components of an ErrorReport."""
    return (
        er.err_Q**2
        + er.v_exchange**2
        + er.v_jump**2
        + er.v_grad**2
        + er.v_fracture**2
        + er.flux_jump**2
        + er.flux_avg**2
    )


def assemble_bh_star(sub, V, S):
    """Facewise adjoint pressure-gradient form, the oracle for B^T.

    Rows are flux dofs, columns pressure dofs:

    b_h*(p, v) = sum_{interior e} <p, [v.n]>_e - sum_tau (p, div v)_tau
               + sum_{fracture e} (<[p], {v.n}>_e + <{p}, [v.n]>_e).

    It agrees with B^T on pressures with zero boundary trace.
    """
    k = V.k
    rows, cols, vals = [], [], []

    def add(dofs_i, dofs_j, local):
        rows.append(np.broadcast_to(dofs_i[:, :, None], local.shape).ravel())
        cols.append(np.broadcast_to(dofs_j[:, None, :], local.shape).ravel())
        vals.append(local.ravel())

    rule = triangle_rule(2 * k + 2)
    qp, qw = map_to_triangles(rule, sub.tri_coords)
    div = flux_basis_divergence(V, np.arange(sub.n_triangles), qp)  # (nt, nq, nv)
    sv = triangle_tables(k, rule.points).p  # (nq, ns)
    add(V.tri_dofs, S.tri_dofs, -np.einsum("tq,tqv,qs->tvs", qw, div, sv))

    erule = edge_rule(2 * k + 2)
    ts, ws = erule.points, erule.weights
    L = edge_tables(k, ts).u
    # p is single valued across interior edges but each side's triangle
    # expands it in its own dofs, so traces and test dofs are taken per
    # side; on fracture edges the jump and average terms collapse to the
    # same per-side pairing <p1, v1.n> - <p2, v2.n>
    for kind in (INTERIOR, FRACTURE):
        edges = sub.edges_of_kind(kind)
        if edges.size == 0:
            continue
        pts = sub.edge_points(edges, ts)
        wl = sub.edge_length[edges]
        for side, sign in ((0, 1.0), (1, -1.0)):
            t = sub.edge_tris[edges, side]
            sb = pressure_basis_values(S, t, pts)
            local = sign * np.einsum("q,e,qj,eqs->ejs", ws, wl, L, sb)
            add(V.edge_side_dofs[edges, side], S.tri_dofs[t], local)

    r, c, v = (np.concatenate(a) for a in (rows, cols, vals))
    return sp.coo_matrix((v, (r, c)), shape=(V.ndof, S.ndof)).tocsr()


def assemble_interface_quadrature(mesh, S, W, spec):
    """Interface coupling blocks (C_pp, C_pw, C_ww_coupling) by quadrature
    at physical fracture points, with the full pressure basis of each side's
    triangle pulled back: the oracle for `assemble_interface`.

    C_pp collects <(1/alpha){p},{q}> + <(1/eta)[p],[q]> over fracture edges,
    C_pw the -<(1/alpha) p_gamma, {q}> pairing (its transpose enters the
    fracture equation), C_ww the +<(1/alpha) p_gamma, q_gamma> mass.
    """
    sub = mesh.subdivision
    erule = edge_rule(2 * S.k + 2)
    ts, ws = erule.points, erule.weights
    wb = edge_tables(W.k, ts).p[0]  # (nq, k+1)
    fe = sub.fracture_edges
    # the coefficients from each edge's fracture segment
    eta = np.array([mesh.fractures[f].normal_resistance[s] for f, s in zip(fe.fracture, fe.segment)])
    alpha = eta * (spec.xi / 2.0 - 0.25)
    pts, _ = sub.fracture_points(ts)
    wl = sub.edge_length[fe.edge]
    t1, t2 = sub.edge_tris[fe.edge].T
    s1 = pressure_basis_values(S, t1, pts)  # (n_fe, nq, ns)
    s2 = pressure_basis_values(S, t2, pts)
    # both sides' dofs side by side: average and jump of the traces
    d = np.hstack([S.tri_dofs[t1], S.tri_dofs[t2]])
    avg = 0.5 * np.concatenate([s1, s2], axis=2)
    jmp = np.concatenate([s1, -s2], axis=2)
    wd = W.edge_dofs
    local = np.einsum("q,e,eqs,eqr->esr", ws, wl / alpha, avg, avg)
    local += np.einsum("q,e,eqs,eqr->esr", ws, wl / eta, jmp, jmp)
    return (
        _coo([_block(d, d, local)], (S.ndof, S.ndof)),
        _coo([_block(d, wd, -np.einsum("q,e,eqs,qj->esj", ws, wl / alpha, avg, wb))], (S.ndof, W.ndof)),
        _coo([_block(wd, wd, np.einsum("q,e,qi,qj->eij", ws, wl / alpha, wb, wb))], (W.ndof, W.ndof)),
    )


def neumann_load_quadrature(sub, spec, S):
    """-<g_N, q> over the Neumann edges by quadrature at physical edge
    points, with the full pressure basis of each edge's triangle pulled
    back: the oracle for the Neumann load of `assemble_rhs`, (S.ndof,)."""
    table = spec.boundary_table(sub)
    erule = edge_rule(2 * S.k + 2)
    ts, ws = erule.points, erule.weights
    sview = np.zeros(S.ndof)
    neu = table.neumann_edges
    if neu.size:
        pts = sub.edge_points(neu, ts)
        t1 = sub.edge_tris[neu, 0]
        sb = pressure_basis_values(S, t1, pts)
        wl = sub.edge_length[neu]
        g = spec.boundary_values(
            sub, np.repeat(neu, ts.size), pts.reshape(-1, 2)
        ).reshape(neu.size, ts.size)
        local = -np.einsum("q,e,eq,eqs->es", ws, wl, g, sb)
        np.add.at(sview, S.tri_dofs[t1], local)
    return sview


def scatter(rows, cols, blocks, shape):
    """Sum per-element dense blocks (n, ni, nj) at dofs rows (n, ni) and
    cols (n, nj) into a CSR matrix."""
    r = np.broadcast_to(rows[:, :, None], blocks.shape).ravel()
    c = np.broadcast_to(cols[:, None, :], blocks.shape).ravel()
    return sp.coo_matrix((blocks.ravel(), (r, c)), shape=shape).tocsr()


def mass_matrix(sub, V, K_elem):
    """The global flux mass matrix from the `assemble_mass` blocks."""
    return scatter(V.tri_dofs, V.tri_dofs, assemble_mass(sub, V, K_elem), (V.ndof, V.ndof))


def bh_matrix(sub, V, S):
    """The global b_h matrix (pressure rows, flux columns) from the
    `assemble_bh` blocks."""
    return scatter(S.tri_dofs, V.tri_dofs, assemble_bh(sub, V, S), (S.ndof, V.ndof))


def interface_blocks(sub, S, W, spec):
    """(C_pp, C_pw, C_ww_coupling): the triplets of `assemble_interface`
    as CSR blocks over the full (p, p_gamma) dof sets."""
    nS, n = S.ndof, S.ndof + W.ndof
    C = _coo([assemble_interface(sub, S, W, spec)], (n, n))
    return C[:nS, :nS], C[:nS, nS:], C[nS:, nS:]


def fracture_stiffness_matrix(sub, S, W, spec):
    """The triplets of `assemble_fracture_stiffness` as a CSR matrix over
    the full p_gamma dofs."""
    nS, n = S.ndof, S.ndof + W.ndof
    return _coo([assemble_fracture_stiffness(sub, S, W, spec)], (n, n))[nS:, nS:]


def reduced_system_full_dofs(mesh, spec, config):
    """The reduced system by the full-dof path, the oracle for the index
    paths of `assemble_system` without a cache.

    C is the free rows and columns of sp.bmat([[C_pp, C_pw], [C_pw^T,
    C_ww]]) over all (p, p_gamma) dofs, with C_ww the coupling plus the
    stiffness, and the (p, p_gamma) rows of the rhs are lifted by that
    matrix times the full Dirichlet vector.  The polygon blocks and the
    lifts are those of `polygon_blocks_every`.  Returns (blocks, C, rhs),
    with blocks one (polygons, flux, cols, M, G) per triangle count.
    """
    sub = mesh.subdivision
    S, V, W = build_spaces(mesh, spec, config)
    K_elem = spec.permeability(mesh.element_centroids)
    C_pp, C_pw, C_ww = interface_blocks(sub, S, W, spec)
    C_ww = C_ww + fracture_stiffness_matrix(sub, S, W, spec)
    rhs_full = assemble_rhs(mesh, spec, V, S, W)
    p_dir, w_dir = dirichlet_values(sub, spec, S, W)
    nV, nS = V.ndof, S.ndof
    y_free = np.concatenate([np.flatnonzero(~S.dirichlet_mask), nS + np.flatnonzero(~W.dirichlet_mask)])
    ny = y_free.size
    ycol = np.full(nS + W.ndof, ny)
    ycol[y_free] = np.arange(ny)

    blocks, lift = polygon_blocks_every(mesh, V, S, K_elem, p_dir, ycol)

    rhs = np.empty(nV + ny)
    rhs[:nV] = rhs_full[:nV] - np.bincount(V.tri_dofs.ravel(), lift.ravel(), minlength=nV)
    C_full = sp.bmat([[C_pp, C_pw], [C_pw.T, C_ww]], format="csr")
    rhs[nV:] = (rhs_full[nV:] - C_full @ np.concatenate([p_dir, w_dir]))[y_free]
    return blocks, C_full[y_free][:, y_free], rhs


def polygon_blocks_every(mesh, V, S, K_elem, p_dir, ycol):
    """The polygon blocks of `assembly._polygon_blocks` with every polygon
    computed, no class and no cache, scattered through an owner and a
    local-index table over all flux dofs: the oracle for its local patterns
    and its classes.  Returns one (polygons, flux, cols, M, G) per triangle
    count, and the lifts p_dir^T B_t, (nt, nloc)."""
    sub = mesh.subdivision
    k1, nt, ns = V.k + 1, sub.n_triangles, S.nloc
    n_own = V.nloc - 2 * k1
    primal = _SIDE_NODES[S.k][0]
    off = np.setdiff1d(np.arange(ns), primal)
    offsets = mesh.cycles.offsets
    counts = np.diff(offsets)
    owner = np.empty(V.ndof, dtype=np.int64)
    local = np.empty(V.ndof, dtype=np.int64)
    groups = []
    for n in np.unique(counts):
        polys = np.flatnonzero(counts == n)
        t0 = offsets[polys][:, None]
        flux = np.hstack([k1 * t0 + np.arange(n * k1), nt * k1 + n_own * t0 + np.arange(n * n_own)])
        owner[flux] = polys[:, None]
        local[flux] = np.arange(flux.shape[1])
        groups.append((polys, t0 + np.arange(n), flux))
    assert np.array_equal(owner[V.tri_dofs], np.broadcast_to(sub.tri_polygon[:, None], V.tri_dofs.shape))

    out = []
    lift = np.empty((nt, V.nloc))
    for polys, tris, flux in groups:
        npoly, n, b = polys.size, tris.shape[1], flux.shape[1]
        m = n * ns
        pcol = np.empty((n, ns), dtype=np.int64)
        pcol[:, primal] = np.arange(n * k1).reshape(n, k1)
        pcol[:, off] = n * k1 + np.arange(n * off.size).reshape(n, -1)
        pdofs = np.empty((npoly, m), dtype=np.int64)
        pdofs[:, pcol] = S.tri_dofs[tris]
        M_t = assemble_mass(sub, V, K_elem, tris.ravel())
        B_t = assemble_bh(sub, V, S, tris.ravel())
        li = local[V.tri_dofs[tris]]  # (npoly, n, nloc)
        base = np.arange(npoly)[:, None, None, None] * b
        M = np.bincount(
            ((base + li[..., :, None]) * b + li[..., None, :]).ravel(), M_t.ravel(), minlength=npoly * b * b
        )
        G = np.bincount(
            ((base + li[..., None, :]) * m + pcol[:, :, None]).ravel(), B_t.ravel(), minlength=npoly * b * m
        )
        G = G.reshape(npoly, b, m) * ~S.dirichlet_mask[pdofs][:, None, :]
        lift[tris.ravel()] = (p_dir[S.tri_dofs[tris.ravel()]][:, None, :] @ B_t)[:, 0]
        out.append((polys, flux, ycol[pdofs], M.reshape(npoly, b, b), G))
    return out, lift


def per_polygon(g):
    """(M, G) of every polygon of the `PolygonBlocks` g, one row each: the
    rows of its class in the class tables."""
    return g.M[g.classes], g.G[g.classes]


def condense_every(system):
    """Per block of `system.blocks`, the condensation (W, S_II^-1, H, R_P)
    of every polygon, computed polygon by polygon from its M_P and G_P: the
    oracle for the class tables of `PolygonBlocks`."""
    out = []
    for g in system.blocks:
        b = g.n_skeleton
        M, G = per_polygon(g)
        W = np.linalg.solve(M, G)
        SP = _sym(np.swapaxes(G, 1, 2) @ W)
        S_inv = np.linalg.inv(SP[:, b:, b:])
        H = S_inv @ SP[:, b:, :b]
        R = _sym(SP[:, :b, :b] - SP[:, :b, b:] @ H)
        out.append((W, S_inv, H, R))
    return out


def saddle_system(mesh, spec, config):
    """The reduced saddle system assembled globally, the oracle for the
    polygon blocks of `assemble_system`: [M B^T 0; -B C_pp C_pw; 0 C_pw^T
    C_ww] over all dofs, Dirichlet values lifted to the right-hand side,
    then restricted to the free dofs.  Returns (A, rhs)."""
    sub = mesh.subdivision
    S, V, W = build_spaces(mesh, spec, config)
    M = mass_matrix(sub, V, spec.permeability(mesh.element_centroids))
    B = bh_matrix(sub, V, S)
    C_pp, C_pw, C_ww = interface_blocks(sub, S, W, spec)
    C_ww = C_ww + fracture_stiffness_matrix(sub, S, W, spec)
    A_full = sp.bmat([[M, B.T, None], [-B, C_pp, C_pw], [None, C_pw.T, C_ww]], format="csr")
    p_dir, w_dir = dirichlet_values(sub, spec, S, W)
    x_dir = np.concatenate([np.zeros(V.ndof), p_dir, w_dir])
    free = np.concatenate([
        np.arange(V.ndof),
        V.ndof + np.flatnonzero(~S.dirichlet_mask),
        V.ndof + S.ndof + np.flatnonzero(~W.dirichlet_mask),
    ])
    rhs = assemble_rhs(mesh, spec, V, S, W) - A_full @ x_dir
    return A_full[free][:, free].tocsr(), rhs[free]


def saddle_backward_error(A, x, rhs):
    """||A x - rhs||_inf / || |A| |x| + |rhs| ||_inf on a sparse matrix."""
    r = A @ x - rhs
    return np.linalg.norm(r, np.inf) / np.linalg.norm(abs(A) @ np.abs(x) + np.abs(rhs), np.inf)


def grad_p_at_ref_einsum(sol, ref_pts, tris=slice(None)):
    """grad p_h at the images of reference points (nq, 2) by a broadcast
    einsum against the reference gradients: the oracle for
    `DiscreteSolution.grad_p_at_ref`, (n, nq, 2)."""
    gref = triangle_tables(sol.S.k, ref_pts).grad_p  # (nq, ns, 2)
    p = sol.p[sol.S.tri_dofs[tris]]
    ghat = np.einsum("...sr,...s->...r", gref, p[:, None, :])
    return ghat @ sol.sub.tri_jacobian_inv[tris]


def volume_terms_einsum(mesh, spec, sol, exact):
    """(t1, err_Q2, v_grad2) by 4-operand einsums: the per-triangle term 1
    of `compute_estimator`, sum_q w_q r.K^-1 r with r = u_h + K grad p_h,
    and the volume parts of `true_error`, the K^-1-weighted flux error and
    the K-weighted pressure gradient error, squared and summed."""
    sub = mesh.subdivision
    k = sol.S.k
    K = spec.permeability(mesh.element_centroids)[sub.tri_polygon]
    Kinv = np.linalg.inv(K)

    rule = triangle_rule(2 * k + 2)
    _, qw = map_to_triangles(rule, sub.tri_coords)
    r = sol.u_at_ref(rule.points) + np.einsum("tcd,tqd->tqc", K, grad_p_at_ref_einsum(sol, rule.points))
    t1 = np.einsum("tq,tqc,tcd,tqd->t", qw, r, Kinv, r)

    rule = triangle_rule(2 * k + 4)
    qp, qw = map_to_triangles(rule, sub.tri_coords)
    nt, nq = qp.shape[:2]
    flat = qp.reshape(-1, 2)
    region = np.repeat(mesh.element_regions[sub.tri_polygon], nq)
    du = exact.u(flat, region).reshape(nt, nq, 2) - sol.u_at_ref(rule.points)
    dg = exact.grad_p(flat, region).reshape(nt, nq, 2) - grad_p_at_ref_einsum(sol, rule.points)
    err_Q2 = np.einsum("tq,tqc,tcd,tqd->", qw, du, Kinv, du)
    v_grad2 = np.einsum("tq,tqc,tcd,tqd->", qw, dg, K, dg)
    return t1, err_Q2, v_grad2


HISTORY_FLOATS = tuple(f"T{i}" for i in range(1, 9)) + ("eta", "osc", "err_sdg")


def history_rows(hist):
    """The per-iteration records of a `ConvergenceHistory` as plain JSON
    values: N, n_elements, T1..T8, eta, osc and err_sdg."""
    rows = []
    for r in hist.records:
        row = {"N": int(r.N), "n_elements": int(r.n_elements)}
        row.update({f"T{i + 1}": float(t) for i, t in enumerate(r.terms)})
        row.update(eta=float(r.eta), osc=float(r.osc), err_sdg=float(r.err_sdg))
        rows.append(row)
    return rows


def _count_mismatch(got_n, ref_n, cuts):
    """Where two N lists part and, with `cuts`, how near a tie the stored
    cut before that iteration was, with the library versions."""
    it = next((i for i, (g, r) in enumerate(zip(got_n, ref_n)) if g != r), min(len(got_n), len(ref_n)))
    msg = f"N first differs at iteration {it}"
    if cuts is None:
        return msg
    if it == 0:
        msg += ", the initial mesh, before any Dörfler cut"
    else:
        msg += f"; the stored Dörfler cut before it had a relative margin of {cuts['margins'][it - 1]:.1e}"
    return (
        f"{msg}; installed numpy {np.__version__} and scipy {scipy.__version__}, "
        f"the stored margins computed with numpy {cuts['numpy']} and scipy {cuts['scipy']}"
    )


def check_history(got, ref, roundoff=False, cuts=None):
    """`history_rows` of a run against stored ones: N and n_elements
    exactly, every float within 1e-10 * |ref| + 1e-10 * eta_ref, and a NaN
    (err_sdg without an exact solution) stays NaN.  The part against eta
    covers estimator terms at roundoff level, which move by orders of
    magnitude between two backward-stable solves.  With `roundoff`, for a
    problem the method solves exactly, every value is roundoff and is held
    to an absolute 1e-10.  `cuts`, stored beside a history, holds the
    `dorfler_margin` of each iteration's cut and the numpy and scipy
    versions that made it; an N mismatch then names the first differing
    iteration, the margin of the cut before it and both sets of versions,
    so a flipped near-tie shows as one."""
    got_n, ref_n = [r["N"] for r in got], [r["N"] for r in ref]
    assert got_n == ref_n, _count_mismatch(got_n, ref_n, cuts)
    assert [r["n_elements"] for r in got] == [r["n_elements"] for r in ref]
    for it, (g, r) in enumerate(zip(got, ref)):
        rel, floor = (0.0, 1e-10) if roundoff else (1e-10, 1e-10 * r["eta"])
        for key in HISTORY_FLOATS:
            if math.isnan(r[key]):
                assert math.isnan(g[key]), (it, key)
                continue
            assert abs(g[key] - r[key]) <= rel * abs(r[key]) + floor, (it, key, g[key], r[key])
