"""Residual error estimator, data oscillation, and true-error report.

The estimator collects eight residual families: the constitutive residual
and the bulk source residual over triangles, pressure jumps over dual edges,
normal-flux jumps over interior primal edges, and four fracture families
(fracture equation residual, tangential-derivative vertex jumps, and the two
interface-condition residuals).  Each family value is the square root of its
summed squares and the reported global value is the SUM of the eight family
values; localization distributes the squared per-entity contributions onto
primal elements, so the localized squares add up to the sum of squared
family values rather than the square of the global value.  The source
residual (T2) and the interior normal-flux jumps (T4) are the two parts of
the discrete mass-balance residual: the discrete mass equation makes
(f - div u_h, q) + sum <[u_h.n], q> vanish for every free q in S_h that
vanishes on the fracture and Neumann edges.

Every edge family reads the traces of p_h and u_h.n_e from the k+1 dofs on
each side of the edge; physical edge points only carry f_gamma and the
exact solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import fracture_source_values, source_values
from .errors import NoExactSolution
from .geometry import DUAL, INTERIOR, PolygonalMesh, inv_2x2
from .problem import ProblemSpec
from .quadrature import edge_rule, map_to_triangles, mapped_weights, triangle_rule
from .reuse import BlockCache
from .spaces import reference, triangle_tables


@dataclass(frozen=True)
class EstimatorBreakdown:
    """Squared per-entity residual contributions and their aggregates.

    The fracture families follow the rows of the subdivision's
    `fracture_edges`: terms 5, 7 and 8 one row per fracture edge, term 6 one
    entry per interior fracture vertex, between rows r and r+1 for r in
    `fracture_edges.joints`.
    """

    terms: np.ndarray  # (8,) family values, each sqrt of its summed squares
    eta: float  # sum of the eight family values
    osc: float
    element_sq: np.ndarray  # (n_elements,) localized squared indicators
    tri_sq: np.ndarray  # (nt, 2) squared terms 1-2 per triangle
    dual_sq: np.ndarray  # squared term 3 per dual edge
    interior_sq: np.ndarray  # squared term 4 per interior primal edge
    fracture_sq: np.ndarray  # (n_fe, 3) squared terms 5, 7, 8
    vertex_sq: np.ndarray  # (n_fe - nf,) squared term 6


def compute_estimator(mesh: PolygonalMesh, spec: ProblemSpec, sol, cache: BlockCache = None) -> EstimatorBreakdown:
    """The eight families and their localization on `sol`; `cache` shares
    the bulk source values with the assembly and carries the oscillation
    residuals of kept polygons' triangles (see `adaptivity`)."""
    sub = mesh.subdivision
    k = sol.S.k
    cache = BlockCache() if cache is None else cache
    K_elem = spec.permeability(mesh.element_centroids)
    Kinv_elem = inv_2x2(K_elem)

    rule = triangle_rule(2 * k + 2)
    if spec.f is None:  # T2 is div u_h alone, the same bits: (0 - d)^2 == d^2
        qw, f = mapped_weights(rule, sub.tri_jacobian), 0.0
    else:
        qw, f = source_values(mesh, spec, 2 * k + 2, cache)

    # term 1: constitutive residual r = u_h + K grad p_h measured in K^{-1}
    u = sol.u_at_ref(rule)
    gp = sol.grad_p_at_ref(rule)
    r = u + gp @ np.swapaxes(K_elem, 1, 2)[sub.tri_polygon]
    t1 = _weighted_sq(qw, r, Kinv_elem[sub.tri_polygon])

    # term 2: bulk source residual
    div = sol.div_u_at_ref(rule)
    t2 = sub.tri_diameter**2 * np.einsum("tq,tq->t", qw, (f - div) ** 2)

    erule = edge_rule(2 * k + 2)
    ts, ws = erule.points, erule.weights

    # term 3: pressure jumps across dual edges, weight 1/h_e; the edge
    # length from the norm cancels against the weight
    duals = sub.edges_of_kind(DUAL)
    jump = sol.p_trace(duals, 0, erule) - sol.p_trace(duals, 1, erule)
    dual_sq = np.einsum("q,eq->e", ws, jump**2)

    # term 4: normal flux jumps across interior primal edges, weight h_e
    inner = sub.edges_of_kind(INTERIOR)
    jump = sol.u_normal_trace(inner, 0, erule) - sol.u_normal_trace(inner, 1, erule)
    interior_sq = np.einsum("q,eq->e", ws, jump**2) * sub.edge_length[inner] ** 2

    # fracture families, one row per fracture edge
    fe = sub.fracture_edges
    le = sub.edge_length[fe.edge]
    p1, p2, un1, un2 = sol.fracture_traces(ts)
    fracture_sq = np.empty((fe.n_edges, 3))

    # term 5: fracture equation residual; K_gamma is constant per edge
    fg = fracture_source_values(sub, spec, ts)
    res5 = fe.thickness[:, None] * fg + fe.K_gamma[:, None] * sol.p_gamma_at(erule, order=2) + (un1 - un2)
    fracture_sq[:, 0] = le**3 * np.einsum("q,eq->e", ws, res5**2)

    # term 7: first interface condition, weight h_e
    alpha = spec.exchange_resistance(fe.eta)
    res7 = ((p1 + p2) / 2.0 - sol.p_gamma_at(erule)) / alpha[:, None] - (un1 - un2)
    fracture_sq[:, 1] = le**2 * np.einsum("q,eq->e", ws, res7**2)

    # term 8: second interface condition, weight h_e
    res8 = (un1 + un2) / 2.0 - (p1 - p2) / fe.eta[:, None]
    fracture_sq[:, 2] = le**2 * np.einsum("q,eq->e", ws, res8**2)

    # term 6: jumps of K_gamma^(1/2) dp/dt at the interior vertices of each
    # fracture, between rows r and r + 1
    d_ends = sol.p_gamma_at(np.array([0.0, 1.0]), order=1)
    w = np.sqrt(fe.K_gamma)
    r = fe.joints
    jumps = w[r] * d_ends[r, 1] - w[r + 1] * d_ends[r + 1, 0]
    vertex_sq = np.maximum(le[r], le[r + 1]) * jumps**2

    tri_sq = np.stack([t1, t2], axis=1)
    sums = np.array(
        [
            t1.sum(),
            t2.sum(),
            dual_sq.sum(),
            interior_sq.sum(),
            fracture_sq[:, 0].sum(),
            vertex_sq.sum(),
            fracture_sq[:, 1].sum(),
            fracture_sq[:, 2].sum(),
        ]
    )
    terms = np.sqrt(np.maximum(sums, 0.0))
    element_sq = _localize_raw(mesh, tri_sq, dual_sq, interior_sq, fracture_sq, vertex_sq)
    return EstimatorBreakdown(
        terms=terms,
        eta=float(terms.sum()),
        osc=data_oscillation(mesh, spec, k, cache),
        element_sq=element_sq,
        tri_sq=tri_sq,
        dual_sq=dual_sq,
        interior_sq=interior_sq,
        fracture_sq=fracture_sq,
        vertex_sq=vertex_sq,
    )


def _weighted_sq(qw: np.ndarray, r: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Per triangle, the quadrature of (r A).r: weights qw (nt, nq), a
    vector field r (nt, nq, 2) and one 2x2 matrix A (nt, 2, 2) each."""
    rA = r @ A
    rA *= r
    rA *= qw[..., None]
    return rA.sum(axis=(1, 2))


def _localize_raw(mesh, tri_sq, dual_sq, interior_sq, fracture_sq, vertex_sq):
    """Distribute squared residual contributions onto primal elements.

    Volume and dual-edge terms go to the owning element, interior-edge and
    fracture-edge terms split half-half between the two adjacent elements,
    and each vertex term splits equally among the distinct elements adjacent
    to its two fracture edges.  The result sums to the sum of squared family
    values.
    """
    sub = mesh.subdivision
    out = np.zeros(mesh.n_elements)
    np.add.at(out, sub.tri_polygon, tri_sq.sum(axis=1))

    duals = sub.edges_of_kind(DUAL)
    np.add.at(out, sub.tri_polygon[sub.edge_tris[duals, 0]], dual_sq)

    inner = sub.edges_of_kind(INTERIOR)
    for side in (0, 1):
        np.add.at(out, sub.tri_polygon[sub.edge_tris[inner, side]], 0.5 * interior_sq)

    fe = sub.fracture_edges
    sides = sub.tri_polygon[sub.edge_tris[fe.edge]]  # (n_fe, 2)
    edge_sq = fracture_sq.sum(axis=1)
    for side in (0, 1):
        np.add.at(out, sides[:, side], 0.5 * edge_sq)
    # the elements beside the two edges of each interior vertex, each once
    r = fe.joints
    elems = np.sort(np.hstack([sides[r], sides[r + 1]]), axis=1)
    distinct = np.diff(elems, axis=1, prepend=-1) != 0
    count = distinct.sum(axis=1)
    np.add.at(out, elems[distinct], np.repeat(vertex_sq / count, count))
    return out


def data_oscillation(mesh: PolygonalMesh, spec: ProblemSpec, k: int, cache: BlockCache = None) -> float:
    """Weighted distance of the source data to piecewise polynomials.

    Bulk source against its elementwise L2 projection onto degree-k
    polynomials per triangle (weighted by the triangle diameter), fracture
    source against per-edge 1D projections (weighted by edge length and the
    fracture thickness).  Returns the square root of the total.  The bulk
    residual of a triangle, before its h_T^2 weight, depends on the source
    and the triangle alone, so `cache` carries it for the triangles of kept
    polygons and only new triangles evaluate and project f.
    """
    sub = mesh.subdivision
    cache = BlockCache() if cache is None else cache
    total = 0.0

    ref = reference(k)
    if spec.f is not None:
        rule = triangle_rule(2 * k + 12)
        mono, proj = triangle_tables(k, rule).mono, ref.osc_proj  # (nq, s) each
        region = mesh.element_regions[sub.tri_polygon]

        def residuals(tris):
            qp, qw = map_to_triangles(rule, sub.tri_coords[tris])
            f = spec.bulk_source(qp.reshape(-1, 2), np.repeat(region[tris], rule.weights.size)).reshape(qw.shape)
            # stacked, so a triangle's bits do not depend on the others (see `adaptivity`)
            r = f - ((f[:, None, :] @ proj) @ mono.T)[:, 0]
            return (np.einsum("tq,tq->t", qw, r**2),)

        (res,) = cache.triangles(mesh, "oscillation residual", residuals)
        total += float((sub.tri_diameter**2 * res).sum())

    erule = edge_rule(2 * k + 12)
    ts, ws = erule.points, erule.weights
    fg = fracture_source_values(sub, spec, ts)
    if np.any(fg):
        mono, G = ref.osc_mono_1d, ref.osc_gram_1d  # (nq, k+1), (k+1, k+1)
        b = np.einsum("q,eq,qi->ei", ws, fg, mono)
        c = np.linalg.solve(G, b.T).T
        pf = np.einsum("ei,qi->eq", c, mono)
        fe = sub.fracture_edges
        le = sub.edge_length[fe.edge]
        res = np.einsum("q,eq->e", ws, (fg - pf) ** 2) * le
        total += float((le**2 * fe.thickness**2 * res).sum())
    return float(np.sqrt(total))


@dataclass(frozen=True)
class ErrorReport:
    """True error components in the method's norms."""

    err_Q: float  # K^(-1/2)-weighted flux error
    v_exchange: float  # alpha^(-1/2) ({p err} - p_gamma err) over fracture edges
    v_jump: float  # eta^(-1/2) [p err] over fracture edges
    v_grad: float  # K^(1/2)-weighted broken pressure gradient error
    v_fracture: float  # K_gamma^(1/2) tangential fracture pressure gradient error
    flux_jump: float  # [(u - u_h) . n_gamma] over fracture edges
    flux_avg: float  # {(u - u_h) . n_gamma} over fracture edges
    err_V: float
    err_sdg: float
    EI: float  # eta / err_sdg; NaN when either input is unavailable


def true_error(mesh: PolygonalMesh, spec: ProblemSpec, sol, exact, eta=None) -> ErrorReport:
    if exact is None:
        raise NoExactSolution("benchmark provides no exact solution")
    sub = mesh.subdivision
    k = sol.S.k
    K_elem = spec.permeability(mesh.element_centroids)
    Kinv_elem = inv_2x2(K_elem)

    rule = triangle_rule(2 * k + 4)
    qp, qw = map_to_triangles(rule, sub.tri_coords)
    nt, nq = qp.shape[:2]
    region = np.repeat(mesh.element_regions[sub.tri_polygon], nq)
    flat = qp.reshape(-1, 2)

    du = np.asarray(exact.u(flat, region)).reshape(nt, nq, 2) - sol.u_at_ref(rule)
    err_Q2 = _weighted_sq(qw, du, Kinv_elem[sub.tri_polygon]).sum()

    dg = np.asarray(exact.grad_p(flat, region)).reshape(nt, nq, 2) - sol.grad_p_at_ref(rule)
    v_grad2 = _weighted_sq(qw, dg, K_elem[sub.tri_polygon]).sum()

    erule = edge_rule(2 * k + 4)
    ts, ws = erule.points, erule.weights
    fe = sub.fracture_edges
    nq = ts.size
    pts, par = sub.fracture_points(ts)
    flatp, par = pts.reshape(-1, 2), par.reshape(-1)
    reg1, reg2 = np.full(par.size, 1), np.full(par.size, 2)
    fidx = np.repeat(fe.fracture, nq)
    n = sub.edge_normal[fe.edge]
    p1, p2, un1, un2 = sol.fracture_traces(ts)

    dp1 = np.asarray(exact.p(flatp, reg1)).reshape(-1, nq) - p1
    dp2 = np.asarray(exact.p(flatp, reg2)).reshape(-1, nq) - p2
    dpg = np.asarray(exact.p_gamma(flatp, par, fidx)).reshape(-1, nq) - sol.p_gamma_at(erule)
    dun1 = np.einsum("eqc,ec->eq", np.asarray(exact.u(flatp, reg1)).reshape(-1, nq, 2), n) - un1
    dun2 = np.einsum("eqc,ec->eq", np.asarray(exact.u(flatp, reg2)).reshape(-1, nq, 2), n) - un2
    ddg = np.asarray(exact.dp_gamma_dt(flatp, par, fidx)).reshape(-1, nq) - sol.p_gamma_at(erule, order=1)

    wl = ws[None, :] * sub.edge_length[fe.edge][:, None]
    v_exch2 = (((dp1 + dp2) / 2.0 - dpg) ** 2 * wl).sum(axis=1) @ (1.0 / spec.exchange_resistance(fe.eta))
    v_jump2 = ((dp1 - dp2) ** 2 * wl).sum(axis=1) @ (1.0 / fe.eta)
    v_frac2 = (ddg**2 * wl).sum(axis=1) @ fe.K_gamma
    fj2 = float(((dun1 - dun2) ** 2 * wl).sum())
    fa2 = float((((dun1 + dun2) / 2.0) ** 2 * wl).sum())

    err_V2 = v_exch2 + v_jump2 + v_grad2 + v_frac2
    total2 = err_Q2 + err_V2 + fj2 + fa2
    total = float(np.sqrt(total2))
    # an error at roundoff scale means the solution is representable and the
    # ratio would be noise over noise
    if eta is None or total <= 1e-9:
        ei = float("nan")
    else:
        ei = float(eta / total)
    return ErrorReport(
        err_Q=float(np.sqrt(err_Q2)),
        v_exchange=float(np.sqrt(v_exch2)),
        v_jump=float(np.sqrt(v_jump2)),
        v_grad=float(np.sqrt(v_grad2)),
        v_fracture=float(np.sqrt(v_frac2)),
        flux_jump=float(np.sqrt(fj2)),
        flux_avg=float(np.sqrt(fa2)),
        err_V=float(np.sqrt(err_V2)),
        err_sdg=total,
        EI=ei,
    )
