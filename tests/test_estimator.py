"""Estimator oracles: hand-integrated family values on manufactured discrete
fields, vanishing residuals on representable solutions, the localization
partition, data oscillation against an independent projection, and the
true-error report with its effectivity index."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    doerfler_refinements,
    fracture_edge_sq,
    grad_p_at_ref_einsum,
    interpolate_flux,
    interpolate_fracture,
    interpolate_pressure,
    make_fracture,
    parts_sq,
    total_sq,
    volume_terms_einsum,
)
from sdgdarcy.assembly import DiscreteSolution, assemble_system
from sdgdarcy.benchmarks import case1, case2, case4_multifrac, linear_patch
from sdgdarcy.errors import NoExactSolution
from sdgdarcy.estimator import (
    compute_estimator,
    data_oscillation,
    true_error,
)
from sdgdarcy.geometry import DUAL, INTERIOR, DomainSpec, build_initial_mesh, refine
from sdgdarcy.problem import (
    DIRICHLET,
    BoundaryRule,
    ExactSolution,
    ProblemSpec,
    constant,
    everywhere,
)
from sdgdarcy.quadrature import map_to_triangles, triangle_rule
from sdgdarcy.solve import solve_system
from sdgdarcy.spaces import SpaceConfig, build_S_h, build_V_h, build_W_h, edge_tables

# term indices in EstimatorBreakdown.terms
CONSTITUTIVE, SOURCE, DUAL_JUMP, FLUX_JUMP = 0, 1, 2, 3
FRAC_RESIDUAL, VERTEX_JUMP, EXCHANGE, ACROSS_JUMP = 4, 5, 6, 7


def dirichlet_spec(dom, value=None, **kw):
    rule = BoundaryRule(DIRICHLET, everywhere, value)
    return ProblemSpec(domain=dom, boundary=(rule,), **kw)


def zero_solution(mesh, k=1):
    V = build_V_h(mesh, SpaceConfig(k))
    S = build_S_h(mesh, SpaceConfig(k))
    W = build_W_h(mesh, SpaceConfig(k))
    return DiscreteSolution(
        V=V,
        S=S,
        W=W,
        u=np.zeros(V.ndof),
        p=np.zeros(S.ndof),
        p_gamma=np.zeros(W.ndof),
    )


def assert_partition(bd):
    total = total_sq(bd)
    assert abs(bd.element_sq.sum() - total) <= 1e-12 * max(total, 1.0)
    assert np.all(bd.element_sq >= 0.0)


@pytest.fixture(scope="module")
def case1_run():
    spec, exact = case1(0.1)
    mesh = build_initial_mesh(spec.domain, 0.25)
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    bd = compute_estimator(mesh, spec, sol)
    return spec, exact, mesh, sol, bd


# -- vanishing residuals -----------------------------------------------------


def test_constant_fields_have_zero_estimator(two_square_fractured):
    mesh = two_square_fractured
    sol = zero_solution(mesh)
    p = interpolate_pressure(sol.S, lambda pts, tris: np.full(pts.shape[:-1], 5.0))
    w = interpolate_fracture(sol.sub, sol.W, lambda pts, par, fr: np.full(np.asarray(par).shape, 5.0))
    sol = replace(sol, p=p, p_gamma=w)
    spec = dirichlet_spec(
        DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=list(mesh.fractures)),
        constant(5.0),
    )
    bd = compute_estimator(mesh, spec, sol)
    assert bd.eta <= 1e-10
    assert np.all(bd.terms <= 1e-10)
    assert bd.osc == 0.0


def test_constant_dirichlet_solve_reproduces_constant(two_square_fractured):
    mesh = two_square_fractured
    spec = dirichlet_spec(
        DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=list(mesh.fractures)),
        constant(1.0),
    )
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    bd = compute_estimator(mesh, spec, sol)
    assert bd.eta <= 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_linear_solution_eta_vanishes(k):
    spec, _ = linear_patch()
    mesh = build_initial_mesh(spec.domain, 0.5)
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(k)))
    bd = compute_estimator(mesh, spec, sol)
    assert bd.eta <= 1e-9
    assert bd.osc == 0.0
    assert_partition(bd)


# -- hand-integrated family oracles ------------------------------------------


def test_dual_jump_oracle_single_element():
    """Indicator of one triangle: unit jump on its two dual edges of the
    element, each contributing h_e^(-1) * h_e = 1 to the squared family."""
    dom = DomainSpec(rectangles=[(0.0, 0.0, 1.0, 1.0)])
    mesh = build_initial_mesh(dom, 1.0)
    sol = zero_solution(mesh)
    p = np.zeros(sol.S.ndof)
    p[sol.S.tri_dofs[0]] = 1.0
    sol = replace(sol, p=p)
    bd = compute_estimator(mesh, dirichlet_spec(dom), sol)

    np.testing.assert_allclose(bd.terms[DUAL_JUMP], math.sqrt(2.0), rtol=1e-12)
    others = np.delete(bd.terms, DUAL_JUMP)
    assert np.max(others) <= 1e-14
    assert bd.eta == bd.terms.sum()
    # one element: localization equals the global squared sum
    assert bd.element_sq.shape == (1,)
    np.testing.assert_allclose(bd.element_sq[0], total_sq(bd), rtol=1e-13)
    np.testing.assert_allclose(bd.element_sq[0], 2.0, rtol=1e-13)


def test_fracture_edge_families_hand_integration(two_square_fractured):
    """One fracture edge of length 1 with constant traces.

    u is the interpolant of (1,0) with the normal dofs on one side raised by
    0.5, so [u.n] = -0.5 and {u.n} = 1.25; p is the indicator of the element
    the edge normal points out of, so [p] = 1 and {p} = 1/2; p_gamma = 0 and
    l*f_gamma = 0.01*100 = 1.  With eta = 1e-4, alpha = 1.25e-5, K_gamma = 1
    and a linear (here zero) fracture pressure the three edgewise families
    reduce to constants integrated over one unit edge:

      residual family:  |1 + 0 - 0.5|        = 0.5
      exchange family:  |0.5/1.25e-5 + 0.5|  = 40000.5
      jump family:      |1.25 - 1/1e-4|      = 9998.75
    """
    mesh = two_square_fractured
    sub = mesh.subdivision
    sol = zero_solution(mesh)
    e = sub.fracture_edges.edge[0]

    u = interpolate_flux(sol.V, lambda pts: np.tile([1.0, 0.0], pts.shape[:-1] + (1,)))
    u[sol.V.edge_side_dofs[e, 1]] += 0.5
    out_poly = sub.tri_polygon[sub.edge_tris[e, 0]]
    p = np.zeros(sol.S.ndof)
    for t in range(sub.n_triangles):
        if sub.tri_polygon[t] == out_poly:
            p[sol.S.tri_dofs[t]] = 1.0
    sol = replace(sol, u=u, p=p)

    spec = dirichlet_spec(
        DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=list(mesh.fractures)),
        f_gamma=lambda pts, par, fr: np.full(np.asarray(par).shape, 100.0),
    )
    bd = compute_estimator(mesh, spec, sol)

    np.testing.assert_allclose(bd.terms[FRAC_RESIDUAL], 0.5, rtol=1e-10)
    np.testing.assert_allclose(bd.terms[EXCHANGE], 40000.5, rtol=1e-12)
    np.testing.assert_allclose(bd.terms[ACROSS_JUMP], 9998.75, rtol=1e-12)
    assert bd.terms[VERTEX_JUMP] == 0.0  # single edge, no interior vertex
    assert bd.terms[DUAL_JUMP] <= 1e-14
    assert bd.terms[FLUX_JUMP] == 0.0  # no interior primal edges on this mesh
    assert bd.osc <= 1e-10  # constant fracture source projects exactly
    assert_partition(bd)
    # edgewise families split half-half between the two adjacent elements
    edge_share = fracture_edge_sq(bd)[0]
    sides = sub.tri_polygon[sub.edge_tris[e]]
    vol = np.zeros(mesh.n_elements)
    np.add.at(vol, sub.tri_polygon, bd.tri_sq.sum(axis=1))
    np.testing.assert_allclose(
        bd.element_sq[sides] - vol[sides], edge_share / 2.0, rtol=1e-12
    )


def test_vertex_jump_oracle():
    """Tent fracture pressure over two edges of length 1/2: tangential
    derivative jumps by 4 at the shared vertex, h_z = 1/2, so the squared
    vertex family is 8."""
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 1.0, 1.0)],
        fractures=[make_fracture([[0.5, 0.0], [0.5, 1.0]])],
    )
    mesh = build_initial_mesh(dom, 0.5)
    sol = zero_solution(mesh)
    w = np.zeros(sol.W.ndof)
    w[sol.W.edge_dofs[0, 1]] = 1.0
    sol = replace(sol, p_gamma=w)
    bd = compute_estimator(mesh, dirichlet_spec(dom), sol)

    np.testing.assert_allclose(bd.terms[VERTEX_JUMP], 2.0 * math.sqrt(2.0), rtol=1e-12)
    # linear fracture pressure and zero sources: no fracture equation residual
    assert bd.terms[FRAC_RESIDUAL] <= 1e-14
    assert_partition(bd)


def test_vertex_jumps_stay_within_each_fracture():
    """On multifrac's four fractures, refined around three of their tips,
    term 6 has one entry per interior fracture vertex, n_fe - n_f in all,
    and each equals the jump of K_gamma^(1/2) dp_gamma/dt between two
    consecutive edges of one fracture, recomputed fracture by fracture from
    the fracture data; no entry pairs the last edge of one fracture with
    the first of the next.  The localized indicators equal, bit for bit, a
    fracture by fracture walk that splits each vertex term among its
    distinct elements; no element here touches two fractures, so both add
    in one order."""
    spec, _ = case4_multifrac()
    mesh = build_initial_mesh(spec.domain, 0.25)
    tips = np.array([[1.0, 0.5], [1.5, 0.5], [1.5, -0.5]])
    dist = np.hypot(*(mesh.element_centroids[:, None, :] - tips).transpose(2, 0, 1))
    mesh = refine(mesh, np.flatnonzero(dist.min(axis=1) < 0.3))
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(2)))
    bd = compute_estimator(mesh, spec, sol)
    sub = mesh.subdivision
    fe = sub.fracture_edges
    nf = len(mesh.fractures)
    assert nf == 4 and bd.vertex_sq.shape == (fe.n_edges - nf,)

    jumps, walk = [], np.zeros(mesh.n_elements)
    np.add.at(walk, sub.tri_polygon, bd.tri_sq.sum(axis=1))
    duals, inner = sub.edges_of_kind(DUAL), sub.edges_of_kind(INTERIOR)
    np.add.at(walk, sub.tri_polygon[sub.edge_tris[duals, 0]], bd.dual_sq)
    for side in (0, 1):
        np.add.at(walk, sub.tri_polygon[sub.edge_tris[inner, side]], 0.5 * bd.interior_sq)
    for fi, fr in enumerate(mesh.fractures):
        rows = np.arange(fe.offsets[fi], fe.offsets[fi + 1])
        assert np.all(sub.edge_fracture[fe.edge[rows]] == fi)
        le = sub.edge_length[fe.edge[rows]]
        coef = sol.p_gamma[sol.W.edge_dofs[rows]]
        d_ends = coef @ edge_tables(2, np.array([0.0, 1.0])).p[1].T / le[:, None]
        w = np.sqrt(fr.kappa_t[fe.segment[rows]] * fr.thickness)
        v_sq = np.maximum(le[:-1], le[1:]) * (w[:-1] * d_ends[:-1, 1] - w[1:] * d_ends[1:, 0]) ** 2
        jumps.append(v_sq)
        sides = sub.tri_polygon[sub.edge_tris[fe.edge[rows]]]
        for side in (0, 1):
            np.add.at(walk, sides[:, side], 0.5 * bd.fracture_sq[rows].sum(axis=1))
        # this fracture's vertex terms, after the n_edges - 1 of each earlier one
        for j, v in enumerate(bd.vertex_sq[fe.offsets[fi] - fi : fe.offsets[fi + 1] - fi - 1]):
            elems = np.unique(sides[j : j + 2].ravel())
            walk[elems] += v / elems.size
    jumps = np.concatenate(jumps)
    np.testing.assert_allclose(bd.vertex_sq, jumps, rtol=0.0, atol=1e-12 * jumps.max())
    assert np.array_equal(bd.element_sq, walk)


def test_mirrored_tent_equal_indicators(two_square_plain):
    """p interpolates 1 - |x - 1|: gradient energy 1 per element, everything
    else vanishes, and the two mirrored elements get equal indicators."""
    mesh = two_square_plain
    sol = zero_solution(mesh)
    p = interpolate_pressure(sol.S, lambda pts, tris: 1.0 - np.abs(pts[..., 0] - 1.0))
    sol = replace(sol, p=p)
    spec = dirichlet_spec(DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)]))
    bd = compute_estimator(mesh, spec, sol)

    np.testing.assert_allclose(bd.terms[CONSTITUTIVE], math.sqrt(2.0), rtol=1e-12)
    assert bd.terms[DUAL_JUMP] <= 1e-13  # interpolant is single-valued per side
    assert bd.terms[FLUX_JUMP] == 0.0
    np.testing.assert_allclose(bd.element_sq, [1.0, 1.0], rtol=1e-12)
    assert abs(bd.element_sq[0] - bd.element_sq[1]) <= 1e-12


# -- breakdown invariants on solved benchmarks -------------------------------


def test_breakdown_invariants(case1_run):
    spec, exact, mesh, sol, bd = case1_run
    assert np.all(bd.terms >= 0.0)
    assert bd.eta == pytest.approx(bd.terms.sum(), rel=1e-15)
    assert bd.eta > 0.0
    assert_partition(bd)
    fe = mesh.subdivision.fracture_edges
    assert fracture_edge_sq(bd).shape == (fe.n_edges,)
    assert bd.vertex_sq.shape == (fe.n_edges - 1,)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.data())
def test_localized_indicators_sum_to_squared_terms(data):
    """On drawn Doerfler refinements of the fractured case1 mesh, the
    localized indicators add up to the sum of squared family values and eta
    is the sum of the family values."""
    spec, _ = case1(0.1)
    k = data.draw(st.sampled_from([1, 2]))
    for mesh, _ in doerfler_refinements(data, build_initial_mesh(spec.domain, 0.5)):
        sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(k)))
        bd = compute_estimator(mesh, spec, sol)
        assert bd.element_sq.sum() == pytest.approx((bd.terms**2).sum(), rel=1e-12)
        assert bd.eta == pytest.approx(bd.terms.sum())


def test_partition_on_case2():
    spec, _ = case2()
    mesh = build_initial_mesh(spec.domain, 0.25)
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    bd = compute_estimator(mesh, spec, sol)
    assert_partition(bd)
    assert bd.eta > 0.0


# -- data oscillation --------------------------------------------------------


def test_oscillation_zero_for_polynomial_sources(two_square_plain):
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)])
    spec = dirichlet_spec(dom, f=lambda pts, region: 1.0 + 2.0 * pts[:, 0] - pts[:, 1])
    assert data_oscillation(two_square_plain, spec, 1) <= 1e-12

    spec2 = dirichlet_spec(
        dom, f=lambda pts, region: pts[:, 0] ** 2 - 3.0 * pts[:, 0] * pts[:, 1]
    )
    assert data_oscillation(two_square_plain, spec2, 2) <= 1e-12


def test_oscillation_zero_for_linear_fracture_source(two_square_fractured):
    mesh = two_square_fractured
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=list(mesh.fractures))
    spec = dirichlet_spec(
        dom,
        f=lambda pts, region: pts[:, 1],
        f_gamma=lambda pts, par, fr: 3.0 * np.asarray(par) - 1.0,
    )
    assert data_oscillation(mesh, spec, 1) <= 1e-12


def test_oscillation_matches_independent_projection():
    """Same projection computed with a degree-30 rule and weighted least
    squares instead of the normal equations used by the module."""
    dom = DomainSpec(rectangles=[(0.0, 0.0, 1.0, 1.0)])
    mesh = build_initial_mesh(dom, 1.0)
    f = lambda pts, region: np.sin(np.pi * pts[:, 0])
    spec = dirichlet_spec(dom, f=f)
    osc = data_oscillation(mesh, spec, 1)

    sub = mesh.subdivision
    rule = triangle_rule(30)
    qp, qw = map_to_triangles(rule, sub.tri_coords)
    total = 0.0
    for t in range(sub.n_triangles):
        sw = np.sqrt(qw[t])
        A = np.stack([np.ones(qp.shape[1]), qp[t, :, 0], qp[t, :, 1]], axis=1)
        A = A * sw[:, None]
        b = f(qp[t], None) * sw
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        total += sub.tri_diameter[t] ** 2 * ((b - A @ coef) ** 2).sum()
    ref = math.sqrt(total)
    assert abs(osc - ref) <= 1e-8


@pytest.mark.parametrize("k", [1, 2])
def test_oscillation_same_for_absent_and_zero_source(two_square_fractured, k):
    """f = None skips the bulk quadrature; an explicit all-zero f runs it.
    Both give the same value: exactly 0.0 without a fracture source, and
    the fracture part alone with one."""
    mesh = two_square_fractured
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=list(mesh.fractures))
    zero = lambda pts, region: np.zeros(len(pts))
    f_gamma = lambda pts, par, fr: np.sin(3.0 * np.asarray(par))
    assert data_oscillation(mesh, dirichlet_spec(dom), k) == 0.0
    assert data_oscillation(mesh, dirichlet_spec(dom, f=zero), k) == 0.0
    with_fracture = data_oscillation(mesh, dirichlet_spec(dom, f_gamma=f_gamma), k)
    assert with_fracture > 0.0
    assert data_oscillation(mesh, dirichlet_spec(dom, f=zero, f_gamma=f_gamma), k) == with_fracture


def test_oscillation_decreases_under_refinement():
    dom = DomainSpec(rectangles=[(0.0, 0.0, 1.0, 1.0)])
    spec = dirichlet_spec(dom, f=lambda pts, region: np.sin(np.pi * pts[:, 0]))
    mesh = build_initial_mesh(dom, 1.0)
    values = []
    for _ in range(3):
        values.append(data_oscillation(mesh, spec, 1))
        mesh = refine(mesh, np.arange(mesh.n_elements))
    assert values[1] <= 0.5 * values[0]
    assert values[2] <= 0.5 * values[1]


# -- scaling linearity -------------------------------------------------------


def test_scaling_data_scales_terms():
    """Multiplying all data by s = -2 scales every family value by |s| and
    leaves the effectivity index unchanged."""
    s = -2.0
    spec, exact = case1(0.1)
    rules = tuple(
        BoundaryRule(r.kind, r.where, lambda pts, mids, g=r.value: s * g(pts, mids))
        for r in spec.boundary
    )
    tips = tuple(
        tuple(None if t is None else s * t for t in pair)
        for pair in spec.fracture_tips
    )
    spec_s = ProblemSpec(
        domain=spec.domain,
        boundary=rules,
        xi=spec.xi,
        K=spec.K,
        f=lambda pts, region: s * spec.f(pts, region),
        f_gamma=lambda pts, par, fr: s * spec.f_gamma(pts, par, fr),
        fracture_tips=tips,
    )
    exact_s = ExactSolution(
        p=lambda pts, region: s * exact.p(pts, region),
        grad_p=lambda pts, region: s * exact.grad_p(pts, region),
        u=lambda pts, region: s * exact.u(pts, region),
        p_gamma=lambda pts, par, fr: s * exact.p_gamma(pts, par, fr),
        dp_gamma_dt=lambda pts, par, fr: s * exact.dp_gamma_dt(pts, par, fr),
    )

    mesh = build_initial_mesh(spec.domain, 0.25)
    sol1, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    sol2, _ = solve_system(assemble_system(mesh, spec_s, SpaceConfig(1)))
    bd1 = compute_estimator(mesh, spec, sol1)
    bd2 = compute_estimator(mesh, spec_s, sol2)

    np.testing.assert_allclose(bd2.terms, abs(s) * bd1.terms, rtol=1e-9)
    np.testing.assert_allclose(bd2.eta, abs(s) * bd1.eta, rtol=1e-9)
    np.testing.assert_allclose(bd2.osc, abs(s) * bd1.osc, rtol=1e-9)

    er1 = true_error(mesh, spec, sol1, exact, eta=bd1.eta)
    er2 = true_error(mesh, spec_s, sol2, exact_s, eta=bd2.eta)
    np.testing.assert_allclose(er2.err_sdg, abs(s) * er1.err_sdg, rtol=1e-9)
    np.testing.assert_allclose(er2.EI, er1.EI, rtol=1e-9)


# -- true error --------------------------------------------------------------


def test_true_error_on_representable_solution():
    spec, exact = linear_patch()
    mesh = build_initial_mesh(spec.domain, 0.5)
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    bd = compute_estimator(mesh, spec, sol)
    er = true_error(mesh, spec, sol, exact, eta=bd.eta)

    for part in (
        er.err_Q,
        er.v_exchange,
        er.v_jump,
        er.v_grad,
        er.v_fracture,
        er.flux_jump,
        er.flux_avg,
        er.err_V,
        er.err_sdg,
    ):
        assert part <= 1e-9
    assert math.isnan(er.EI)  # ratio of roundoff over roundoff is guarded
    assert abs(er.err_sdg**2 - parts_sq(er)) <= 1e-15


def _tilted_K(centroids):
    """A non-diagonal SPD permeability that changes from element to element."""
    x, y = centroids[:, 0], centroids[:, 1]
    off = 0.3 + 0.2 * x * y
    return np.stack([np.stack([2.0 + x, off], -1), np.stack([off, 1.0 + y], -1)], -2)


@pytest.mark.parametrize("k", [1, 2])
def test_volume_terms_match_einsum_oracle(k):
    """Term 1 of the estimator per triangle, the flux and pressure gradient
    errors of `true_error`, and grad p_h on all triangles and on a subset,
    against their broadcast einsum forms to 1e-13 relative.  K is
    non-diagonal and varies per element, so K or K^-1 taken on its diagonal
    only, or from the wrong triangles, fails."""
    spec, exact = case1(0.1)
    spec = replace(spec, K=_tilted_K)
    mesh = build_initial_mesh(spec.domain, 0.25)
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(k)))
    t1, err_Q2, v_grad2 = volume_terms_einsum(mesh, spec, sol, exact)
    bd = compute_estimator(mesh, spec, sol)
    er = true_error(mesh, spec, sol, exact, eta=bd.eta)
    assert np.max(np.abs(bd.tri_sq[:, 0] - t1)) <= 1e-13 * np.max(t1)
    assert abs(er.err_Q**2 - err_Q2) <= 1e-13 * err_Q2
    assert abs(er.v_grad**2 - v_grad2) <= 1e-13 * v_grad2

    rule = triangle_rule(2 * k + 2)
    for tris in (slice(None), np.arange(0, mesh.subdivision.n_triangles, 3)):
        ref = grad_p_at_ref_einsum(sol, rule.points, tris)
        got = sol.grad_p_at_ref(rule.points, tris)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_true_error_requires_exact_solution(case1_run):
    spec, exact, mesh, sol, bd = case1_run
    with pytest.raises(NoExactSolution):
        true_error(mesh, spec, sol, None)


def test_true_error_components_and_EI(case1_run):
    spec, exact, mesh, sol, bd = case1_run
    er = true_error(mesh, spec, sol, exact, eta=bd.eta)
    assert er.err_sdg > 0.0
    assert er.err_V > 0.0
    assert er.err_Q > 0.0
    assert np.isfinite(er.EI) and er.EI > 0.0
    rel = abs(er.err_sdg**2 - parts_sq(er)) / parts_sq(er)
    assert rel <= 1e-12
    # the V norm collects exactly its four parts
    v2 = er.v_exchange**2 + er.v_jump**2 + er.v_grad**2 + er.v_fracture**2
    assert abs(er.err_V**2 - v2) / v2 <= 1e-12


def test_uniform_refinement_monotone_with_bounded_EI():
    spec, exact = case1(0.1)
    mesh = build_initial_mesh(spec.domain, 0.25)
    etas, errs = [], []
    for it in range(3):
        sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
        bd = compute_estimator(mesh, spec, sol)
        er = true_error(mesh, spec, sol, exact, eta=bd.eta)
        etas.append(bd.eta)
        errs.append(er.err_sdg)
        assert 1.0 <= er.EI <= 5.0
        if it < 2:
            mesh = refine(mesh, np.arange(mesh.n_elements))
    assert etas[0] > etas[1] > etas[2]
    assert errs[0] > errs[1] > errs[2]
