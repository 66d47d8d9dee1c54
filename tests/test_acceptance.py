"""End-to-end acceptance checklist.

One test per guarantee the package makes: exactness on linear data,
discrete adjoint structure, local mass conservation, convergence rates
and effectivity of the adaptive loop, adaptive-vs-uniform efficiency,
refinement localization, barrier behavior, interface-condition oracles,
and the estimator/marking invariants. Several tests drive full adaptive
runs; the module takes a few minutes.
"""

import functools
import itertools
import json
import pathlib
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy

from sdgdarcy.adaptivity import (
    ADAPTIVE,
    UNIFORM,
    AmrConfig,
    amr_loop,
    dorfler_mark,
)
from sdgdarcy.assembly import (
    DiscreteSolution,
    assemble_system,
)
from sdgdarcy.benchmarks import case1, get_benchmark, linear_patch
from sdgdarcy.estimator import compute_estimator, true_error
from sdgdarcy.geometry import (
    BOUNDARY,
    DUAL,
    FRACTURE,
    INTERIOR,
    build_initial_mesh,
    refine,
)
from sdgdarcy.problem import DIRICHLET, BoundaryRule, ProblemSpec, constant, everywhere
from sdgdarcy.quadrature import edge_rule, map_to_triangles, triangle_rule
from sdgdarcy.spaces import SpaceConfig, build_S_h, build_V_h, build_W_h
from sdgdarcy.solve import solve_system

from conftest import (
    assemble_bh_star,
    bh_matrix,
    check_history,
    convergence_slope,
    history_rows,
    interpolate_fracture,
    interpolate_pressure,
    verify_interface,
)

RATE_TOL = 0.15  # slope window around the target -k/2
# T2 and T4 (0-based columns of `terms`): the two parts of the discrete
# mass-balance residual, whose rate is checked apart from the rest of eta
MASS_BALANCE_TERMS = (1, 3)
EI_BAND = (1.2, 2.0)


def adaptive_run(name, k, max_dofs, theta=0.5, max_iterations=60, callback=None):
    spec, exact, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)
    cfg = AmrConfig(theta=theta, mode=ADAPTIVE, max_dofs=max_dofs,
                    max_iterations=max_iterations, k=k)
    hist = amr_loop(mesh, spec, cfg, exact=exact, callback=callback)
    assert hist.failure is None
    return hist


@functools.lru_cache(maxsize=None)
def shared_adaptive_run(name, k, max_dofs):
    """`adaptive_run` at theta 0.5, run once per module for the tests that
    read the same run."""
    return adaptive_run(name, k, max_dofs)


def uniform_run(name, k, max_dofs):
    spec, exact, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)
    cfg = AmrConfig(mode=UNIFORM, max_dofs=max_dofs, max_iterations=60, k=k)
    hist = amr_loop(mesh, spec, cfg, exact=exact)
    assert hist.failure is None
    return hist


# -- shared adaptive runs (module scope: several checks read each one) ------


@pytest.fixture(scope="module")
def run_a01_k1():
    return adaptive_run("case1-a0.1", 1, 100_000)


@pytest.fixture(scope="module")
def run_a01_k2():
    return adaptive_run("case1-a0.1", 2, 100_000)


@pytest.fixture(scope="module")
def run_case2_k1():
    return adaptive_run("case2", 1, 200_000)


@pytest.fixture(scope="module")
def case2_six_iterations():
    spec, exact, h0 = get_benchmark("case2")
    mesh = build_initial_mesh(spec.domain, h0)
    cfg = AmrConfig(theta=0.5, mode=ADAPTIVE, max_dofs=200_000,
                    max_iterations=6, k=1)
    hist = amr_loop(mesh, spec, cfg)
    assert hist.failure is None and len(hist.records) == 6
    return spec, hist


# -- the checklist -----------------------------------------------------------


def test_patch_exactness():
    """The linear benchmark is reproduced to roundoff: error and estimator
    both at the 1e-9 level, in under a second."""
    t0 = time.perf_counter()
    spec, exact, h0 = get_benchmark("patch")
    mesh = build_initial_mesh(spec.domain, h0)
    assert mesh.n_elements == 2
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    bd = compute_estimator(mesh, spec, sol)
    er = true_error(mesh, spec, sol, exact, eta=bd.eta)
    elapsed = time.perf_counter() - t0
    assert er.err_sdg <= 1e-9
    assert bd.eta <= 1e-9
    assert elapsed < 1.0


def test_adjoint_identity():
    """The flux-pressure forms are discrete adjoints: B^T equals the
    facewise adjoint matrix on zero-boundary-trace pressure columns, to
    1e-12, on three benchmarks at three refinement levels each."""
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("patch", "case1-a0.1", "lshape"):
        spec, exact, h0 = get_benchmark(name)
        mesh = build_initial_mesh(spec.domain, h0)
        for level in range(3):
            sub = mesh.subdivision
            V = build_V_h(mesh, SpaceConfig(1))
            S = build_S_h(mesh, SpaceConfig(1),
                          dirichlet_edges=sub.edges_of_kind(BOUNDARY))
            B = bh_matrix(sub, V, S)
            Bstar = assemble_bh_star(sub, V, S)
            free = np.flatnonzero(~S.dirichlet_mask)
            diff = (B.T - Bstar).tocsc()[:, free]
            if diff.nnz:
                worst = max(worst, abs(diff).max())
            if level < 2:
                mesh = refine(mesh, list(range(mesh.n_elements)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_local_mass_conservation():
    """On every dual volume of an interior non-fracture primal edge, the
    flux through the four spoke edges balances the source integral to
    1e-10, including on meshes with hanging vertices."""
    t0 = time.perf_counter()
    k = 1
    spec, exact, h0 = get_benchmark("case1-a0.1")
    meshes = [build_initial_mesh(spec.domain, h0)]
    meshes.append(refine(meshes[0], list(range(meshes[0].n_elements))))
    sol1, _ = solve_system(assemble_system(meshes[1], spec, SpaceConfig(k)))
    bd1 = compute_estimator(meshes[1], spec, sol1)
    meshes.append(refine(meshes[1], dorfler_mark(bd1.element_sq, 0.5)))
    worst = 0.0
    for mesh in meshes:
        sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(k)))
        sub = mesh.subdivision
        duals = sub.edges_of_kind(DUAL)
        erule = edge_rule(2 * k + 2)
        tr = sol.u_normal_trace(duals, 0, erule.points)
        flux = sub.edge_length[duals] * (tr @ erule.weights)
        tri_out = np.zeros(sub.n_triangles)
        np.add.at(tri_out, sub.edge_tris[duals, 0], flux)
        np.add.at(tri_out, sub.edge_tris[duals, 1], -flux)
        rule = triangle_rule(2 * k + 2)
        qp, qw = map_to_triangles(rule, sub.tri_coords)
        region = mesh.element_regions[sub.tri_polygon]
        nt, nq = qp.shape[:2]
        fv = spec.bulk_source(
            qp.reshape(-1, 2), np.repeat(region, nq)
        ).reshape(nt, nq)
        tri_f = (qw * fv).sum(axis=1)
        interior = sub.edges_of_kind(INTERIOR)
        t1, t2 = sub.edge_tris[interior].T
        resid = np.abs(tri_out[t1] + tri_out[t2] - tri_f[t1] - tri_f[t2])
        worst = max(worst, resid.max())
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_interface_conditions():
    """Exact solutions satisfy both fracture interface conditions to
    1e-12 along the fracture."""
    t0 = time.perf_counter()
    for spec, exact in (case1(0.1), case1(0.01), linear_patch()):
        assert verify_interface(exact, spec) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("k", [1, 2])
def test_convergence_rates(request, k):
    """Adaptive refinement on the layered benchmark converges at the
    optimal N^(-k/2) rate in both the estimator and the true error:
    the last-4-iteration log-log slope of a run budgeted at 1e5 dofs
    must sit within 0.15 of -k/2.

    The estimator is checked in two parts. The mass-balance pair T2 + T4
    (h_tau^2 ||f - div u_h||^2 on triangles and h_e ||[u_h.n]||^2 on
    interior primal edges) is one residual split in two: the discrete
    mass equation makes (f - div u_h, q) + sum <[u_h.n], q> vanish for
    every free q in S_h that vanishes on the fracture and Neumann edges
    (test_local_mass_conservation checks it for q = 1 on dual volumes).
    At k=2 the pair decays near N^-2 while holding about a quarter of
    eta at this budget, so the slope of the sum still carries that
    transient and leaves the band at some windows between 5e4 and 4e5
    dofs. The rest of eta must sit inside the band, and the pair must
    decay at least as fast as the band's upper edge, so that it cannot
    spoil the asymptotic rate of the sum.

    The error window has little margin at k=2: the slope is -0.855 at
    this budget, 0.005 inside the band, and the 4-point window is out of
    band at 4 of the 8 windows ending between 52k and 394k dofs. Any
    change to the refinement history must re-check it.
    """
    hist = request.getfixturevalue(f"run_a01_k{k}")
    ns = hist.column("N")
    eta = hist.column("eta")
    err = hist.column("err_sdg")
    assert len(ns) >= 4 and (np.diff(ns) > 0).all()
    assert ns[-1] > 5e4, "run stopped far short of the dof budget"
    pair = hist.column("terms")[:, list(MASS_BALANCE_TERMS)].sum(axis=1)
    s_lead = convergence_slope(ns, eta - pair)
    s_pair = convergence_slope(ns, pair)
    s_err = convergence_slope(ns, err)
    target = -0.5 * k
    assert abs(s_lead - target) <= RATE_TOL, (
        f"estimator (without T2+T4) slope {s_lead:.4f} outside "
        f"[{target - RATE_TOL:.2f}, {target + RATE_TOL:.2f}]"
    )
    assert s_pair <= target + RATE_TOL, (
        f"T2+T4 slope {s_pair:.4f} outside [-inf, {target + RATE_TOL:.2f}]"
    )
    assert abs(s_err - target) <= RATE_TOL, (
        f"error slope {s_err:.4f} outside "
        f"[{target - RATE_TOL:.2f}, {target + RATE_TOL:.2f}]"
    )


FULL_HISTORIES = pathlib.Path(__file__).parent / "data" / "full_histories.json"
# per run, the margin of each iteration's Doerfler cut and the library versions
FULL_HISTORY_CUTS = FULL_HISTORIES.with_name("full_history_cuts.json")
# the benchmark workloads: (benchmark, k, dof budget), and the fixture that runs each
FULL_RUNS = {
    "case1-k1": ("case1-a0.1", 1, 100_000, "run_a01_k1"),
    "case1-k2": ("case1-a0.1", 2, 100_000, "run_a01_k2"),
    "case2-k1": ("case2", 1, 200_000, "run_case2_k1"),
}


@pytest.mark.parametrize("run", list(FULL_RUNS))
def test_full_history_matches_reference(request, run):
    """Every iteration of the full adaptive runs of the three benchmark
    workloads (theta 0.5, up to 60 iterations, to the dof budget) reproduces
    the stored record under the rule of `conftest.check_history`: N and the
    element count exactly, and T1..T8, eta, osc and err_sdg to 1e-10.  A
    marking flip that changes the counts fails here and names its
    iteration.  One between two elements whose indicators differ by
    roundoff, such as mirror images on a symmetric mesh, can keep the
    counts and move the values by roundoff only, and then passes.  A count
    mismatch also names the stored margin of the cut before it and the
    library versions, so a flipped near-tie shows as one.  The case1 runs
    are the ones `test_convergence_rates` reads.

    Regenerate the stored files only from code whose behaviour is known
    good (`cuts` writes the margins and versions alone):

        PYTHONPATH=src python tests/test_acceptance.py [cuts]
    """
    hist = request.getfixturevalue(FULL_RUNS[run][3])
    cuts = json.loads(FULL_HISTORY_CUTS.read_text())[run]
    check_history(history_rows(hist), json.loads(FULL_HISTORIES.read_text())[run], cuts=cuts)


@pytest.mark.parametrize("name", ["case1-a0.1", "case1-a0.01"])
def test_effectivity_band(name):
    """The estimator tracks the true error within a bounded effectivity
    index: EI in [1.2, 2.0] on the last three adaptive iterations, for
    both layer widths. The run is budgeted at 2.5e5 dofs so the sharper
    alpha=0.01 layer is fully resolved inside the measured window."""
    hist = adaptive_run(name, 1, 250_000)
    ei = hist.column("EI")
    assert len(ei) >= 3
    last3 = ei[-3:]
    assert np.isfinite(last3).all()
    lo, hi = EI_BAND
    assert (last3 >= lo).all() and (last3 <= hi).all(), (
        f"EI last 3 = {np.round(last3, 3)} outside [{lo}, {hi}]"
    )


BEATS_UNIFORM_DOFS = 120_000  # the adaptive budget of test_adaptive_beats_uniform
CLAIMS_DOFS = 60_000


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["case2", "lshape", "multifrac"])
def test_optimal_rates_beyond_case1(name, k):
    """The paper's claims on the benchmarks without an exact solution, the
    multi-fracture one included: the adaptive loop (theta 0.5, 6e4 dofs)
    runs with no failure, N grows at every iteration, and the estimator's
    slope over the last 4 points is within RATE_TOL of -1/2 at k=1 and no
    slower than -1 + RATE_TOL at k=2.  The loop stops before the first mesh
    over its budget, so a run to 6e4 is the part of a longer run up to
    6e4; the k=1 runs of case2 and lshape are read from the runs of
    test_adaptive_beats_uniform."""
    shared = k == 1 and name in ("case2", "lshape")
    hist = shared_adaptive_run(name, k, BEATS_UNIFORM_DOFS if shared else CLAIMS_DOFS)
    n, eta = hist.column("N"), hist.column("eta")
    within = n <= CLAIMS_DOFS
    n, eta = n[within], eta[within]
    assert np.all(np.diff(n) > 0)
    slope = convergence_slope(n, eta)
    if k == 1:
        assert abs(slope + 0.5) <= RATE_TOL, f"k=1 eta slope {slope:.4f} outside [-0.65, -0.35]"
    else:
        assert slope <= -1.0 + RATE_TOL, f"k=2 eta slope {slope:.4f} above -0.85"


@pytest.mark.parametrize("name", ["case2", "lshape"])
def test_adaptive_beats_uniform(name):
    """On the benchmarks with fracture-tip and reentrant-corner
    singularities, adaptive refinement beats uniform refinement: at the
    largest uniform mesh past 3e4 dofs the adaptive estimator is at most
    0.7 of the uniform one, the adaptive slope is at worst -0.35, and
    the uniform slope is shallower by at least 0.1."""
    ha = shared_adaptive_run(name, 1, BEATS_UNIFORM_DOFS)
    hu = uniform_run(name, 1, 150_000)
    na, ea = ha.column("N"), ha.column("eta")
    nu, eu = hu.column("N"), hu.column("eta")
    over = np.flatnonzero(nu >= 3.0e4)
    assert over.size, "uniform run never reached 3e4 dofs"
    n_match, eta_u = nu[over[-1]], eu[over[-1]]
    assert na[-1] >= n_match, "adaptive run does not bracket the match point"
    eta_a = np.exp(np.interp(np.log(n_match), np.log(na), np.log(ea)))
    assert eta_a <= 0.7 * eta_u, (
        f"adaptive/uniform estimator ratio {eta_a / eta_u:.3f} at "
        f"N={int(n_match)} exceeds 0.7"
    )
    s_a = convergence_slope(na, ea)
    s_u = convergence_slope(nu, eu)
    assert s_a <= -0.5 + RATE_TOL, f"adaptive slope {s_a:.4f} above -0.35"
    assert s_u - s_a >= 0.1, (
        f"uniform slope {s_u:.4f} not worse than adaptive {s_a:.4f} by 0.1"
    )


def test_localized_refinement(case2_six_iterations):
    """After six adaptive iterations on the barrier benchmark, the two
    elements with the largest indicators sit at the barrier segment
    endpoints (1, 1/4) and (1, 3/4), within twice their own diameter."""
    spec, hist = case2_six_iterations
    mesh = hist.final_mesh
    bd = hist.final_breakdown
    tips = np.array([[1.0, 0.25], [1.0, 0.75]])
    top2 = np.argsort(bd.element_sq)[::-1][:2]
    for el in top2:
        c = mesh.element_centroids[el]
        h = mesh.element_diameters[el]
        d = np.hypot(*(tips - c).T).min()
        assert d <= 2.0 * h, (
            f"element {el} (centroid {c}, h={h:.4f}) is {d:.4f} from the "
            "nearest barrier endpoint"
        )


def test_pressure_barrier(case2_six_iterations):
    """The solution jumps across the impermeable middle segment of the
    fracture but stays continuous across its conductive ends: on one
    mesh, |jump| > 0.1 at the barrier midpoint and < 0.02 on both
    conductive segments."""
    spec, hist = case2_six_iterations
    mesh = hist.final_mesh
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    sub = mesh.subdivision
    fe = sub.edges_of_kind(FRACTURE)
    mids = sub.edge_midpoint[fe]

    def jump_at(pt):
        j = fe[np.hypot(mids[:, 0] - pt[0], mids[:, 1] - pt[1]).argmin()]
        t1, t2 = sub.edge_tris[j]
        xm = sub.edge_midpoint[j][None, :]
        p1 = sol.p_at(np.array([t1]), xm)[0, 0]
        p2 = sol.p_at(np.array([t2]), xm)[0, 0]
        return abs(p1 - p2)

    assert jump_at((1.0, 0.5)) > 0.1
    assert jump_at((1.0, 0.125)) < 0.02
    assert jump_at((1.0, 0.875)) < 0.02


def constant_solution(mesh, c, k=1):
    V = build_V_h(mesh, SpaceConfig(k))
    S = build_S_h(mesh, SpaceConfig(k))
    W = build_W_h(mesh, SpaceConfig(k))
    return DiscreteSolution(
        V=V,
        S=S,
        W=W,
        u=np.zeros(V.ndof),
        p=interpolate_pressure(S, lambda pts, tris: np.full(pts.shape[:-1], c)),
        p_gamma=interpolate_fracture(mesh.subdivision, W, lambda pts, par, fr: np.full(np.asarray(par).shape, c)),
    )


def scaled_spec(spec, s):
    rules = tuple(
        BoundaryRule(r.kind, r.where, lambda pts, mids, g=r.value: s * g(pts, mids))
        for r in spec.boundary
    )
    tips = tuple(
        tuple(None if t is None else s * t for t in pair)
        for pair in spec.fracture_tips
    )
    f = None if spec.f is None else (lambda pts, region: s * spec.f(pts, region))
    f_gamma = (
        None if spec.f_gamma is None
        else (lambda pts, par, fr: s * spec.f_gamma(pts, par, fr))
    )
    return ProblemSpec(domain=spec.domain, boundary=rules, xi=spec.xi,
                       K=spec.K, f=f, f_gamma=f_gamma, fracture_tips=tips)


@pytest.mark.parametrize("name", sorted(
    ["patch", "case1-a0.1", "case1-a0.01", "case2", "lshape", "multifrac"]))
def test_estimator_invariants(name):
    """On every benchmark: constant fields with matching constant data
    give a zero estimator (every family at the 1e-10 level, exact zero
    oscillation), and scaling all data by s scales every family, the
    estimator, and the oscillation by |s| exactly."""
    spec, exact, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)

    c = 3.0
    spec_c = replace(
        spec,
        boundary=(BoundaryRule(DIRICHLET, everywhere, constant(c)),),
        f=None,
        f_gamma=None,
        fracture_tips=(),
    )
    bd = compute_estimator(mesh, spec_c, constant_solution(mesh, c))
    assert bd.eta <= 1e-10
    assert (bd.terms <= 1e-10).all()
    assert bd.osc == 0.0

    s = -2.0
    sol1, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    sol2, _ = solve_system(assemble_system(mesh, scaled_spec(spec, s), SpaceConfig(1)))
    bd1 = compute_estimator(mesh, spec, sol1)
    bd2 = compute_estimator(mesh, scaled_spec(spec, s), sol2)
    np.testing.assert_allclose(bd2.terms, abs(s) * bd1.terms,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(bd2.eta, abs(s) * bd1.eta, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(bd2.osc, abs(s) * bd1.osc, rtol=1e-9, atol=1e-12)


def test_marking_matches_exhaustive_search():
    """Dorfler marking returns a minimal bulk set: on every index-set
    size up to 12 (integer indicators, dyadic fractions, so comparisons
    are exact) the marked set reaches the theta fraction with the same
    cardinality as an exhaustive search over all subsets."""
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        for _ in range(3):
            ind = rng.integers(0, 8, size=n).astype(float)
            if ind.sum() == 0.0:
                ind[int(rng.integers(0, n))] = 1.0
            total = ind.sum()
            for theta in (0.25, 0.5, 0.75, 1.0):
                marked = dorfler_mark(ind, theta)
                assert ind[marked].sum() >= theta * total
                best = None
                for m in range(1, n + 1):
                    if any(ind[list(combo)].sum() >= theta * total
                           for combo in itertools.combinations(range(n), m)):
                        best = m
                        break
                assert len(marked) == best, (
                    f"n={n} theta={theta}: marked {len(marked)} elements, "
                    f"minimal is {best}"
                )


def dorfler_margin(indicators, theta):
    """How near the cut of `dorfler_mark(indicators, theta)` is to a tie,
    in its order: the smaller of the relative gap between the last marked
    and the first unmarked indicator, and the relative gaps between theta *
    total and the cumulative sums at and before the cut.  A change of the
    indicators by less than this in relative terms keeps the marked set."""
    ind = np.asarray(indicators, dtype=float)
    target = theta * ind.sum()
    order = np.lexsort((np.arange(ind.size), -ind))
    order = order[ind[order] > 0.0]
    csum = np.cumsum(ind[order])
    cut = min(int(np.searchsorted(csum, target, side="left")), order.size - 1)
    gaps = [abs(csum[cut] - target) / target]
    if cut > 0:
        gaps.append(abs(target - csum[cut - 1]) / target)
    if cut + 1 < order.size:
        gaps.append((ind[order[cut]] - ind[order[cut + 1]]) / ind[order[cut]])
    return float(min(gaps))


def cut_margins(name, k, budget):
    """The `dorfler_margin` of each iteration's cut in `adaptive_run`,
    with the numpy and scipy versions that computed them."""
    margins = []

    def record(rec, mesh, sol, bd, system):
        margins.append(dorfler_margin(bd.element_sq, 0.5))

    adaptive_run(name, k, budget, callback=record)
    return {"numpy": np.__version__, "scipy": scipy.__version__, "margins": margins}


if __name__ == "__main__":
    if sys.argv[1:] != ["cuts"]:
        out = {run: history_rows(adaptive_run(name, k, budget)) for run, (name, k, budget, _) in FULL_RUNS.items()}
        FULL_HISTORIES.write_text(json.dumps(out, indent=1) + "\n")
    out = {run: cut_margins(name, k, budget) for run, (name, k, budget, _) in FULL_RUNS.items()}
    FULL_HISTORY_CUTS.write_text(json.dumps(out, indent=1) + "\n")
