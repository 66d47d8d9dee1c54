"""Marking, loop configuration, and the adaptive refinement driver."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from sdgdarcy import adaptivity
from sdgdarcy.adaptivity import (
    UNIFORM,
    AmrConfig,
    amr_loop,
    dorfler_mark,
)
from sdgdarcy.benchmarks import case1, linear_patch
from sdgdarcy.errors import AllZeroIndicators, ConfigError, SingularSystem
from sdgdarcy.geometry import DomainSpec, build_initial_mesh
from sdgdarcy.problem import DIRICHLET, NEUMANN, BoundaryRule, ProblemSpec, everywhere

from conftest import convergence_slope, polygons


# ---------------------------------------------------------------- marking

def test_dorfler_dominant_element():
    # 16 alone reaches half of the total 30
    assert dorfler_mark([16.0, 9.0, 4.0, 1.0], 0.5).tolist() == [0]


def test_dorfler_ties_prefer_lower_ids():
    assert dorfler_mark([1.0, 1.0, 1.0, 1.0], 0.5).tolist() == [0, 1]


def test_dorfler_theta_one_marks_every_nonzero():
    assert dorfler_mark([1.0, 1.0, 0.0, 2.0], 1.0).tolist() == [0, 1, 3]


def test_dorfler_rejects_zero_indicators():
    with pytest.raises(AllZeroIndicators):
        dorfler_mark(np.zeros(5), 0.5)


@pytest.mark.parametrize(
    "ind, culprit",
    [([1.0, math.nan, 2.0], 1), ([1.0, -5.0, 2.0], 1), ([math.inf, 1.0], 0), ([0.0, 0.0, -0.0, -1e-300], 3)],
    ids=["nan", "negative", "inf", "negative-rest-zero"],
)
def test_dorfler_rejects_non_finite_or_negative_indicators(ind, culprit):
    with pytest.raises(ValueError, match=f"element {culprit} ") as exc:
        dorfler_mark(ind, 0.5)
    assert type(exc.value) is not AllZeroIndicators


@pytest.mark.parametrize("theta", [0.0, -0.25, 1.2])
def test_dorfler_rejects_bad_theta(theta):
    with pytest.raises(ConfigError):
        dorfler_mark([1.0, 2.0], theta)


def test_dorfler_marks_minimal_sets():
    # integer indicators and dyadic theta keep every comparison exact, so
    # the greedy reference and the subset search cannot disagree on ties
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        ind = rng.integers(0, 11, size=n).astype(float)
        if ind.sum() == 0:
            ind[int(rng.integers(0, n))] = 1.0
        for theta in (0.25, 0.5, 0.75, 1.0):
            target = theta * ind.sum()
            marked = dorfler_mark(ind, theta)
            assert ind[marked].sum() >= target
            assert np.all(ind[marked] > 0)

            order = sorted(range(n), key=lambda i: (-ind[i], i))
            run, ref = 0.0, []
            for i in order:
                if ind[i] == 0.0:
                    continue
                ref.append(i)
                run += ind[i]
                if run >= target:
                    break
            assert marked.tolist() == sorted(ref)

            nonzero = np.flatnonzero(ind)
            smallest = next(
                c
                for c in range(1, nonzero.size + 1)
                if any(
                    ind[list(s)].sum() >= target
                    for s in itertools.combinations(nonzero, c)
                )
            )
            assert marked.size == smallest


# ---------------------------------------------------------- configuration

def test_config_defaults():
    cfg = AmrConfig()
    assert cfg.theta == 0.5
    assert cfg.mode == "adaptive"
    assert cfg.max_dofs == 200_000
    assert cfg.max_iterations == 30
    assert cfg.k == 1


@pytest.mark.parametrize(
    "kw",
    [
        {"theta": 0.0},
        {"theta": 1.5},
        {"mode": "bisect"},
        {"k": 0},
        {"max_iterations": 0},
        {"max_dofs": 0},
        {"k": 3},
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ConfigError):
        AmrConfig(**kw)


def test_convergence_slope_recovers_power_law():
    ns = np.array([100.0, 200.0, 400.0, 800.0])
    assert abs(convergence_slope(ns, 3.0 * ns**-0.7) + 0.7) < 1e-12


def test_convergence_slope_uses_last_points():
    ns = np.array([10.0, 20.0, 40.0, 80.0, 160.0, 320.0])
    values = 5.0 * ns**-0.5
    values[0] = 99.0  # off-trend early point must not enter the window
    assert abs(convergence_slope(ns, values) + 0.5) < 1e-12


def test_convergence_slope_needs_two_points():
    with pytest.raises(ConfigError):
        convergence_slope([10.0], [1.0])


# ------------------------------------------------------------ loop basics

def test_uniform_mode_quadruples_elements():
    spec, exact = linear_patch()
    mesh = build_initial_mesh(spec.domain, 1.0)
    hist = amr_loop(mesh, spec, AmrConfig(mode=UNIFORM, max_iterations=3), exact=exact)
    assert hist.failure is None
    assert hist.column("n_elements").tolist() == [2, 8, 32]
    assert hist.column("N").tolist() == [44, 185, 755]


def test_theta_one_matches_uniform():
    spec, exact = case1(0.1)
    mesh = build_initial_mesh(spec.domain, 0.5)
    bulk = amr_loop(mesh, spec, AmrConfig(theta=1.0, max_iterations=4), exact=exact)
    unif = amr_loop(mesh, spec, AmrConfig(mode=UNIFORM, max_iterations=4), exact=exact)
    assert bulk.column("n_elements").tolist() == unif.column("n_elements").tolist()
    assert bulk.column("N").tolist() == unif.column("N").tolist()
    assert np.array_equal(bulk.column("eta"), unif.column("eta"))


def test_budget_stops_before_oversize_solve():
    spec, exact = linear_patch()
    mesh = build_initial_mesh(spec.domain, 1.0)
    cfg = AmrConfig(mode=UNIFORM, max_dofs=700, max_iterations=9)
    hist = amr_loop(mesh, spec, cfg, exact=exact)
    assert hist.column("N").tolist() == [44, 185]  # the 755-dof mesh is never solved


def test_budget_rejects_oversize_initial_mesh():
    spec, exact = linear_patch()
    mesh = build_initial_mesh(spec.domain, 1.0)
    with pytest.raises(ConfigError):
        amr_loop(mesh, spec, AmrConfig(max_dofs=40))


def test_singular_system_halts_with_failure():
    dom = DomainSpec(((0.0, 0.0, 1.0, 1.0),))
    spec = ProblemSpec(
        domain=dom,
        boundary=(BoundaryRule(NEUMANN, everywhere),),
        f=lambda pts, region: np.ones(pts.shape[0]),
    )
    hist = amr_loop(build_initial_mesh(dom, 0.25), spec, AmrConfig(max_iterations=3))
    assert hist.failure is not None and "singular" in hist.failure
    assert hist.records == []
    assert hist.final_mesh is None


def test_singular_stop_keeps_the_last_solved_state(monkeypatch):
    """The history holds the last solution as its mesh and vectors;
    `final_solution` rebuilt from them is bit for bit the one the loop
    solved, on a normal stop and when the next solve is singular."""
    spec, exact = case1(0.1)
    cfg = AmrConfig(theta=0.5, max_iterations=4)
    seen = {}

    def keep(record, mesh, sol, bd, system):
        seen[record.iteration] = (mesh, sol.u, sol.p, sol.p_gamma, sol.V.ref_coeff, sol.S.node_coords, bd.element_sq)

    full = amr_loop(build_initial_mesh(spec.domain, 0.5), spec, cfg, callback=keep)
    assert full.failure is None and len(full.records) == 4
    calls = []
    solve = adaptivity.solve_system

    def singular_third(system):
        calls.append(system.n)
        if len(calls) == 3:
            raise SingularSystem("singular system: injected")
        return solve(system)

    monkeypatch.setattr(adaptivity, "solve_system", singular_third)
    hist = amr_loop(build_initial_mesh(spec.domain, 0.5), spec, cfg)
    assert hist.failure == "singular system: injected" and len(hist.records) == 2
    for h, it in ((full, 3), (hist, 1)):
        mesh, *arrays = seen[it]
        sol = h.final_solution
        assert sol.mesh is h.final_mesh and h.final_solution is sol
        assert h.final_mesh.vertices.tobytes() == mesh.vertices.tobytes()
        for name in ("offsets", "vertex", "hanging"):
            assert getattr(h.final_mesh.cycles, name).tobytes() == getattr(mesh.cycles, name).tobytes()
        got = (sol.u, sol.p, sol.p_gamma, sol.V.ref_coeff, sol.S.node_coords, h.final_breakdown.element_sq)
        names = ("u", "p", "p_gamma", "V.ref_coeff", "S.node_coords", "element_sq")
        for name, a, b in zip(names, got, arrays):
            assert a.tobytes() == b.tobytes(), (it, name)


def test_loop_holds_one_iteration(monkeypatch):
    """The solution and the system of an iteration are freed before the next
    iteration's solve, its spaces before the next `build_spaces`, its
    subdivision once the mesh is refined, and every mesh the loop made once
    it is neither refined, solved on nor the last solved one, all by
    reference counting alone: the loop leaves nothing to the cyclic
    collector.  The history keeps no subdivision, and `final_solution`
    rebuilds the last solved state bit for bit."""
    spec, exact = case1(0.1)
    refs, flux, meshes, subs, dead, spaces_dead, meshes_dead, subs_dead = [], [], [], [], [], [], [], []
    last = {}
    solve, build = adaptivity.solve_system, adaptivity.build_spaces

    def check(system):
        dead.append([r() is None for r in refs])
        # the caller holds the initial mesh; the history holds the last one
        meshes_dead.append([r() is None for r in meshes[1:-1]])
        return solve(system)

    def check_spaces(*args, **kw):
        spaces_dead.append([r() is None for r in flux])
        return build(*args, **kw)

    def keep(record, mesh, sol, bd, system):
        subs_dead.append([r() is None for r in subs])
        refs[:] = [weakref.ref(sol), weakref.ref(system)]
        flux[:] = [weakref.ref(sol.V)]
        meshes.append(weakref.ref(mesh))
        subs.append(weakref.ref(sol.sub))
        last.update(u=sol.u.tobytes(), p=sol.p.tobytes(), p_gamma=sol.p_gamma.tobytes(),
                    tri_coords=sol.sub.tri_coords.tobytes())

    monkeypatch.setattr(adaptivity, "solve_system", check)
    monkeypatch.setattr(adaptivity, "build_spaces", check_spaces)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        hist = amr_loop(build_initial_mesh(spec.domain, 0.5), spec, AmrConfig(max_iterations=5), callback=keep)
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert len(hist.records) == 5
    assert dead == [[]] + [[True, True]] * 4
    assert spaces_dead == [[]] + [[True]] * 4
    assert meshes_dead == [[], [], [], [True], [True, True]]
    assert subs_dead == [[True] * i for i in range(5)]
    assert found == 0
    assert all(r() is None for r in subs) and "subdivision" not in vars(hist.final_mesh)
    sol = hist.final_solution
    got = dict(u=sol.u, p=sol.p, p_gamma=sol.p_gamma, tri_coords=sol.sub.tri_coords)
    assert {name: a.tobytes() for name, a in got.items()} == last


def test_zero_solution_stops_marking():
    dom = DomainSpec(((0.0, 0.0, 1.0, 1.0),))
    spec = ProblemSpec(domain=dom, boundary=(BoundaryRule(DIRICHLET, everywhere),))
    hist = amr_loop(build_initial_mesh(dom, 0.5), spec, AmrConfig(max_iterations=5))
    assert hist.failure is None
    assert len(hist.records) == 1
    assert hist.records[0].eta == 0.0
    assert math.isnan(hist.records[0].EI)


def test_identical_runs_identical_records():
    # the two timing fields are wall clock and excluded by design
    spec, exact = case1(0.1)
    mesh = build_initial_mesh(spec.domain, 0.5)
    cfg = AmrConfig(theta=0.5, max_iterations=3)
    a = amr_loop(mesh, spec, cfg, exact=exact)
    b = amr_loop(mesh, spec, cfg, exact=exact)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.terms, rb.terms)
        for name in (
            "iteration", "N", "eta", "osc", "err_Q", "err_V", "err_sdg",
            "EI", "n_elements", "rho_E",
        ):
            assert getattr(ra, name) == getattr(rb, name), name


# --------------------------------------------------------- adaptive runs

@pytest.fixture(scope="module")
def case1_adaptive():
    spec, exact = case1(0.1)
    mesh = build_initial_mesh(spec.domain, 0.25)
    cfg = AmrConfig(theta=0.5, max_dofs=15_000, max_iterations=12, k=1)
    return amr_loop(mesh, spec, cfg, exact=exact)


def test_adaptive_run_completes(case1_adaptive):
    hist = case1_adaptive
    assert hist.failure is None
    assert len(hist.records) >= 6
    assert hist.final_mesh is not None
    assert hist.final_breakdown is not None


def test_adaptive_dof_counts_increase(case1_adaptive):
    ns = case1_adaptive.column("N")
    assert np.all(np.diff(ns) > 0)


def test_adaptive_meshes_stay_regular(case1_adaptive):
    assert case1_adaptive.column("rho_E").min() >= 0.2


def test_adaptive_estimator_converges(case1_adaptive):
    hist = case1_adaptive
    ns = hist.column("N")
    assert convergence_slope(ns, hist.column("eta")) <= -0.35
    assert convergence_slope(ns, hist.column("err_sdg")) <= -0.35


def test_adaptive_effectivity_bounded(case1_adaptive):
    ei = case1_adaptive.column("EI")
    assert np.all(np.isfinite(ei))
    assert np.all((1.0 <= ei) & (ei <= 4.0))


def test_adaptive_marks_follow_the_boundary_layer():
    # a sharp layer of width 0.01 hugs the fracture; after five adaptive
    # passes the bulk of the marked cells must touch the strip |x - 1| <= 0.1
    spec, exact = case1(0.01)
    mesh = build_initial_mesh(spec.domain, 0.25)
    cfg = AmrConfig(theta=0.5, max_dofs=60_000, max_iterations=6, k=1)
    hist = amr_loop(mesh, spec, cfg, exact=exact)
    assert len(hist.records) == 6

    m = hist.final_mesh
    marked = dorfler_mark(hist.final_breakdown.element_sq, 0.5)
    touches = []
    for p in marked:
        xs = m.vertices[np.array(polygons(m)[p]), 0]
        touches.append(xs.min() <= 1.1 and xs.max() >= 0.9)
    assert np.mean(touches) >= 0.6
