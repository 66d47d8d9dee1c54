"""Solver oracles: recovery of known coefficient vectors, report accuracy,
failure modes, exact reproduction of the linear patch solution, and
agreement of the skeleton solve, which condenses the flux and the
polygon-interior pressures, with a direct LU of the full saddle system."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from sdgdarcy.adaptivity import AmrConfig, amr_loop
from sdgdarcy.assembly import assemble_system
from sdgdarcy.benchmarks import get_benchmark, linear_patch
from sdgdarcy.errors import NonFinite, SingularSystem
from sdgdarcy.geometry import build_initial_mesh
from sdgdarcy.problem import (
    DIRICHLET,
    NEUMANN,
    BoundaryRule,
    ProblemSpec,
    constant,
    everywhere,
)
from sdgdarcy.solve import _backward_error, _Condensed, solve_system
from sdgdarcy.spaces import _SIDE_NODES, SpaceConfig

from conftest import saddle_backward_error
from test_assembly import exact_free_vector


@pytest.fixture(scope="module")
def patch_system():
    spec, exact, mesh = _patch(0.5)
    return assemble_system(mesh, spec, SpaceConfig(1)), exact


def _patch(h):
    spec, exact = linear_patch()
    return spec, exact, build_initial_mesh(spec.domain, h)


def _solve_vector(sys, rhs):
    """solve_system on `sys` with another right-hand side; returns the
    solution as one vector over the free dofs, and the report."""
    sol, report = solve_system(dataclasses.replace(sys, rhs=rhs))
    x = np.concatenate([sol.u, sol.p[sys.s_free], sol.p_gamma[sys.w_free]])
    return x, report


def test_recovers_random_vectors(patch_system):
    sys, exact = patch_system
    rng = np.random.default_rng(42)
    for _ in range(20):
        x0 = rng.standard_normal(sys.n)
        x, report = _solve_vector(sys, sys.A @ x0)
        assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)
        assert report.residual <= 1e-13


def test_report_matches_recomputation(patch_system):
    sys, exact = patch_system
    x, report = _solve_vector(sys, sys.rhs)
    r = sys.A @ x - sys.rhs
    denom = np.linalg.norm(np.abs(sys.A) @ np.abs(x) + np.abs(sys.rhs), np.inf)
    recomputed = np.linalg.norm(r, np.inf) / denom
    assert abs(report.residual - recomputed) <= 1e-14
    assert report.n == sys.n
    assert report.nnz == sys.A.nnz
    assert report.t_ms > 0
    assert report.fill > 0


def test_singular_matrix_raises():
    """With Neumann data on the whole boundary and free fracture tips the
    pressure is fixed only up to a constant."""
    spec0, exact, mesh = _patch(0.5)
    spec = dataclasses.replace(
        spec0,
        boundary=(BoundaryRule(NEUMANN, everywhere),),
        fracture_tips=((None, None),),
    )
    sys = assemble_system(mesh, spec, SpaceConfig(1))
    assert sys.s_free.size == sys.S.ndof and sys.w_free.size == sys.W.ndof
    with pytest.raises(SingularSystem, match="constant pressure"):
        solve_system(sys)
    # one constrained fracture tip removes the nullspace
    tip = dataclasses.replace(spec, fracture_tips=((0.0, None),))
    sol, report = solve_system(assemble_system(mesh, tip, SpaceConfig(1)))
    assert report.residual <= 1e-13


def test_nonfinite_rhs_raises(patch_system):
    sys, exact = patch_system
    bad = sys.rhs.copy()
    bad[0] = np.nan
    with pytest.raises(NonFinite):
        _solve_vector(sys, bad)


@pytest.mark.parametrize(
    "name,k",
    [
        ("patch", 1),
        ("patch", 2),
        ("case1-a0.1", 1),
        ("case1-a0.1", 2),
        ("case2", 1),
        ("case2", 2),
        ("multifrac", 1),
        ("multifrac", 2),
    ],
)
def test_condensed_solve_matches_saddle_lu(name, k):
    """Oracle: a COLAMD LU of the full (u, p, p_gamma) saddle matrix."""
    spec, exact, h0 = get_benchmark(name)
    sys = assemble_system(build_initial_mesh(spec.domain, h0), spec, SpaceConfig(k))
    x_ref = spla.splu(sys.A.tocsc(), permc_spec="COLAMD").solve(sys.rhs)
    x, report = _solve_vector(sys, sys.rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
    assert report.residual <= 1e-13
    assert report.n == sys.n and report.nnz == sys.A.nnz


@pytest.mark.parametrize("k", [1, 2])
def test_refinement_solve_recovers_random_vectors(k):
    """`_Condensed.solve`, the path iterative refinement takes, applies A^-1
    to right-hand sides other than the system's own."""
    spec, exact, h0 = get_benchmark("multifrac")
    sys = assemble_system(build_initial_mesh(spec.domain, h0), spec, SpaceConfig(k))
    factor = _Condensed(sys)
    rng = np.random.default_rng(k)
    for _ in range(3):
        x0 = rng.standard_normal(sys.n)
        x = factor.solve(sys.A @ x0)
        assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)


@pytest.mark.parametrize("name,k", [("patch", 1), ("case1-a0.1", 2), ("case2", 1), ("multifrac", 2)])
def test_factored_order_is_the_skeleton(name, k):
    """SuperLU factors exactly the free primal-side (side 0) pressure dofs
    and the free fracture pressures."""
    spec, exact, h0 = get_benchmark(name)
    sys = assemble_system(build_initial_mesh(spec.domain, h0), spec, SpaceConfig(k))
    primal = np.unique(sys.S.tri_dofs[:, _SIDE_NODES[k][0]])
    n_primal_free = np.count_nonzero(~sys.S.dirichlet_mask[primal])
    sol, report = solve_system(sys)
    assert report.n_factored == n_primal_free + sys.w_free.size
    assert report.n_factored < sys.n - sys.V.ndof


def test_case2_k2_passes_the_old_pivot_failure():
    """case2 at k=2 used to halt at N = 20,839, where a pivot-ratio
    heuristic rejected a system its factorization solved."""
    spec, exact, h0 = get_benchmark("case2")
    cfg = AmrConfig(max_dofs=25_000, max_iterations=30, k=2)
    hist = amr_loop(build_initial_mesh(spec.domain, h0), spec, cfg)
    assert hist.failure is None
    assert hist.column("N")[-1] >= 20_839


@pytest.mark.parametrize("k", [1, 2])
def test_patch_solved_exactly(k):
    spec, exact, mesh = _patch(0.5)
    sys = assemble_system(mesh, spec, SpaceConfig(k))
    sol, report = solve_system(sys)
    x_exact, p_I, w_I = exact_free_vector(sys, exact)
    assert abs(sol.p - p_I).max() < 1e-9
    assert abs(sol.p_gamma - w_I).max() < 1e-9
    assert abs(sol.u - x_exact[: sys.V.ndof]).max() < 1e-9


def test_patch_neumann_solved_exactly():
    spec0, exact, mesh = _patch(0.5)

    def p_val(pts, mids=None):
        return np.asarray(pts)[:, 1]

    spec = ProblemSpec(
        domain=spec0.domain,
        boundary=(
            BoundaryRule(NEUMANN, lambda mids: np.abs(mids[:, 1]) < 1e-9, constant(1.0)),
            BoundaryRule(DIRICHLET, everywhere, p_val),
        ),
        fracture_tips=((0.0, 1.0),),
    )
    sys = assemble_system(mesh, spec, SpaceConfig(1))
    sol, report = solve_system(sys)
    x_exact, p_I, w_I = exact_free_vector(sys, exact)
    assert abs(sol.p - p_I).max() < 1e-9
    assert abs(sol.u - x_exact[: sys.V.ndof]).max() < 1e-9


def test_case1_coarse_solves():
    from sdgdarcy.benchmarks import get_benchmark

    spec, exact, h0 = get_benchmark("case1-a0.1")
    mesh = build_initial_mesh(spec.domain, h0)
    sys = assemble_system(mesh, spec, SpaceConfig(1))
    sol, report = solve_system(sys)
    assert np.all(np.isfinite(sol.p))
    assert np.all(np.isfinite(sol.u))
    assert np.all(np.isfinite(sol.p_gamma))
    assert report.residual < 1e-10


@pytest.mark.parametrize(
    "name,k", [("patch", 1), ("case1-a0.1", 2), ("case2", 1), ("multifrac", 2)]
)
def test_blockwise_backward_error_matches_sparse(name, k):
    """The backward error the solver computes on the blocks equals the one
    computed with the sparse matrix `A`, on the solution and on a perturbed
    vector."""
    spec, exact, h0 = get_benchmark(name)
    sys = assemble_system(build_initial_mesh(spec.domain, h0), spec, SpaceConfig(k))
    x, report = _solve_vector(sys, sys.rhs)
    x_bad = x * (1.0 + 1e-6 * np.random.default_rng(1).standard_normal(x.size))
    for v in (x, x_bad):
        assert abs(_backward_error(sys, v, sys.rhs) - saddle_backward_error(sys.A, v, sys.rhs)) <= 1e-15
    assert report.residual == _backward_error(sys, x, sys.rhs)


def test_loop_never_builds_the_sparse_matrix():
    spec, exact, h0 = get_benchmark("case1-a0.1")
    seen = []
    amr_loop(
        build_initial_mesh(spec.domain, h0),
        spec,
        AmrConfig(max_dofs=20_000, max_iterations=4, k=1),
        callback=lambda record, mesh, sol, bd, system: seen.append("A" in vars(system)),
    )
    assert seen == [False] * 4
