"""Solver oracles: recovery of known coefficient vectors, report accuracy,
failure modes, exact reproduction of the linear patch solution, and
agreement of the skeleton solve, which condenses the flux and the
polygon-interior pressures, with a direct LU of the full saddle system."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sdgdarcy import assembly, solve
from sdgdarcy.adaptivity import AmrConfig, amr_loop
from sdgdarcy.assembly import assemble_system
from sdgdarcy.benchmarks import get_benchmark, linear_patch
from sdgdarcy.errors import NonFinite, SingularSystem, SolverError
from sdgdarcy.geometry import build_initial_mesh, refine
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

from conftest import condense_every, saddle_backward_error
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


def test_refinement_steps_keep_the_solution(patch_system, monkeypatch):
    """With no backward error counted as roundoff, the solve takes both
    refinement steps, and they keep x0."""
    monkeypatch.setattr(solve, "_REFINE_BELOW", 0.0)
    sys, _ = patch_system
    x0 = np.random.default_rng(3).standard_normal(sys.n)
    x, report = _solve_vector(sys, sys.A @ x0)
    assert report.refinement_steps == 2
    assert np.linalg.norm(x - x0) <= 1e-11 * np.linalg.norm(x0)


def test_refinement_that_cannot_reach_the_bound_raises(patch_system, monkeypatch):
    """A backward error above `_FAIL_ABOVE` after the refinement steps is a
    SolverError that names them."""
    monkeypatch.setattr(solve, "_REFINE_BELOW", 0.0)
    monkeypatch.setattr(solve, "_FAIL_ABOVE", 0.0)
    sys, _ = patch_system
    with pytest.raises(SolverError, match="after 2 refinement steps"):
        _solve_vector(sys, sys.A @ np.random.default_rng(3).standard_normal(sys.n))


def test_report_matches_recomputation(patch_system):
    sys, exact = patch_system
    x, report = _solve_vector(sys, sys.rhs)
    r = sys.A @ x - sys.rhs
    denom = np.linalg.norm(np.abs(sys.A) @ np.abs(x) + np.abs(sys.rhs), np.inf)
    recomputed = np.linalg.norm(r, np.inf) / denom
    assert abs(report.residual - recomputed) <= 1e-14
    assert report.n == sys.n
    assert report.nnz == sys.A.nnz
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


def test_slices_keep_every_bit(monkeypatch):
    """The solve and `LinearSystem.matvec` gather the class rows of one
    `_SLICE` of polygons at a time.  With 7 polygons per slice in place of
    256, on a mesh of two triangle counts whose larger block spans two
    default slices, x, the residual, the refinement solve and A r, |A| |r|
    keep every byte."""
    spec, exact = linear_patch()
    mesh = build_initial_mesh(spec.domain, 1 / 16)
    sys = assemble_system(refine(mesh, np.arange(0, mesh.n_elements, 7)), spec, SpaceConfig(2))
    assert len(sys.blocks) == 2 and max(g.polygons.size for g in sys.blocks) > assembly._SLICE
    r = np.random.default_rng(5).standard_normal(sys.n)

    def products():
        x, report = _solve_vector(sys, sys.rhs)
        return x, report.residual, _Condensed(sys).solve(r), sys.matvec(r), sys.matvec(np.abs(r), absolute=True)

    default = products()
    monkeypatch.setattr(assembly, "_SLICE", 7)
    for a, b in zip(products(), default):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _skeleton_matrix(sys):
    """R = C + sum_P R_P over the free primal-edge pressures and p_gamma,
    from the condensation of every polygon (`condense_every`), with every
    entry of each R_P stored."""
    ny = sys.n - sys.offsets[1]
    interior = np.zeros(ny + 1, dtype=bool)
    for g in sys.blocks:
        interior[g.cols[:, g.n_skeleton :]] = True
    skeleton = np.flatnonzero(~interior[:ny])
    pos = np.full(ny + 1, -1)
    pos[skeleton] = np.arange(skeleton.size)
    C = sys.C.tocoo()
    rows, cols, vals = [pos[C.row]], [pos[C.col]], [C.data]
    for g, (*_, R) in zip(sys.blocks, condense_every(sys)):
        cb = pos[g.cols[:, : g.n_skeleton]]
        r, c = np.broadcast_arrays(cb[:, :, None], cb[:, None, :])
        keep = (r >= 0) & (c >= 0)
        rows.append(r[keep]), cols.append(c[keep]), vals.append(R[keep])
    n = skeleton.size
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))


@pytest.mark.parametrize("name,k", [("case2", 1), ("case1-a0.1", 2)])
def test_skeleton_matrix_equals_the_oracle(monkeypatch, name, k):
    """The matrix the solve factors is the oracle's R, with the same index
    arrays and data bytes, on refined meshes with a fracture, Dirichlet data
    and three triangle counts; also with 7 polygons per slice in place of
    256, so that every block spans several slices."""
    spec, exact, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)
    sys = assemble_system(refine(mesh, np.arange(0, mesh.n_elements, 3)), spec, SpaceConfig(k))
    assert len(sys.blocks) == 3 and sys.W.n_free > 0 and sys.S.dirichlet_mask.any()
    want = _skeleton_matrix(sys)
    factored = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: factored.append(A) or splu(A, **kw))
    solve_system(sys)
    monkeypatch.setattr(assembly, "_SLICE", 7)
    solve_system(sys)
    assert len(factored) == 2
    for R in factored:
        for field in ("indptr", "indices", "data"):
            a, b = getattr(R, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


# tracemalloc peak of `solve_system` above its start on the system below,
# whose condensation the assembly computed: 7,425,018 bytes with the skeleton
# triplets built into int32 buffers one slice of R_P at a time; 12,665,248
# bytes when every R_P was expanded and its int64 triplets concatenated;
# 13,347,923 bytes when the solve kept its own condensation store, and
# 26,417,515 bytes when every product gathered whole blocks and the solve
# copied L and U out for the fill.  The bound is 7,425,018 plus 16%, rounded
# down.
_SOLVE_PEAK_BYTES = 8_600_000


def test_solve_peak_and_fill_counted_when_read():
    """Memory guard in requested bytes, the same on every machine, on a k=2
    grid of 1,152 four-triangle polygons: one block of 4.5 slices.  `fill`
    is not counted by the solve; read, it equals the L + U nonzeros of the
    skeleton matrix factored on its own."""
    spec, exact = linear_patch()
    sys = assemble_system(build_initial_mesh(spec.domain, 1 / 24), spec, SpaceConfig(2))
    assert [g.polygons.size for g in sys.blocks] == [1152] and 1152 > 4 * assembly._SLICE
    solve_system(sys)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        sol, report = solve_system(sys)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < _SOLVE_PEAK_BYTES, peak
    assert "fill" not in vars(report)
    R = _skeleton_matrix(sys)
    assert R.shape[0] == report.n_factored
    lu = spla.splu(R, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    assert report.fill == lu.L.nnz + lu.U.nnz
    assert "fill" in vars(report)
