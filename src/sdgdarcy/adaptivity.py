"""Adaptive refinement driver: solve, estimate, mark, refine, record.

Marking uses the standard bulk criterion on squared per-element indicators:
the minimal set of elements whose squared indicators reach a fraction theta
of the total, filled greedily from the largest indicator down (ties broken
by lower element id).  Uniform mode refines every element and ignores theta.

Reuse.  `amr_loop` creates one `BlockCache` and passes it to
`build_spaces`, `assemble_system` and `compute_estimator`.

Per order, the tables that depend on no mesh are built once per process,
on the first iteration, by `spaces.reference(k)` (its docstring lists
them), and every later iteration and loop reads them.  Each is computed by
the expression its consumer used per call, so the bits are the same.  The
loop's stages pass stored rules to `spaces.triangle_tables` and
`spaces.edge_tables`.  Raw points, which those two tabulate on each call,
serve export and checks; in the loop only the two parameter rows of
`fracture_traces` (ts and 1 - ts) and the fracture ends of the estimator's
term 6 are raw, a few values each.

Per triangle, the cache carries by identity.  `refine` copies each polygon
that is not marked, not added by closure and has no side split into the
next mesh unchanged, with the same vertex ids, cycle order and hanging
flags, and records its old id in `kept_from`.  For the triangles of such a
kept polygon the stages take from the cache the flux transforms C_t
(`build_V_h`), the bulk source at the points of the 2k+2 rule, which the
load vector and the estimator share, and the oscillation residual at the
2k+12 rule; the mapped weights are recomputed, as fast as carrying them.
C_t depends only on the triangle's vertex coordinates, the order of their
ids (the flip flags, the subdivision's `tri_flip`) and the side of each
edge it lies on (`tri_side`), which an unchanged cycle fixes: an edge's orientation follows its vertex ids, or
its fracture segment.  The source and the residual depend on absolute
position, so they are carried by identity only.

Per polygon, one mesh shares by class, and nothing crosses to the next.
Refinement of the uniform initial grid leaves mostly congruent squares and a
few hanging-node polygons, so many polygons of one mesh have identical
inputs.  `assemble_system` keys every polygon by the bytes of one row: per
triangle the rows of `tri_flip` and `tri_side`, the edge lengths, the
Jacobian, area and diameter (the inputs of C_t, M_t and B_t), then K and
the Dirichlet mask at the polygon's local pressures.  Polygons of equal
rows form a class, whose label is its row in tables that hold M_P, G_P and
the condensation M_P^-1 G_P, S_II^-1, H and R_P; M_t, B_t and these are
computed once per class.  The Dirichlet values are not in the key: the
lifts p_dir^T B_t are computed apart, on the triangles that touch a
Dirichlet dof, so polygons on non-constant boundary data still share their
class.  The solve gathers each polygon's rows from the tables, one slice at
a time, and knows nothing of classes.

The result is bit-equal to computing every polygon on every iteration.
Each carried or shared row comes from elementwise arithmetic, a batched
matmul, solve or inverse, or a bincount within one polygon, whose result
for one item does not depend on the other items in the batch.  Global sums
keep their order.  Per-triangle arrays are merged back in triangle order.
The polygons of one triangle count form one block, and every global sum
over the blocks adds one bincount per count; a bincount inside one count
adds at most two terms per entry, so the order of the rows inside a count
does not change it.  The lifts left out, on triangles without a Dirichlet
dof, are +-0, and a bincount that adds +-0 to a sum keeps its bits.  A
gathered row is a copy of its class's computed row, so a batched product
over gathered rows gives each polygon its own bits.
A 2-D GEMM is not row-independent: the rows in the tail of its batch get
other bits.  So the oscillation projects f with one stacked product per
triangle, not with f @ wm over all triangles, and carries its residuals.

The cache holds the per-triangle arrays of one mesh.  On its refinement
it keeps the rows of the kept polygons' triangles until a stage merges
them.  A stage called without a cache starts from an empty one.

Memory.  The loop holds one iteration at a time.  After the callback it
drops the system, the spaces and the solution, and the history keeps only
the last solved mesh, its estimator breakdown and its u, p and p_gamma
vectors; `ConvergenceHistory.final_solution` rebuilds the subdivision and
the spaces from them when first read.  A mesh caches its subdivision, which
holds no reference back to it, and a refined mesh refers to its parent
weakly, so a mesh the loop has refined away and no history holds is freed
at once by reference counting, not at the next run of the cyclic garbage
collector; nothing built on a subdivision needs its mesh alive.
`refine` is the last reader of a solved mesh's subdivision (the cache
binds a refinement through the cycles alone), so the loop clears that
cached subdivision right after it, and the final mesh's when it returns:
the loop holds no subdivision past its iteration, even on a mesh the
caller or the history holds.  Reading `mesh.subdivision` again subdivides
anew, with the same bits.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, field
from functools import cached_property

import numpy as np

from .assembly import DiscreteSolution, assemble_system, build_spaces, free_unknowns
from .errors import AllZeroIndicators, ConfigError, SingularSystem, check_fraction, check_integer
from .estimator import EstimatorBreakdown, compute_estimator, true_error
from .geometry import PolygonalMesh, refine
from .problem import ProblemSpec
from .reuse import BlockCache
from .solve import solve_system
from .spaces import SpaceConfig

ADAPTIVE = "adaptive"
UNIFORM = "uniform"


def dorfler_mark(indicators, theta: float) -> np.ndarray:
    """Minimal element set whose squared indicators reach theta * total.

    Returns ascending element ids.  Candidates are ordered by descending
    indicator with lower ids first among equals, so the marked set is the
    shortest such prefix; zero-indicator elements are never marked.  A
    NaN, infinite or negative indicator is a ValueError naming its element.
    """
    check_fraction("theta", theta)
    ind = np.asarray(indicators, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(ind) & (ind >= 0.0)))
    if bad.size:
        raise ValueError(f"element {bad[0]} has indicator {ind[bad[0]]}, not finite and non-negative")
    total = ind.sum()
    if not total > 0.0:
        raise AllZeroIndicators("all element indicators are zero")
    order = np.lexsort((np.arange(ind.size), -ind))
    order = order[ind[order] > 0.0]
    csum = np.cumsum(ind[order])
    cut = int(np.searchsorted(csum, theta * total, side="left"))
    cut = min(cut, order.size - 1)
    return np.sort(order[: cut + 1])


def option(default=MISSING, *, help: str):
    """A config field whose `help` is the help text of its `sdg run` flag."""
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class AmrConfig:
    """Knobs of one refinement run."""

    theta: float = option(0.5, help="Dorfler bulk fraction, in (0, 1]")
    mode: str = option(ADAPTIVE, help=f"refinement mode: {ADAPTIVE} or {UNIFORM}")
    max_dofs: int = option(200_000, help="budget of free unknowns")
    max_iterations: int = option(30, help="most solves in the loop")
    k: int = option(1, help="polynomial order (1 or 2)")

    def __post_init__(self):
        check_integer("max_dofs", self.max_dofs)  # k is checked by SpaceConfig
        check_integer("max_iterations", self.max_iterations)
        check_fraction("theta", self.theta)
        if self.mode not in (ADAPTIVE, UNIFORM):
            raise ConfigError(f"mode={self.mode!r} not one of {ADAPTIVE!r}, {UNIFORM!r}")
        SpaceConfig(self.k)  # the supported orders live there
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if self.max_dofs < 1:
            raise ConfigError("max_dofs must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the convergence history; its fields, in order, are the
    columns of `history.csv` (`terms` as T1..T8).  The `t_*` fields are
    wall times in milliseconds, and the only columns that differ between
    two runs of the same settings."""

    iteration: int
    N: int  # free unknowns of the solved system
    terms: np.ndarray  # (8,) estimator family values
    eta: float
    osc: float
    err_Q: float  # NaN when no exact solution is known
    err_V: float
    err_sdg: float
    EI: float
    n_elements: int
    rho_E: float
    t_solve_ms: float
    t_estimate_ms: float


@dataclass
class ConvergenceHistory:
    """Per-iteration records plus the last solved state.

    The state is `final_mesh`, `final_breakdown` and `final_vectors`, the
    (u, p, p_gamma) coefficient vectors, all None while nothing is solved.
    `final_mesh` keeps no cached subdivision.  `final_solution` is rebuilt
    from them, with the subdivision and the spaces of `final_mesh`, on its
    first read: the same bits as in the loop, which built the spaces with
    its cache.  That read costs one subdivision and one `build_spaces`
    without the cache, 50-100 ms on the final meshes of case2 at k=1 with a
    2e5 budget and of case1-a0.1 at k=2 with 1e5; the history does not keep
    the subdivision and the spaces of a run that never reads them.
    """

    records: list = field(default_factory=list)
    config: AmrConfig = None
    spec: ProblemSpec = None
    failure: str = None  # set when the loop halted on a singular system
    final_mesh: PolygonalMesh = None
    final_breakdown: EstimatorBreakdown = None
    final_vectors: tuple = None  # (u, p, p_gamma) on final_mesh

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    @cached_property
    def final_solution(self) -> DiscreteSolution:
        """The last solved state, or None when nothing was solved."""
        if self.final_mesh is None:
            return None
        S, V, W = build_spaces(self.final_mesh, self.spec, SpaceConfig(self.config.k))
        return DiscreteSolution(V, S, W, *self.final_vectors)


def amr_loop(
    mesh: PolygonalMesh,
    spec: ProblemSpec,
    config: AmrConfig,
    exact=None,
    callback=None,
) -> ConvergenceHistory:
    """Run solve / estimate / mark / refine until a stopping rule fires.

    Stops on max_iterations, on a refinement that would exceed max_dofs
    (counted from the spaces, so the over-budget mesh is neither assembled
    nor solved), or on all-zero indicators.  A singular system is recorded
    in `failure` and halts the loop.  One `BlockCache` carries the arrays
    of kept triangles from each iteration to the next.  When given, callback(record, mesh, sol, breakdown, system) runs
    after each record is appended; exporters hook in here.

    The loop then drops the system, the spaces and the solution, so they
    are freed before the next `build_spaces`; the history keeps the last
    solved state, on every stop, as its mesh, breakdown and vectors alone.
    The cached subdivision of each solved mesh, `mesh` included, is
    cleared once the mesh is refined or the loop returns (see
    `ConvergenceHistory` and "Memory" in the module docstring).
    """
    history = ConvergenceHistory(config=config, spec=spec)
    nan = float("nan")
    space_config = SpaceConfig(config.k)
    cache = BlockCache()
    for it in range(config.max_iterations):
        spaces = build_spaces(mesh, spec, space_config, cache)
        n = free_unknowns(spaces)
        if n > config.max_dofs:
            if it == 0:
                raise ConfigError(
                    f"initial problem has {n} unknowns, above "
                    f"max_dofs={config.max_dofs}"
                )
            break
        system = assemble_system(mesh, spec, space_config, spaces=spaces, cache=cache)
        t0 = time.perf_counter()
        try:
            # drop the report at once: it holds this system, which would
            # otherwise stay alive through the next iteration's solve
            sol = solve_system(system)[0]
        except SingularSystem as exc:
            history.failure = str(exc)
            break
        t_solve = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        bd = compute_estimator(mesh, spec, sol, cache)
        if exact is not None:
            er = true_error(mesh, spec, sol, exact, eta=bd.eta)
            err_q, err_v, err_sdg, ei = er.err_Q, er.err_V, er.err_sdg, er.EI
        else:
            err_q = err_v = err_sdg = ei = nan
        t_estimate = (time.perf_counter() - t0) * 1e3

        if history.records and system.n <= history.records[-1].N:
            raise RuntimeError("refinement did not increase the unknown count")
        history.records.append(
            IterationRecord(
                iteration=it,
                N=system.n,
                terms=bd.terms.copy(),
                eta=bd.eta,
                osc=bd.osc,
                err_Q=err_q,
                err_V=err_v,
                err_sdg=err_sdg,
                EI=ei,
                n_elements=mesh.n_elements,
                rho_E=mesh.rho_E,
                t_solve_ms=t_solve,
                t_estimate_ms=t_estimate,
            )
        )
        history.final_mesh = mesh
        history.final_breakdown = bd
        history.final_vectors = (sol.u, sol.p, sol.p_gamma)
        if callback is not None:
            callback(history.records[-1], mesh, sol, bd, system)
        del system, spaces, sol

        if it == config.max_iterations - 1:
            break
        if config.mode == UNIFORM:
            marked = np.arange(mesh.n_elements)
        else:
            try:
                marked = dorfler_mark(bd.element_sq, config.theta)
            except AllZeroIndicators:
                break
        mesh = refine(mesh, marked)
        # refine was the last reader of the solved mesh's subdivision
        vars(history.final_mesh).pop("subdivision", None)
    if history.final_mesh is not None:
        vars(history.final_mesh).pop("subdivision", None)
    return history
