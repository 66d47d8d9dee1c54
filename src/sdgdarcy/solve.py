"""Direct solve of the reduced system by static condensation of the flux.

The system over free dofs is ordered (u, p, p_gamma) and has the form

    [  M    G ] [u]   [f]
    [ -G^T  C ] [y] = [g],    y = (p, p_gamma),

with the flux mass matrix M, the transposed pressure-gradient form G and
the interface and fracture blocks C.  Every flux dof lives inside one
polygon, so M is block diagonal.  `assemble_system` gathers the dense
polygon blocks M_P and G_P straight from the triangle blocks, grouped by
triangle count, and keeps C sparse.  One batched solve per group gives
M_P^-1 [G_P | f_P], which leaves the symmetric positive definite Schur
complement

    S = C + sum_P G_P^T M_P^-1 G_P  over the free (p, p_gamma) dofs.

SuperLU factors S in symmetric mode (diagonal pivots, minimum-degree
ordering of S + S^T), and u = M^-1 (f - G y) is recovered polygon by
polygon.  The backward error is computed blockwise on the full system;
when the first solve is not at roundoff, up to two steps of iterative
refinement follow, which solve against the stored M_P again.

A system with no constrained pressure dof and no constrained fracture tip
is singular, since the constant pressure then lies in the nullspace of S;
it is rejected before anything is factored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import LinearSystem
from .errors import NonFinite, SingularSystem, SolverError

_REFINE_BELOW = 1e-13  # skip refinement once backward error is at roundoff
_FAIL_ABOVE = 1e-8  # give up if refinement cannot reach this
_MAX_REFINE = 2


@dataclass(frozen=True)
class SolveReport:
    """Statistics of one solve; all but `fill` refer to the full system A."""

    n: int
    nnz: int
    residual: float  # componentwise-normalized backward error
    refinement_steps: int
    t_ms: float
    fill: int  # L + U nonzeros of the factor of the condensed matrix S


def _backward_error(system: LinearSystem, x, rhs) -> float:
    """||A x - rhs||_inf / || |A| |x| + |rhs| ||_inf, applied blockwise."""
    r = system.matvec(x) - rhs
    denom = np.linalg.norm(system.matvec(np.abs(x), absolute=True) + np.abs(rhs), np.inf)
    return float(np.linalg.norm(r, np.inf) / max(denom, np.finfo(float).tiny))


class _Condensed:
    """Factor of the flux-condensed system.

    `x` solves the system for its own right-hand side; `solve` applies A^-1
    to another one.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        self.nV = system.offsets[1]
        self.ny = ny = system.n - self.nV
        f = system.rhs[: self.nV]
        C = system.C.tocoo()
        rows, cols, vals = [C.row], [C.col], [C.data]
        self.W, uf = [], []
        for g in system.blocks:
            m = g.G.shape[2]
            # one batched solve gives W = M^-1 G and M^-1 f
            X = np.linalg.solve(g.M, np.concatenate([g.G, f[g.flux][..., None]], axis=2))
            W = X[..., :m]
            SP = np.swapaxes(g.G, 1, 2) @ W
            SP = 0.5 * (SP + np.swapaxes(SP, 1, 2))
            r = np.broadcast_to(g.cols[:, :, None], SP.shape)
            c = np.broadcast_to(g.cols[:, None, :], SP.shape)
            keep = (r < ny) & (c < ny)
            rows.append(r[keep]), cols.append(c[keep]), vals.append(SP[keep])
            self.W.append(W)
            uf.append(X[..., m])
        S = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(ny, ny),
        )
        try:
            self.lu = spla.splu(
                S,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as err:
            raise SingularSystem(str(err)) from err
        self.fill = int(self.lu.L.nnz + self.lu.U.nnz)
        self.x = self._back(system.rhs, uf)

    def _back(self, rhs: np.ndarray, uf: list) -> np.ndarray:
        """y from S, then u = M^-1 f - W y, given M^-1 f per group."""
        nV, ny = self.nV, self.ny
        f = rhs[:nV]
        z = rhs[nV:].copy()
        for g, W in zip(self.system.blocks, self.W):
            wf = (f[g.flux][:, None, :] @ W)[:, 0]
            z += np.bincount(g.cols.ravel(), wf.ravel(), minlength=ny + 1)[:ny]
        y = self.lu.solve(z)
        y0 = np.append(y, 0.0)  # constrained local pressures read zero
        u = np.empty(nV)
        for g, W, ufg in zip(self.system.blocks, self.W, uf):
            u[g.flux] = ufg - (W @ y0[g.cols][..., None])[..., 0]
        return np.concatenate([u, y])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        f = rhs[: self.nV]
        uf = [np.linalg.solve(g.M, f[g.flux][..., None])[..., 0] for g in self.system.blocks]
        return self._back(rhs, uf)


def solve_system(system: LinearSystem):
    """Solve a reduced system; returns (DiscreteSolution, SolveReport)."""
    rhs = np.asarray(system.rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise NonFinite("right-hand side contains non-finite entries")
    if system.s_free.size == system.S.ndof and system.w_free.size == system.W.ndof:
        raise SingularSystem(
            "singular system: no pressure dof and no fracture tip is "
            "constrained, so the constant pressure is in its nullspace"
        )
    t0 = time.perf_counter()
    factor = _Condensed(system)
    x = factor.x
    if not np.all(np.isfinite(x)):
        raise NonFinite("solve produced non-finite values")
    res = _backward_error(system, x, rhs)
    steps = 0
    while res > _REFINE_BELOW and steps < _MAX_REFINE:
        x = x + factor.solve(rhs - system.matvec(x))
        steps += 1
        res = _backward_error(system, x, rhs)
    if res > _FAIL_ABOVE or not np.all(np.isfinite(x)):
        raise SolverError(f"backward error {res:.3e} after {steps} refinement steps")
    t_ms = (time.perf_counter() - t0) * 1e3
    report = SolveReport(
        n=system.n,
        nnz=system.nnz,
        residual=res,
        refinement_steps=steps,
        t_ms=t_ms,
        fill=factor.fill,
    )
    return system.expand(x), report
