"""Direct solve of the reduced system by static condensation per polygon.

The system over free dofs is ordered (u, p, p_gamma) and has the form

    [  M    G ] [u]   [f]
    [ -G^T  C ] [y] = [g],    y = (p, p_gamma),

with the flux mass matrix M, the transposed pressure-gradient form G and
the interface and fracture blocks C.  Every flux dof lives inside one
polygon, so M is block diagonal.  `assemble_system` gathers the dense
polygon blocks M_P and G_P straight from the triangle blocks, grouped by
triangle count, and keeps C sparse.

Pressure is continuous only across primal edges, so the pressure nodes off
the primal edge of a triangle (its side 0) belong to one polygon as well,
and C and the Dirichlet data touch only primal-edge nodes and p_gamma.
The polygon blocks list the side-0 columns B first and these interior
columns I after them.  The condensation of a polygon depends on M_P and
G_P alone, so `assemble_system` computes it with them, once per class of
polygons (see `PolygonBlocks`): W = M_P^-1 G_P, the symmetric positive
definite Schur block S_P = G_P^T W, S_II^-1, H = S_II^-1 S_IB and the
skeleton block R_P = S_BB - S_BI H.  The interior right-hand side z_I
enters the skeleton one as -H^T z_I.  SuperLU factors only the skeleton
matrix

    R = C + sum_P R_P  over the free primal-edge pressures and p_gamma

in symmetric mode (diagonal pivots, minimum-degree ordering of R + R^T).
R is built in a call of its own, from int32 triplets in buffers sized for
every entry, which are freed before SuperLU runs.  M^-1 f is solved on the
polygons whose f_P is not zero, which for the system's own right-hand side
are those with Dirichlet data; the interior pressures, and then
u = M^-1 (f - G y), are recovered polygon by polygon.  The build of R and
every product gather the class rows of one slice of `_SLICE` polygons at a
time, so that beyond the factor the solve holds one slice of gathered rows.
The backward error is computed blockwise on the full system; when the
first solve is not at roundoff, up to two steps of iterative refinement
follow, which take the same path.  `SolveReport` keeps the factor until it
is dropped and counts its fill (L + U nonzeros) only when that is first
read.

A system with no constrained pressure dof and no constrained fracture tip
is singular, since the constant pressure then lies in the nullspace of R;
it is rejected before anything is factored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import LinearSystem, _slices
from .errors import NonFinite, SingularSystem, SolverError

_REFINE_BELOW = 1e-13  # skip refinement once backward error is at roundoff
_FAIL_ABOVE = 1e-8  # give up if refinement cannot reach this
_MAX_REFINE = 2


@dataclass(frozen=True)
class SolveReport:
    """Statistics of one solve; all but `fill` and `n_factored` refer to
    the full system A."""

    n: int
    residual: float  # componentwise-normalized backward error
    refinement_steps: int
    n_factored: int  # order of R: free primal-edge pressures and p_gamma
    system: LinearSystem = field(repr=False, compare=False)
    lu: spla.SuperLU = field(repr=False, compare=False)  # the factor of R, kept with the report

    @cached_property
    def nnz(self) -> int:
        """Nonzeros of A, counted on the blocks when first read."""
        return self.system.nnz

    @cached_property
    def fill(self) -> int:
        """L + U nonzeros of the factor of R, counted when first read."""
        return int(self.lu.L.nnz + self.lu.U.nnz)


def _backward_error(system: LinearSystem, x, rhs) -> float:
    """||A x - rhs||_inf / || |A| |x| + |rhs| ||_inf, applied blockwise."""
    r = system.matvec(x) - rhs
    denom = np.linalg.norm(system.matvec(np.abs(x), absolute=True) + np.abs(rhs), np.inf)
    return float(np.linalg.norm(r, np.inf) / max(denom, np.finfo(float).tiny))


class _Condensed:
    """Factor of the skeleton system left by condensing the flux and the
    polygon-interior pressures.

    `x` solves the system for its own right-hand side; `solve` applies A^-1
    to another one.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        self.nV = nV = system.offsets[1]
        try:
            self.lu = spla.splu(
                self._skeleton_matrix(system, system.n - nV),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as err:
            raise SingularSystem(str(err)) from err
        self.x = self.solve(system.rhs)

    def _skeleton_matrix(self, system: LinearSystem, ny: int) -> sp.csc_matrix:
        """R = C + sum_P R_P; sets the skeleton and its columns per block.
        The triplets of C, then of the kept entries of R_P, block by block
        and one slice of polygons at a time, fill one buffer in order."""
        # the y index of every skeleton unknown, and the skeleton index of
        # every y index; interior and constrained (y index ny) pressures map
        # to nsk, and C has no entry there
        interior = np.zeros(ny + 1, dtype=bool)
        for g in system.blocks:
            interior[g.cols[:, g.n_skeleton :]] = True
        self.skeleton = np.flatnonzero(~interior[:ny])
        nsk = self.skeleton.size
        pos = np.full(ny + 1, nsk, dtype=np.int32)
        pos[self.skeleton] = np.arange(nsk)
        C = system.C.tocoo()
        size = C.nnz + sum(g.classes.size * g.n_skeleton**2 for g in system.blocks)
        rows, cols, vals = np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size)
        end = C.nnz
        rows[:end], cols[:end], vals[:end] = pos[C.row], pos[C.col], C.data
        self.cb = []  # per block: the skeleton columns of every polygon
        for g in system.blocks:
            # an entry of R has at most two terms (the polygons on both sides
            # of an interior primal edge, or one polygon and C on a fracture
            # edge), so the order of the polygons does not change its sum
            cb = pos[g.cols[:, : g.n_skeleton]]
            for p in _slices(cb.shape[0]):
                r, c = np.broadcast_arrays(cb[p, :, None], cb[p, None, :])
                keep = (r < nsk) & (c < nsk)
                start, end = end, end + np.count_nonzero(keep)
                rows[start:end], cols[start:end], vals[start:end] = r[keep], c[keep], g.R[g.classes[p]][keep]
            self.cb.append(cb)
        return sp.csc_matrix((vals[:end], (rows[:end], cols[:end])), shape=(nsk, nsk))

    def _back(self, rhs: np.ndarray, uf: list) -> np.ndarray:
        """Skeleton y from R, then the interior y and u = M^-1 f - W y,
        given M^-1 f per block."""
        nV, nsk = self.nV, self.skeleton.size
        z = rhs[nV:]
        zsk = z[self.skeleton].copy()
        vI = []
        for g, cb in zip(self.system.blocks, self.cb):
            b = g.n_skeleton
            zb, v = np.empty(cb.shape), np.empty((cb.shape[0], g.H.shape[1]))
            for p in _slices(cb.shape[0]):
                c = g.classes[p]
                wf = (rhs[g.flux[p]][:, None, :] @ g.W[c])[:, 0]  # G^T M^-1 f
                zI = wf[:, b:] + z[g.cols[p, b:]]
                # S_BI S_II^-1 z_I = H^T z_I, since S_II is symmetric
                zb[p] = wf[:, :b] - (zI[:, None, :] @ g.H[c])[:, 0]
                v[p] = (g.S_inv[c] @ zI[..., None])[..., 0]
            zsk += np.bincount(cb.ravel(), zb.ravel(), minlength=nsk + 1)[:nsk]
            vI.append(v)
        y0 = np.zeros(z.size + 1)  # constrained local pressures read zero
        y0[self.skeleton] = self.lu.solve(zsk)
        u = np.empty(nV)
        for g, v, ufg in zip(self.system.blocks, vI, uf):
            b = g.n_skeleton
            for p in _slices(v.shape[0]):
                c = g.classes[p]
                y0[g.cols[p, b:]] = v[p] - (g.H[c] @ y0[g.cols[p, :b]][..., None])[..., 0]
                u[g.flux[p]] = ufg[p] - (g.W[c] @ y0[g.cols[p]][..., None])[..., 0]
        return np.concatenate([u, y0[:-1]])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        uf = [rhs[g.flux] for g in self.system.blocks]  # M^-1 f, once solved below
        for g, fP in zip(self.system.blocks, uf):
            # M^-1 0 = 0: only the polygons with a nonzero f_P are solved
            nonzero = np.flatnonzero(fP.any(axis=1))
            for p in _slices(nonzero.size):
                at = nonzero[p]
                fP[at] = np.linalg.solve(g.M[g.classes[at]], fP[at, :, None])[..., 0]
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
    report = SolveReport(
        n=system.n,
        residual=res,
        refinement_steps=steps,
        n_factored=factor.skeleton.size,
        system=system,
        lu=factor.lu,
    )
    return system.expand(x), report
