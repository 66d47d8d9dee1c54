"""Direct solve of the reduced system by static condensation of the flux.

The system over free dofs is ordered (u, p, p_gamma) and has the form

    [  M    G ] [u]   [f]
    [ -G^T  C ] [y] = [g],    y = (p, p_gamma),

with the flux mass matrix M, the transposed pressure-gradient form G and
the interface and fracture blocks C.  Flux dofs couple only inside one
polygon: dual edges lie inside a polygon and every other flux dof belongs
to one triangle, so M is block diagonal with one dense block per polygon.
The flux is eliminated with batched inverses of those blocks, grouped by
size, which leaves the symmetric positive definite Schur complement

    S = C + G^T M^-1 G  over the free (p, p_gamma) dofs.

SuperLU factors S in symmetric mode (diagonal pivots, minimum-degree
ordering of S + S^T), and u = M^-1 (f - G y) is recovered polygon by
polygon.  The backward error is measured on the full system A; when the
first solve is not at roundoff, up to two steps of iterative refinement on
A follow, with corrections from the condensed factor.

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


def _backward_error(A, x, rhs) -> float:
    r = A @ x - rhs
    denom = np.linalg.norm(np.abs(A) @ np.abs(x) + np.abs(rhs), np.inf)
    return float(np.linalg.norm(r, np.inf) / max(denom, np.finfo(float).tiny))


def _offsets(sizes: np.ndarray) -> np.ndarray:
    out = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


@dataclass(frozen=True)
class _Group:
    """Polygons that share one flux block size b and pressure width m."""

    flux: np.ndarray  # (n, b) flux dofs of each polygon
    cols: np.ndarray  # (n, m) index into y of each local pressure, ny if constrained
    Minv: np.ndarray  # (n, b, b) inverses of the flux mass blocks
    W: np.ndarray  # (n, b, m) Minv @ G on each polygon


class _Condensed:
    """Factor of the flux-condensed system; `solve` applies A^-1."""

    def __init__(self, system: LinearSystem):
        self.nV = system.offsets[1]
        self.ny = system.n - self.nV
        self.groups, S = _condense(system)
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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        nV, ny = self.nV, self.ny
        f = rhs[:nV]
        z = rhs[nV:].copy()
        for g in self.groups:
            wf = np.einsum("nbm,nb->nm", g.W, f[g.flux])
            z += np.bincount(g.cols.ravel(), wf.ravel(), minlength=ny + 1)[:ny]
        y = self.lu.solve(z)
        y0 = np.append(y, 0.0)  # constrained local pressures read zero
        u = np.empty(nV)
        for g in self.groups:
            u[g.flux] = np.einsum("nbc,nc->nb", g.Minv, f[g.flux]) - np.einsum(
                "nbm,nm->nb", g.W, y0[g.cols]
            )
        return np.concatenate([u, y])


def _condense(system: LinearSystem):
    """Per-polygon flux blocks grouped by shape, and S in CSC form."""
    A = system.A
    nV = system.offsets[1]
    ny = system.n - nV
    V, P = system.V, system.S
    tri_poly = V.sub.tri_polygon
    npoly = int(tri_poly.max()) + 1

    # polygons ranked by (flux block size, pressure width, id), so that
    # equal shapes are contiguous; dofs are then numbered by polygon rank
    fpoly = np.empty(V.ndof, dtype=np.int64)
    fpoly[V.tri_dofs] = tri_poly[:, None]
    b = np.bincount(fpoly, minlength=npoly)
    m = np.bincount(tri_poly, minlength=npoly) * P.nloc
    order = np.lexsort((m, b))
    rank = np.empty(npoly, dtype=np.int64)
    rank[order] = np.arange(npoly)
    b, m = b[order], m[order]
    fstart, pstart = _offsets(b), _offsets(m)
    moff, goff = _offsets(b * b), _offsets(b * m)

    frank = rank[fpoly]
    fperm = np.argsort(frank, kind="stable")
    local = np.empty(V.ndof, dtype=np.int64)
    local[fperm] = np.arange(V.ndof) - fstart[frank[fperm]]

    # local pressure columns: the pressure dofs of the polygon's triangles
    yidx = np.full(P.ndof, ny, dtype=np.int64)
    yidx[system.s_free] = np.arange(system.s_free.size)
    tperm = np.argsort(rank[tri_poly], kind="stable")
    pcols = yidx[P.tri_dofs[tperm]].ravel()
    prank = np.repeat(np.arange(npoly), m)
    free = pcols < ny
    key = prank[free] * ny + pcols[free]
    kperm = np.argsort(key)
    key = key[kperm]
    key_local = (np.arange(pcols.size) - pstart[prank])[free][kperm]

    # the flux rows of A hold M (columns < nV) and G (columns >= nV)
    top = A.indptr[nV]
    r = np.repeat(np.arange(nV), np.diff(A.indptr[: nV + 1]))
    c = A.indices[:top]
    v = A.data[:top]
    is_m = c < nV
    rm, cm = r[is_m], c[is_m]
    rk = frank[rm]
    if np.any(frank[cm] != rk):
        raise SolverError("flux mass matrix couples dofs of two polygons")
    Mbuf = np.zeros(moff[-1])
    Mbuf[moff[rk] + local[rm] * b[rk] + local[cm]] = v[is_m]

    rg, cg = r[~is_m], c[~is_m] - nV
    rk = frank[rg]
    q = rk * ny + cg
    pos = np.minimum(np.searchsorted(key, q), key.size - 1)
    if np.any(key[pos] != q):
        raise SolverError("a flux dof couples to a pressure outside its polygon")
    Gbuf = np.zeros(goff[-1])
    Gbuf[goff[rk] + local[rg] * m[rk] + key_local[pos]] = v[~is_m]

    # C: the (p, p_gamma) rows and columns of A
    rc = np.repeat(np.arange(ny), np.diff(A.indptr[nV:]))
    cc = A.indices[top:] - nV
    vc = A.data[top:]
    is_c = cc >= 0
    rows, cols, vals = [rc[is_c]], [cc[is_c]], [vc[is_c]]

    groups = []
    starts = np.flatnonzero((np.diff(b) != 0) | (np.diff(m) != 0)) + 1
    bounds = np.concatenate([[0], starts, [npoly]])
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        n, bg, mg = r1 - r0, b[r0], m[r0]
        Minv = np.linalg.inv(Mbuf[moff[r0] : moff[r1]].reshape(n, bg, bg))
        Minv = 0.5 * (Minv + Minv.transpose(0, 2, 1))
        G = Gbuf[goff[r0] : goff[r1]].reshape(n, bg, mg)
        W = Minv @ G
        SP = G.transpose(0, 2, 1) @ W
        gc = pcols[pstart[r0] : pstart[r1]].reshape(n, mg)
        gr = np.broadcast_to(gc[:, :, None], SP.shape)
        gcc = np.broadcast_to(gc[:, None, :], SP.shape)
        keep = (gr < ny) & (gcc < ny)
        rows.append(gr[keep]), cols.append(gcc[keep]), vals.append(SP[keep])
        flux = fperm[fstart[r0] : fstart[r1]].reshape(n, bg)
        groups.append(_Group(flux=flux, cols=gc, Minv=Minv, W=W))

    S = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ny, ny),
    )
    return groups, S


def solve_system(system: LinearSystem):
    """Solve a reduced system; returns (DiscreteSolution, SolveReport)."""
    A, rhs = system.A, np.asarray(system.rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise NonFinite("right-hand side contains non-finite entries")
    if system.s_free.size == system.S.ndof and system.w_free.size == system.W.ndof:
        raise SingularSystem(
            "singular system: no pressure dof and no fracture tip is "
            "constrained, so the constant pressure is in its nullspace"
        )
    t0 = time.perf_counter()
    factor = _Condensed(system)
    x = factor.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise NonFinite("solve produced non-finite values")
    res = _backward_error(A, x, rhs)
    steps = 0
    while res > _REFINE_BELOW and steps < _MAX_REFINE:
        x = x + factor.solve(rhs - A @ x)
        steps += 1
        res = _backward_error(A, x, rhs)
    if res > _FAIL_ABOVE or not np.all(np.isfinite(x)):
        raise SolverError(f"backward error {res:.3e} after {steps} refinement steps")
    t_ms = (time.perf_counter() - t0) * 1e3
    report = SolveReport(
        n=system.n,
        nnz=A.nnz,
        residual=res,
        refinement_steps=steps,
        t_ms=t_ms,
        fill=factor.fill,
    )
    return system.expand(x), report
