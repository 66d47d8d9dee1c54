"""Assembly of the coupled saddle-point system.

Unknown blocks are ordered (u, p, p_gamma).  All matrices are assembled over
the full dof sets; ``assemble_system`` reduces to free dofs in one step and
moves Dirichlet data to the right-hand side.  The flux equation pairs the
flux mass matrix with the transposed pressure-gradient form applied to the
full pressure vector, so interpolated Dirichlet values enter it naturally;
the pressure equation enforces prescribed Neumann fluxes weakly through a
boundary load.  B^T agrees with the facewise adjoint form on pressures with
zero boundary trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .geometry import DUAL, PolygonalMesh, Subdivision, inv_2x2
from .problem import ProblemSpec
from .quadrature import edge_rule, map_to_triangles, triangle_rule
from .spaces import (
    FluxSpace,
    FracturePressureSpace,
    PressureSpace,
    SpaceConfig,
    build_S_h,
    build_V_h,
    build_W_h,
)


def _coo(rows, cols, vals, shape):
    if not rows:
        return sp.csr_matrix(shape)
    r = np.concatenate([np.asarray(a).ravel() for a in rows])
    c = np.concatenate([np.asarray(a).ravel() for a in cols])
    v = np.concatenate([np.asarray(a).ravel() for a in vals])
    return sp.coo_matrix((v, (r, c)), shape=shape).tocsr()


def _block(dofs_i, dofs_j, local):
    """Triplets for per-element dense blocks (n, ni, nj)."""
    rows = np.broadcast_to(dofs_i[:, :, None], local.shape)
    cols = np.broadcast_to(dofs_j[:, None, :], local.shape)
    return rows, cols, local


def assemble_mass(sub: Subdivision, V: FluxSpace, K_elem: np.ndarray) -> sp.csr_matrix:
    """Flux mass matrix weighted by the inverse permeability.

    On triangle t the block is C_t^T (M^ (x) G_t) C_t: M^ is the reference
    mass matrix of the scalar monomials and G_t = J^T K^-1 J / det J, the
    Piola map's weight on the two vector components.
    """
    rule = triangle_rule(2 * V.k + 2)
    m = V.ref_monomials(rule.points)  # (nq, s)
    mhat = m.T @ (rule.weights[:, None] * m)
    J = sub.tri_jacobian
    Kinv = inv_2x2(K_elem[sub.tri_polygon])
    G = np.swapaxes(J, 1, 2) @ Kinv @ J / (2.0 * sub.tri_area)[:, None, None]
    nt, s = G.shape[0], mhat.shape[0]
    inner = (mhat[None, :, None, :, None] * G[:, None, :, None, :]).reshape(nt, 2 * s, 2 * s)
    C = V.ref_coeff
    local = np.swapaxes(C, 1, 2) @ inner @ C
    r, c, v = _block(V.tri_dofs, V.tri_dofs, local)
    return _coo([r], [c], [v], (V.ndof, V.ndof))


def assemble_bh(sub: Subdivision, V: FluxSpace, S: PressureSpace) -> sp.csr_matrix:
    """b_h(u, q) = -sum_{dual e} <u.n, [q]>_e + sum_tau (u, grad q)_tau.

    Rows are pressure dofs, columns flux dofs: b_h(u, q) = q^T B u.
    """
    k = V.k
    rows, cols, vals = [], [], []

    # grad q . J phi / det J = grad^ q . phi / det J, so the volume term is
    # one reference matrix times C_t
    rule = triangle_rule(2 * k + 2)
    gref = S.grad_ref(rule.points)  # (nq, ns, 2)
    m = V.ref_monomials(rule.points)  # (nq, s)
    bhat = np.einsum("q,qsc,qi->sic", rule.weights, gref, m).reshape(S.nloc, -1)
    local = bhat @ V.ref_coeff
    r, c, v = _block(S.tri_dofs, V.tri_dofs, local)
    rows.append(r), cols.append(c), vals.append(v)

    erule = edge_rule(2 * k + 2)
    ts, ws = erule.points, erule.weights
    duals = sub.edges_of_kind(DUAL)
    if duals.size:
        pts = sub.edge_points(duals, ts)
        L = V.edge_trace_matrix(ts)  # (nq, k+1)
        wl = sub.edge_length[duals]
        vdofs = V.edge_side_dofs[duals, 0]  # shared on dual edges
        for side, sign in ((0, 1.0), (1, -1.0)):
            t = sub.edge_tris[duals, side]
            sb = S.basis_values(t, pts)  # (ne, nq, ns)
            local = -sign * np.einsum("q,e,qj,eqs->esj", ws, wl, L, sb)
            r, c, v = _block(S.tri_dofs[t], vdofs, local)
            rows.append(r), cols.append(c), vals.append(v)

    return _coo(rows, cols, vals, (S.ndof, V.ndof))


def assemble_interface(sub: Subdivision, S: PressureSpace, W: FracturePressureSpace, spec: ProblemSpec):
    """Interface coupling blocks (C_pp, C_pw, C_ww_coupling).

    C_pp collects <(1/alpha){p},{q}> + <(1/eta)[p],[q]> over fracture edges,
    C_pw the -<(1/alpha) p_gamma, {q}> pairing (its transpose enters the
    fracture equation), C_ww the +<(1/alpha) p_gamma, q_gamma> mass.
    """
    k = S.k
    erule = edge_rule(2 * k + 2)
    ts, ws = erule.points, erule.weights
    rows_pp, cols_pp, vals_pp = [], [], []
    rows_pw, cols_pw, vals_pw = [], [], []
    rows_ww, cols_ww, vals_ww = [], [], []

    for fi, fr in enumerate(sub.mesh.fractures):
        fm = sub.fracture_meshes[fi]
        if fm.n_edges == 0:
            continue
        eta = fr.normal_resistance[fm.edge_segment]
        alpha = spec.exchange_resistance(fi)[fm.edge_segment]
        pts, _ = sub.fracture_points(fi, ts)
        wl = fm.edge_length
        t1 = sub.edge_tris[fm.edge_ids, 0]
        t2 = sub.edge_tris[fm.edge_ids, 1]
        s1 = S.basis_values(t1, pts)  # (ne, nq, ns)
        s2 = S.basis_values(t2, pts)
        wb = W.eval_ref(ts)  # (nq, k+1)
        d1 = S.tri_dofs[t1]
        d2 = S.tri_dofs[t2]
        wd = W.edge_dofs[fi]

        avg = [(d1, 0.5 * s1), (d2, 0.5 * s2)]
        jmp = [(d1, s1), (d2, -s2)]
        for da, sa in avg:
            for db, sb_ in avg:
                local = np.einsum("q,e,eqs,eqr->esr", ws, wl / alpha, sa, sb_)
                r, c, v = _block(da, db, local)
                rows_pp.append(r), cols_pp.append(c), vals_pp.append(v)
        for da, sa in jmp:
            for db, sb_ in jmp:
                local = np.einsum("q,e,eqs,eqr->esr", ws, wl / eta, sa, sb_)
                r, c, v = _block(da, db, local)
                rows_pp.append(r), cols_pp.append(c), vals_pp.append(v)
        for da, sa in avg:
            local = -np.einsum("q,e,eqs,qj->esj", ws, wl / alpha, sa, wb)
            r, c, v = _block(da, wd, local)
            rows_pw.append(r), cols_pw.append(c), vals_pw.append(v)
        local = np.einsum("q,e,qi,qj->eij", ws, wl / alpha, wb, wb)
        r, c, v = _block(wd, wd, local)
        rows_ww.append(r), cols_ww.append(c), vals_ww.append(v)

    C_pp = _coo(rows_pp, cols_pp, vals_pp, (S.ndof, S.ndof))
    C_pw = _coo(rows_pw, cols_pw, vals_pw, (S.ndof, W.ndof))
    C_ww = _coo(rows_ww, cols_ww, vals_ww, (W.ndof, W.ndof))
    return C_pp, C_pw, C_ww


def assemble_fracture_stiffness(sub: Subdivision, W: FracturePressureSpace, spec: ProblemSpec) -> sp.csr_matrix:
    """Tangential stiffness <K_gamma dp/dt, dq/dt> along each fracture."""
    k = W.k
    erule = edge_rule(max(2 * k - 2, 0))
    ts, ws = erule.points, erule.weights
    rows, cols, vals = [], [], []
    for fi, fr in enumerate(sub.mesh.fractures):
        fm = sub.fracture_meshes[fi]
        if fm.n_edges == 0:
            continue
        Kg = fr.tangential_conductivity[fm.edge_segment]
        dref = W.deriv_ref(ts)  # (nq, k+1)
        local = np.einsum("q,e,qi,qj->eij", ws, Kg / fm.edge_length, dref, dref)
        r, c, v = _block(W.edge_dofs[fi], W.edge_dofs[fi], local)
        rows.append(r), cols.append(c), vals.append(v)
    return _coo(rows, cols, vals, (W.ndof, W.ndof))


def assemble_rhs(sub: Subdivision, spec: ProblemSpec, V: FluxSpace, S: PressureSpace, W: FracturePressureSpace) -> np.ndarray:
    """Source and Neumann-data vector over the full (u, p, p_gamma) dofs.

    The pressure block carries (f, q) - <g_N, q> on Neumann edges; the
    fracture block carries <l_gamma f_gamma, q_gamma>.  Dirichlet lifting is
    applied by ``assemble_system`` during reduction.
    """
    k = S.k
    rhs = np.zeros(V.ndof + S.ndof + W.ndof)
    sview = rhs[V.ndof : V.ndof + S.ndof]
    wview = rhs[V.ndof + S.ndof :]

    rule = triangle_rule(2 * k + 2)
    qp, qw = map_to_triangles(rule, sub.tri_coords)
    region = sub.mesh.element_regions[sub.tri_polygon]
    nt, nq = qp.shape[:2]
    fvals = spec.bulk_source(
        qp.reshape(-1, 2), np.repeat(region, nq)
    ).reshape(nt, nq)
    sv = S.eval_ref(rule.points)
    local = np.einsum("tq,tq,qs->ts", qw, fvals, sv)
    np.add.at(sview, S.tri_dofs, local)

    table = spec.boundary_table(sub)
    erule = edge_rule(2 * k + 2)
    ts, ws = erule.points, erule.weights
    neu = table.neumann_edges
    if neu.size:
        pts = sub.edge_points(neu, ts)
        t1 = sub.edge_tris[neu, 0]
        sb = S.basis_values(t1, pts)
        wl = sub.edge_length[neu]
        g = spec.boundary_values(
            sub, np.repeat(neu, ts.size), pts.reshape(-1, 2)
        ).reshape(neu.size, ts.size)
        local = -np.einsum("q,e,eq,eqs->es", ws, wl, g, sb)
        np.add.at(sview, S.tri_dofs[t1], local)

    for fi, fr in enumerate(sub.mesh.fractures):
        fm = sub.fracture_meshes[fi]
        if fm.n_edges == 0:
            continue
        pts, par = sub.fracture_points(fi, ts)
        ne = fm.n_edges
        fg = spec.fracture_source(
            pts.reshape(-1, 2), par.reshape(-1), np.full(ne * ts.size, fi)
        ).reshape(ne, ts.size)
        wb = W.eval_ref(ts)
        local = fr.thickness * np.einsum(
            "q,e,eq,qj->ej", ws, fm.edge_length, fg, wb
        )
        np.add.at(wview, W.edge_dofs[fi], local)

    return rhs


def dirichlet_values(sub: Subdivision, spec: ProblemSpec, S: PressureSpace, W: FracturePressureSpace):
    """Full-length (p, p_gamma) vectors holding boundary data on constrained dofs."""
    p_dir = np.zeros(S.ndof)
    dofs = np.flatnonzero(S.dirichlet_mask)
    if dofs.size:
        p_dir[dofs] = spec.boundary_values(sub, S.dof_edge[dofs], S.node_coords[dofs])

    w_dir = np.zeros(W.ndof)
    for fi, end in spec.dirichlet_tips():
        dof = W.edge_dofs[fi][0, 0] if end == 0 else W.edge_dofs[fi][-1, -1]
        w_dir[dof] = spec.tip_value(fi, end)
    return p_dir, w_dir


@dataclass(frozen=True)
class LinearSystem:
    """Reduced sparse system over free dofs, ordered (u, p, p_gamma)."""

    A: sp.csr_matrix
    rhs: np.ndarray
    offsets: tuple  # (0, nV, nV + nS_free, n_total)
    V: FluxSpace
    S: PressureSpace
    W: FracturePressureSpace
    s_free: np.ndarray
    w_free: np.ndarray
    p_dir: np.ndarray
    w_dir: np.ndarray
    mesh: PolygonalMesh
    spec: ProblemSpec

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def expand(self, x: np.ndarray) -> "DiscreteSolution":
        nV = self.offsets[1]
        u = x[:nV].copy()
        p = self.p_dir.copy()
        p[self.s_free] = x[nV : self.offsets[2]]
        pg = self.w_dir.copy()
        pg[self.w_free] = x[self.offsets[2] :]
        return DiscreteSolution(
            mesh=self.mesh, V=self.V, S=self.S, W=self.W, u=u, p=p, p_gamma=pg
        )


@dataclass(frozen=True)
class DiscreteSolution:
    """Full coefficient vectors of one discrete solution."""

    mesh: PolygonalMesh
    V: FluxSpace
    S: PressureSpace
    W: FracturePressureSpace
    u: np.ndarray
    p: np.ndarray
    p_gamma: np.ndarray

    @property
    def sub(self) -> Subdivision:
        return self.mesh.subdivision

    @property
    def n_dofs(self) -> int:
        """Total dofs of the discrete spaces (constraints included)."""
        return self.V.ndof + self.S.ndof + self.W.ndof

    @cached_property
    def _u_hat(self) -> np.ndarray:
        """C_t u_t: the pulled-back flux in the reference monomials, (nt, 2s)."""
        return (self.V.ref_coeff @ self.u[self.V.tri_dofs][..., None])[..., 0]

    def p_at(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        vals = self.S.basis_values(tris, pts)
        return np.einsum("eqs,es->eq", vals, self.p[self.S.tri_dofs[tris]])

    def grad_p_at(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return self.grad_p_at_ref(self.sub.reference_coords(tris, pts), tris)

    def u_at(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return self.u_at_ref(self.sub.reference_coords(tris, pts), tris)

    def div_u_at(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return self.div_u_at_ref(self.sub.reference_coords(tris, pts), tris)

    # The *_at_ref evaluators take reference points, (nq, 2) shared by all
    # triangles in tris or (n, nq, 2) per triangle, and return the field at
    # their images.

    def grad_p_at_ref(self, ref_pts: np.ndarray, tris=slice(None)) -> np.ndarray:
        gref = self.S.grad_ref(ref_pts)  # (..., ns, 2)
        p = self.p[self.S.tri_dofs[tris]]
        ghat = np.einsum("...sr,...s->...r", gref, p[:, None, :])
        return ghat @ self.sub.tri_jacobian_inv[tris]

    def u_at_ref(self, ref_pts: np.ndarray, tris=slice(None)) -> np.ndarray:
        a = self._u_hat[tris]
        uhat = self.V.ref_monomials(ref_pts) @ a.reshape(a.shape[0], -1, 2)
        return self.V.piola(tris, uhat)

    def div_u_at_ref(self, ref_pts: np.ndarray, tris=slice(None)) -> np.ndarray:
        div = self.V.ref_divergence(ref_pts) @ self._u_hat[tris][:, :, None]
        return div[..., 0] / (2.0 * self.sub.tri_area[tris])[:, None]

    def u_normal_trace(self, edges: np.ndarray, side: int, ts: np.ndarray) -> np.ndarray:
        """u.n_e along edges at canonical parameters ts; (ne, nq)."""
        L = self.V.edge_trace_matrix(ts)
        dofs = self.V.edge_side_dofs[edges, side]
        return np.einsum("qj,ej->eq", L, self.u[dofs])

    def p_gamma_at(self, fi: int, ts: np.ndarray) -> np.ndarray:
        """Fracture pressure on every edge of fracture fi at parameters ts."""
        wb = self.W.eval_ref(ts)
        return np.einsum("qj,ej->eq", wb, self.p_gamma[self.W.edge_dofs[fi]])

    def dp_gamma_dt_at(self, fi: int, ts: np.ndarray) -> np.ndarray:
        fm = self.sub.fracture_meshes[fi]
        db = self.W.deriv_ref(ts)
        return (
            np.einsum("qj,ej->eq", db, self.p_gamma[self.W.edge_dofs[fi]])
            / fm.edge_length[:, None]
        )


def build_spaces(mesh: PolygonalMesh, spec: ProblemSpec, config: SpaceConfig):
    """The (S_h, V_h, W_h) spaces of one problem, with its constraints."""
    table = spec.boundary_table(mesh.subdivision)
    S = build_S_h(mesh, config, dirichlet_edges=table.dirichlet_edges)
    V = build_V_h(mesh, config)
    W = build_W_h(mesh, config, dirichlet_tips=spec.dirichlet_tips())
    return S, V, W


def free_unknowns(spaces) -> int:
    """Size of the reduced system over the given (S_h, V_h, W_h)."""
    S, V, W = spaces
    return V.ndof + S.n_free + W.n_free


def assemble_system(
    mesh: PolygonalMesh, spec: ProblemSpec, config: SpaceConfig, spaces=None
) -> LinearSystem:
    """Reduced (u, p, p_gamma) system; `spaces` reuses a `build_spaces` result."""
    sub = mesh.subdivision
    S, V, W = build_spaces(mesh, spec, config) if spaces is None else spaces

    K_elem = spec.permeability(mesh.element_centroids)
    M = assemble_mass(sub, V, K_elem)
    B = assemble_bh(sub, V, S)
    C_pp, C_pw, C_ww_cpl = assemble_interface(sub, S, W, spec)
    C_ww = C_ww_cpl + assemble_fracture_stiffness(sub, W, spec)

    # The flux row pairs with the full pressure vector through B^T, which
    # equals the facewise adjoint form plus the boundary trace pairing
    # <p, v.n>_bnd.  On zero-boundary-trace pressures the two coincide; the
    # extra columns put interpolated Dirichlet values into the flux equation
    # (moved to the rhs below) and keep the Neumann-edge pressure trace
    # coupled, which is what makes interpolated boundary data exactly
    # consistent.
    nV, nS, nW = V.ndof, S.ndof, W.ndof
    A_full = sp.bmat(
        [
            [M, B.T, None],
            [-B, C_pp, C_pw],
            [None, C_pw.T, C_ww],
        ],
        format="csr",
    )
    rhs_full = assemble_rhs(sub, spec, V, S, W)

    p_dir, w_dir = dirichlet_values(sub, spec, S, W)
    x_dir = np.concatenate([np.zeros(nV), p_dir, w_dir])
    s_free = np.flatnonzero(~S.dirichlet_mask)
    w_free = np.flatnonzero(~W.dirichlet_mask)
    free = np.concatenate([np.arange(nV), nV + s_free, nV + nS + w_free])

    rhs_lifted = rhs_full - A_full @ x_dir
    A = A_full[free][:, free].tocsr()
    rhs = rhs_lifted[free]
    offsets = (0, nV, nV + s_free.size, nV + s_free.size + w_free.size)
    return LinearSystem(
        A=A,
        rhs=rhs,
        offsets=offsets,
        V=V,
        S=S,
        W=W,
        s_free=s_free,
        w_free=w_free,
        p_dir=p_dir,
        w_dir=w_dir,
        mesh=mesh,
        spec=spec,
    )
