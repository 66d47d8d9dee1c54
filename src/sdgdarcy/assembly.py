"""Assembly of the coupled saddle-point system.

Unknown blocks are ordered (u, p, p_gamma).  The flux mass and
pressure-gradient forms come as dense per-triangle blocks, which
``assemble_system`` gathers into one dense block per polygon; the interface
and fracture forms come as (rows, cols, values) triplets over the stacked
(p, p_gamma) dofs, which ``assemble_system`` sums into the sparse block C
over the free ones.  Every edge integral
pairs the k+1 dofs that live on one side of the edge: the dual-edge part of
b_h is one (k+1)x(k+1) reference matrix per side scaled by +-|e|, and the
interface blocks and the Neumann load are scaled copies of the 1D edge mass
matrix and Lagrange table.  ``assemble_system``
reduces to free dofs and moves Dirichlet data to the right-hand side.  The
flux equation pairs the
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

from .errors import SolverError
from .geometry import PolygonalMesh, Subdivision, inv_2x2
from .problem import ProblemSpec
from .quadrature import edge_rule, map_to_triangles, mapped_weights, triangle_rule
from .reuse import BlockCache, group_rows
from .spaces import (
    FluxSpace,
    FracturePressureSpace,
    PressureSpace,
    SpaceConfig,
    build_S_h,
    build_V_h,
    build_W_h,
    edge_tables,
    reference,
    triangle_tables,
    _SIDE_NODES,
)

_SLICE = 256  # polygons per slice of gathered class rows, in `LinearSystem.matvec` and the solve


def _slices(n: int):
    return (slice(s, s + _SLICE) for s in range(0, n, _SLICE))


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + np.swapaxes(A, 1, 2))


def _flat(triplets):
    """One (rows, cols, values) of flat arrays from a list of triplets of
    arrays of one shape each."""
    return tuple(np.concatenate([np.ravel(a) for a in part]) for part in zip(*triplets))


def _coo(triplets, shape):
    """CSR sum of (rows, cols, values) triplets of arrays of one shape each."""
    r, c, v = _flat(triplets)
    return sp.coo_matrix((v, (r, c)), shape=shape).tocsr()


def _block(dofs_i, dofs_j, local):
    """Triplets for per-element dense blocks (n, ni, nj)."""
    rows = np.broadcast_to(dofs_i[:, :, None], local.shape)
    cols = np.broadcast_to(dofs_j[:, None, :], local.shape)
    return rows, cols, local


def assemble_mass(sub: Subdivision, V: FluxSpace, K_elem: np.ndarray, tris=slice(None)) -> np.ndarray:
    """Flux mass blocks weighted by the inverse permeability, (nt, nloc, nloc)
    over the triangles `tris`.

    Block t couples the dofs V.tri_dofs[t].  It is C_t^T (M^ (x) G_t) C_t:
    M^ is the reference mass matrix of the scalar monomials and
    G_t = J^T K^-1 J / det J, the Piola map's weight on the two vector
    components.
    """
    mhat = reference(V.k).mass
    J = sub.tri_jacobian[tris]
    Kinv = inv_2x2(K_elem[sub.tri_polygon[tris]])
    G = np.swapaxes(J, 1, 2) @ Kinv @ J / (2.0 * sub.tri_area[tris])[:, None, None]
    nt, s = G.shape[0], mhat.shape[0]
    inner = (mhat[None, :, None, :, None] * G[:, None, :, None, :]).reshape(nt, 2 * s, 2 * s)
    C = V.ref_coeff[tris]
    return np.swapaxes(C, 1, 2) @ inner @ C


def assemble_bh(sub: Subdivision, V: FluxSpace, S: PressureSpace, tris=slice(None)) -> np.ndarray:
    """Blocks of b_h(u, q) = -sum_{dual e} <u.n, [q]>_e + sum_tau (u, grad q)_tau
    over the triangles `tris`.

    Block t, (nt, ns, nloc), has rows S.tri_dofs[t] and columns
    V.tri_dofs[t]: b_h(u, q) = q^T B u with B the sum of the blocks.  Sides
    1 and 2 of every triangle are dual edges, so each dual-edge term lands
    in the block of the triangle it is taken from.
    """
    k1 = V.k + 1
    ref = reference(V.k)
    # grad q . J phi / det J = grad^ q . phi / det J, so the volume term is
    # one reference matrix B^ times C_t
    local = ref.bh @ V.ref_coeff[tris]

    # <u.n, q> on a side is |e| E between its k+1 pressure side nodes and
    # its k+1 flux dofs, both listed from the lower vertex id; the sign is
    # + on the side n_e points out of
    E = ref.bh_edge
    side, flip = sub.tri_side[tris], sub.tri_flip[tris]
    nodes = _SIDE_NODES[S.k]
    for l in (1, 2):
        scale = (1 - 2 * side[:, l]) * sub.edge_length[sub.tri_edges[tris, l]]
        E_t = np.where(flip[:, l, None, None], E[::-1], E)  # rows in local node order
        local[:, nodes[l], l * k1 : (l + 1) * k1] -= scale[:, None, None] * E_t
    return local


def assemble_interface(sub: Subdivision, S: PressureSpace, W: FracturePressureSpace, spec: ProblemSpec):
    """Interface coupling triplets (rows, cols, values) over the stacked
    (p, p_gamma) dofs, p_gamma dof j at S.ndof + j.

    They hold, over the fracture edges, C_pp: <(1/alpha){p},{q}> +
    <(1/eta)[p],[q]>; C_pw: the -<(1/alpha) p_gamma, {q}> pairing; its
    transpose, which enters the fracture equation; and C_ww: the
    +<(1/alpha) p_gamma, q_gamma> mass.  The traces of p on the two sides
    and p_gamma are P^k in their k+1 edge nodes, so every block is a scaled
    copy of the edge mass matrix Lambda^T diag(w) Lambda on [0, 1].
    """
    mass = reference(S.k).edge_mass
    avg, jmp = np.array([0.5, 0.5]), np.array([1.0, -1.0])
    fe = sub.fracture_edges
    alpha = spec.exchange_resistance(fe.eta)
    wl = sub.edge_length[fe.edge]
    # the side nodes of both sides, in polyline direction like p_gamma's
    n = 2 * (S.k + 1)
    d = S.edge_side_dofs[fe.edge]  # (n_fe, 2, k+1)
    d = np.where(fe.descending[:, None, None], d[..., ::-1], d).reshape(fe.n_edges, n)
    sides = np.multiply.outer(wl / alpha, np.outer(avg, avg))
    sides += np.multiply.outer(wl / fe.eta, np.outer(jmp, jmp))  # (n_fe, 2, 2)
    wd = S.ndof + W.edge_dofs
    pw = -np.multiply.outer(wl / alpha, np.kron(avg[:, None], mass))
    return _flat([
        _block(d, d, np.einsum("eab,ij->eaibj", sides, mass).reshape(-1, n, n)),
        _block(d, wd, pw),
        _block(wd, d, np.swapaxes(pw, 1, 2)),
        _block(wd, wd, np.multiply.outer(wl / alpha, mass)),
    ])


def assemble_fracture_stiffness(sub: Subdivision, S: PressureSpace, W: FracturePressureSpace, spec: ProblemSpec):
    """Tangential stiffness <K_gamma dp/dt, dq/dt> along each fracture, as
    triplets over the stacked dofs of `assemble_interface`."""
    erule = edge_rule(max(2 * W.k - 2, 0))
    dref = edge_tables(W.k, erule).p[1]  # (nq, k+1)
    fe = sub.fracture_edges
    local = np.einsum("q,e,qi,qj->eij", erule.weights, fe.K_gamma / sub.edge_length[fe.edge], dref, dref)
    wd = S.ndof + W.edge_dofs
    return _flat([_block(wd, wd, local)])


def source_values(mesh: PolygonalMesh, spec: ProblemSpec, degree: int, cache: BlockCache = None):
    """(qw, f), (nt, nq) each: the weights of the triangle rule of `degree`
    mapped to every triangle and the bulk source at its points.  The values
    of f on kept polygons come from `cache`, which also lets the load vector
    and the estimator share them."""
    rule = triangle_rule(degree)
    sub = mesh.subdivision
    region = mesh.element_regions[sub.tri_polygon]

    def values(tris):
        qp = map_to_triangles(rule, sub.tri_coords[tris])[0]
        nq = rule.weights.size
        return (spec.bulk_source(qp.reshape(-1, 2), np.repeat(region[tris], nq)).reshape(tris.size, nq),)

    cache = BlockCache() if cache is None else cache
    (f,) = cache.triangles(mesh, f"bulk source, degree {degree}", values)
    return mapped_weights(rule, sub.tri_jacobian), f


def fracture_source_values(sub: Subdivision, spec: ProblemSpec, ts: np.ndarray) -> np.ndarray:
    """The fracture source f_gamma on every fracture edge at edge
    parameters ts in polyline direction, (n_fe, nq)."""
    pts, par = sub.fracture_points(ts)
    fracture = np.repeat(sub.fracture_edges.fracture, ts.size)
    return spec.fracture_source(pts.reshape(-1, 2), par.reshape(-1), fracture).reshape(par.shape)


def assemble_rhs(
    mesh: PolygonalMesh, spec: ProblemSpec, V: FluxSpace, S: PressureSpace, W: FracturePressureSpace, cache: BlockCache = None
) -> np.ndarray:
    """Source and Neumann-data vector over the full (u, p, p_gamma) dofs.

    The pressure block carries (f, q) - <g_N, q> on Neumann edges; the
    fracture block carries <l_gamma f_gamma, q_gamma>.  Dirichlet lifting is
    applied by ``assemble_system`` during reduction.
    """
    sub, k = mesh.subdivision, S.k
    rhs = np.zeros(V.ndof + S.ndof + W.ndof)
    sview = rhs[V.ndof : V.ndof + S.ndof]
    wview = rhs[V.ndof + S.ndof :]

    if spec.f is not None:
        qw, fvals = source_values(mesh, spec, 2 * k + 2, cache)
        sv = triangle_tables(k, triangle_rule(2 * k + 2)).p
        local = np.einsum("tq,tq,qs->ts", qw, fvals, sv)
        np.add.at(sview, S.tri_dofs, local)

    table = spec.boundary_table(sub)
    erule = edge_rule(2 * k + 2)
    ts, ws = erule.points, erule.weights
    trace = edge_tables(k, erule).p[0]  # of p on a side and of p_gamma
    neu = table.neumann_edges
    pts = sub.edge_points(neu, ts)
    g = spec.boundary_values(sub, np.repeat(neu, ts.size), pts.reshape(-1, 2)).reshape(neu.size, ts.size)
    local = -(sub.edge_length[neu][:, None] * ws * g) @ trace
    np.add.at(sview, S.edge_side_dofs[neu, 0], local)

    fe = sub.fracture_edges
    fg = fracture_source_values(sub, spec, ts)
    local = np.einsum("q,e,eq,qj->ej", ws, sub.edge_length[fe.edge], fg, trace)
    np.add.at(wview, W.edge_dofs, fe.thickness[:, None] * local)

    return rhs


def dirichlet_values(sub: Subdivision, spec: ProblemSpec, S: PressureSpace, W: FracturePressureSpace):
    """Full-length (p, p_gamma) vectors holding boundary data on constrained
    dofs; p at the nodes of the Dirichlet edges."""
    p_dir = np.zeros(S.ndof)
    edges = spec.boundary_table(sub).dirichlet_edges
    pts = sub.edge_points(edges, reference(S.k).edge_nodes)
    p_dir[S.edge_side_dofs[edges, 0].ravel()] = spec.boundary_values(sub, np.repeat(edges, S.k + 1), pts.reshape(-1, 2))

    w_dir = np.zeros(W.ndof)
    for fi, end in spec.dirichlet_tips():
        w_dir[W.tip_dofs[fi, end]] = spec.tip_value(fi, end)
    return p_dir, w_dir


@dataclass(frozen=True)
class PolygonBlocks:
    """Dense flux blocks of the polygons that have n triangles each, in
    ascending order.

    Each polygon has b = n (2k + 2 + n_int) flux dofs and m = n ns local
    pressures: first the n_skeleton = n (k+1) nodes on the primal sides
    (side 0) of its triangles, then the nodes off them, which no other
    polygon shares; each part in triangle order, local node order within.

    Beside M_P and G_P they hold the static condensation of the polygon
    (see `solve`): W = M_P^-1 G_P, the Schur block S_P = G_P^T W split
    into its skeleton (B, the first n_skeleton) and interior (I) columns,
    S_II^-1, H = S_II^-1 S_IB and R_P = S_BB - S_BI H.

    Polygons of one class have bit-equal blocks and condensation, computed
    once (see `_polygon_blocks`).  Every array of blocks is a table with one
    row per class of this mesh, and a polygon's class label is its row:
    M[classes] is M_P of every polygon, and every row is in use.
    """

    polygons: np.ndarray  # (npoly,) polygon ids
    flux: np.ndarray  # (npoly, b) flux dofs of each polygon, in local order
    cols: np.ndarray  # (npoly, m) index into y = free (p, p_gamma); ny where constrained
    M: np.ndarray  # (nclass, b, b) flux mass blocks M_P
    G: np.ndarray  # (nclass, b, m) G_P = B_P^T, zero in constrained columns
    W: np.ndarray  # (nclass, b, m) M_P^-1 G_P
    S_inv: np.ndarray  # (nclass, m - n_skeleton, m - n_skeleton) S_II^-1
    H: np.ndarray  # (nclass, m - n_skeleton, n_skeleton) S_II^-1 S_IB
    R: np.ndarray  # (nclass, n_skeleton, n_skeleton) the skeleton block R_P
    n_skeleton: int  # the primal-side columns come first
    classes: np.ndarray  # (npoly,) class label of each polygon: its row of every table


@dataclass(frozen=True)
class LinearSystem:
    """Reduced system over free dofs, ordered (u, p, p_gamma).

    With y = (p, p_gamma) it reads [M G; -G^T C] [u; y] = rhs.  M and G are
    kept as per-polygon dense blocks, with their condensation, and C as a
    sparse matrix; the sparse matrix `A` is built from them only when asked
    for.
    """

    blocks: tuple  # PolygonBlocks, one per triangle count, by count
    C: sp.csr_matrix  # interface and fracture block over free y
    rhs: np.ndarray
    offsets: tuple  # (0, nV, nV + nS_free, n_total)
    V: FluxSpace
    S: PressureSpace
    W: FracturePressureSpace
    s_free: np.ndarray
    w_free: np.ndarray
    p_dir: np.ndarray
    w_dir: np.ndarray

    @property
    def n(self) -> int:
        return self.offsets[3]

    @property
    def nnz(self) -> int:
        """Nonzeros of `A`, counted per class and weighted by its polygons."""
        nnz = np.count_nonzero(self.C.data)
        for g in self.blocks:
            nnz += (np.count_nonzero(g.M, axis=(1, 2)) + 2 * np.count_nonzero(g.G, axis=(1, 2)))[g.classes].sum()
        return int(nnz)

    @cached_property
    def A(self) -> sp.csr_matrix:
        """The saddle matrix over free dofs, without stored zeros."""
        nV = self.offsets[1]
        C = self.C.tocoo()
        triplets = [(nV + C.row, nV + C.col, C.data)]
        for g in self.blocks:
            M, G = g.M[g.classes], g.G[g.classes]
            triplets += [
                _block(g.flux, g.flux, M),
                _block(g.flux, nV + g.cols, G),
                _block(nV + g.cols, g.flux, -np.swapaxes(G, 1, 2)),
            ]
        return _coo([(r[v != 0], c[v != 0], v[v != 0]) for r, c, v in triplets], (self.n, self.n))

    def matvec(self, x: np.ndarray, absolute: bool = False) -> np.ndarray:
        """A @ x from the blocks; |A| @ x when `absolute`."""
        nV, ny = self.offsets[1], self.C.shape[0]
        u, y = x[:nV], x[nV:]
        C = self.C
        if absolute:
            # |C| shares C's index arrays; duplicate entries add up before |.|
            C = sp.csr_matrix((np.abs(C.data), C.indices, C.indptr), shape=C.shape) if C.has_canonical_format else abs(C.copy())
        out = np.empty_like(x, dtype=float)
        out[nV:] = C @ y
        y0 = np.append(y, 0.0)  # constrained local pressures read zero

        def gather(table, rows):
            a = table[rows]
            return np.abs(a, out=a) if absolute else a

        for g in self.blocks:
            uP = u[g.flux]
            gtu = np.empty((uP.shape[0], g.G.shape[2]))
            # M is gathered inside the product, so that one slice of it lives at a
            # time; every row's product is its own
            for p in _slices(uP.shape[0]):
                G = gather(g.G, g.classes[p])
                out[g.flux[p]] = (gather(g.M, g.classes[p]) @ uP[p, :, None] + G @ y0[g.cols[p]][..., None])[..., 0]
                gtu[p] = (uP[p, None, :] @ G)[:, 0]
            # a pressure dof lies in at most two polygons, so the row order
            # of a block does not change a bin's sum
            out[nV:] += (1.0 if absolute else -1.0) * np.bincount(g.cols.ravel(), gtu.ravel(), minlength=ny + 1)[:ny]
        return out

    def expand(self, x: np.ndarray) -> "DiscreteSolution":
        nV = self.offsets[1]
        u = x[:nV].copy()
        p = self.p_dir.copy()
        p[self.s_free] = x[nV : self.offsets[2]]
        pg = self.w_dir.copy()
        pg[self.w_free] = x[self.offsets[2] :]
        return DiscreteSolution(V=self.V, S=self.S, W=self.W, u=u, p=p, p_gamma=pg)


@dataclass(frozen=True)
class DiscreteSolution:
    """Full coefficient vectors of one discrete solution."""

    V: FluxSpace
    S: PressureSpace
    W: FracturePressureSpace
    u: np.ndarray
    p: np.ndarray
    p_gamma: np.ndarray

    def __post_init__(self):
        if self.S.sub is not self.V.sub:
            raise ValueError("the pressure and flux spaces are built on different subdivisions")

    @property
    def sub(self) -> Subdivision:
        """The subdivision the spaces are built on."""
        return self.V.sub

    @cached_property
    def _u_hat(self) -> np.ndarray:
        """C_t u_t: the pulled-back flux in the reference monomials, (nt, 2s)."""
        return (self.V.ref_coeff @ self.u[self.V.tri_dofs][..., None])[..., 0]

    # The evaluators read `triangle_tables` and `edge_tables`, which return
    # a stored rule's tables and tabulate raw points on each call; raw
    # points come from export and checks.  p_at and u_at take physical
    # points (n, nq, 2) on triangles tris (n,), pulled back one by one.  The *_at_ref evaluators take a triangle rule or reference
    # points and return the field at their images: grad_p_at_ref (nq, 2)
    # points shared by all triangles in tris; u_at_ref and div_u_at_ref
    # also (n, nq, 2) points per triangle.

    def p_at(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        vals = triangle_tables(self.S.k, self.sub.reference_coords(tris, pts)).p
        return np.einsum("eqs,es->eq", vals, self.p[self.S.tri_dofs[tris]])

    def u_at(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return self.u_at_ref(self.sub.reference_coords(tris, pts), tris)

    def grad_p_at_ref(self, at, tris=slice(None)) -> np.ndarray:
        gref = triangle_tables(self.S.k, at).grad_p  # (nq, ns, 2)
        nq = gref.shape[0]
        # one GEMM of the coefficients (n, ns) against the (ns, nq 2) table
        table = np.swapaxes(gref, 0, 1).reshape(self.S.nloc, 2 * nq)
        ghat = (self.p[self.S.tri_dofs[tris]] @ table).reshape(-1, nq, 2)
        return ghat @ self.sub.tri_jacobian_inv[tris]

    def u_at_ref(self, at, tris=slice(None)) -> np.ndarray:
        a = self._u_hat[tris]
        uhat = triangle_tables(self.V.k, at).mono @ a.reshape(a.shape[0], -1, 2)
        return self.V.piola(tris, uhat)

    def div_u_at_ref(self, at, tris=slice(None)) -> np.ndarray:
        div = triangle_tables(self.V.k, at).div @ self._u_hat[tris][:, :, None]
        return div[..., 0] / (2.0 * self.sub.tri_area[tris])[:, None]

    def p_trace(self, edges: np.ndarray, side: int, at) -> np.ndarray:
        """p_h on the given side of edges, from the side's k+1 dofs, at
        parameters from the lower vertex id, (nq,) or one row per edge, or
        at the points of a stored edge rule; (ne, nq).  `u_normal_trace`
        reads u_h.n_e the same way."""
        L = edge_tables(self.S.k, at).p[0]
        return (L @ self.p[self.S.edge_side_dofs[edges, side]][..., None])[..., 0]

    def u_normal_trace(self, edges: np.ndarray, side: int, at) -> np.ndarray:
        """u_h.n_e on the given side of edges; see `p_trace`."""
        L = edge_tables(self.V.k, at).u
        return (L @ self.u[self.V.edge_side_dofs[edges, side]][..., None])[..., 0]

    def fracture_traces(self, ts: np.ndarray):
        """(p1, p2, un1, un2): p_h and u_h.n_e on sides 0 and 1 of every
        fracture edge at parameters ts in polyline direction, (n_fe, nq)
        each, in the rows of `fracture_edges`.  The side dofs run from the
        lower vertex id, so a descending edge reads the tables at 1 - ts."""
        fe = self.sub.fracture_edges
        tables = edge_tables(self.S.k, np.stack([ts, 1.0 - ts]))
        rows = fe.descending.astype(int)
        return tuple(
            (L[rows] @ x[dofs[fe.edge, side]][..., None])[..., 0]
            for L, x, dofs in ((tables.p[0], self.p, self.S.edge_side_dofs), (tables.u, self.u, self.V.edge_side_dofs))
            for side in (0, 1)
        )

    def p_gamma_at(self, at, order: int = 0) -> np.ndarray:
        """p_gamma (order 0) or its 1st or 2nd derivative along the polyline
        on every fracture edge, (n_fe, nq), at parameters ts (nq,) in
        polyline direction or at the points of a stored edge rule."""
        vals = np.einsum("qj,ej->eq", edge_tables(self.W.k, at).p[order], self.p_gamma[self.W.edge_dofs])
        if order == 0:
            return vals
        return vals / self.sub.edge_length[self.sub.fracture_edges.edge][:, None] ** order


def build_spaces(mesh: PolygonalMesh, spec: ProblemSpec, config: SpaceConfig, cache: BlockCache = None):
    """The (S_h, V_h, W_h) spaces of one problem, with its constraints."""
    table = spec.boundary_table(mesh.subdivision)
    S = build_S_h(mesh, config, dirichlet_edges=table.dirichlet_edges)
    V = build_V_h(mesh, config, cache)
    W = build_W_h(mesh, config, dirichlet_tips=spec.dirichlet_tips())
    return S, V, W


def free_unknowns(spaces) -> int:
    """Size of the reduced system over the given (S_h, V_h, W_h)."""
    S, V, W = spaces
    return V.ndof + S.n_free + W.n_free


def _polygon_blocks(mesh: PolygonalMesh, V: FluxSpace, S: PressureSpace, K_elem, p_dir, ycol):
    """Dense polygon blocks, one `PolygonBlocks` per triangle count, and
    the Dirichlet lifts p_dir^T B_t, (nt, nloc).

    Triangle t is cycle slot t, so polygon p owns triangles t0:t1 =
    offsets[p]:offsets[p+1].  In the numbering of `build_V_h` it then owns
    the dofs of its dual edges, k1 t0 : k1 t1, and of its triangles,
    nt k1 + n_own t0 : nt k1 + n_own t1; its local order is the one, then
    the other.  So in an n-triangle polygon, triangle i = t - t0 has the
    local flux columns, with j < k1 and m < n_own - k1:
      side 0: n k1 + n_own i + j;  side 1: k1 ((i+1) mod n) + j;
      side 2: k1 i + j;  interior moments: n k1 + n_own i + k1 + m;
    one pattern per n, which every triangle's dofs are checked against.
    Its local pressures are the primal-side nodes of its triangles, then
    the rest (see `PolygonBlocks`).  `ycol` maps pressure dofs to their
    index in y.  The triangle blocks, and from them M_P, G_P and the
    condensation, are computed once per class of the mesh's polygons with
    identical inputs (see `adaptivity`).  The lifts are computed on the
    triangles that touch a Dirichlet dof alone; on the others p_dir is zero
    and so is the lift.
    """
    sub = mesh.subdivision
    k1, nt, ns = V.k + 1, sub.n_triangles, S.nloc
    n_own = V.nloc - 2 * k1
    primal = _SIDE_NODES[S.k][0]
    off = np.setdiff1d(np.arange(ns), primal)
    offsets = mesh.cycles.offsets
    counts = np.diff(offsets)
    out = []
    for n in np.unique(counts):
        i, j = np.arange(n)[:, None], np.arange(k1)
        own = n * k1 + n_own * i
        pattern = np.hstack([own + j, k1 * ((i + 1) % n) + j, k1 * i + j, own + k1 + np.arange(n_own - k1)])
        b, m, nsk = n * (k1 + n_own), n * ns, n * k1
        pcol = np.empty((n, ns), dtype=np.int64)  # local column of each node
        pcol[:, primal] = np.arange(n * k1).reshape(n, k1)
        pcol[:, off] = n * k1 + np.arange(n * off.size).reshape(n, -1)
        # the bincount bins of the triangle blocks within one polygon
        mbin = pattern[:, :, None] * b + pattern[:, None, :]  # (n, nloc, nloc)
        gbin = pattern[:, None, :] * m + pcol[:, :, None]  # (n, ns, nloc)
        polys = np.flatnonzero(counts == n)
        t0 = offsets[polys][:, None]
        tris = t0 + np.arange(n)
        flux = np.hstack([k1 * t0 + np.arange(n * k1), nt * k1 + n_own * t0 + np.arange(n * n_own)])
        got, want = V.tri_dofs[tris], flux[:, pattern]
        stray = np.flatnonzero(got != want)
        if stray.size:
            s, t = stray[0], tris.flat[stray[0] // V.nloc]
            raise SolverError(
                f"flux dof {got.flat[s]} of triangle {t} leaves its polygon "
                f"{sub.tri_polygon[t]}'s layout, which puts dof {want.flat[s]} there"
            )
        pdofs = np.empty((polys.size, m), dtype=np.int64)
        pdofs[:, pcol] = S.tri_dofs[tris]

        # One class per distinct key row, which holds every per-triangle and
        # per-polygon input the kernels below read, and those of build_V_h's
        # transforms C_t: any new input of them must join the key.  G is
        # masked by the Dirichlet mask, which is in the key; the Dirichlet
        # values are not, as the lifts are computed apart.  The kernels keep
        # each row's bits whatever the rows beside it (see `adaptivity`), so
        # a class computes once.
        t = tris.ravel()
        geometry = np.hstack([
            sub.tri_flip[t],
            sub.tri_side[t],
            sub.edge_length[sub.tri_edges[t]],
            sub.tri_jacobian[t].reshape(-1, 4),
            sub.tri_area[t, None],
            sub.tri_diameter[t, None],
        ])
        key = np.hstack([
            geometry.reshape(polys.size, -1),
            K_elem[polys].reshape(polys.size, -1),
            S.dirichlet_mask[pdofs],
        ])
        first, classes = group_rows(key)
        ncls, rep = first.size, tris[first].ravel()
        M_t = assemble_mass(sub, V, K_elem, rep)
        B_t = assemble_bh(sub, V, S, rep)
        base = np.arange(ncls)[:, None, None, None]
        M = np.bincount((base * (b * b) + mbin).ravel(), M_t.ravel(), minlength=ncls * b * b).reshape(ncls, b, b)
        G = np.bincount((base * (b * m) + gbin).ravel(), B_t.ravel(), minlength=ncls * b * m)
        G = G.reshape(ncls, b, m) * ~S.dirichlet_mask[pdofs[first]][:, None, :]
        # the condensation: W = M^-1 G, S_II^-1, H and R_P
        W = np.linalg.solve(M, G)
        SP = _sym(np.swapaxes(G, 1, 2) @ W)
        S_inv = np.linalg.inv(SP[:, nsk:, nsk:])
        H = S_inv @ SP[:, nsk:, :nsk]
        R = _sym(SP[:, :nsk, :nsk] - SP[:, :nsk, nsk:] @ H)
        out.append(PolygonBlocks(polys, flux, ycol[pdofs], M, G, W, S_inv, H, R, nsk, classes))

    lift = np.zeros((nt, V.nloc))
    dt = np.flatnonzero(S.dirichlet_mask[S.tri_dofs].any(axis=1))
    lift[dt] = (p_dir[S.tri_dofs[dt]][:, None, :] @ assemble_bh(sub, V, S, dt))[:, 0]
    return out, lift


def assemble_system(
    mesh: PolygonalMesh, spec: ProblemSpec, config: SpaceConfig, spaces=None, cache: BlockCache = None
) -> LinearSystem:
    """Reduced (u, p, p_gamma) system; `spaces` reuses a `build_spaces`
    result, and `cache` carries the arrays of kept triangles from the
    previous mesh (see `adaptivity`)."""
    sub = mesh.subdivision
    cache = BlockCache() if cache is None else cache
    S, V, W = build_spaces(mesh, spec, config, cache) if spaces is None else spaces

    K_elem = spec.permeability(mesh.element_centroids)
    rhs_full = assemble_rhs(mesh, spec, V, S, W, cache)
    p_dir, w_dir = dirichlet_values(sub, spec, S, W)

    # y = (p, p_gamma) over free dofs; every (p, p_gamma) dof has its index
    # in y, and the constrained ones follow it, from ny on
    nV, nS = V.ndof, S.ndof
    s_free = np.flatnonzero(~S.dirichlet_mask)
    w_free = np.flatnonzero(~W.dirichlet_mask)
    y_free = np.concatenate([s_free, nS + w_free])
    y_fixed = np.flatnonzero(np.concatenate([S.dirichlet_mask, W.dirichlet_mask]))
    ny = y_free.size
    ycol = np.empty(nS + W.ndof, dtype=np.int64)
    ycol[np.concatenate([y_free, y_fixed])] = np.arange(ycol.size)
    blocks, lift = _polygon_blocks(mesh, V, S, K_elem, p_dir, np.minimum(ycol, ny))

    def free_rows(rows, cols, vals):
        keep = ycol[rows] < ny
        C = _coo([(ycol[rows[keep]], ycol[cols[keep]], vals[keep])], (ny, ycol.size)).tocoo()
        return C.row, C.col, C.data

    # summed apart and then together, so that every p_gamma entry is the sum
    # of its coupling terms plus the sum of its stiffness terms; not with a
    # CSR +, which drops exact zeros (at xi = 1) that SuperLU's ordering sees
    parts = [free_rows(*assemble_interface(sub, S, W, spec)), free_rows(*assemble_fracture_stiffness(sub, S, W, spec))]
    C_y = _coo(parts, (ny, ycol.size))

    # The flux row pairs with the full pressure vector through B^T, which
    # equals the facewise adjoint form plus the boundary trace pairing
    # <p, v.n>_bnd.  On zero-boundary-trace pressures the two coincide; the
    # extra columns put interpolated Dirichlet values into the flux equation
    # (moved to the rhs below) and keep the Neumann-edge pressure trace
    # coupled, which is what makes interpolated boundary data exactly
    # consistent.
    rhs = np.empty(nV + ny)
    rhs[:nV] = rhs_full[:nV] - np.bincount(V.tri_dofs.ravel(), lift.ravel(), minlength=nV)
    rhs[nV:] = rhs_full[nV:][y_free] - C_y[:, ny:] @ np.concatenate([p_dir, w_dir])[y_fixed]
    offsets = (0, nV, nV + s_free.size, nV + ny)
    return LinearSystem(
        blocks=tuple(blocks),
        C=C_y[:, :ny],
        rhs=rhs,
        offsets=offsets,
        V=V,
        S=S,
        W=W,
        s_free=s_free,
        w_free=w_free,
        p_dir=p_dir,
        w_dir=w_dir,
    )
