"""Discrete spaces on the simplicial subdivision.

Three spaces enter the mixed formulation:

* ``PressureSpace``: scalar Lagrange P^k per triangle, single valued across
  interior primal edges (the k+1 edge nodes are shared), discontinuous across
  dual and fracture edges.  Dirichlet boundary edges mark their edge nodes as
  constrained; values are interpolated by the assembly stage.
* ``FluxSpace``: vector [P^k]^2 per triangle with continuous normal trace
  across dual edges.  Realized with normal point-value dofs at k+1 Gauss
  points per edge (shared on dual edges, one set per side elsewhere) plus,
  for k=2, three interior moments.  The local dual basis comes from inverting
  the dof-functional matrix, batched over triangles.
* ``FracturePressureSpace``: continuous 1D Lagrange P^k along each fracture
  polyline; tip values can be constrained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_legendre

from .errors import ConfigError
from .geometry import BOUNDARY, INTERIOR, PolygonalMesh, Subdivision
from .quadrature import triangle_rule, map_to_triangles


@dataclass(frozen=True)
class SpaceConfig:
    """Polynomial order shared by all three spaces."""

    k: int = 1

    def __post_init__(self):
        if self.k not in (1, 2):
            raise ConfigError(f"order k={self.k} not supported; use 1 or 2")


def _monomial_exponents(k: int) -> np.ndarray:
    exps = [(a, b) for d in range(k + 1) for a in range(d, -1, -1) for b in (d - a,)]
    return np.array(exps, dtype=int)


def _powers(x: np.ndarray, k: int) -> np.ndarray:
    """x**0 .. x**k on a new last axis, by repeated products (an
    array-valued ** runs a general pow that is slower and less accurate)."""
    out = [np.ones_like(x), x]
    for _ in range(k - 1):
        out.append(out[-1] * x)
    return np.stack(out[: k + 1], axis=-1)


def _monomial_values(exps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    xp = _powers(pts[..., 0], exps.max())
    yp = _powers(pts[..., 1], exps.max())
    return xp[..., exps[:, 0]] * yp[..., exps[:, 1]]


def _monomial_gradients(exps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    xp = _powers(pts[..., 0], exps.max())
    yp = _powers(pts[..., 1], exps.max())
    a = exps[:, 0]
    b = exps[:, 1]
    gx = np.where(a > 0, a * xp[..., np.maximum(a - 1, 0)] * yp[..., b], 0.0)
    gy = np.where(b > 0, b * xp[..., a] * yp[..., np.maximum(b - 1, 0)], 0.0)
    return np.stack([gx, gy], axis=-1)


def _lattice_nodes(k: int) -> np.ndarray:
    """Reference Lagrange nodes: vertices, then edge interiors (k=2)."""
    if k == 1:
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [0.5, 0.0],  # on edge (v0, v1)
            [0.5, 0.5],  # on edge (v1, v2)
            [0.0, 0.5],  # on edge (v2, v0)
        ]
    )


def _primal_edge_nodes(k: int) -> list:
    """Local node ids on edge (v0, v1), ordered from v0 to v1."""
    return [0, 1] if k == 1 else [0, 3, 1]


def lagrange_1d(nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Values of the 1D Lagrange basis through ``nodes`` at parameters ``ts``."""
    nodes = np.asarray(nodes, dtype=float)
    ts = np.asarray(ts, dtype=float)
    m = nodes.shape[0]
    out = np.ones(ts.shape + (m,))
    for j in range(m):
        for i in range(m):
            if i != j:
                out[..., j] *= (ts - nodes[i]) / (nodes[j] - nodes[i])
    return out


def lagrange_1d_deriv(nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    ts = np.asarray(ts, dtype=float)
    m = nodes.shape[0]
    out = np.zeros(ts.shape + (m,))
    for j in range(m):
        for l in range(m):
            if l == j:
                continue
            term = np.ones_like(ts) / (nodes[j] - nodes[l])
            for i in range(m):
                if i != j and i != l:
                    term *= (ts - nodes[i]) / (nodes[j] - nodes[i])
            out[..., j] += term
    return out


# ---------------------------------------------------------------------------
# pressure space S_h


@dataclass(frozen=True)
class PressureSpace:
    """Per-triangle Lagrange pressures, continuous across interior edges."""

    sub: Subdivision
    k: int
    ndof: int
    tri_dofs: np.ndarray  # (nt, nloc)
    dirichlet_mask: np.ndarray  # (ndof,) bool
    dof_edge: np.ndarray  # (ndof,) boundary edge owning a Dirichlet node, else -1
    node_coords: np.ndarray  # (ndof, 2)
    ref_nodes: np.ndarray = field(repr=False, default=None)
    _coeff: np.ndarray = field(repr=False, default=None)  # monomial coeffs (nloc, nloc)
    _exps: np.ndarray = field(repr=False, default=None)

    @property
    def nloc(self) -> int:
        return self.tri_dofs.shape[1]

    @property
    def n_free(self) -> int:
        return int(self.ndof - self.dirichlet_mask.sum())

    def eval_ref(self, ref_pts: np.ndarray) -> np.ndarray:
        """Basis values at reference points, shape (..., nloc)."""
        return _monomial_values(self._exps, ref_pts) @ self._coeff

    def grad_ref(self, ref_pts: np.ndarray) -> np.ndarray:
        """Reference gradients, shape (..., nloc, 2)."""
        g = _monomial_gradients(self._exps, ref_pts)
        return np.einsum("...mc,ml->...lc", g, self._coeff)

    def basis_values(self, tris, pts) -> np.ndarray:
        """Basis values at physical points; (n, nq, 2) -> (n, nq, nloc)."""
        return self.eval_ref(self.sub.reference_coords(tris, pts))

    def interpolate(self, fn) -> np.ndarray:
        """Nodal interpolation; fn(points (n,2), triangles (n,)) -> values."""
        nt, nloc = self.tri_dofs.shape
        tris = np.repeat(np.arange(nt), nloc)
        pts = self.node_coords[self.tri_dofs.ravel()]
        vals = np.asarray(fn(pts, tris), dtype=float)
        out = np.zeros(self.ndof)
        out[self.tri_dofs.ravel()] = vals
        return out


def build_S_h(mesh, config: SpaceConfig, dirichlet_edges=()) -> PressureSpace:
    """Number the pressure nodes in triangle order.

    Each triangle numbers its new nodes in turn: first the k+1 nodes of its
    primal edge (side 0), then its remaining nodes in local order.  On an
    interior primal edge the lower-numbered triangle creates the shared
    nodes, ordered from the lower vertex id; the other triangle reuses them.
    """
    sub = mesh.subdivision if isinstance(mesh, PolygonalMesh) else mesh
    k = config.k
    k1 = k + 1
    ref_nodes = _lattice_nodes(k)
    nloc = ref_nodes.shape[0]
    edge_locals = _primal_edge_nodes(k)
    rest_locals = [l for l in range(nloc) if l not in edge_locals]
    nt = sub.n_triangles

    dirichlet_edges = np.asarray(sorted(set(int(e) for e in dirichlet_edges)), dtype=int)
    for e in dirichlet_edges:
        if sub.edge_kind[e] != BOUNDARY:
            raise ConfigError(f"Dirichlet edge {e} is not a boundary edge")

    tris = np.arange(nt)
    e = sub.tri_edges[:, 0]
    interior = sub.edge_kind[e] == INTERIOR
    owner = np.where(interior, sub.edge_tris[e].min(axis=1), tris)
    own = owner == tris  # the triangle creates its primal-edge nodes
    n_edge = np.where(own, k1, 0)
    count = n_edge + len(rest_locals)
    first = np.cumsum(count) - count
    ndof = int(count.sum())

    v0, v1 = sub.tri_vertices[:, 0], sub.tri_vertices[:, 1]
    j = np.arange(k1)
    along = np.where((interior & (v0 > v1))[:, None], k - j, j)
    tri_dofs = np.empty((nt, nloc), dtype=int)
    tri_dofs[:, edge_locals] = first[owner][:, None] + along
    rest = first[:, None] + n_edge[:, None] + np.arange(len(rest_locals))
    tri_dofs[:, rest_locals] = rest

    tc = sub.tri_coords
    nodes_xy = tc[:, :1, :] + np.einsum("lj,tjc->tlc", ref_nodes, tc[:, 1:, :] - tc[:, :1, :])
    coords = np.empty((ndof, 2))
    coords[rest] = nodes_xy[:, rest_locals]
    alone = own & ~interior
    coords[first[alone][:, None] + j] = nodes_xy[alone][:, edge_locals]
    shared = own & interior
    coords[first[shared][:, None] + j] = sub.edge_points(e[shared], np.linspace(0.0, 1.0, k1))

    dof_edge = np.full(ndof, -1, dtype=int)
    on_dir = own & np.isin(e, dirichlet_edges)
    dof_edge[first[on_dir][:, None] + j] = e[on_dir][:, None]

    exps = _monomial_exponents(k)
    vand = _monomial_values(exps, ref_nodes)
    coeff = np.linalg.inv(vand)

    return PressureSpace(
        sub=sub,
        k=k,
        ndof=ndof,
        tri_dofs=tri_dofs,
        dirichlet_mask=dof_edge >= 0,
        dof_edge=dof_edge,
        node_coords=coords,
        ref_nodes=ref_nodes,
        _coeff=coeff,
        _exps=exps,
    )


# ---------------------------------------------------------------------------
# flux space V_h


@dataclass(frozen=True)
class FluxSpace:
    """Elementwise [P^k]^2 with continuous normal trace across dual edges.

    Dofs are v.n_e point values at the k+1 Gauss points of each triangle
    edge (ordered from the lower-indexed edge vertex), shared when the edge
    is dual, plus for k=2 three interior moments per triangle.  The normal
    trace of a member along an edge is the 1D Lagrange interpolant of its
    edge dof values through the Gauss points.
    """

    sub: Subdivision
    k: int
    ndof: int
    tri_dofs: np.ndarray  # (nt, nloc)
    edge_side_dofs: np.ndarray  # (ne, 2, k+1); -1 where side absent
    gauss_ts: np.ndarray  # (k+1,) edge dof parameters in (0,1)
    _coeff: np.ndarray = field(repr=False, default=None)  # (nt, nloc, nloc)
    _exps: np.ndarray = field(repr=False, default=None)
    _centers: np.ndarray = field(repr=False, default=None)
    _scales: np.ndarray = field(repr=False, default=None)

    @property
    def nloc(self) -> int:
        return self.tri_dofs.shape[1]

    def _scaled(self, tris, pts):
        c = self._centers[tris]
        h = self._scales[tris]
        return (pts - c[..., None, :]) / h[..., None, None]

    def _vector_monomials(self, scaled):
        m = _monomial_values(self._exps, scaled)  # (..., s)
        n = m.shape[-1]
        out = np.zeros(m.shape[:-1] + (2 * n, 2))
        out[..., 0::2, 0] = m
        out[..., 1::2, 1] = m
        return out

    def basis_values(self, tris, pts) -> np.ndarray:
        """Basis fields at physical points; (nt, nq, 2) -> (nt, nq, nloc, 2)."""
        vm = self._vector_monomials(self._scaled(tris, pts))
        return np.einsum("tml,tqmc->tqlc", self._coeff[tris], vm)

    def basis_divergence(self, tris, pts) -> np.ndarray:
        scaled = self._scaled(tris, pts)
        g = _monomial_gradients(self._exps, scaled)  # (..., s, 2)
        n = g.shape[-2]
        div = np.zeros(scaled.shape[:-1] + (2 * n,))
        div[..., 0::2] = g[..., 0]
        div[..., 1::2] = g[..., 1]
        div = div / self._scales[tris][..., None, None]
        return np.einsum("tml,tqm->tql", self._coeff[tris], div)

    def edge_trace_matrix(self, ts: np.ndarray) -> np.ndarray:
        """Normal-trace values at edge parameters ts: (nq, k+1) Lagrange."""
        return lagrange_1d(self.gauss_ts, np.asarray(ts, dtype=float))

    def interpolate(self, fn) -> np.ndarray:
        """Dof-functional interpolation of a vector field fn(pts (...,2)) -> (...,2)."""
        sub = self.sub
        out = np.zeros(self.ndof)
        k1 = self.gauss_ts.shape[0]
        nt = sub.n_triangles
        for l in range(3):
            e = sub.tri_edges[:, l]
            vals = np.asarray(fn(sub.edge_points(e, self.gauss_ts)))
            out[self.tri_dofs[:, l * k1 : (l + 1) * k1]] = np.einsum(
                "tqc,tc->tq", vals, sub.edge_normal[e]
            )
        if self.k == 2:
            rule = triangle_rule(2 * self.k + 2)
            qp, qw = map_to_triangles(rule, sub.tri_coords)
            fv = np.asarray(fn(qp.reshape(-1, 2))).reshape(nt, -1, 2)
            area = sub.tri_area
            mean = np.einsum("tq,tqc->tc", qw, fv) / area[:, None]
            curl = _bubble_curl(sub, qp)
            mom = np.einsum("tq,tqc,tqc->t", qw, fv, curl) * (
                sub.tri_diameter / area
            )
            base = 3 * k1
            out[self.tri_dofs[:, base]] = mean[:, 0]
            out[self.tri_dofs[:, base + 1]] = mean[:, 1]
            out[self.tri_dofs[:, base + 2]] = mom
        return out


def _bubble_curl(sub: Subdivision, phys_pts: np.ndarray) -> np.ndarray:
    """curl(l0*l1*l2) at physical points (nt, nq, 2) -> (nt, nq, 2)."""
    nt, nq = phys_pts.shape[:2]
    ref = sub.reference_coords(np.arange(nt), phys_pts)
    x, y = ref[..., 0], ref[..., 1]
    l0 = 1.0 - x - y
    db_dx = y * (l0 - x)
    db_dy = x * (l0 - y)
    gref = np.stack([db_dx, db_dy], axis=-1)
    gphys = np.einsum("tji,tqj->tqi", sub.tri_jacobian_inv, gref)
    curl = np.stack([gphys[..., 1], -gphys[..., 0]], axis=-1)
    return curl


def build_V_h(mesh, config: SpaceConfig) -> FluxSpace:
    sub = mesh.subdivision if isinstance(mesh, PolygonalMesh) else mesh
    k = config.k
    k1 = k + 1
    xs, _ = roots_legendre(k1)
    ts = 0.5 * (xs + 1.0)
    n_int = 3 if k == 2 else 0
    nloc = 3 * k1 + n_int
    nt = sub.n_triangles
    n_primal = sub.n_edges - nt  # one dual edge per triangle, numbered last

    # dual edge e owns k1 shared dofs at (e - n_primal) * k1; then each
    # triangle in turn numbers the k1 dofs of its primal side and its
    # interior moments
    own = nt * k1 + (k1 + n_int) * np.arange(nt)[:, None]
    tri_dofs = np.empty((nt, nloc), dtype=int)
    tri_dofs[:, :k1] = own + np.arange(k1)
    for l in (1, 2):
        tri_dofs[:, l * k1 : (l + 1) * k1] = (
            (sub.tri_edges[:, l, None] - n_primal) * k1 + np.arange(k1)
        )
    tri_dofs[:, 3 * k1 :] = own + k1 + np.arange(n_int)
    ndof = nt * (2 * k1 + n_int)

    exps = _monomial_exponents(k)
    s = exps.shape[0]
    centers = sub.tri_centroid
    scales = sub.tri_diameter

    # dof-functional matrix G per triangle: rows functionals, cols monomials
    G = np.zeros((nt, nloc, 2 * s))
    edge_side_dofs = np.full((sub.n_edges, 2, k1), -1, dtype=int)
    for l in range(3):
        e = sub.tri_edges[:, l]
        side = (sub.edge_tris[e, 0] != np.arange(nt)).astype(int)
        edge_side_dofs[e, side] = tri_dofs[:, l * k1 : (l + 1) * k1]
        p = sub.edge_points(e, ts)  # (nt, k1, 2)
        nrm = sub.edge_normal[e]  # (nt, 2)
        scaled = (p - centers[:, None, :]) / scales[:, None, None]
        m = _monomial_values(exps, scaled)  # (nt, k1, s)
        rows = np.zeros((nt, k1, 2 * s))
        rows[..., 0::2] = m * nrm[:, None, 0, None]
        rows[..., 1::2] = m * nrm[:, None, 1, None]
        G[:, l * k1 : (l + 1) * k1, :] = rows
    if n_int:
        rule = triangle_rule(2 * k + 2)
        qp, qw = map_to_triangles(rule, sub.tri_coords)
        scaled = (qp - centers[:, None, :]) / scales[:, None, None]
        m = _monomial_values(exps, scaled)  # (nt, nq, s)
        area = sub.tri_area
        mx = np.einsum("tq,tqm->tm", qw, m) / area[:, None]
        G[:, 3 * k1, 0::2] = mx
        G[:, 3 * k1 + 1, 1::2] = mx
        curl = _bubble_curl(sub, qp)
        w = sub.tri_diameter / area
        G[:, 3 * k1 + 2, 0::2] = np.einsum("tq,tqm,tq->tm", qw, m, curl[..., 0]) * w[:, None]
        G[:, 3 * k1 + 2, 1::2] = np.einsum("tq,tqm,tq->tm", qw, m, curl[..., 1]) * w[:, None]

    coeff = np.linalg.inv(G)  # (nt, 2s, nloc) since G square: 2s == nloc

    return FluxSpace(
        sub=sub,
        k=k,
        ndof=ndof,
        tri_dofs=tri_dofs,
        edge_side_dofs=edge_side_dofs,
        gauss_ts=ts,
        _coeff=coeff,
        _exps=exps,
        _centers=centers,
        _scales=scales,
    )


# ---------------------------------------------------------------------------
# fracture pressure space W_h


@dataclass(frozen=True)
class FracturePressureSpace:
    """Continuous piecewise P^k on each fracture polyline."""

    k: int
    ndof: int
    edge_dofs: tuple  # per fracture: (ne, k+1) global ids in arclength order
    dirichlet_mask: np.ndarray  # (ndof,)
    node_coords: np.ndarray  # (ndof, 2)
    node_param: np.ndarray  # (ndof,) arclength along the fracture
    node_fracture: np.ndarray  # (ndof,)
    ref_nodes: np.ndarray = field(repr=False, default=None)  # (k+1,) on [0,1]

    @property
    def n_free(self) -> int:
        return int(self.ndof - self.dirichlet_mask.sum())

    def eval_ref(self, ts: np.ndarray) -> np.ndarray:
        return lagrange_1d(self.ref_nodes, ts)

    def deriv_ref(self, ts: np.ndarray) -> np.ndarray:
        return lagrange_1d_deriv(self.ref_nodes, ts)

    def interpolate(self, fn) -> np.ndarray:
        """fn(points (n,2), params (n,), fracture (n,)) -> nodal values."""
        return np.asarray(
            fn(self.node_coords, self.node_param, self.node_fracture), dtype=float
        )


def build_W_h(mesh, config: SpaceConfig, dirichlet_tips=()) -> FracturePressureSpace:
    """dirichlet_tips: iterable of (fracture_index, end) with end 0=start, 1=end."""
    sub = mesh.subdivision if isinstance(mesh, PolygonalMesh) else mesh
    k = config.k
    ref = np.linspace(0.0, 1.0, k + 1)
    tips = set((int(f), int(s)) for f, s in dirichlet_tips)
    for f, s in tips:
        if f < 0 or f >= len(sub.fracture_meshes):
            raise ConfigError(f"fracture index {f} out of range")
        if s not in (0, 1):
            raise ConfigError(f"tip selector {s} must be 0 (start) or 1 (end)")

    edge_dofs = []
    coords = []
    params = []
    fracs = []
    mask = []
    offset = 0
    for fi, fm in enumerate(sub.fracture_meshes):
        ne = fm.n_edges
        nv = ne + 1
        ed = np.zeros((ne, k + 1), dtype=int)
        ed[:, 0] = offset + np.arange(ne)
        ed[:, k] = offset + np.arange(1, ne + 1)
        coords.extend(sub.vertices[fm.vertex_ids].tolist())
        params.extend(fm.vertex_arclength.tolist())
        fracs.extend([fi] * nv)
        vmask = [False] * nv
        if (fi, 0) in tips:
            vmask[0] = True
        if (fi, 1) in tips:
            vmask[-1] = True
        mask.extend(vmask)
        nxt = offset + nv
        mid, mid_par = sub.fracture_points(fi, ref[1:k])
        for j in range(1, k):
            ed[:, j] = nxt + np.arange(ne)
            coords.extend(mid[:, j - 1].tolist())
            params.extend(mid_par[:, j - 1].tolist())
            fracs.extend([fi] * ne)
            mask.extend([False] * ne)
            nxt += ne
        edge_dofs.append(ed)
        offset = nxt

    return FracturePressureSpace(
        k=k,
        ndof=offset,
        edge_dofs=tuple(edge_dofs),
        dirichlet_mask=np.array(mask, dtype=bool),
        node_coords=np.array(coords, dtype=float).reshape(offset, 2),
        node_param=np.array(params, dtype=float),
        node_fracture=np.array(fracs, dtype=int),
        ref_nodes=ref,
    )
