"""Discrete spaces on the simplicial subdivision.

Three spaces enter the mixed formulation:

* ``PressureSpace``: scalar Lagrange P^k per triangle, single valued across
  interior primal edges (the k+1 edge nodes are shared), discontinuous across
  dual and fracture edges.  Dirichlet boundary edges mark their edge nodes as
  constrained; values are interpolated by the assembly stage.
* ``FluxSpace``: vector [P^k]^2 per triangle with continuous normal trace
  across dual edges.  Realized with normal point-value dofs at k+1 Gauss
  points per edge (shared on dual edges, one set per side elsewhere) plus,
  for k=2, three interior moments.  [P^k]^2 is invariant under the
  contravariant Piola map u = J u^ / det J (the subdivision's triangles are
  counter-clockwise, so det J > 0).  Each triangle stores one transform C_t
  from its local dofs to the reference vector monomials (see ``build_V_h``),
  and consumers multiply C_t with reference tables shared by all triangles.
* ``FracturePressureSpace``: continuous 1D Lagrange P^k along each fracture
  polyline; tip values can be constrained.

The pressure and flux spaces list each edge side's dofs from the edge's
lower vertex id, placed and oriented by the subdivision's side table
``tri_side`` and ``tri_flip``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import ConfigError
from .geometry import BOUNDARY, INTERIOR, PolygonalMesh, Subdivision
from .quadrature import edge_rule, triangle_rule
from .reuse import BlockCache


@dataclass(frozen=True)
class SpaceConfig:
    """Polynomial order shared by all three spaces."""

    k: int = 1

    def __post_init__(self):
        check_integer("k", self.k)
        if self.k not in (1, 2):
            raise ConfigError(f"order k={self.k} not supported; use 1 or 2")


def check_integer(name: str, value) -> None:
    """Raise ConfigError unless `value` is an integer; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name}={value!r} is not an integer")


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


# per k, the local node ids on each reference side l, from vertex l to l+1
_SIDE_NODES = {1: np.array([[0, 1], [1, 2], [2, 0]]), 2: np.array([[0, 3, 1], [1, 4, 2], [2, 5, 0]])}


def _edge_side_table(sub: Subdivision, dofs: np.ndarray) -> np.ndarray:
    """(ne, 2, k+1) per-side dofs from the triangles' (nt, 3, k+1); -1 where absent."""
    table = np.full((sub.n_edges, 2, dofs.shape[-1]), -1, dtype=int)
    table[sub.tri_edges, sub.tri_side] = dofs
    return table


def lagrange_1d(nodes: np.ndarray, ts: np.ndarray, order: int = 0) -> np.ndarray:
    """Values (order 0) or derivatives of the 1D Lagrange basis through
    ``nodes`` at parameters ``ts``, shape ts.shape + (len(nodes),), read-only.

    Basis j is the product of (t - x_i) / (x_j - x_i) over i != j; by the
    product rule, each ordered choice of `order` distinct factors to
    differentiate adds one term."""
    nodes = np.asarray(nodes, dtype=float)
    ts = np.asarray(ts, dtype=float)
    m = nodes.shape[0]
    out = np.zeros(ts.shape + (m,))
    for j in range(m):
        others = [i for i in range(m) if i != j]
        for picked in permutations(others, order):
            term = np.full(ts.shape, 1.0 / np.prod(nodes[j] - nodes[list(picked)]))
            for i in others:
                if i not in picked:
                    term *= (ts - nodes[i]) / (nodes[j] - nodes[i])
            out[..., j] += term
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# pressure space S_h


@dataclass(frozen=True)
class PressureSpace:
    """Per-triangle Lagrange pressures, continuous across interior edges.

    ``edge_side_dofs`` lists the k+1 nodes of each side of an edge from its
    lower vertex id, as ``FluxSpace.edge_side_dofs`` does; a member's trace
    is the 1D Lagrange interpolant of their values at 0, 1/k, .., 1.
    """

    sub: Subdivision
    k: int
    ndof: int
    tri_dofs: np.ndarray  # (nt, nloc)
    edge_side_dofs: np.ndarray  # (ne, 2, k+1); -1 where side absent
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

    def edge_trace_matrix(self, ts: np.ndarray) -> np.ndarray:
        """Trace values at edge parameters ts: (..., k+1) Lagrange."""
        return lagrange_1d(np.linspace(0.0, 1.0, self.k + 1), ts)


def build_S_h(mesh: PolygonalMesh, config: SpaceConfig, dirichlet_edges=()) -> PressureSpace:
    """Number the pressure nodes in triangle order.

    Each triangle numbers its new nodes in turn: first the k+1 nodes of its
    primal edge (side 0), then its remaining nodes in local order.  On an
    interior primal edge the lower-numbered triangle creates the shared
    nodes, ordered from the lower vertex id; the other triangle reuses them.
    """
    sub = mesh.subdivision
    k = config.k
    k1 = k + 1
    ref_nodes = _lattice_nodes(k)
    nloc = ref_nodes.shape[0]
    side_nodes = _SIDE_NODES[k]
    edge_locals = side_nodes[0]
    rest_locals = np.setdiff1d(np.arange(nloc), edge_locals)
    nt = sub.n_triangles

    dirichlet_edges = np.unique(np.fromiter(dirichlet_edges, dtype=int))
    stray = dirichlet_edges[sub.edge_kind[dirichlet_edges] != BOUNDARY]
    if stray.size:
        raise ConfigError(f"Dirichlet edge {stray[0]} is not a boundary edge")

    tris = np.arange(nt)
    e = sub.tri_edges[:, 0]
    interior = sub.edge_kind[e] == INTERIOR
    owner = np.where(interior, sub.edge_tris[e].min(axis=1), tris)
    own = owner == tris  # the triangle creates its primal-edge nodes
    n_edge = np.where(own, k1, 0)
    count = n_edge + len(rest_locals)
    first = np.cumsum(count) - count
    ndof = int(count.sum())

    j = np.arange(k1)
    along = np.where((interior & sub.tri_flip[:, 0])[:, None], k - j, j)
    tri_dofs = np.empty((nt, nloc), dtype=int)
    tri_dofs[:, edge_locals] = first[owner][:, None] + along
    rest = first[:, None] + n_edge[:, None] + np.arange(len(rest_locals))
    tri_dofs[:, rest_locals] = rest

    tc = sub.tri_coords
    nodes_xy = tc[:, :1, :] + ref_nodes @ (tc[:, 1:, :] - tc[:, :1, :])
    coords = np.empty((ndof, 2))
    coords[rest] = nodes_xy[:, rest_locals]
    alone = own & ~interior
    coords[first[alone][:, None] + j] = nodes_xy[alone][:, edge_locals]
    shared = own & interior
    coords[first[shared][:, None] + j] = sub.edge_points(e[shared], np.linspace(0.0, 1.0, k1))

    on_sides = tri_dofs[:, side_nodes]  # (nt, 3, k1), from vertex l to l+1
    on_sides = np.where(sub.tri_flip[..., None], on_sides[..., ::-1], on_sides)

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
        edge_side_dofs=_edge_side_table(sub, on_sides),
        dirichlet_mask=dof_edge >= 0,
        dof_edge=dof_edge,
        node_coords=coords,
        ref_nodes=ref_nodes,
        _coeff=coeff,
        _exps=exps,
    )


# ---------------------------------------------------------------------------
# flux space V_h


def _bubble_curl_ref(pts: np.ndarray) -> np.ndarray:
    """R grad(l0*l1*l2) at reference points (..., 2), with R(a, b) = (b, -a).

    The physical curl of the bubble is J (R grad b) / det J, because
    R J^-T = J R / det J."""
    x, y = pts[..., 0], pts[..., 1]
    l0 = 1.0 - x - y
    return np.stack([x * (l0 - y), -y * (l0 - x)], axis=-1)


@lru_cache(maxsize=None)
def _reference_flux_dofs(k: int):
    """The flux dof functionals applied to the reference vector monomials.

    Returns (edge, mean, curl).  ``edge`` (3(k+1), 2s) holds u.nu at the
    Gauss points of each reference side l, from vertex l to vertex l+1,
    where nu is that side's outward normal scaled by its length.  For k=2,
    ``mean`` (2, 2s) holds the reference means and ``curl`` (2, 2, 2s) the
    integrals of u_a (R grad b)_b over the reference triangle; both are None
    for k=1.
    """
    exps = _monomial_exponents(k)
    s = exps.shape[0]
    ts = edge_rule(2 * k + 1).points  # the k+1 Gauss points
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rows = []
    for l in range(3):
        a, b = verts[l], verts[(l + 1) % 3]
        m = _monomial_values(exps, a + ts[:, None] * (b - a))  # (k+1, s)
        nu = np.array([b[1] - a[1], a[0] - b[0]])
        rows.append((m[:, :, None] * nu).reshape(k + 1, 2 * s))
    edge = np.concatenate(rows)
    edge.setflags(write=False)
    if k == 1:
        return edge, None, None
    rule = triangle_rule(2 * k + 2)
    m = _monomial_values(exps, rule.points)  # (nq, s)
    eye = np.eye(2)
    mean = np.einsum("ac,i->aic", eye, 2.0 * rule.weights @ m).reshape(2, 2 * s)
    moment = np.einsum("q,qi,qb->ib", rule.weights, m, _bubble_curl_ref(rule.points))
    curl = np.einsum("ac,ib->abic", eye, moment).reshape(2, 2, 2 * s)
    mean.setflags(write=False)
    curl.setflags(write=False)
    return edge, mean, curl


@lru_cache(maxsize=None)
def _edge_pseudoinverse(k: int):
    """(E^+, N) for the edge rows E of `_reference_flux_dofs`: its
    pseudoinverse (2s, 3(k+1)) and an orthonormal basis of its null space
    (2s, 2s - 3(k+1))."""
    edge = _reference_flux_dofs(k)[0]
    _, _, vt = np.linalg.svd(edge)
    out = np.linalg.pinv(edge), vt[edge.shape[0] :].T.copy()
    for a in out:
        a.setflags(write=False)
    return out


@dataclass(frozen=True)
class FluxSpace:
    """Elementwise [P^k]^2 with continuous normal trace across dual edges.

    Dofs are v.n_e point values at the k+1 Gauss points of each triangle
    edge (ordered from the lower-indexed edge vertex), shared when the edge
    is dual, plus for k=2 three interior moments per triangle.  The normal
    trace of a member along an edge is the 1D Lagrange interpolant of its
    edge dof values through the Gauss points.

    Basis function l on triangle t is the Piola map J phi / det J of
    phi = sum_m ref_coeff[t, m, l] phi_m, where phi_{2i+c} = m_i e_c are the
    vector monomials of P^k on the reference triangle.
    """

    sub: Subdivision
    k: int
    ndof: int
    tri_dofs: np.ndarray  # (nt, nloc)
    edge_side_dofs: np.ndarray  # (ne, 2, k+1); -1 where side absent
    gauss_ts: np.ndarray  # (k+1,) edge dof parameters in (0,1)
    ref_coeff: np.ndarray = field(repr=False, default=None)  # (nt, 2s, nloc)
    _exps: np.ndarray = field(repr=False, default=None)

    @property
    def nloc(self) -> int:
        return self.tri_dofs.shape[1]

    def ref_monomials(self, ref_pts: np.ndarray) -> np.ndarray:
        """Scalar monomials m_i at reference points, (..., s)."""
        return _monomial_values(self._exps, ref_pts)

    def ref_divergence(self, ref_pts: np.ndarray) -> np.ndarray:
        """Reference divergences of phi_{2i+c}, d m_i / d x_c, (..., 2s)."""
        g = _monomial_gradients(self._exps, ref_pts)
        return g.reshape(g.shape[:-2] + (-1,))

    def piola(self, tris, vhat: np.ndarray) -> np.ndarray:
        """J vhat / det J on triangles tris; vhat (n, ..., 2)."""
        sub = self.sub
        Jt = np.swapaxes(sub.tri_jacobian[tris], 1, 2) / (2.0 * sub.tri_area[tris])[:, None, None]
        n = Jt.shape[0]
        return (vhat.reshape(n, -1, 2) @ Jt).reshape(vhat.shape)

    def edge_trace_matrix(self, ts: np.ndarray) -> np.ndarray:
        """Normal-trace values at edge parameters ts: (..., k+1) Lagrange."""
        return lagrange_1d(self.gauss_ts, ts)


def flux_dofs_per_triangle(k: int) -> int:
    """Flux dofs per triangle in `build_V_h`'s numbering: the k+1 of its
    primal side, the k+1 of one dual edge (it has two sides on dual edges,
    each shared with one neighbour) and the 3 interior moments at k=2."""
    return 2 * (k + 1) + (3 if k == 2 else 0)


def build_V_h(mesh: PolygonalMesh, config: SpaceConfig, cache: BlockCache = None) -> FluxSpace:
    """Number the flux dofs and derive each triangle's transform C_t.

    The dof functionals of triangle t applied to the Piola-mapped reference
    monomials form D_t = P_t D~_t.  P_t takes each edge dof to its reference
    Gauss point (reversed where the edge's low-to-high vertex order runs
    against side l) and scales it by sigma / |e|, sigma = +1 where n_e points
    out of t.  D~_t is the reference matrix, except that at k=2 the mean rows
    are J / det J times the reference means and the bubble row is the curl
    tensor contracted with J^T J and scaled by h / (|T| det J).  Then
    C_t = D~_t^-1 P_t^-1; at k=1 D~_t is one matrix for all triangles, and
    at k=2 only its three interior rows vary, so D~_t^-1 takes one 3x3
    inverse per triangle.  C_t of the triangles of kept polygons comes from
    `cache`.
    """
    sub = mesh.subdivision
    cache = BlockCache() if cache is None else cache
    k = config.k
    k1 = k + 1
    ts = edge_rule(2 * k + 1).points  # the k+1 Gauss points
    n_int = flux_dofs_per_triangle(k) - 2 * k1  # interior moments
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
    ndof = nt * flux_dofs_per_triangle(k)

    def transforms(tris):
        # P_t^-1 as a per-triangle column order and scale; n_e points out of
        # the triangle on side 0
        m = tris.size
        j = np.arange(k1)
        order = np.tile(np.arange(nloc), (m, 1))
        order[:, : 3 * k1] = (k1 * np.arange(3)[:, None] + np.where(sub.tri_flip[tris, :, None], k - j, j)).reshape(m, -1)
        scale = np.ones((m, nloc))
        scale[:, : 3 * k1] = np.repeat((1 - 2 * sub.tri_side[tris]) * sub.edge_length[sub.tri_edges[tris]], k1, axis=1)

        edge, mean, curl = _reference_flux_dofs(k)
        if n_int:
            # D~_t = [E; R_t] with the edge rows E shared by all triangles, so
            # D~_t^-1 = [(I - N X_t R_t) E^+ | N X_t], N spanning null(E) and
            # X_t = (R_t N)^-1
            J = sub.tri_jacobian[tris]
            area = sub.tri_area[tris]
            det = 2.0 * area
            R = np.empty((m, n_int, nloc))
            R[:, :2] = (J / det[:, None, None]) @ mean
            JtJ = np.swapaxes(J, 1, 2) @ J
            R[:, 2] = (sub.tri_diameter[tris] / (area * det))[:, None] * (
                JtJ.reshape(m, 4) @ curl.reshape(4, nloc)
            )
            pinv, null = _edge_pseudoinverse(k)
            NX = null @ np.linalg.inv(R @ null)
            Dinv = np.concatenate([pinv - NX @ (R @ pinv), NX], axis=2)
            return (np.take_along_axis(Dinv, order[:, None, :], axis=2) * scale[:, None, :],)
        # one D~^-1 for all triangles: gather its columns; contiguous, since
        # the products that read C_t take other bits from a transposed layout
        return (np.ascontiguousarray(np.swapaxes(np.linalg.inv(edge).T[order], 1, 2)) * scale[:, None, :],)

    (coeff,) = cache.triangles(sub.mesh, "flux transforms", transforms)

    return FluxSpace(
        sub=sub,
        k=k,
        ndof=ndof,
        tri_dofs=tri_dofs,
        edge_side_dofs=_edge_side_table(sub, tri_dofs[:, : 3 * k1].reshape(nt, 3, k1)),
        gauss_ts=ts,
        ref_coeff=coeff,
        _exps=_monomial_exponents(k),
    )


# ---------------------------------------------------------------------------
# fracture pressure space W_h


@dataclass(frozen=True)
class FracturePressureSpace:
    """Continuous piecewise P^k on each fracture polyline.

    `edge_dofs` has one row per fracture edge, in the rows of the
    subdivision's `fracture_edges`, and lists the edge's k+1 dofs in
    polyline direction.  The dofs of fracture f, with n_f edges, start at
    k offsets[f] + f: its n_f + 1 vertex dofs along the polyline, then for
    each interior node j = 1..k-1 one dof per edge.
    """

    k: int
    ndof: int
    edge_dofs: np.ndarray  # (n_fe, k+1) global ids in polyline direction
    tip_dofs: np.ndarray  # (nf, 2) the dofs at the start and end tip of each fracture
    dirichlet_mask: np.ndarray  # (ndof,)
    ref_nodes: np.ndarray = field(repr=False, default=None)  # (k+1,) on [0,1]

    @property
    def n_free(self) -> int:
        return int(self.ndof - self.dirichlet_mask.sum())

    def eval_ref(self, ts: np.ndarray) -> np.ndarray:
        return lagrange_1d(self.ref_nodes, ts)

    def deriv_ref(self, ts: np.ndarray, order: int = 1) -> np.ndarray:
        return lagrange_1d(self.ref_nodes, ts, order)


def build_W_h(mesh: PolygonalMesh, config: SpaceConfig, dirichlet_tips=()) -> FracturePressureSpace:
    """dirichlet_tips: iterable of (fracture_index, end) with end 0=start, 1=end."""
    sub = mesh.subdivision
    fe = sub.fracture_edges
    k, nf = config.k, fe.offsets.size - 1
    tips = np.array(sorted(set((int(f), int(s)) for f, s in dirichlet_tips)), dtype=int).reshape(-1, 2)
    for f, s in tips:
        if f < 0 or f >= nf:
            raise ConfigError(f"fracture index {f} out of range")
        if s not in (0, 1):
            raise ConfigError(f"tip selector {s} must be 0 (start) or 1 (end)")

    f = fe.fracture
    ne = np.diff(fe.offsets)[f]
    i = np.arange(fe.n_edges) - fe.offsets[f]  # position along the fracture
    first = k * fe.offsets[f] + f  # the fracture's first dof
    edge_dofs = np.empty((fe.n_edges, k + 1), dtype=int)
    edge_dofs[:, 0] = first + i
    edge_dofs[:, k] = first + i + 1
    edge_dofs[:, 1:k] = (first + ne + 1 + i)[:, None] + ne[:, None] * np.arange(k - 1)
    tip_dofs = np.column_stack([edge_dofs[fe.offsets[:-1], 0], edge_dofs[fe.offsets[1:] - 1, k]])
    mask = np.zeros(k * fe.n_edges + nf, dtype=bool)
    mask[tip_dofs[tips[:, 0], tips[:, 1]]] = True
    return FracturePressureSpace(
        k=k,
        ndof=mask.size,
        edge_dofs=edge_dofs,
        tip_dofs=tip_dofs,
        dirichlet_mask=mask,
        ref_nodes=np.linspace(0.0, 1.0, k + 1),
    )
