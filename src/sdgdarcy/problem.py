"""Problem data: permeabilities, sources, boundary data, exact solutions.

Conventions used by every callable here:

* bulk points come with a region tag (0 none, 1/2 = fracture side), so
  discontinuous fields can pick their branch even for points on the fracture;
* fracture points come with their arclength parameter and fracture index;
* boundary values get the edge midpoints alongside the evaluation points, so
  data that jumps across a fracture-boundary junction can pick a side by the
  midpoint while still being evaluated at the node.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularK
from .geometry import BOUNDARY, DomainSpec, Subdivision

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def constant(c: float):
    c = float(c)

    def value(pts, mids=None):
        return np.full(np.asarray(pts).shape[0], c)

    return value


def everywhere(mids):
    return np.ones(np.asarray(mids).shape[0], dtype=bool)


@dataclass(frozen=True)
class BoundaryRule:
    """First-match boundary classification; ``where`` tests edge midpoints."""

    kind: str
    where: object
    value: object = None

    def __post_init__(self):
        if self.kind not in (DIRICHLET, NEUMANN):
            raise ConfigError(f"unknown boundary kind {self.kind!r}")
        if self.value is None:
            object.__setattr__(self, "value", constant(0.0))


@dataclass(frozen=True)
class BoundaryTable:
    """Resolved per-edge boundary classification on one subdivision."""

    edges: np.ndarray  # boundary edge ids
    rule_index: np.ndarray
    is_dirichlet: np.ndarray

    @property
    def dirichlet_edges(self) -> np.ndarray:
        return self.edges[self.is_dirichlet]

    @property
    def neumann_edges(self) -> np.ndarray:
        return self.edges[~self.is_dirichlet]


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one Darcy flow problem on a fractured domain."""

    domain: DomainSpec
    boundary: tuple
    xi: float = 0.75
    K: object = 1.0  # scalar, or callable(centroids) -> (n,) or (n, 2, 2)
    f: object = None  # callable(pts, region) -> values; None means zero
    f_gamma: object = None  # callable(pts, param, fracture) -> values
    fracture_tips: tuple = ()  # per fracture: (start, end), None=Neumann, float=Dirichlet

    def __post_init__(self):
        if not (0.5 < self.xi <= 1.0):
            raise ConfigError(f"xi={self.xi} outside (1/2, 1]")
        object.__setattr__(self, "boundary", tuple(self.boundary))
        nf = len(self.domain.fractures)
        tips = tuple(self.fracture_tips)
        if not tips:
            tips = tuple((None, None) for _ in range(nf))
        if len(tips) != nf:
            raise ConfigError("fracture_tips length does not match fracture count")
        for fi, pair in enumerate(tips):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ConfigError(f"fracture {fi}: tips {pair!r} are not a (start, end) pair")
            for end, v in zip(("start", "end"), pair):
                if v is not None and (
                    isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v)
                ):
                    raise ConfigError(f"fracture {fi}: {end} tip value {v!r} is neither None nor a finite real")
        object.__setattr__(self, "fracture_tips", tips)

    # -- coefficients -----------------------------------------------------

    def permeability(self, centroids: np.ndarray) -> np.ndarray:
        """Per-element K as (n, 2, 2); raises SingularK unless finite and SPD."""
        n = centroids.shape[0]
        K = self.K
        if callable(K):
            K = np.asarray(K(centroids), dtype=float)
        if np.isscalar(K) or np.ndim(K) == 0:
            out = float(K) * np.broadcast_to(np.eye(2), (n, 2, 2)).copy()
        elif np.ndim(K) == 1:
            out = np.einsum("n,ij->nij", np.asarray(K, dtype=float), np.eye(2))
        else:
            out = np.array(K, dtype=float).reshape(n, 2, 2)
        bad = np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))
        if bad.size:
            raise SingularK(
                f"permeability K is not finite on {bad.size} element(s), first "
                f"at centroid {np.asarray(centroids)[bad[0]].tolist()}"
            )
        if np.max(np.abs(out[:, 0, 1] - out[:, 1, 0])) > 0:
            raise SingularK("permeability tensor not symmetric")
        det = out[:, 0, 0] * out[:, 1, 1] - out[:, 0, 1] * out[:, 1, 0]
        if np.any(det <= 0) or np.any(out[:, 0, 0] <= 0):
            raise SingularK("permeability tensor not positive definite")
        return out

    def exchange_resistance(self, eta: np.ndarray) -> np.ndarray:
        """alpha = eta * (xi/2 - 1/4), elementwise in the normal resistances eta."""
        return eta * (self.xi / 2.0 - 0.25)

    # -- sources ----------------------------------------------------------

    def bulk_source(self, pts: np.ndarray, region: np.ndarray) -> np.ndarray:
        if self.f is None:
            return np.zeros(pts.shape[0])
        return _finite(self.f(pts, region), "source f", pts)

    def fracture_source(self, pts, param, fracture) -> np.ndarray:
        if self.f_gamma is None:
            return np.zeros(np.asarray(pts).shape[0])
        return _finite(self.f_gamma(pts, param, fracture), "fracture source f_gamma", pts)

    # -- boundary and tips ------------------------------------------------

    def boundary_table(self, sub: Subdivision) -> BoundaryTable:
        edges = sub.edges_of_kind(BOUNDARY)
        mids = sub.edge_midpoint[edges]
        rule_index = np.full(edges.size, -1, dtype=int)
        for i, rule in enumerate(self.boundary):
            m = np.asarray(rule.where(mids), dtype=bool)
            rule_index[m & (rule_index < 0)] = i
        if np.any(rule_index < 0):
            j = int(np.flatnonzero(rule_index < 0)[0])
            raise ConfigError(
                f"boundary edge at {mids[j].tolist()} matches no boundary rule"
            )
        is_dir = np.array([rule.kind == DIRICHLET for rule in self.boundary], dtype=bool)
        return BoundaryTable(edges=edges, rule_index=rule_index, is_dirichlet=is_dir[rule_index])

    def boundary_values(self, sub: Subdivision, edges: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Boundary data at points pts (n, 2) lying on boundary edges (n,).

        Each point is evaluated by the rule of its edge, with that edge's
        midpoint alongside.
        """
        table = self.boundary_table(sub)
        rule = table.rule_index[np.searchsorted(table.edges, edges)]
        mids = sub.edge_midpoint[edges]
        out = np.empty(len(edges))
        for i in np.unique(rule):
            sel = rule == i
            out[sel] = _finite(
                self.boundary[i].value(pts[sel], mids[sel]), f"boundary rule {i} value", pts[sel]
            )
        return out

    def dirichlet_tips(self):
        return [
            (fi, end)
            for fi, pair in enumerate(self.fracture_tips)
            for end, v in enumerate(pair)
            if v is not None
        ]

    def tip_value(self, fi: int, end: int) -> float:
        return float(self.fracture_tips[fi][end])


def _finite(values, what: str, pts) -> np.ndarray:
    """values as floats; raises ConfigError naming `what` unless all are finite."""
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigError(
            f"{what} is not finite at {bad.size} point(s), first at "
            f"{np.asarray(pts)[bad[0]].tolist()}"
        )
    return values


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form reference fields; region tags select the branch."""

    p: object  # (pts, region) -> values
    grad_p: object  # (pts, region) -> (n, 2)
    u: object  # (pts, region) -> (n, 2)
    p_gamma: object  # (pts, param, fracture) -> values
    dp_gamma_dt: object  # tangential (arclength) derivative, same signature
