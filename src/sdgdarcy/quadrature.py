"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are conical products (Gauss-Legendre x Gauss-Jacobi with
weight 1-t), which are exact for any requested total degree and have
strictly interior points and positive weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights exact for polynomials up to `degree`."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Rule on the reference triangle {x >= 0, y >= 0, x + y <= 1}.

    Weights sum to the reference area 1/2.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    n = max(1, -(-(degree + 1) // 2))
    # Duffy substitution x = s*(1-t), y = t picks up the Jacobian (1-t),
    # absorbed by the Jacobi(1,0) weight in t.
    xs, ws = roots_legendre(n)
    s = 0.5 * (xs + 1.0)
    w_s = 0.5 * ws
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    t = 0.5 * (xj + 1.0)
    w_t = 0.25 * wj
    S, T = np.meshgrid(s, t, indexing="ij")
    pts = np.column_stack([(S * (1.0 - T)).ravel(), np.broadcast_to(T, S.shape).ravel()])
    wts = np.outer(w_s, w_t).ravel()
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(points=pts, weights=wts, degree=degree)


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1]; weights sum to 1."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    n = max(1, -(-(degree + 1) // 2))
    xs, ws = roots_legendre(n)
    pts = 0.5 * (xs + 1.0)
    wts = 0.5 * ws
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(points=pts, weights=wts, degree=degree)


def map_to_triangles(rule: QuadratureRule, coords: np.ndarray):
    """Push a reference rule to physical triangles.

    coords: (nt, 3, 2) vertex coordinates. Returns (points, weights) of
    shapes (nt, nq, 2) and (nt, nq); weights include the affine Jacobian.
    """
    v0 = coords[:, 0, :]
    J = np.stack([coords[:, 1, :] - v0, coords[:, 2, :] - v0], axis=-1)
    pts = v0[:, None, :] + rule.points @ np.swapaxes(J, 1, 2)
    return pts, mapped_weights(rule, J)


def mapped_weights(rule: QuadratureRule, J: np.ndarray) -> np.ndarray:
    """Weights of a reference rule on triangles with affine Jacobians J
    (nt, 2, 2), the columns v1 - v0 and v2 - v0: |det J| w, (nt, nq)."""
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    return np.abs(det)[:, None] * rule.weights[None, :]

