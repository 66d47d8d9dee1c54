"""Benchmark problems: manufactured solutions and field-study configurations.

``case1(alpha)`` carries a closed-form solution with a tanh transition layer
of width alpha at the fracture; its sources were derived by hand from the
pressure fields and are cross-checked by finite differences in the tests.
The remaining cases have no exact solution and drive the estimator study.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import DomainSpec, Fracture
from .problem import (
    DIRICHLET,
    NEUMANN,
    BoundaryRule,
    ExactSolution,
    ProblemSpec,
    constant,
    everywhere,
)

_TOL = 1e-9


def _near(a, b):
    return np.abs(a - b) < _TOL


def linear_patch():
    """Globally linear pressure p = y; exactly representable for k >= 1."""
    fr = Fracture(
        points=np.array([[1.0, 0.0], [1.0, 1.0]]),
        kappa_n=100.0,
        kappa_t=100.0,
        thickness=0.01,
    )
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=[fr])

    def p_val(pts, mids=None):
        return np.asarray(pts)[:, 1]

    spec = ProblemSpec(
        domain=dom,
        boundary=(BoundaryRule(DIRICHLET, everywhere, p_val),),
        fracture_tips=((0.0, 1.0),),
    )
    exact = ExactSolution(
        p=lambda pts, region: pts[:, 1],
        grad_p=lambda pts, region: np.tile([0.0, 1.0], (pts.shape[0], 1)),
        u=lambda pts, region: np.tile([0.0, -1.0], (pts.shape[0], 1)),
        p_gamma=lambda pts, param, fr_: pts[:, 1],
        dp_gamma_dt=lambda pts, param, fr_: np.ones(pts.shape[0]),
        label="patch",
    )
    return spec, exact


def case1(alpha: float):
    """Single vertical fracture with a tanh layer; Dirichlet everywhere."""
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    kappa = 100.0
    thickness = 0.01
    fr = Fracture(
        points=np.array([[1.0, 0.0], [1.0, 1.0]]),
        kappa_n=kappa,
        kappa_t=kappa,
        thickness=thickness,
    )
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=[fr])
    eta = thickness / kappa
    xi = 0.75
    alpha_g = eta * (xi / 2.0 - 0.25)

    c2 = 3.0 * eta / (8.0 * alpha)  # offset of the right-side pressure
    cg = 3.0 * eta / (16.0 * alpha) + alpha_g / (4.0 * alpha)

    def p(pts, region):
        x, y = pts[:, 0], pts[:, 1]
        s1 = (x - 1.0) / alpha
        s2 = (x - 1.0) / (2.0 * alpha)
        p1 = y + 0.5 * np.tanh(s1) + 0.5
        p2 = y + 0.5 * np.tanh(s2) + 0.5 + c2
        side2 = np.asarray(region) == 2
        return np.where(side2, p2, p1)

    def grad_p(pts, region):
        x = pts[:, 0]
        s1 = (x - 1.0) / alpha
        s2 = (x - 1.0) / (2.0 * alpha)
        gx1 = 0.5 / alpha / np.cosh(s1) ** 2
        gx2 = 0.25 / alpha / np.cosh(s2) ** 2
        side2 = np.asarray(region) == 2
        gx = np.where(side2, gx2, gx1)
        return np.stack([gx, np.ones_like(gx)], axis=-1)

    def u(pts, region):
        return -grad_p(pts, region)

    def p_gamma(pts, param, fr_):
        return pts[:, 1] + 0.5 + cg

    def dp_gamma_dt(pts, param, fr_):
        return np.ones(np.asarray(pts).shape[0])

    def f(pts, region):
        x = pts[:, 0]
        s1 = (x - 1.0) / alpha
        s2 = (x - 1.0) / (2.0 * alpha)
        f1 = np.tanh(s1) / np.cosh(s1) ** 2 / alpha**2
        f2 = 0.25 * np.tanh(s2) / np.cosh(s2) ** 2 / alpha**2
        return np.where(np.asarray(region) == 2, f2, f1)

    def f_gamma(pts, param, fr_):
        # l*f_g = -div_t(K_g dp_g/dt) - [u.n] = 0 + 1/(4 alpha)
        return np.full(np.asarray(pts).shape[0], 1.0 / (4.0 * alpha * thickness))

    def p_boundary(pts, mids):
        region = np.where(mids[:, 0] < 1.0, 1, 2)
        return p(pts, region)

    spec = ProblemSpec(
        domain=dom,
        boundary=(BoundaryRule(DIRICHLET, everywhere, p_boundary),),
        xi=xi,
        K=1.0,
        f=f,
        f_gamma=f_gamma,
        fracture_tips=((0.5 + cg, 1.5 + cg),),
    )
    exact = ExactSolution(
        p=p,
        grad_p=grad_p,
        u=u,
        p_gamma=p_gamma,
        dp_gamma_dt=dp_gamma_dt,
        alpha=alpha,
        label=f"case1-a{alpha:g}",
    )
    return spec, exact


def case2():
    """Single fracture with a low-permeability barrier segment in the middle."""
    fr = Fracture(
        points=np.array([[1.0, 0.0], [1.0, 0.25], [1.0, 0.75], [1.0, 1.0]]),
        kappa_n=np.array([200.0, 0.002, 200.0]),
        kappa_t=np.array([200.0, 0.002, 200.0]),
        thickness=0.01,
    )
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=[fr])
    spec = ProblemSpec(
        domain=dom,
        boundary=(
            BoundaryRule(DIRICHLET, lambda m: _near(m[:, 0], 2.0), constant(1.0)),
            BoundaryRule(DIRICHLET, lambda m: _near(m[:, 0], 0.0), constant(0.0)),
            BoundaryRule(NEUMANN, everywhere),
        ),
        fracture_tips=((None, None),),
    )
    return spec, None


_LSHAPE_RECTS = [(0.0, 0.0, 2.0, 1.0), (1.0, -1.0, 2.0, 0.0)]


def case3_lshape():
    """L-shaped domain, one fracture polyline with a low-permeability middle."""
    pts = np.array(
        [
            [0.5, 1.0],
            [0.5, 0.5],
            [1.0, 0.5],
            [1.5, 0.5],
            [1.5, 0.0],
            [1.5, -1.0],
        ]
    )
    fr = Fracture(
        points=pts,
        kappa_n=np.array([100.0, 100.0, 0.001, 0.001, 100.0]),
        kappa_t=np.array([100.0, 100.0, 0.001, 0.001, 100.0]),
        thickness=0.01,
    )
    dom = DomainSpec(rectangles=_LSHAPE_RECTS, fractures=[fr])
    spec = ProblemSpec(
        domain=dom,
        boundary=(
            BoundaryRule(DIRICHLET, lambda m: _near(m[:, 1], 1.0), constant(1.0)),
            BoundaryRule(
                DIRICHLET,
                lambda m: _near(m[:, 1], -1.0) & (m[:, 0] >= 1.0 - _TOL),
                constant(0.0),
            ),
            BoundaryRule(NEUMANN, everywhere),
        ),
        fracture_tips=((1.0, 0.0),),
    )
    return spec, None


def case4_multifrac():
    """L-shaped domain with four disjoint fractures, two of them barriers."""

    def frac(a, b, kappa):
        return Fracture(
            points=np.array([a, b]), kappa_n=kappa, kappa_t=kappa, thickness=0.01
        )

    fractures = [
        frac([0.5, 0.5], [1.0, 0.5], 100.0),
        frac([1.5, 0.5], [1.5, 1.0], 0.001),
        frac([1.5, 0.0], [2.0, 0.0], 0.01),
        frac([1.5, -1.0], [1.5, -0.5], 100.0),
    ]
    dom = DomainSpec(rectangles=_LSHAPE_RECTS, fractures=fractures)
    spec = ProblemSpec(
        domain=dom,
        boundary=(
            BoundaryRule(DIRICHLET, lambda m: _near(m[:, 0], 0.0), constant(1.0)),
            BoundaryRule(
                DIRICHLET,
                lambda m: _near(m[:, 1], -1.0) & (m[:, 0] >= 1.0 - _TOL),
                constant(0.0),
            ),
            BoundaryRule(NEUMANN, everywhere),
        ),
        fracture_tips=(
            (None, None),
            (None, None),
            (None, None),
            (0.0, None),
        ),
    )
    return spec, None


def _interface_samples(fr: Fracture):
    """(points, arclength, normal, eta) of 100 points along the fracture, at
    the centres of 100 cells of equal arclength."""
    params = (np.arange(100) + 0.5) / 100.0 * fr.arclength[-1]
    seg = np.searchsorted(fr.arclength[1:-1], params, side="right")
    pts = fr.points[seg] + (params - fr.arclength[seg])[:, None] * fr.seg_tangents[seg]
    return pts, params, fr.seg_normals[seg], fr.normal_resistance[seg]


def verify_interface(exact: ExactSolution, spec: ProblemSpec) -> float:
    """Max violation of the two interface conditions, sampled along fractures.

    Checks eta*{u.n} = [p] and alpha*[u.n] = {p} - p_gamma at 100 points per
    fracture, with side 1 the side the fracture normal points out of.
    """
    fractures = spec.domain.fractures
    if not fractures:
        return 0.0
    pts, params, nrm, eta = (np.concatenate(a) for a in zip(*map(_interface_samples, fractures)))
    ones = np.ones(params.size, dtype=int)
    un1 = np.einsum("nc,nc->n", exact.u(pts, ones), nrm)
    un2 = np.einsum("nc,nc->n", exact.u(pts, 2 * ones), nrm)
    p1 = exact.p(pts, ones)
    p2 = exact.p(pts, 2 * ones)
    pg = exact.p_gamma(pts, params, np.repeat(np.arange(len(fractures)), 100))

    r1 = eta * 0.5 * (un1 + un2) - (p1 - p2)
    r2 = spec.exchange_resistance(eta) * (un1 - un2) - (0.5 * (p1 + p2) - pg)
    return max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))


# name -> (builder, initial mesh size)
BENCHMARKS = {
    "patch": (linear_patch, 1.0),
    "case1-a0.1": (lambda: case1(0.1), 0.25),
    "case1-a0.01": (lambda: case1(0.01), 0.25),
    "case2": (case2, 0.25),
    "lshape": (case3_lshape, 0.25),
    "multifrac": (case4_multifrac, 0.25),
}


def get_benchmark(name: str):
    """Return (ProblemSpec, ExactSolution or None, initial h) for a name."""
    if name not in BENCHMARKS:
        known = ", ".join(sorted(BENCHMARKS))
        raise ConfigError(f"unknown benchmark {name!r}; known: {known}")
    builder, h0 = BENCHMARKS[name]
    spec, exact = builder()
    return spec, exact, h0
