from dataclasses import replace

import numpy as np
import pytest

from sdgdarcy.assembly import assemble_system
from sdgdarcy.benchmarks import (
    BENCHMARKS,
    case1,
    case2,
    case3_lshape,
    case4_multifrac,
    get_benchmark,
    linear_patch,
    verify_interface,
)
from sdgdarcy.errors import ConfigError, SingularK
from sdgdarcy.geometry import build_initial_mesh
from sdgdarcy.problem import (
    DIRICHLET,
    BoundaryRule,
    ProblemSpec,
    constant,
    everywhere,
)
from sdgdarcy.spaces import SpaceConfig


def test_registry_names():
    assert set(BENCHMARKS) == {
        "patch",
        "case1-a0.1",
        "case1-a0.01",
        "case2",
        "lshape",
        "multifrac",
    }
    with pytest.raises(ConfigError):
        get_benchmark("nope")


def test_case1_interface_constants():
    spec, exact = case1(0.1)
    fr = spec.domain.fractures[0]
    eta = fr.normal_resistance
    assert np.allclose(eta, 1e-4)
    assert np.allclose(spec.exchange_resistance(eta), 1.25e-5)

    pts = np.array([[1.0, 0.3], [1.0, 0.8]])
    ones = np.ones(2, dtype=int)
    p1 = exact.p(pts, ones)
    p2 = exact.p(pts, 2 * ones)
    assert np.allclose(p1 - p2, -3.75e-4, atol=1e-16)

    u1 = exact.u(pts, ones)[:, 0]
    u2 = exact.u(pts, 2 * ones)[:, 0]
    assert np.allclose(1e-4 * 0.5 * (u1 + u2), -3.75e-4)
    assert np.allclose(u1 - u2, -2.5)
    pg = exact.p_gamma(pts, pts[:, 1], np.zeros(2, dtype=int))
    assert np.allclose((0.5 * (p1 + p2) - pg) / 1.25e-5, -2.5)
    # fracture source: l*f_g = -[u.n] = 2.5
    lfg = 0.01 * spec.fracture_source(pts, pts[:, 1], np.zeros(2, dtype=int))
    assert np.allclose(lfg, 2.5)


@pytest.mark.parametrize("alpha", [0.1, 0.01])
def test_verify_interface_case1(alpha):
    spec, exact = case1(alpha)
    assert verify_interface(exact, spec) <= 1e-12


def test_verify_interface_patch():
    spec, exact = linear_patch()
    assert verify_interface(exact, spec) == 0.0


@pytest.mark.parametrize("alpha", [0.1, 0.01])
def test_case1_sources_match_finite_differences(alpha):
    spec, exact = case1(alpha)
    rng = np.random.default_rng(3)
    n = 1000
    h = 1e-3 * alpha
    x = rng.uniform(0.0, 2.0, n)
    # keep the 5-point stencil on one side of the fracture
    x = np.where(np.abs(x - 1.0) < 4 * h, 1.0 + 4 * h, x)
    y = rng.uniform(0.0, 1.0, n)
    pts = np.stack([x, y], axis=-1)
    region = np.where(x < 1.0, 1, 2)

    def p_at(dx, dy):
        return exact.p(pts + np.array([dx, dy]), region)

    lap = (
        p_at(h, 0) + p_at(-h, 0) + p_at(0, h) + p_at(0, -h) - 4.0 * p_at(0, 0)
    ) / h**2
    f_closed = spec.bulk_source(pts, region)
    scale = np.max(np.abs(f_closed))
    assert np.max(np.abs(f_closed - (-lap))) <= 1e-6 * scale

    gx = (p_at(h, 0) - p_at(-h, 0)) / (2 * h)
    gy = (p_at(0, h) - p_at(0, -h)) / (2 * h)
    u = exact.u(pts, region)
    gscale = np.max(np.abs(u))
    assert np.max(np.abs(u[:, 0] + gx)) <= 1e-6 * gscale
    assert np.max(np.abs(u[:, 1] + gy)) <= 1e-6 * gscale


def test_case1_dirichlet_everywhere_and_tips():
    spec, exact = case1(0.1)
    assert len(spec.boundary) == 1 and spec.boundary[0].kind == DIRICHLET
    (tips,) = spec.fracture_tips
    pts = np.array([[1.0, 0.0], [1.0, 1.0]])
    pg = exact.p_gamma(pts, pts[:, 1], np.zeros(2, dtype=int))
    assert np.allclose(tips, pg)


def test_case2_data():
    spec, exact = case2()
    assert exact is None
    fr = spec.domain.fractures[0]
    assert fr.kappa_n[0] / fr.kappa_n[1] == pytest.approx(1e5)
    assert np.allclose(fr.points[:, 0], 1.0)
    assert np.allclose(fr.points[:, 1], [0.0, 0.25, 0.75, 1.0])
    assert spec.fracture_tips == ((None, None),)
    mesh = build_initial_mesh(spec.domain, 0.25)
    table = spec.boundary_table(mesh.subdivision)
    mids = mesh.subdivision.edge_midpoint[table.edges]
    right = np.abs(mids[:, 0] - 2.0) < 1e-9
    left = np.abs(mids[:, 0]) < 1e-9
    assert np.all(table.is_dirichlet[right]) and np.all(table.is_dirichlet[left])
    assert not np.any(table.is_dirichlet[~right & ~left])
    rule = spec.boundary[table.rule_index[np.flatnonzero(right)[0]]]
    assert rule.value(mids[right], mids[right])[0] == 1.0


def test_lshape_data():
    spec, exact = case3_lshape()
    assert exact is None
    fr = spec.domain.fractures[0]
    expected = [
        [0.5, 1.0],
        [0.5, 0.5],
        [1.0, 0.5],
        [1.5, 0.5],
        [1.5, 0.0],
        [1.5, -1.0],
    ]
    assert np.allclose(fr.points, expected)
    assert np.allclose(fr.kappa_n, [100.0, 100.0, 0.001, 0.001, 100.0])
    assert spec.fracture_tips == ((1.0, 0.0),)
    mesh = build_initial_mesh(spec.domain, 0.25)
    assert mesh.n_elements == 8 * 4 + 4 * 4
    table = spec.boundary_table(mesh.subdivision)
    mids = mesh.subdivision.edge_midpoint[table.edges]
    top = np.abs(mids[:, 1] - 1.0) < 1e-9
    assert np.all(table.is_dirichlet[top])


def test_multifrac_data():
    spec, exact = case4_multifrac()
    assert exact is None
    frs = spec.domain.fractures
    assert len(frs) == 4
    assert frs[2].kappa_n[0] == pytest.approx(0.01)
    assert spec.fracture_tips == (
        (None, None),
        (None, None),
        (None, None),
        (0.0, None),
    )
    assert spec.dirichlet_tips() == [(3, 0)]
    assert spec.tip_value(3, 0) == 0.0
    mesh = build_initial_mesh(spec.domain, 0.25)
    assert mesh.subdivision.fracture_edges.offsets.size == 5


def test_problem_spec_validation():
    spec, _ = linear_patch()
    with pytest.raises(ConfigError):
        ProblemSpec(domain=spec.domain, boundary=spec.boundary, xi=0.5)
    with pytest.raises(ConfigError):
        ProblemSpec(
            domain=spec.domain,
            boundary=spec.boundary,
            fracture_tips=((None, None), (None, None)),
        )


def test_permeability_forms():
    spec, _ = linear_patch()
    c = np.array([[0.5, 0.5], [1.5, 0.5]])
    K = spec.permeability(c)
    assert K.shape == (2, 2, 2)
    assert np.allclose(K, np.eye(2))

    spec4 = ProblemSpec(domain=spec.domain, boundary=spec.boundary, K=4.0)
    assert np.allclose(spec4.permeability(c), 4.0 * np.eye(2))

    specf = ProblemSpec(
        domain=spec.domain, boundary=spec.boundary, K=lambda p: 2.0 + p[:, 0]
    )
    Kf = specf.permeability(c)
    assert np.allclose(Kf[:, 0, 0], [2.5, 3.5])

    with pytest.raises(SingularK):
        ProblemSpec(domain=spec.domain, boundary=spec.boundary, K=-1.0).permeability(c)

    def asym(p):
        out = np.tile(np.eye(2), (p.shape[0], 1, 1))
        out[:, 0, 1] = 1.0
        return out

    with pytest.raises(SingularK):
        ProblemSpec(domain=spec.domain, boundary=spec.boundary, K=asym).permeability(c)


def _nan_off_diagonal(p):
    out = np.tile(np.eye(2), (p.shape[0], 1, 1))
    out[:, 0, 1] = out[:, 1, 0] = np.nan
    return out


@pytest.mark.parametrize(
    "K",
    [np.nan, lambda p: np.where(p[:, 0] > 0.5, np.inf, 1.0), _nan_off_diagonal],
    ids=["nan", "inf-on-one-element", "nan-off-diagonal"],
)
def test_nonfinite_permeability_rejected(K):
    """A NaN slips past the SPD checks, since comparisons with NaN are
    false; non-finite K must fail at evaluation, naming the permeability,
    before it can reach the assembled system."""
    spec, _ = linear_patch()
    bad = ProblemSpec(domain=spec.domain, boundary=spec.boundary, K=K)
    c = np.array([[0.5, 0.5], [1.5, 0.5]])
    with pytest.raises(SingularK, match="permeability K is not finite"):
        bad.permeability(c)
    mesh = build_initial_mesh(spec.domain, 0.5)
    with pytest.raises(SingularK, match="permeability"):
        assemble_system(mesh, bad, SpaceConfig(1))


@pytest.mark.parametrize(
    "field,data",
    [
        ("source f", dict(f=lambda pts, region: np.full(len(pts), np.nan))),
        (
            "fracture source f_gamma",
            dict(f_gamma=lambda pts, par, fr: np.where(par > 0.5, np.inf, 0.0)),
        ),
        (
            "boundary rule 0 value",
            dict(boundary=(BoundaryRule(
                DIRICHLET, everywhere, lambda pts, mids: np.where(pts[:, 1] > 0.9, -np.inf, 0.0)
            ),)),
        ),
    ],
    ids=["nan-f", "inf-f-gamma", "inf-boundary-value"],
)
def test_nonfinite_data_rejected(field, data):
    """Non-finite sources and boundary values fail where they are evaluated,
    naming the field, instead of surfacing as a non-finite right-hand side
    at the solve."""
    spec, _, h0 = get_benchmark("case1-a0.1")
    bad = replace(spec, **data)
    mesh = build_initial_mesh(spec.domain, h0)
    with pytest.raises(ConfigError, match=f"^{field} is not finite"):
        assemble_system(mesh, bad, SpaceConfig(1))


def test_boundary_table_requires_total_cover():
    spec, _ = linear_patch()
    partial = ProblemSpec(
        domain=spec.domain,
        boundary=(
            BoundaryRule(DIRICHLET, lambda m: np.abs(m[:, 0]) < 1e-9, constant(0.0)),
        ),
    )
    mesh = build_initial_mesh(spec.domain, 1.0)
    with pytest.raises(ConfigError):
        partial.boundary_table(mesh.subdivision)
