import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sdgdarcy
from sdgdarcy import quadrature
from sdgdarcy.geometry import DomainSpec, build_initial_mesh
from sdgdarcy.quadrature import MAX_DEGREE, edge_rule, map_to_triangles, triangle_rule


def tri_monomial_integral(a, b):
    # int_T x^a y^b over the reference triangle = a! b! / (a+b+2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_triangle_rule_basic_moment():
    rule = triangle_rule(1)
    val = np.sum(rule.weights * rule.points[:, 0])
    assert abs(val - 1.0 / 6.0) < 1e-15


def test_triangle_rule_weights_positive_and_sum():
    for d in range(0, 11):
        rule = triangle_rule(d)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 0.5) < 1e-14
        # points strictly inside the reference triangle
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert np.all(x > 0) and np.all(y > 0) and np.all(x + y < 1)


@pytest.mark.parametrize("degree", range(0, 11))
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert abs(val - tri_monomial_integral(a, b)) < 1e-14


def test_edge_rule_cubic():
    rule = edge_rule(3)
    val = np.sum(rule.weights * rule.points**3)
    assert abs(val - 0.25) < 1e-15


@pytest.mark.parametrize("degree", range(0, 13))
def test_edge_rule_exactness(degree):
    rule = edge_rule(degree)
    for a in range(degree + 1):
        val = np.sum(rule.weights * rule.points**a)
        assert abs(val - 1.0 / (a + 1)) < 1e-14


@pytest.mark.parametrize("n", range(1, 17))
def test_stored_gauss_rules_are_scipys(n):
    """The stored tables hold scipy's rules bit for bit (see the module
    docstring), so replacing the scipy call changed no result."""
    from scipy.special import roots_jacobi, roots_legendre

    for table, roots in ((quadrature._LEGENDRE, roots_legendre(n)), (quadrature._JACOBI_1_0, roots_jacobi(n, 1.0, 0.0))):
        for got, want in zip(quadrature._gauss(table, n), roots):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(quadrature._LEGENDRE) == len(quadrature._JACOBI_1_0) == 16 * 17


@pytest.mark.parametrize("rule", [triangle_rule, edge_rule])
def test_degree_beyond_the_stored_rules_is_rejected(rule):
    assert MAX_DEGREE == 31
    assert rule(MAX_DEGREE).degree == MAX_DEGREE
    with pytest.raises(ValueError, match="quadrature degree 32 above 31"):
        rule(MAX_DEGREE + 1)


def test_adaptive_loop_never_imports_scipy_special():
    script = (
        "import sys\n"
        "from sdgdarcy import AmrConfig, amr_loop, build_initial_mesh, get_benchmark\n"
        "spec, exact, h0 = get_benchmark('case1-a0.1')\n"
        "hist = amr_loop(build_initial_mesh(spec.domain, h0), spec, AmrConfig(max_iterations=2, k=2), exact=exact)\n"
        "assert len(hist.records) == 2 and hist.final_solution is not None\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdgdarcy.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_map_to_triangles_area_and_moment():
    coords = np.array(
        [
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [3.0, 1.0], [1.0, 2.0]],
        ]
    )
    pts, wts = map_to_triangles(triangle_rule(2), coords)
    areas = wts.sum(axis=1)
    assert np.allclose(areas, [0.5, 1.0])
    # int over second triangle of (x - 1) equals area * mean of x-1 at vertices / ... use exact:
    # int_T (x-1) with T = (1,1),(3,1),(1,2): affine map x = 1+2s, integral = 2*Area*centroid_x_offset
    val = np.sum(wts[1] * (pts[1, :, 0] - 1.0))
    assert abs(val - 1.0 * (2.0 / 3.0)) < 1e-14


def test_edge_points_length_and_moment():
    # a 2x1 mesh of unit squares: its edge (0,0)-(1,0) and its subdivision
    # edge from (2,1) to the centroid (1.5,0.5) of the second square
    sub = build_initial_mesh(DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)]), 1.0).subdivision
    ends = np.sort(sub.vertices[sub.edge_vertices], axis=1)  # both ends ordered in x and y
    edges = np.concatenate([
        np.flatnonzero(np.all(np.isclose(ends, box), axis=(1, 2)))
        for box in ([[0.0, 0.0], [1.0, 0.0]], [[1.5, 0.5], [2.0, 1.0]])
    ])
    assert edges.size == 2
    rule = edge_rule(3)
    pts = sub.edge_points(edges, rule.points)
    wts = sub.edge_length[edges, None] * rule.weights[None, :]
    assert np.allclose(wts.sum(axis=1), [1.0, np.sqrt(0.5)])
    # int over the bottom edge of x^2 ds = 1/3
    assert abs(np.sum(wts[0] * pts[0, :, 0] ** 2) - 1.0 / 3.0) < 1e-14
    # points run from the lower vertex id to the higher one
    lo = sub.vertices[sub.edge_vertices[edges].min(axis=1)]
    hi = sub.vertices[sub.edge_vertices[edges].max(axis=1)]
    assert np.allclose(sub.edge_points(edges, np.array([0.0, 1.0])), np.stack([lo, hi], axis=1))
