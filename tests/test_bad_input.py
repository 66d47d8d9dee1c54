"""Bad input fails early, with the right error class and a message that
names the culprit: one case per reachable raise of the library."""

import dataclasses
import math
import re

import numpy as np
import pytest

from sdgdarcy import quadrature
from sdgdarcy.adaptivity import AmrConfig, ConvergenceHistory, IterationRecord, amr_loop
from sdgdarcy.benchmarks import case1, get_benchmark
from sdgdarcy.cli import load_config
from sdgdarcy.errors import ConfigError, FractureNotAligned, IoError, MeshError, SingularSystem
from sdgdarcy.geometry import (
    DomainSpec,
    Fracture,
    PolygonalMesh,
    build_initial_mesh,
    check_regularity,
    initial_grid,
    subdivide,
)
from sdgdarcy.io import read_history_csv, write_convergence_svg
from sdgdarcy.problem import BoundaryRule, everywhere
from sdgdarcy.spaces import SpaceConfig

from conftest import cycle_table, make_fracture

_RECT = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)])


def _hand_mesh(vertices, cycles, fractures=(), hang=None):
    return PolygonalMesh(np.array(vertices, dtype=float), cycle_table(cycles, hang), fractures, 1e-10)


# two unit squares side by side, (0, 2) x (0, 1)
_SQUARES = ([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)], [(0, 1, 4, 3), (1, 2, 5, 4)])


def _stack(rows):
    """Two unit squares per row up to y = 1, a 2 x 1 hexagon above them
    (flat vertices (1, 1) and (1, 2)), then two unit squares per row."""
    verts = [(x, y) for y in range(rows + 1) for x in range(3)]
    cycles = [(0, 1, 4, 3), (1, 2, 5, 4), (3, 4, 5, 8, 7, 6)]
    cycles += [(b, b + 1, b + 4, b + 3) for r in range(6, 3 * rows - 2, 3) for b in (r, r + 1)]
    hang = [(), (), (4, 7)] + [()] * (len(cycles) - 3)
    return verts, cycles, hang


def _three_on_one_edge():
    """Three triangles on the edge (0, 1); the mesh does not check overlaps."""
    verts = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)]
    return subdivide(_hand_mesh(verts, [(0, 1, 2), (1, 0, 3), (0, 1, 4)]))


def _fractured(points, mesh=_SQUARES):
    verts, cycles, *hang = mesh
    return subdivide(_hand_mesh(verts, cycles, [make_fracture(points)], *hang))


def _tips(pair):
    """case2, one fracture, with the given (start, end) tip values."""
    return dataclasses.replace(get_benchmark("case2")[0], fracture_tips=(pair,))


CASES = {
    "fracture-shape": (
        lambda: Fracture(points=[[0.0, 0.0]], kappa_n=1.0, kappa_t=1.0, thickness=0.01),
        ValueError,
        "got shape (1, 2)",
    ),
    "kappa_n": (
        lambda: make_fracture([[0, 0], [1, 0], [2, 0]], kappa_n=[1.0, -2.0]),
        ValueError,
        "kappa_n=-2.0 of fracture segment 1",
    ),
    "kappa_t": (
        lambda: make_fracture([[0, 0], [1, 0], [2, 0]], kappa_t=[np.nan, 1.0]),
        ValueError,
        "kappa_t=nan of fracture segment 0",
    ),
    "thickness": (lambda: make_fracture([[0, 0], [1, 0]], thickness=-0.5), ValueError, "thickness -0.5"),
    "zero-length-segment": (
        lambda: make_fracture([[0, 0], [1, 0], [1, 0]]),
        ValueError,
        "segment 1 has zero length, at (1.0, 0.0)",
    ),
    "malformed-rectangle": (
        lambda: DomainSpec(rectangles=[(0.0, 0.0, -1.0, 1.0)]),
        ValueError,
        "malformed rectangle (0.0, 0.0, -1.0, 1.0)",
    ),
    "target_h": (lambda: initial_grid(_RECT, -0.5), ValueError, "target_h=-0.5"),
    "non-dividing-h": (
        lambda: initial_grid(_RECT, 0.3),
        MeshError,
        "target_h=0.3 does not divide rectangle (0.0, 0.0, 2.0, 1.0)",
    ),
    "fracture-off-grid": (
        lambda: build_initial_mesh(
            DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=[make_fracture([[0.3, 0], [0.3, 1]])]),
            0.25,
        ),
        FractureNotAligned,
        "fracture point (0.3, 0.0) is not on the grid of spacing 0.25",
    ),
    "fracture-off-axis": (
        lambda: build_initial_mesh(
            DomainSpec(rectangles=[(0.0, 0.0, 2.0, 2.0)], fractures=[make_fracture([[0.5, 0.5], [1.5, 1.5]])]),
            0.5,
        ),
        FractureNotAligned,
        "from (0.5, 0.5) to (1.5, 1.5)",
    ),
    "edge-of-three-polygons": (_three_on_one_edge, MeshError, "edge (0, 1) is shared by polygons [0, 1, 2]"),
    "fracture-on-the-boundary": (
        lambda: _fractured([[0, 0], [0, 1]]),
        FractureNotAligned,
        "fracture 0 edge 3 (0, 3) lacks a bulk element",
    ),
    "fracture-on-no-edge": (
        lambda: _fractured([[0.5, 0], [0.5, 1]]),
        FractureNotAligned,
        "fracture 0 is not covered by any mesh edge",
    ),
    "fracture-edges-apart": (
        lambda: _fractured([[1, 0], [1, 3]], _stack(3)),
        FractureNotAligned,
        "fracture 0 mesh edges do not chain",
    ),
    "fracture-short-of-a-tip": (
        lambda: _fractured([[1, 0], [1, 2]], _stack(2)),
        FractureNotAligned,
        "fracture 0 mesh does not span tip to tip",
    ),
    "boundary-kind": (lambda: BoundaryRule("robin", everywhere), ConfigError, "'robin'"),
    "quadrature-degree": (lambda: quadrature.edge_rule(-1), ValueError, "degree -1 is negative"),
    "alpha-zero": (lambda: case1(0.0), ConfigError, "alpha=0.0"),
    "alpha-nan": (lambda: case1(float("nan")), ConfigError, "alpha=nan"),
    "tip-nan": (lambda: _tips((float("nan"), None)), ConfigError, "fracture 0: start tip value nan"),
    "tip-inf": (lambda: _tips((None, float("inf"))), ConfigError, "fracture 0: end tip value inf"),
    "tip-text": (lambda: _tips(("a", None)), ConfigError, "fracture 0: start tip value 'a'"),
    "tip-bool": (lambda: _tips((None, True)), ConfigError, "fracture 0: end tip value True"),
    "tip-one-entry": (lambda: _tips((1.0,)), ConfigError, "fracture 0: tips (1.0,) are not a (start, end) pair"),
    "tip-no-pair": (lambda: _tips(1.0), ConfigError, "fracture 0: tips 1.0 are not a (start, end) pair"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_names_its_culprit(case):
    make, error, culprit = CASES[case]
    with pytest.raises(error, match=re.escape(culprit)):
        make()


@pytest.mark.parametrize(
    "make, field, value",
    [
        (AmrConfig, "max_dofs", float("nan")),
        (AmrConfig, "max_dofs", 1500.0),
        (AmrConfig, "max_iterations", 2.5),
        (AmrConfig, "max_iterations", True),
        (AmrConfig, "k", 1.0),
        (AmrConfig, "k", True),
        (SpaceConfig, "k", 2.0),
        (SpaceConfig, "k", False),
    ],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_loop_option_must_be_an_integer(make, field, value):
    """A float or a bool where the loop takes an integer is a ConfigError
    that names the field and the value, raised as the config is made."""
    with pytest.raises(ConfigError, match=re.escape(f"{field}={value!r} is not an integer")):
        make(**{field: value})


def test_numpy_integers_are_loop_options():
    spec, exact, h0 = get_benchmark("patch")
    config = AmrConfig(k=np.int64(2), max_dofs=np.int64(5000), max_iterations=np.int32(2))
    hist = amr_loop(build_initial_mesh(spec.domain, h0), spec, config, exact=exact)
    assert len(hist.records) == 2 and SpaceConfig(np.int64(1)).k == 1


def test_missing_and_empty_files_are_named(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError, match=re.escape(str(missing))):
        load_config(missing)
    with pytest.raises(IoError, match=re.escape(str(missing))):
        read_history_csv(missing)
    header = tmp_path / "header.csv"
    header.write_text("iteration,N\n")
    with pytest.raises(IoError, match=re.escape(f"{header} has no data rows")):
        read_history_csv(header)


def test_plot_of_no_positive_point_raises(tmp_path):
    nan = float("nan")
    record = IterationRecord(0, 10, np.zeros(8), 0.0, 0.0, nan, nan, nan, nan, 1, 1.0, 0.0, 0.0)
    with pytest.raises(IoError, match=re.escape("no positive (N, eta) points")):
        write_convergence_svg(ConvergenceHistory(records=[record]), 1, tmp_path / "c.svg")
    assert not (tmp_path / "c.svg").exists()


def test_failed_first_solve_leaves_no_solution(monkeypatch):
    def singular(system):
        raise SingularSystem("zero pivot in column 7")

    monkeypatch.setattr("sdgdarcy.adaptivity.solve_system", singular)
    spec, exact, h0 = get_benchmark("patch")
    hist = amr_loop(build_initial_mesh(spec.domain, h0), spec, AmrConfig(max_iterations=3), exact=exact)
    assert hist.failure == "zero pivot in column 7"
    assert hist.records == [] and hist.final_solution is None


def test_non_convex_element_radius_is_a_lower_bound():
    """The L-shaped hexagon is not convex, so its inscribed radius is the
    sampled lower bound: positive and at most the exact 2 - sqrt(2)."""
    mesh = _hand_mesh([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], [(0, 1, 2, 3, 4, 5)])
    rep = check_regularity(mesh)
    assert rep.h_max == math.sqrt(8.0)
    radius = rep.rho_S * rep.h_max
    assert 0.0 < radius <= 2.0 - math.sqrt(2.0)
