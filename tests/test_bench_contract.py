"""The contract between the program and the benchmark.

`amrbench/spans.py` wraps public functions of the package by module and
name; a refactor that renames or moves one of them breaks the traced run.
`amrbench/checks.py` reads the final system and solution of a run through
the package's API to decide whether a run is correct.  These tests read
those files without importing them as modules of the repository, so they
write nothing under `amrbench/`.
"""

import importlib
import math
import pathlib
import types

import numpy as np
import pytest

from sdgdarcy.adaptivity import ADAPTIVE, AmrConfig, amr_loop
from sdgdarcy.benchmarks import get_benchmark
from sdgdarcy.geometry import build_initial_mesh

BENCH = pathlib.Path(__file__).resolve().parents[1] / "amrbench"


def _load(name):
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


def test_every_target_resolves_to_a_callable(spans):
    assert spans.TARGETS
    for module, attr, name, _ in spans.TARGETS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} (span {name}) is not a callable of the package"


def _case2_loop(loop=amr_loop):
    spec, exact, h0 = get_benchmark("case2")
    mesh = build_initial_mesh(spec.domain, h0)
    return loop(mesh, spec, AmrConfig(theta=0.5, mode=ADAPTIVE, max_iterations=2, k=1), exact=exact)


def _targets(spans):
    return [getattr(importlib.import_module(module), attr) for module, attr, _, _ in spans.TARGETS]


def test_traced_loop_is_bit_equal_and_every_target_is_restored(spans):
    """Two iterations of case2 under the tracer: the spans nest, every
    target is wrapped while it runs and restored after, and the history
    equals the untraced one bit for bit."""
    plain = _case2_loop()
    originals = _targets(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(got is not fn for got, fn in zip(_targets(spans), originals))
        traced = tracer.run_loop(_case2_loop)
    finally:
        tracer.remove()
    assert all(got is fn for got, fn in zip(_targets(spans), originals))

    assert tracer.misnested() == 0
    names = [span[0] for span in tracer.spans]
    assert names.count(spans.ITERATION) == 2 and names.count(spans.SOLVE) == 2
    assert len(traced.records) == len(plain.records) == 2
    for got, want in zip(traced.records, plain.records):
        for field in vars(want):
            if field.startswith("t_"):  # wall times
                continue
            a, b = getattr(got, field), getattr(want, field)
            if isinstance(b, float) and math.isnan(b):
                assert math.isnan(a), field
            else:
                assert np.array_equal(a, b), field
    for got, want in zip(traced.final_vectors, plain.final_vectors):
        assert np.array_equal(got, want)
    assert np.array_equal(traced.final_breakdown.element_sq, plain.final_breakdown.element_sq)


# the checks that hold on any run, however short: the others (effectivity,
# rates, the barrier jumps) need the benchmark's budget
BUDGET_FREE = ("final system size", "backward error", "N increases", "within budget")


@pytest.mark.parametrize(
    "name, k, max_dofs, own",
    [("case1-a0.1", 1, 100_000, "mass balance"), ("case1-a0.1", 2, 100_000, "mass balance"),
     ("case2", 1, 200_000, "outflow = inflow")],
    ids=["case1-k1", "case1-k2", "case2-k1"],
)
def test_budget_free_checks_pass_on_a_short_loop(checks, name, k, max_dofs, own):
    """The benchmark's correctness checks read the program's final system
    and solution; on a 3-iteration loop of each benchmark the checks that do
    not depend on the budget pass."""
    spec, exact, h0 = get_benchmark(name)
    config = AmrConfig(theta=0.5, mode=ADAPTIVE, max_dofs=max_dofs, max_iterations=3, k=k)
    history = amr_loop(build_initial_mesh(spec.domain, h0), spec, config, exact=exact)
    assert len(history.records) == 3
    system, x = checks.final_system(history, spec, k)
    results = checks.check_common(history, system, x, max_dofs)
    results += checks.check_case2(history, k) if name == "case2" else checks.check_case1(history, spec, k)
    picked = {check: (ok, detail) for check, ok, detail in results if check in BUDGET_FREE + (own,)}
    assert sorted(picked) == sorted(BUDGET_FREE + (own,))
    assert {check: detail for check, (ok, detail) in picked.items() if not ok} == {}
