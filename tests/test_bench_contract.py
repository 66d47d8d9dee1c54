"""The contract between the program and the traced benchmark run.

`amrbench/spans.py` wraps public functions of the package by module and
name; a refactor that renames or moves one of them breaks the traced run.
These tests read that file without importing it as a module of the
repository, so they write nothing under `amrbench/`.
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

SPANS = pathlib.Path(__file__).resolve().parents[1] / "amrbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


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
