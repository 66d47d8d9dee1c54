"""Frozen reference histories: short adaptive runs must reproduce the stored
per-iteration record.

`N` and `n_elements` must match exactly and every float stay within the
rule of `conftest.check_history`.  `patch` is solved exactly by the method,
so all its values are roundoff and are held to an absolute 1e-10; it runs in
uniform mode because its adaptive marking would follow that noise.  The full
runs of the benchmark workloads are frozen the same way by
`test_acceptance.test_full_history_matches_reference`.

Regenerate the stored file only from code whose behaviour is known good:

    PYTHONPATH=src python tests/test_reference_histories.py
"""

import json
import pathlib

import pytest
from conftest import check_history, history_rows

from sdgdarcy.adaptivity import ADAPTIVE, UNIFORM, AmrConfig, amr_loop
from sdgdarcy.benchmarks import get_benchmark
from sdgdarcy.geometry import build_initial_mesh

DATA = pathlib.Path(__file__).parent / "data" / "reference_histories.json"
ITERATIONS = 4

RUNS = [
    (name, k, ADAPTIVE)
    for name in ("case1-a0.1", "case1-a0.01", "case2", "lshape", "multifrac")
    for k in (1, 2)
] + [("patch", k, UNIFORM) for k in (1, 2)]


def run_id(name, k, mode):
    return f"{name}-k{k}-{mode}"


def run_history(name, k, mode):
    """Per-iteration records of one short run, as plain JSON values."""
    spec, exact, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)
    config = AmrConfig(mode=mode, k=k, max_iterations=ITERATIONS)
    return history_rows(amr_loop(mesh, spec, config, exact=exact))


@pytest.fixture(scope="module")
def reference():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name,k,mode", RUNS, ids=[run_id(*r) for r in RUNS])
def test_history_matches_reference(reference, name, k, mode):
    check_history(run_history(name, k, mode), reference[run_id(name, k, mode)], roundoff=name == "patch")

if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    out = {run_id(*r): run_history(*r) for r in RUNS}
    DATA.write_text(json.dumps(out, indent=1) + "\n")
