"""Frozen reference histories: short adaptive runs must reproduce the stored
per-iteration record.

`N` and `n_elements` must match exactly.  Every float (T1..T8, eta, osc,
err_sdg) must stay within 1e-10 * |ref| + 1e-10 * eta_ref: the absolute part
against eta covers estimator terms at roundoff level, which move by orders
of magnitude between two backward-stable solves.  `patch` is solved exactly
by the method, so all its values are roundoff and are held to an absolute
1e-10; it runs in uniform mode because its adaptive marking would follow
that noise.  A NaN (err_sdg without an exact solution) must stay NaN.

Regenerate the stored file only from code whose behaviour is known good:

    PYTHONPATH=src python tests/test_reference_histories.py
"""

import json
import math
import pathlib

import pytest

from sdgdarcy.adaptivity import ADAPTIVE, UNIFORM, AmrConfig, amr_loop
from sdgdarcy.benchmarks import get_benchmark
from sdgdarcy.geometry import build_initial_mesh

DATA = pathlib.Path(__file__).parent / "data" / "reference_histories.json"
ITERATIONS = 4
REL = 1e-10
ABS = 1e-10
FLOATS = tuple(f"T{i}" for i in range(1, 9)) + ("eta", "osc", "err_sdg")

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
    hist = amr_loop(mesh, spec, config, exact=exact)
    rows = []
    for r in hist.records:
        row = {"N": int(r.N), "n_elements": int(r.n_elements)}
        row.update({f"T{i + 1}": float(t) for i, t in enumerate(r.terms)})
        row.update(eta=float(r.eta), osc=float(r.osc), err_sdg=float(r.err_sdg))
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def reference():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name,k,mode", RUNS, ids=[run_id(*r) for r in RUNS])
def test_history_matches_reference(reference, name, k, mode):
    ref = reference[run_id(name, k, mode)]
    got = run_history(name, k, mode)
    assert [r["N"] for r in got] == [r["N"] for r in ref]
    assert [r["n_elements"] for r in got] == [r["n_elements"] for r in ref]
    for it, (g, r) in enumerate(zip(got, ref)):
        floor = ABS if name == "patch" else ABS * r["eta"]
        rel = 0.0 if name == "patch" else REL
        for key in FLOATS:
            if math.isnan(r[key]):
                assert math.isnan(g[key]), (it, key)
                continue
            bound = rel * abs(r[key]) + floor
            assert abs(g[key] - r[key]) <= bound, (it, key, g[key], r[key])


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    out = {run_id(*r): run_history(*r) for r in RUNS}
    DATA.write_text(json.dumps(out, indent=1) + "\n")
