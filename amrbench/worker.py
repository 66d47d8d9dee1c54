"""One benchmark process: set up a workload, run the adaptive loop, check it.

Started by run.py, which sets the BLAS thread cap in the environment and
times the process from its start to the READY line it prints just before
the first call of `amr_loop`.  Modes:

    worker.py setup <workload>           set up, print READY, time the
                                         speed probe and exit
    worker.py run <workload> <seconds>   set up, time the probe, then run as
                                         many whole adaptive loops, untraced
                                         and probed, as fit in <seconds>
    worker.py trace <workload>           one untraced loop, then one traced;
                                         no probe

The last line of stdout is a JSON object with the results.
"""

import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import sdgdarcy  # noqa: E402
from sdgdarcy import ADAPTIVE, AmrConfig, amr_loop, build_initial_mesh, get_benchmark  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(sdgdarcy.__file__))) != SRC:
    sys.exit(f"sdgdarcy imported from {sdgdarcy.__file__}, not from {SRC}")

import checks  # noqa: E402
import spans  # noqa: E402
from probe import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import MAX_ITERATIONS, THETA, WORKLOADS  # noqa: E402

TRACE_DIR = os.path.join(HERE, "out")
STAMP_PROBES = 2  # probe runs at each stamp, and before and after the loop


def run_loop(mesh, spec, exact, config, tracer=None, probe=None):
    """One adaptive run; returns (history, loop seconds, per-record stamps,
    probe seconds).

    With a `probe`, it runs STAMP_PROBES times before the loop, in the
    callback after every recorded iteration and after the loop; its own time
    is left out of the loop time and the stamps.
    """
    stamps = []  # (seconds since loop start, subdivision triangles)
    probes = []
    probed = [0.0]  # probe seconds spent inside the loop so far

    def callback(record, mesh, sol, bd, system):
        t = time.perf_counter()
        stamps.append((t - probed[0], mesh.subdivision.n_triangles))
        if probe is not None:
            probes.extend(probe() for _ in range(STAMP_PROBES))
            probed[0] += time.perf_counter() - t

    if probe is not None:
        probes.extend(probe() for _ in range(STAMP_PROBES))
    t0 = time.perf_counter()
    if tracer is None:
        history = amr_loop(mesh, spec, config, exact=exact, callback=callback)
    else:
        history = tracer.run_loop(amr_loop, mesh, spec, config, exact=exact,
                                  callback=callback)
    wall = time.perf_counter() - t0 - probed[0]
    if probe is not None:
        probes.extend(probe() for _ in range(STAMP_PROBES))
    return history, wall, [(t - t0, n) for t, n in stamps], probes


def fingerprint(history):
    """What two runs of the same code must agree on, exactly."""
    return [
        (r.N, r.n_elements, np.hstack([r.terms, r.eta, r.err_sdg]).tobytes())
        for r in history.records
    ] + [history.failure]


def time_to_target(history, stamps, wl):
    values = history.column(wl.accuracy)
    hit = np.flatnonzero(values <= wl.target)
    if hit.size == 0:
        return None, None
    return stamps[hit[0]][0], int(hit[0])


def run_checks(history, spec, wl):
    system, x = checks.final_system(history, spec, wl.k)
    out = checks.check_common(history, system, x, wl.max_dofs)
    if wl.benchmark == "case2":
        out += checks.check_case2(history, wl.k)
    else:
        out += checks.check_case1(history, spec, wl.k)
    return out, system


def describe(history, stamps, wl):
    lines = []
    for r, (t, _) in zip(history.records, stamps):
        acc = getattr(r, wl.accuracy)
        lines.append(
            f"  it {r.iteration:2d}  N {r.N:7d}  elements {r.n_elements:5d}  "
            f"eta {r.eta:.4e}  err_sdg {r.err_sdg:.4e}  "
            f"{'<= target' if acc <= wl.target else '         '}  t {t:7.3f} s"
        )
    if history.failure:
        lines.append(f"  failed: {history.failure}")
    return lines


def main(argv):
    mode, name = argv[0], argv[1]
    wl = WORKLOADS[name]
    spec, exact, h0 = get_benchmark(wl.benchmark)
    mesh = build_initial_mesh(spec.domain, h0)
    print("READY", flush=True)
    # the traced run measures per-layer times only, which are not scaled
    probe = None if mode == "trace" else SpeedProbe()
    setup_probe_s = probe.sample() if probe else None
    if mode == "setup":
        print(json.dumps({"setup_probe_s": setup_probe_s}), flush=True)
        return 0
    config = AmrConfig(theta=THETA, mode=ADAPTIVE, max_dofs=wl.max_dofs,
                       max_iterations=MAX_ITERATIONS, k=wl.k)

    # whole rounds only, so that failed/attempted is the same in every run;
    # a further round starts only if one more of the mean length so far ends
    # within <seconds>, so a run takes at most <seconds> or one round
    seconds = float(argv[2]) if mode == "run" else 0.0
    rounds = []
    first = None
    start = time.perf_counter()
    while True:
        history, wall, stamps, probes = run_loop(mesh, spec, exact, config,
                                                 probe=probe)
        if first is None:
            first = (history, stamps)
        rounds.append((wall, stamps, probes, fingerprint(history)))
        del history
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
        gc.collect()
        mesh = build_initial_mesh(spec.domain, h0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    history, stamps = first

    per_round = len(history.records) + (1 if history.failure else 0)
    result = {
        "attempted": per_round * len(rounds),
        "failed": (1 if history.failure else 0) * len(rounds),
    }
    results = [("same history every round",
                all(fp == rounds[0][3] for *_, fp in rounds),
                f"{len(rounds)} round(s)")]
    ttt, hit = time_to_target(history, stamps, wl)
    results.append(("target reached", ttt is not None,
                    f"{wl.accuracy} <= {wl.target:g} at iteration {hit}"))

    if mode == "trace":
        gc.collect()
        mesh = build_initial_mesh(spec.domain, h0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _, traced_stamps, _ = run_loop(mesh, spec, exact, config, tracer)
        finally:
            tracer.remove()
        results.append(("traced history equals untraced",
                        fingerprint(traced) == rounds[0][3],
                        f"{len(traced.records)} records"))
        layers, residual = spans.layer_metrics(tracer, [n for _, n in traced_stamps])
        bad = tracer.misnested()
        results.append(("spans nest and self times add up to the loop",
                        bad == 0 and abs(residual) <= 1e-6,
                        f"{bad} misnested spans, sum of self times - loop time "
                        f"= {residual:.2e} s"))
        del traced
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"trace-{name}.json"))
        del tracer

    out, system = run_checks(history, spec, wl)
    results += out
    if mode == "trace":
        lu = spla.splu(system.A.tocsc(), permc_spec="COLAMD")
        layers["solve.lu_fill"] = (int(lu.L.nnz + lu.U.nnz), "count")
        layers["trace.overhead_s"] = (layers["adaptivity.loop_s"][0] - rounds[0][0], "s")
        metrics = layers
    else:
        walls = [w for w, *_ in rounds]
        dofs = sum(int(r.N) for r in history.records) * len(rounds)
        # a run that misses the target fails its check; it then reports the
        # whole loop, a lower bound on the time to the target
        ttts = walls if ttt is None else [ttt] + [
            time_to_target(history, s, wl)[0] for _, s, _, _ in rounds[1:]]
        # times at the probe's reference speed, from the median probe of the run
        probe_s = float(np.median([p for _, _, probes, _ in rounds for p in probes]))
        scale = REFERENCE_S / probe_s
        metrics = {
            "time_to_target_s": (float(np.median(ttts)) * scale, "s"),
            "dofs_per_s": (dofs / (sum(walls) * scale), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["raw_time_to_target_s"] = ttts
        result["probe_s"] = probe_s
        result["probes"] = sum(len(probes) for _, _, probes, _ in rounds)
        result["setup_probe_s"] = setup_probe_s

    for line in describe(history, stamps, wl):
        print(line)
    for check, ok, detail in results:
        print(f"  {'PASS' if ok else 'FAIL'}  {check}: {detail}")
    result["correct"] = all(ok for _, ok, _ in results)
    result["loop_s"] = [w for w, *_ in rounds]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
