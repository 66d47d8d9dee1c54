"""Benchmark of the adaptive solve / estimate / mark / refine loop.

    python3 amrbench/run.py --workload case1-k1 [--seed N] [--seconds S] [--trace 0|1]
    python3 amrbench/run.py --workload all

Runs each workload in fresh worker processes started from the checkout's
`src/`, with the BLAS and OpenMP pools capped at BLAS_THREADS.  With
--trace 0 it prints the end-to-end metrics (setup_s, time_to_target_s,
dofs_per_s, peak_rss_mb), the times scaled to the reference speed of
probe.py; with --trace 1 the per-layer metrics of one traced loop.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from probe import REFERENCE_S
from workloads import THETA, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

BLAS_THREADS = "1"
SETUP_SAMPLES = 3  # set-up processes per run; setup_s is their median
DEADLINE_S = 170.0  # per workload, from its first worker to its last


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, deadline):
    """Run worker.py; returns (seconds from its start to READY, output lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, cwd=ROOT,
        env=worker_env(), text=True,
    )
    ready = []
    lines = []

    def read():
        for line in proc.stdout:
            if not ready and line.strip() == "READY":
                ready.append(time.perf_counter() - t0)
            else:
                lines.append(line.rstrip("\n"))

    reader = threading.Thread(target=read)
    reader.start()
    try:
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} passed the deadline")
    finally:
        reader.join()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    if not ready:
        raise BenchError(f"worker {' '.join(args)} never became ready")
    return ready[0], lines


def run_workload(name, seconds, trace):
    deadline = time.perf_counter() + DEADLINE_S
    if trace:
        _, lines = run_worker(["trace", name], deadline)
    else:
        # (seconds to READY, median probe time just after it) per process
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            ready, setup_lines = run_worker(["setup", name], deadline)
            setups.append((ready, json.loads(setup_lines[-1])["setup_probe_s"]))
        ready, lines = run_worker(["run", name, str(seconds)], deadline)
    result = json.loads(lines[-1])
    if not trace:
        setups.append((ready, result["setup_probe_s"]))
        scaled = [r * REFERENCE_S / p for r, p in setups]
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(f"  loop wall time: {', '.join(f'{w:.3f}' for w in result['loop_s'])} s")
    if not trace:
        print(f"  raw time to target: "
              f"{', '.join(f'{t:.3f}' for t in result['raw_time_to_target_s'])} s; "
              f"median probe {result['probe_s']:.4f} s of {result['probes']} "
              f"(reference {REFERENCE_S} s)")
        print(f"  setup: {', '.join(f'{r:.3f} s at probe {p:.4f}' for r, p in setups)}")
    print(f"  iterations attempted {result['attempted']}, failed {result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="printed only: the problems are deterministic")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="run as many whole adaptive loops as fit in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sdgdarcy", "__init__.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'sdgdarcy')} "
              "is missing", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        wl = WORKLOADS[name]
        print(f"{name}: {wl.benchmark} k={wl.k} max_dofs={wl.max_dofs} "
              f"theta={THETA}, seed {args.seed} (inputs do not depend on it), "
              f"BLAS threads {BLAS_THREADS}")
        try:
            result = run_workload(name, args.seconds, bool(args.trace))
        except BenchError as err:
            print(f"{name}: {err}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
