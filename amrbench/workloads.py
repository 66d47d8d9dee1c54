"""The three workloads of the adaptive-loop benchmark.

Every workload is an adaptive run with Doerfler theta = 0.5, the setting of
the acceptance suite.  The problems are deterministic, so the --seed the
benchmark takes changes nothing.  `target` is the accuracy whose first
recorded iteration ends the time-to-target clock: `err_sdg` where the
benchmark has an exact solution, the estimator eta otherwise.
"""

from dataclasses import dataclass

THETA = 0.5
MAX_ITERATIONS = 60


@dataclass(frozen=True)
class Workload:
    benchmark: str
    k: int
    max_dofs: int
    accuracy: str  # "err_sdg" or "eta"
    target: float


WORKLOADS = {
    "case1-k1": Workload(
        benchmark="case1-a0.1",
        k=1,
        max_dofs=100_000,
        accuracy="err_sdg",
        target=3.5e-2,  # reached at iteration 11 of 0..12 (3.323e-2)
    ),
    "case1-k2": Workload(
        benchmark="case1-a0.1",
        k=2,
        max_dofs=100_000,
        accuracy="err_sdg",
        target=2.2e-3,  # reached at iteration 13 of 0..14 (2.021e-3)
    ),
    "case2-k1": Workload(
        benchmark="case2",
        k=1,
        max_dofs=200_000,
        accuracy="eta",
        target=1.1e-2,  # reached at iteration 15 (9.821e-3), before the failing 16
    ),
}
