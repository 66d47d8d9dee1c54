"""Span recorder for the traced run of the adaptive loop.

The program has no tracing of its own, so the traced run replaces the public
functions of each layer, in the module namespace where their callers look
them up, by wrappers that record one span per call: its name, start, end,
parent span and a few counts read off the return value.  Spans stay in
memory until the run ends.  Each adaptive iteration is a parent span that
starts when the loop calls `assemble_system` and ends when the next
iteration starts or the loop returns.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

LOOP = "adaptivity.amr_loop"
ITERATION = "adaptivity.iteration"
ASSEMBLE = "assembly.assemble_system"
SOLVE = "solve.solve_system"


def _solve_counts(out):
    report = out[1]
    return {
        "n": report.n,
        "nnz": report.nnz,
        "residual": report.residual,
        "refinement_steps": report.refinement_steps,
    }


# (module, attribute, span name, counts read off the return value)
TARGETS = (
    ("sdgdarcy.adaptivity", "assemble_system", ASSEMBLE, lambda s: {"n": s.n}),
    ("sdgdarcy.adaptivity", "solve_system", SOLVE, _solve_counts),
    ("sdgdarcy.adaptivity", "compute_estimator", "estimator.compute_estimator", None),
    ("sdgdarcy.adaptivity", "true_error", "estimator.true_error", None),
    ("sdgdarcy.adaptivity", "dorfler_mark", "adaptivity.dorfler_mark",
     lambda m: {"marked": len(m)}),
    ("sdgdarcy.adaptivity", "refine", "geometry.refine",
     lambda mesh: {"elements": mesh.n_elements}),
    ("sdgdarcy.assembly", "build_S_h", "spaces.build_S_h", None),
    ("sdgdarcy.assembly", "build_V_h", "spaces.build_V_h", None),
    ("sdgdarcy.assembly", "build_W_h", "spaces.build_W_h", None),
    ("sdgdarcy.assembly", "assemble_mass", "assembly.assemble_mass", None),
    ("sdgdarcy.assembly", "assemble_bh", "assembly.assemble_bh", None),
    ("sdgdarcy.assembly", "assemble_interface", "assembly.assemble_interface", None),
    ("sdgdarcy.assembly", "assemble_fracture_stiffness",
     "assembly.assemble_fracture_stiffness", None),
    ("sdgdarcy.assembly", "assemble_rhs", "assembly.assemble_rhs", None),
    ("sdgdarcy.assembly", "dirichlet_values", "assembly.dirichlet_values", None),
    ("sdgdarcy.geometry", "subdivide", "geometry.subdivide",
     lambda sub: {"triangles": sub.n_triangles}),
    ("sdgdarcy.estimator", "data_oscillation", "estimator.data_oscillation", None),
)


class Tracer:
    """Records nested spans; install() wraps the layers, remove() undoes it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, counts or None]
        self._stack = []
        self._originals = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)

    def close(self, counts=None, end=None):
        idx = self._stack.pop()
        self.spans[idx][2] = time.perf_counter() if end is None else end
        self.spans[idx][4] = counts

    def _end_iteration(self):
        if self._stack and self.spans[self._stack[-1]][0] == ITERATION:
            self.close()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            if name == ASSEMBLE:
                self._end_iteration()
                self.open(ITERATION)
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.close({"raised": type(exc).__name__})
                raise
            end = time.perf_counter()
            self.close(counts(out) if counts else None, end)
            return out

        return traced

    def install(self):
        for module, attr, name, counts in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counts))

    def remove(self):
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def run_loop(self, loop, *args, **kwargs):
        """Call the adaptive loop inside a loop span; returns its result."""
        self.open(LOOP)
        try:
            return loop(*args, **kwargs)
        finally:
            self._end_iteration()
            self.close()

    def self_times(self):
        """Per span name: total duration and total self time (duration minus
        the time its direct children cover)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, own = defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        return total, own

    def misnested(self):
        """Spans that end before they start or leave their parent's interval."""
        bad = 0
        for name, t0, t1, parent, _ in self.spans:
            if t1 < t0 or (parent >= 0 and not (
                    self.spans[parent][1] <= t0 and t1 <= self.spans[parent][2])):
                bad += 1
        return bad

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": name,
                "start_s": t0 - origin,
                "end_s": t1 - origin,
                "parent": parent,
                "counts": counts,
            }
            for i, (name, t0, t1, parent, counts) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=0)


def layer_metrics(tracer, n_triangles):
    """Per-layer metrics of one traced loop, as {name: (value, unit)}.

    n_triangles is the subdivision size of every solved mesh, in order.
    """
    spans = tracer.spans
    total, own = tracer.self_times()
    loop_s = total[LOOP]

    # per iteration: its assembly span, and whether a solve succeeded in it
    assembled = {}
    solved = set()
    for name, t0, t1, parent, counts in spans:
        if name == ASSEMBLE:
            assembled[parent] = t1 - t0
        elif name == SOLVE and "raised" not in counts:
            solved.add(parent)
    unsolved_s = sum(t for it, t in assembled.items() if it not in solved)

    def counts_of(name):
        return [s[4] for s in spans if s[0] == name]

    solves = [c for c in counts_of(SOLVE) if "raised" not in c]
    failed_s = sum(
        s[2] - s[1] for s in spans if s[0] == SOLVE and "raised" in s[4]
    )
    self_sum = sum(own.values())
    m = {
        "geometry.subdivide_s": (own["geometry.subdivide"], "s"),
        "geometry.refine_s": (own["geometry.refine"], "s"),
        "geometry.triangles": (int(sum(n_triangles)), "count"),
        "spaces.build_S_h_s": (own["spaces.build_S_h"], "s"),
        "spaces.build_V_h_s": (own["spaces.build_V_h"], "s"),
        "spaces.build_W_h_s": (own["spaces.build_W_h"], "s"),
        "assembly.mass_s": (own["assembly.assemble_mass"], "s"),
        "assembly.bh_s": (own["assembly.assemble_bh"], "s"),
        "assembly.rhs_s": (own["assembly.assemble_rhs"], "s"),
        "assembly.fracture_s": (
            own["assembly.assemble_interface"]
            + own["assembly.assemble_fracture_stiffness"],
            "s",
        ),
        "assembly.dirichlet_s": (own["assembly.dirichlet_values"], "s"),
        "assembly.self_s": (own[ASSEMBLE], "s"),
        "assembly.unsolved_s": (unsolved_s, "s"),
        "assembly.systems": (len(assembled), "count"),
        "assembly.useful_ratio": (len(solved) / len(assembled), "ratio"),
        "solve.solve_s": (total[SOLVE] - failed_s, "s"),
        "solve.failed_s": (failed_s, "s"),
        "solve.nnz": (sum(c["nnz"] for c in solves), "count"),
        "solve.refinement_steps": (
            sum(c["refinement_steps"] for c in solves), "count"),
        "solve.backward_error_max": (max(c["residual"] for c in solves), "ratio"),
        "estimator.compute_s": (own["estimator.compute_estimator"], "s"),
        "estimator.oscillation_s": (own["estimator.data_oscillation"], "s"),
        "estimator.true_error_s": (own["estimator.true_error"], "s"),
        "adaptivity.mark_s": (own["adaptivity.dorfler_mark"], "s"),
        "adaptivity.marked": (
            sum(c["marked"] for c in counts_of("adaptivity.dorfler_mark")), "count"),
        "adaptivity.iterations": (len(counts_of(SOLVE)), "count"),
        "adaptivity.loop_self_s": (own[ITERATION] + own[LOOP], "s"),
        "adaptivity.loop_s": (loop_s, "s"),
    }
    return m, self_sum - loop_s
