"""Command line front end: run benchmarks, list them, audit meshes."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import get_type_hints

from . import io as artifacts
from .adaptivity import AmrConfig, amr_loop, option
from .benchmarks import BENCHMARKS, get_benchmark
from .errors import ConfigError, IoError, MeshError, SingularK, SolverError
from .geometry import FRACTURE, build_initial_mesh, check_regularity, initial_grid
from .spaces import flux_dofs_per_triangle


@dataclass(frozen=True, kw_only=True)
class RunConfig(AmrConfig):
    """Validated inputs of one `run` invocation: the loop's `AmrConfig`
    and what the command line adds to it.  Each field is a key of a config
    file and a flag of `sdg run` (`max_dofs` as `--max-dofs`), with the
    help text of its `option`."""

    benchmark: str = option(help="benchmark name (see list-benchmarks)")
    h0: float = option(None, help="initial mesh size (default: the benchmark's)")
    out: str = option("out", help="output directory (default: out)")
    export_fields: bool = option(False, help="write per-iteration mesh JSON and VTK field files")
    dump_system: bool = option(False, help="write the full (u, p, p_gamma) system over free dofs per iteration")

    def __post_init__(self):
        super().__post_init__()
        if self.h0 is not None and not (math.isfinite(self.h0) and self.h0 > 0):
            raise ConfigError(f"h0={self.h0} is not a positive finite mesh size")


def load_config(path) -> dict:
    """Parse a JSON config file.  Each key must be a `RunConfig` field, of
    the field's type: a `float` takes an int too, and a bool is no int."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    types = get_type_hints(RunConfig)
    for key, value in doc.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        want = (int, float) if types[key] is float else types[key]
        bad = isinstance(value, bool) and want is not bool
        if bad or not isinstance(value, want):
            raise ConfigError(
                f"config key {key!r} has the wrong type: {type(value).__name__}"
            )
    return doc


def _resolve_run_config(args) -> RunConfig:
    doc = load_config(args.config) if args.config else {}
    for f in fields(RunConfig):  # a flag, where one is given, overrides the file
        if getattr(args, f.name) is not None:
            doc[f.name] = getattr(args, f.name)
    if "benchmark" not in doc:
        raise ConfigError("no benchmark selected; pass --benchmark or a config file")
    return RunConfig(**doc)


def _exporter(cfg: RunConfig):
    def callback(record, mesh, sol, bd, system):
        tag = f"{record.iteration:04d}"
        if cfg.export_fields:
            artifacts.export_mesh_json(mesh, os.path.join(cfg.out, f"mesh_{tag}.json"))
            artifacts.export_solution(mesh, sol, os.path.join(cfg.out, f"fields_{tag}"))
        if cfg.dump_system:
            artifacts.dump_system(system, os.path.join(cfg.out, f"system_{tag}.txt"))

    return callback


def _cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    spec, exact, h_default = get_benchmark(cfg.benchmark)
    h0 = float(cfg.h0) if cfg.h0 is not None else h_default
    # the subdivision splits each initial square into at least 4 triangles,
    # so N >= 4 cells times the flux dofs per triangle of build_V_h; checked
    # before any cell of the grid exists
    cells = initial_grid(spec.domain, h0)[1]
    least = 4 * cells * flux_dofs_per_triangle(cfg.k)
    if least > cfg.max_dofs:
        raise ConfigError(
            f"h0={h0} gives at least {cells} initial cells, so at least {least} "
            f"unknowns, above max_dofs={cfg.max_dofs}"
        )
    mesh = build_initial_mesh(spec.domain, h0)
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as err:
        raise IoError(f"cannot make output directory {cfg.out}: {err}") from err
    callback = _exporter(cfg) if cfg.export_fields or cfg.dump_system else None
    hist = amr_loop(mesh, spec, cfg, exact=exact, callback=callback)

    artifacts.write_history_csv(hist, os.path.join(cfg.out, "history.csv"))
    if hist.records and float(hist.column("eta").max()) > 0.0:
        artifacts.write_convergence_svg(
            hist, cfg.k, os.path.join(cfg.out, "convergence.svg"), title=cfg.benchmark
        )
    for r in hist.records:
        err = "" if math.isnan(r.err_sdg) else f"  err={r.err_sdg:.4e}  EI={r.EI:.3f}"
        print(
            f"it {r.iteration:3d}  N={r.N:7d}  elements={r.n_elements:6d}"
            f"  eta={r.eta:.4e}{err}"
        )
    print(f"wrote {os.path.join(cfg.out, 'history.csv')}")
    if hist.failure is not None:
        print(f"halted: {hist.failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_list(args) -> int:
    for name in BENCHMARKS:
        spec, exact, h0 = get_benchmark(name)
        tag = "exact solution" if exact is not None else "no exact solution"
        nf = len(spec.domain.fractures)
        print(f"{name:12s} h0={h0:<6g} {nf} fracture(s), {tag}")
    return 0


def _cmd_check(args) -> int:
    spec, exact, h0 = get_benchmark(args.benchmark)
    mesh = build_initial_mesh(spec.domain, h0)
    sub = mesh.subdivision  # raises if fracture alignment is inconsistent
    rep = check_regularity(mesh)
    nfr = sub.edges_of_kind(FRACTURE).size
    print(f"benchmark {args.benchmark}: {mesh.n_elements} elements, "
          f"{sub.n_triangles} triangles, {sub.n_edges} edges "
          f"({nfr} on fractures)")
    print(f"h in [{rep.h_min:.6g}, {rep.h_max:.6g}]  "
          f"rho_E={rep.rho_E:.4f}  rho_S={rep.rho_S:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sdg",
        description="Staggered DG solver for Darcy flow in fractured media",
    )
    subs = p.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run a benchmark and write artifacts")
    run.add_argument("--config", help="JSON config file (schema in the README)")
    types = get_type_hints(RunConfig)
    for f in fields(RunConfig):  # a flag not given is None: the file or the default holds
        t = types[f.name]
        kind = dict(action="store_const", const=True) if t is bool else dict(type=t)
        run.add_argument("--" + f.name.replace("_", "-"), dest=f.name, help=f.metadata["help"], **kind)
    run.set_defaults(func=_cmd_run)

    ls = subs.add_parser("list-benchmarks", help="print the available benchmarks")
    ls.set_defaults(func=_cmd_list)

    chk = subs.add_parser("check", help="mesh construction and regularity audit")
    chk.add_argument("--benchmark", required=True)
    chk.set_defaults(func=_cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # the reader is gone: what is left of stdout goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (MeshError, SolverError, IoError, SingularK) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
