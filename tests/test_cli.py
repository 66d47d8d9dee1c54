"""Command line interface: flags, config files, artifacts, exit codes."""

import argparse
import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sdgdarcy import geometry
from sdgdarcy.adaptivity import AmrConfig
from sdgdarcy.benchmarks import get_benchmark
from sdgdarcy.cli import RunConfig, _resolve_run_config, build_parser, load_config, main
from sdgdarcy.errors import ConfigError, SingularSystem
from sdgdarcy.io import TIMING_COLUMNS, read_history_csv


def write_config(tmp_path, **doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_list_benchmarks(capsys):
    assert main(["list-benchmarks"]) == 0
    out = capsys.readouterr().out
    for name in ("patch", "case1-a0.1", "case1-a0.01", "case2", "lshape", "multifrac"):
        assert name in out


def test_check_reports_mesh_stats(capsys):
    assert main(["check", "--benchmark", "case2"]) == 0
    out = capsys.readouterr().out
    assert "32 elements" in out
    assert "rho_E" in out


def test_run_patch_first_iteration_is_exact(tmp_path):
    cfg = write_config(tmp_path, benchmark="patch", max_iterations=3)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--k", "1", "--out", str(out)]) == 0
    cols = read_history_csv(out / "history.csv")
    assert cols["eta"][0] <= 1e-9
    assert cols["err_sdg"][0] <= 1e-9
    assert (out / "convergence.svg").exists()


def test_run_uniform_eta_decreases(tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--benchmark",
            "case1-a0.1",
            "--k",
            "1",
            "--mode",
            "uniform",
            "--max-dofs",
            "15000",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    eta = read_history_csv(out / "history.csv")["eta"]
    assert eta.size >= 3
    assert np.all(np.diff(eta) < 0)


def test_run_exports_fields_per_iteration(tmp_path):
    cfg = write_config(
        tmp_path,
        benchmark="case1-a0.1",
        h0=0.5,
        max_iterations=2,
        export_fields=True,
        dump_system=True,
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    for it in ("0000", "0001"):
        assert (out / f"mesh_{it}.json").exists()
        assert (out / f"fields_{it}.vtk").exists()
        assert (out / f"fields_{it}_fracture.vtk").exists()
        assert (out / f"system_{it}.txt").exists()
    first = (out / "system_0000.txt").read_text().splitlines()[0]
    assert first.startswith("# sdgdarcy linear system: n ")


def test_flags_override_config(tmp_path):
    cfg = write_config(tmp_path, benchmark="patch", max_iterations=1, theta=0.9)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--mode", "uniform", "--out", str(out)]) == 0
    cols = read_history_csv(out / "history.csv")
    assert cols["n_elements"].tolist() == [2]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # `seed` was a reserved key that nothing read; it is no longer accepted
    for key in ("bogus_key", "seed"):
        cfg = write_config(tmp_path, benchmark="patch", **{key: 3})
        assert main(["run", "--config", cfg]) == 2
        assert key in capsys.readouterr().err


def test_mistyped_config_value_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, benchmark="patch", theta="half")
    assert main(["run", "--config", cfg]) == 2
    assert "theta" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_unknown_benchmark_exits_2(capsys):
    assert main(["run", "--benchmark", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_missing_benchmark_exits_2(capsys):
    assert main(["run"]) == 2
    assert "benchmark" in capsys.readouterr().err


def test_bad_theta_flag_exits_2(capsys):
    assert main(["run", "--benchmark", "patch", "--theta", "0"]) == 2
    assert "theta" in capsys.readouterr().err


def test_unsupported_order_exits_2_before_building(tmp_path, capsys, monkeypatch):
    """k=3 fails as the run's settings are read: no grid is built and no
    output directory is made."""

    def build(*args):
        raise AssertionError("the initial grid was built")

    monkeypatch.setattr("sdgdarcy.cli.build_initial_mesh", build)
    out = tmp_path / "out"
    assert main(["run", "--benchmark", "patch", "--k", "3", "--out", str(out)]) == 2
    assert "k=3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("h0", [0, -1, float("nan")], ids=["zero", "negative", "nan"])
def test_bad_h0_exits_2(tmp_path, capsys, h0):
    cfg = write_config(tmp_path, benchmark="patch", h0=h0)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "h0" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 2])
def test_oversized_initial_grid_exits_2_before_building(tmp_path, capsys, monkeypatch, k):
    """h0 = 1e-9 on the 2 x 1 domain of case1-a0.1 gives 2e18 initial cells;
    the run stops on the cell count, and no grid is built.  At h0 = 0.25 the
    bound is met exactly at max_dofs = 4 cells (2(k+1) + n_int)."""

    def build(*args):
        raise AssertionError("the initial grid was built")

    monkeypatch.setattr("sdgdarcy.cli.build_initial_mesh", build)
    cfg = write_config(tmp_path, benchmark="case1-a0.1", h0=1e-9, max_dofs=3000, k=k)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "h0=1e-09" in err and "2000000000000000000 initial cells" in err

    # 32 cells at h0 = 0.25: 4 * 32 * 4 = 512 unknowns at least at k=1, 1152 at k=2
    least = 512 if k == 1 else 1152
    cfg = write_config(tmp_path, benchmark="case1-a0.1", h0=0.25, max_dofs=least - 1, k=k)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"at least {least} unknowns" in capsys.readouterr().err
    cfg = write_config(tmp_path, benchmark="case1-a0.1", h0=0.25, max_dofs=least, k=k)
    with pytest.raises(AssertionError, match="was built"):
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])


def test_grid_over_the_cell_bound_exits_2(tmp_path, capsys, monkeypatch):
    """The `MAX_INITIAL_CELLS` check of `build_initial_mesh` is a
    configuration error of `sdg run`.  Only the builder's cell bound is
    faked, one above the limit, on the 32-cell grid at h0 = 0.25."""
    ranges = geometry.initial_grid(get_benchmark("case1-a0.1")[0].domain, 0.25)[0]
    monkeypatch.setattr(geometry, "initial_grid", lambda domain, h: (ranges, geometry.MAX_INITIAL_CELLS + 1))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, benchmark="case1-a0.1", h0=0.25)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"h0=0.25 gives at least {geometry.MAX_INITIAL_CELLS + 1} initial cells" in err
    assert not out.exists()


def test_load_config_validation(tmp_path):
    cfg = write_config(tmp_path, benchmark="patch", k=2, theta=0.4)
    doc = load_config(cfg)
    assert doc == {"benchmark": "patch", "k": 2, "theta": 0.4}
    with pytest.raises(ConfigError, match="root"):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        load_config(path)
    # a bool is not an acceptable int
    cfg = write_config(tmp_path, benchmark="patch", k=True)
    with pytest.raises(ConfigError, match="k"):
        load_config(cfg)


def test_run_config_defaults():
    cfg = RunConfig(benchmark="patch")
    assert cfg.k == 1
    assert cfg.mode == "adaptive"
    assert cfg.theta == 0.5
    assert cfg.max_dofs == 200_000
    assert cfg.out == "out"
    assert not cfg.export_fields and not cfg.dump_system


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sdgdarcy.cli", "list-benchmarks"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "patch" in proc.stdout


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_out_on_a_file_exits_1(tmp_path, capsys, under):
    """An --out that names a file, or a path under one, is an output error
    that names the path, not a traceback."""
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    assert main(["run", "--benchmark", "patch", "--max-dofs", "1000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot make output directory") and str(out) in err


def test_singular_system_halts_with_exit_1(tmp_path, capsys, monkeypatch):
    def singular(system):
        raise SingularSystem("zero pivot in column 7")

    monkeypatch.setattr("sdgdarcy.adaptivity.solve_system", singular)
    out = tmp_path / "out"
    assert main(["run", "--benchmark", "patch", "--out", str(out)]) == 1
    assert "halted: zero pivot in column 7" in capsys.readouterr().err
    assert (out / "history.csv").read_text().count("\n") == 1  # the header alone


def test_loop_option_is_checked_before_the_benchmark(capsys):
    assert main(["run", "--benchmark", "nope", "--theta", "0"]) == 2
    assert "theta=0.0" in capsys.readouterr().err


def test_readme_config_names_every_field(tmp_path):
    """The README's example config loads, and its keys are the fields of
    `RunConfig`: the loop's `AmrConfig` and what the command line adds."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "run.json"
    path.write_text(example)
    doc = load_config(path)
    assert set(doc) == {f.name for f in fields(RunConfig)}
    assert issubclass(RunConfig, AmrConfig)
    RunConfig(**doc)


def test_float_keys_take_an_int(tmp_path):
    cfg = write_config(tmp_path, benchmark="patch", theta=1, h0=1)
    assert RunConfig(**load_config(cfg)) == RunConfig(benchmark="patch", theta=1.0, h0=1.0)
    cfg = write_config(tmp_path, benchmark="patch", max_dofs=1.5)
    with pytest.raises(ConfigError, match="max_dofs"):
        load_config(cfg)


def _run_options():
    """The `sdg run` subparser's optional arguments, by dest."""
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in subs.choices["run"]._actions}


# a value other than the default for each `RunConfig` field
_SAMPLE = {
    "theta": 0.25,
    "mode": "uniform",
    "max_dofs": 1234,
    "max_iterations": 2,
    "k": 2,
    "benchmark": "case2",
    "h0": 0.25,
    "out": "elsewhere",
    "export_fields": True,
    "dump_system": True,
}


def test_run_flags_are_the_config_fields():
    """`sdg run` has --help, --config and one flag per `RunConfig` field,
    each named after it and with help text."""
    options = _run_options()
    assert set(options) == {"help", "config"} | {f.name for f in fields(RunConfig)}
    for f in fields(RunConfig):
        assert options[f.name].option_strings == ["--" + f.name.replace("_", "-")]
        assert options[f.name].help


def _as_flags(doc):
    """The `sdg run` flags that set the keys of a config document."""
    return [a for k, v in doc.items() for a in ["--" + k.replace("_", "-")] + ([] if v is True else [str(v)])]


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_flag_sets_its_field_as_the_config_file_does(tmp_path, name):
    doc = {"benchmark": "patch", name: _SAMPLE[name]}
    by_flag = _resolve_run_config(build_parser().parse_args(["run", *_as_flags(doc)]))
    by_file = _resolve_run_config(build_parser().parse_args(["run", "--config", write_config(tmp_path, **doc)]))
    assert by_flag == by_file
    assert getattr(by_flag, name) == _SAMPLE[name] != getattr(RunConfig(benchmark="patch"), name)


def test_flag_only_run_writes_the_files_of_its_config_twin(tmp_path):
    """The same settings by flags alone and by a config file give the same
    files, byte for byte outside the timing columns of history.csv."""
    settings = dict(benchmark="patch", theta=1, h0=0.5, max_iterations=2, export_fields=True, dump_system=True)
    by_file, by_flags = tmp_path / "file", tmp_path / "flags"
    assert main(["run", "--config", write_config(tmp_path, **settings), "--out", str(by_file)]) == 0
    assert main(["run", *_as_flags(settings), "--out", str(by_flags)]) == 0
    names = sorted(p.name for p in by_file.iterdir())
    assert names == sorted(p.name for p in by_flags.iterdir()) and "system_0001.txt" in names
    n_time = len(TIMING_COLUMNS)
    for name in names:
        a, b = (by_file / name).read_text(), (by_flags / name).read_text()
        if name == "history.csv":
            a, b = ([row.split(",")[:-n_time] for row in t.splitlines()] for t in (a, b))
        assert a == b, name


def test_bad_mode_flag_exits_2(capsys):
    assert main(["run", "--benchmark", "patch", "--mode", "sideways"]) == 2
    assert "mode='sideways'" in capsys.readouterr().err
