"""Artifact writers: CSV schema and round trips, mesh JSON, VTK, SVG."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sdgdarcy.adaptivity import AmrConfig, amr_loop
from sdgdarcy.assembly import assemble_system
from sdgdarcy.benchmarks import case1, case2, linear_patch
from sdgdarcy.errors import IoError
from sdgdarcy.geometry import build_initial_mesh
from sdgdarcy.io import (
    HISTORY_COLUMNS,
    TIMING_COLUMNS,
    dump_system,
    export_mesh_json,
    export_solution,
    read_history_csv,
    write_convergence_svg,
    write_history_csv,
)
from sdgdarcy.solve import solve_system
from sdgdarcy.spaces import SpaceConfig

from conftest import polygons

HEADER = (
    "iteration,N,T1,T2,T3,T4,T5,T6,T7,T8,eta,osc,err_Q,err_V,err_sdg,EI,"
    "n_elements,rho_E,t_solve_ms,t_estimate_ms"
)


def patch_history():
    spec, exact = linear_patch()
    mesh = build_initial_mesh(spec.domain, 1.0)
    cfg = AmrConfig(mode="uniform", max_iterations=3)
    return amr_loop(mesh, spec, cfg, exact=exact)


@pytest.fixture(scope="module")
def patch_run():
    return patch_history()


@pytest.fixture(scope="module")
def case1_solution():
    spec, exact = case1(0.1)
    mesh = build_initial_mesh(spec.domain, 0.5)
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    return mesh, sol


# ------------------------------------------------------------- history CSV

def test_history_header_is_stable(patch_run, tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(patch_run, path)
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    assert ",".join(HISTORY_COLUMNS) == HEADER
    assert len(lines) == 1 + len(patch_run.records)


def test_history_round_trip_is_exact(patch_run, tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(patch_run, path)
    cols = read_history_csv(path)
    for name in ("iteration", "N", "n_elements"):
        assert cols[name].dtype.kind == "i"
        assert np.array_equal(cols[name], patch_run.column(name))
    for name in ("eta", "osc", "err_Q", "err_V", "err_sdg", "rho_E"):
        assert np.array_equal(cols[name], patch_run.column(name))
    for j in range(8):
        got = cols[f"T{j + 1}"]
        want = np.array([r.terms[j] for r in patch_run.records])
        assert np.array_equal(got, want)
    assert np.isnan(cols["EI"]).all()  # the patch error sits at roundoff


def test_history_reruns_match_outside_timing_columns(patch_run, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_history_csv(patch_run, a)
    write_history_csv(patch_history(), b)
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    assert len(la) == len(lb)
    n_time = len(TIMING_COLUMNS)
    for ra, rb in zip(la, lb):
        assert ra.split(",")[:-n_time] == rb.split(",")[:-n_time]
    for line in la[1:] + lb[1:]:
        for field in line.split(",")[-n_time:]:
            assert float(field) >= 0.0


def test_read_rejects_missing_column(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("iteration,N\n0,44\n")
    with pytest.raises(IoError, match="T1"):
        read_history_csv(path)


def test_write_into_missing_directory_raises(patch_run, tmp_path):
    with pytest.raises(IoError):
        write_history_csv(patch_run, tmp_path / "no" / "such" / "dir.csv")


# --------------------------------------------------------------- mesh JSON

def test_mesh_json_schema(case1_solution, tmp_path):
    mesh, _ = case1_solution
    path = tmp_path / "mesh.json"
    export_mesh_json(mesh, path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["format"] == "sdgdarcy-mesh" and doc["version"] == 1
    assert doc["edge_kinds"] == {"boundary": 0, "interior": 1, "fracture": 2, "dual": 3}
    assert np.array_equal(np.array(doc["vertices"]), mesh.vertices)
    assert [tuple(c) for c in doc["polygons"]] == list(polygons(mesh))
    assert len(doc["hanging"]) == mesh.n_elements
    assert len(doc["fractures"]) == 1

    sub = mesh.subdivision
    sd = doc["subdivision"]
    assert np.array_equal(np.array(sd["vertices"]), sub.vertices)
    assert np.array_equal(np.array(sd["triangles"]), sub.tri_vertices)
    assert np.array_equal(np.array(sd["triangle_polygon"]), sub.tri_polygon)
    assert np.array_equal(np.array(sd["edge_kind"]), sub.edge_kind)
    assert np.array_equal(np.array(sd["edge_fracture"]), sub.edge_fracture)


# --------------------------------------------------------------- VTK fields

def parse_vtk(path):
    """Minimal reader for the subset of legacy VTK this package writes."""
    lines = open(path).read().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    out = {"dataset": lines[3].split()[-1]}
    i = 4
    npts = int(lines[i].split()[1])
    pts = np.array([[float(v) for v in lines[i + 1 + j].split()] for j in range(npts)])
    out["points"] = pts
    i += 1 + npts
    kind, counts = lines[i].split()[0], lines[i].split()[1:]
    ncell = int(counts[0])
    cells = [np.array(lines[i + 1 + j].split()[1:], dtype=int) for j in range(ncell)]
    out["cells"] = cells
    i += 1 + ncell
    if kind == "CELLS":
        assert lines[i].startswith("CELL_TYPES")
        i += 1 + ncell
    data = {}
    section = None
    while i < len(lines):
        head = lines[i].split()
        if head[0] in ("POINT_DATA", "CELL_DATA"):
            section, count = head[0], int(head[1])
            i += 1
        elif head[0] == "SCALARS":
            vals = np.array(lines[i + 2 : i + 2 + count], dtype=float)
            data[(section, head[1])] = vals
            i += 2 + count
        elif head[0] == "VECTORS":
            vals = np.array(
                [lines[i + 1 + j].split() for j in range(count)], dtype=float
            )
            data[(section, head[1])] = vals
            i += 1 + count
        else:
            raise AssertionError(f"unexpected line {lines[i]!r}")
    out["data"] = data
    return out


def test_bulk_vtk_round_trips_exactly(case1_solution, tmp_path):
    mesh, sol = case1_solution
    sub = mesh.subdivision
    paths = export_solution(mesh, sol, tmp_path / "fields")
    doc = parse_vtk(paths[0])
    nt = sub.n_triangles

    assert doc["dataset"] == "UNSTRUCTURED_GRID"
    assert doc["points"].shape == (3 * nt, 3)
    assert np.array_equal(doc["points"][:, :2], sub.tri_coords.reshape(-1, 2))
    assert np.array_equal(np.concatenate(doc["cells"]), np.arange(3 * nt))

    tris = np.arange(nt)
    p = sol.p_at(tris, sub.tri_coords).ravel()
    assert np.array_equal(doc["data"][("POINT_DATA", "pressure")], p)
    u = sol.u_at(tris, sub.tri_centroid[:, None, :])[:, 0, :]
    assert np.array_equal(doc["data"][("CELL_DATA", "flux")][:, :2], u)
    assert np.array_equal(
        doc["data"][("CELL_DATA", "polygon")], sub.tri_polygon.astype(float)
    )


def test_fracture_vtk_round_trips_exactly(case1_solution, tmp_path):
    mesh, sol = case1_solution
    sub = mesh.subdivision
    paths = export_solution(mesh, sol, tmp_path / "fields")
    doc = parse_vtk(paths[1])
    fm = sub.fracture_meshes[0]

    assert doc["dataset"] == "POLYDATA"
    coords = sub.vertices[fm.vertex_ids]
    want_pts = np.stack([coords[:-1], coords[1:]], axis=1).reshape(-1, 2)
    assert np.array_equal(doc["points"][:, :2], want_pts)
    w = sol.p_gamma_at(0, np.array([0.0, 1.0])).ravel()
    assert np.array_equal(doc["data"][("POINT_DATA", "fracture_pressure")], w)


def test_patch_export_pressure_equals_y(tmp_path):
    # the exported point pressures must reproduce the manufactured p = y
    spec, exact = linear_patch()
    mesh = build_initial_mesh(spec.domain, 1.0)
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    paths = export_solution(mesh, sol, tmp_path / "patch")
    doc = parse_vtk(paths[0])
    p = doc["data"][("POINT_DATA", "pressure")]
    assert np.abs(p - doc["points"][:, 1]).max() <= 1e-9


def test_unfractured_mesh_writes_no_fracture_file(tmp_path):
    from sdgdarcy.geometry import DomainSpec
    from sdgdarcy.problem import DIRICHLET, BoundaryRule, ProblemSpec, everywhere

    dom = DomainSpec(((0.0, 0.0, 1.0, 1.0),))
    spec = ProblemSpec(domain=dom, boundary=(BoundaryRule(DIRICHLET, everywhere),))
    mesh = build_initial_mesh(dom, 0.5)
    sol, _ = solve_system(assemble_system(mesh, spec, SpaceConfig(1)))
    paths = export_solution(mesh, sol, tmp_path / "plain")
    assert len(paths) == 1


# -------------------------------------------------------------- system dump

def test_system_dump_round_trips(tmp_path):
    spec, exact = linear_patch()
    mesh = build_initial_mesh(spec.domain, 1.0)
    system = assemble_system(mesh, spec, SpaceConfig(1))
    path = tmp_path / "system.txt"
    dump_system(system, path)

    lines = path.read_text().splitlines()
    head = lines[0].split()
    n, nnz = int(head[-3]), int(head[-1])
    assert n == system.n
    triplets = [ln.split() for ln in lines[1 : 1 + nnz]]
    rows = np.array([int(t[0]) for t in triplets])
    cols = np.array([int(t[1]) for t in triplets])
    vals = np.array([float(t[2]) for t in triplets])
    import scipy.sparse as sp

    rebuilt = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    assert np.array_equal(rebuilt.toarray(), system.A.toarray())
    assert lines[1 + nnz] == "# rhs"
    rhs = np.array(lines[2 + nnz :], dtype=float)
    assert np.array_equal(rhs, system.rhs)


# ---------------------------------------------------------------- SVG plots

def test_svg_is_valid_deterministic_xml(patch_run, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_convergence_svg(patch_run, 1, a, title="patch")
    write_convergence_svg(patch_run, 1, b, title="patch")
    assert a.read_bytes() == b.read_bytes()
    root = ET.parse(a).getroot()
    assert root.tag.endswith("svg")
    text = a.read_text()
    assert "slope -0.5" in text
    assert text.count("<polyline") == 3  # eta, error, reference


def test_svg_without_exact_solution_has_no_error_series(tmp_path):
    spec, exact = case2()
    assert exact is None
    mesh = build_initial_mesh(spec.domain, 0.25)
    hist = amr_loop(mesh, spec, AmrConfig(max_iterations=2))
    path = tmp_path / "case2.svg"
    write_convergence_svg(hist, 2, path)
    text = path.read_text()
    assert text.count("<polyline") == 2  # eta and reference only
    assert "slope -1" in text
    assert ">error<" not in text
