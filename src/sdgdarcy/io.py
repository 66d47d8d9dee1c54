"""Artifact writers: history CSV, mesh JSON, legacy VTK fields, SVG plots.

Every format is deterministic plain text.  Floats are written with repr,
the shortest digit string that round-trips the double exactly, so files
from identical runs are bitwise equal except for the wall-clock timing
columns of the history CSV.  That CSV's columns are the fields of
`IterationRecord` in order, `terms` as T1..T8, each written by its type.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from typing import get_type_hints

import numpy as np

from .adaptivity import IterationRecord
from .errors import IoError
from .geometry import BOUNDARY, DUAL, FRACTURE, INTERIOR, PolygonalMesh

_RECORD = fields(IterationRecord)
_TYPES = get_type_hints(IterationRecord)
HISTORY_COLUMNS = tuple(
    c for f in _RECORD for c in ([f"T{j}" for j in range(1, 9)] if f.name == "terms" else [f.name])
)
TIMING_COLUMNS = tuple(f.name for f in _RECORD if f.name.startswith("t_"))


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


def _f(x) -> str:
    return repr(float(x))


# -------------------------------------------------------------- history CSV

def _cells(name: str, value) -> list:
    """The CSV cells of one `IterationRecord` field, by its type: an int in
    decimal, a float by repr, an array one such float per entry; a wall
    time in milliseconds to the microsecond."""
    if name in TIMING_COLUMNS:
        return [f"{value:.3f}"]
    if _TYPES[name] is int:
        return [str(int(value))]
    if _TYPES[name] is np.ndarray:
        return [_f(v) for v in value]
    return [_f(value)]


def write_history_csv(history, path) -> None:
    """One row per AMR iteration; columns are HISTORY_COLUMNS in order."""
    lines = [",".join(HISTORY_COLUMNS)]
    for r in history.records:
        lines.append(",".join(c for f in _RECORD for c in _cells(f.name, getattr(r, f.name))))
    _write_text(path, "\n".join(lines) + "\n")


def read_history_csv(path) -> dict:
    """Columns of a history CSV as arrays keyed by name."""
    try:
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    if not rows:
        raise IoError(f"{path} has no data rows")
    out = {}
    for name in HISTORY_COLUMNS:
        if name not in rows[0]:
            raise IoError(f"{path} lacks history column {name!r}")
        parse = int if _TYPES.get(name) is int else float
        out[name] = np.array([parse(row[name]) for row in rows])
    return out


# ---------------------------------------------------------------- mesh JSON

_KIND_NAMES = {
    "boundary": int(BOUNDARY),
    "interior": int(INTERIOR),
    "fracture": int(FRACTURE),
    "dual": int(DUAL),
}


def export_mesh_json(mesh: PolygonalMesh, path) -> None:
    """Vertices, polygon cycles, and the classified simplicial subdivision."""
    sub = mesh.subdivision
    cyc = mesh.cycles
    cycles = np.split(cyc.vertex, cyc.offsets[1:-1])
    hanging = np.split(cyc.hanging, cyc.offsets[1:-1])
    doc = {
        "format": "sdgdarcy-mesh",
        "version": 1,
        "edge_kinds": _KIND_NAMES,
        "vertices": mesh.vertices.tolist(),
        "polygons": [c.tolist() for c in cycles],
        "hanging": [np.sort(c[h]).tolist() for c, h in zip(cycles, hanging)],
        "fractures": [fr.points.tolist() for fr in mesh.fractures],
        "subdivision": {
            "vertices": sub.vertices.tolist(),
            "triangles": sub.tri_vertices.tolist(),
            "triangle_polygon": sub.tri_polygon.tolist(),
            "edge_vertices": sub.edge_vertices.tolist(),
            "edge_kind": sub.edge_kind.tolist(),
            "edge_fracture": sub.edge_fracture.tolist(),
        },
    }
    _write_text(path, json.dumps(doc) + "\n")


# --------------------------------------------------------------- VTK fields

def export_solution(mesh: PolygonalMesh, sol, prefix) -> list:
    """Write `<prefix>.vtk` (bulk) and `<prefix>_fracture.vtk` if fractured.

    The bulk file duplicates the three corner points of every subdivision
    triangle so the elementwise-discontinuous pressure stays intact;
    pressure is point data, flux (at triangle centroids) and the owning
    polygon are cell data.  The fracture file is a polyline dataset with
    the fracture pressure at the endpoints of each fracture edge.
    """
    sub = mesh.subdivision
    nt = sub.n_triangles
    tris = np.arange(nt)
    corners = sub.tri_coords  # (nt, 3, 2)
    p_corner = sol.p_at(tris, corners)  # (nt, 3)
    u_mid = sol.u_at(tris, sub.tri_centroid[:, None, :])[:, 0, :]  # (nt, 2)

    lines = [
        "# vtk DataFile Version 3.0",
        "bulk pressure and flux on the simplicial subdivision",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {3 * nt} double",
    ]
    lines += _xy_lines(corners.reshape(-1, 2))
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += [f"3 {a} {a + 1} {a + 2}" for a in range(0, 3 * nt, 3)]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["5"] * nt
    lines += [
        f"POINT_DATA {3 * nt}",
        "SCALARS pressure double 1",
        "LOOKUP_TABLE default",
    ]
    lines += map(repr, p_corner.ravel().tolist())
    lines += [f"CELL_DATA {nt}", "VECTORS flux double"]
    lines += _xy_lines(u_mid)
    lines += ["SCALARS polygon int 1", "LOOKUP_TABLE default"]
    lines += map(str, sub.tri_polygon.tolist())
    bulk_path = f"{prefix}.vtk"
    _write_text(bulk_path, "\n".join(lines) + "\n")
    written = [bulk_path]

    fe = sub.fracture_edges
    ne = fe.n_edges
    if ne:
        # per fracture edge, its two end points, p_gamma there and its fracture
        lines = [
            "# vtk DataFile Version 3.0",
            "fracture pressure",
            "ASCII",
            "DATASET POLYDATA",
            f"POINTS {2 * ne} double",
        ]
        lines += _xy_lines(sub.vertices[fe.ends.ravel()])
        lines.append(f"LINES {ne} {3 * ne}")
        lines += [f"2 {a} {a + 1}" for a in range(0, 2 * ne, 2)]
        lines += [
            f"POINT_DATA {2 * ne}",
            "SCALARS fracture_pressure double 1",
            "LOOKUP_TABLE default",
        ]
        lines += map(repr, sol.p_gamma_at(np.array([0.0, 1.0])).ravel().tolist())
        lines += [f"CELL_DATA {ne}", "SCALARS fracture int 1", "LOOKUP_TABLE default"]
        lines += map(str, fe.fracture.tolist())
        frac_path = f"{prefix}_fracture.vtk"
        _write_text(frac_path, "\n".join(lines) + "\n")
        written.append(frac_path)
    return written


def _xy_lines(xy: np.ndarray) -> list:
    """One "x y 0.0" line per row of the (n, 2) array, repr-formatted."""
    return [f"{x!r} {y!r} 0.0" for x, y in xy.tolist()]


# -------------------------------------------------------------- system dump

def dump_system(system, path) -> None:
    """Reduced matrix as `row col value` triplets, then the right-hand side.

    The matrix is the full (u, p, p_gamma) saddle system over free dofs, not
    the condensed matrix the solver factors; the header says so, gives the
    block offsets and ends with `n <n> nnz <nnz>`.
    """
    A = system.A.tocoo()
    offsets = " ".join(str(o) for o in system.offsets)
    lines = [
        "# sdgdarcy linear system: n free dofs of the full (u, p, p_gamma) "
        f"saddle system, block offsets {offsets}; n {system.n} nnz {A.nnz}"
    ]
    lines += [f"{r} {c} {_f(v)}" for r, c, v in zip(A.row, A.col, A.data)]
    lines.append("# rhs")
    lines += [_f(v) for v in system.rhs]
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- SVG plots

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _decades(lo: float, hi: float) -> list:
    first = int(np.ceil(np.log10(lo) - 1e-12))
    last = int(np.floor(np.log10(hi) + 1e-12))
    return [10.0**m for m in range(first, last + 1)]


def write_convergence_svg(history, k: int, path, title="") -> None:
    """Log-log plot of eta (and the error when known) against N, with a
    dashed reference line of slope -k/2 through the last estimator point."""
    ns = history.column("N").astype(float)
    eta = history.column("eta")
    err = history.column("err_sdg")
    keep = (ns > 0) & (eta > 0)
    ns, eta, err = ns[keep], eta[keep], err[keep]
    if ns.size == 0:
        raise IoError("history has no positive (N, eta) points to plot")
    have_err = bool(np.all(np.isfinite(err)) and np.all(err > 0))

    xs = ns
    ys = [eta] + ([err] if have_err else [])
    x0, x1 = xs.min(), xs.max()
    y0 = min(y.min() for y in ys)
    y1 = max(y.max() for y in ys)
    if x1 == x0:
        x0, x1 = 0.8 * x0, 1.25 * x1
    x0, x1 = 10 ** (np.log10(x0) - 0.05), 10 ** (np.log10(x1) + 0.05)
    y0, y1 = 10 ** (np.log10(y0) - 0.1), 10 ** (np.log10(y1) + 0.1)

    def px(v):
        t = (np.log10(v) - np.log10(x0)) / (np.log10(x1) - np.log10(x0))
        return _ML + t * (_W - _ML - _MR)

    def py(v):
        t = (np.log10(v) - np.log10(y0)) / (np.log10(y1) - np.log10(y0))
        return _H - _MB - t * (_H - _MT - _MB)

    def pts(xv, yv):
        return " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xv, yv))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    for v in _decades(x0, x1):
        x = px(v)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_H - _MB}" '
            'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle">'
            f"1e{int(round(np.log10(v)))}</text>"
        )
    for v in _decades(y0, y1):
        y = py(v)
        out.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" '
            'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">'
            f"1e{int(round(np.log10(v)))}</text>"
        )
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>'
    )
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" '
        'text-anchor="middle">N</text>'
    )

    # reference slope through the last estimator point
    ref_y = eta[-1] * (np.array([x0, x1]) / ns[-1]) ** (-0.5 * k)
    out.append(
        f'<polyline points="{pts(np.array([x0, x1]), ref_y)}" fill="none" '
        'stroke="#888888" stroke-dasharray="6,4"/>'
    )
    out.append(
        f'<polyline points="{pts(ns, eta)}" fill="none" stroke="#1f6fb4" '
        'stroke-width="1.5"/>'
    )
    for a, b in zip(ns, eta):
        out.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" fill="#1f6fb4"/>')
    if have_err:
        out.append(
            f'<polyline points="{pts(ns, err)}" fill="none" stroke="#c44e52" '
            'stroke-width="1.5"/>'
        )
        for a, b in zip(ns, err):
            out.append(
                f'<rect x="{px(a) - 3:.2f}" y="{py(b) - 3:.2f}" width="6" '
                'height="6" fill="#c44e52"/>'
            )

    lx = _W - _MR - 150
    entries = [("#1f6fb4", "eta")]
    if have_err:
        entries.append(("#c44e52", "error"))
    entries.append(("#888888", f"slope -{0.5 * k:g}"))
    for i, (color, label) in enumerate(entries):
        y = _MT + 14 + 16 * i
        out.append(
            f'<line x1="{lx}" y1="{y - 4}" x2="{lx + 24}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx + 30}" y="{y}">{label}</text>')
    out.append("</svg>")
    _write_text(path, "\n".join(out) + "\n")
