"""Polygonal meshes aligned with fractures, simplicial subdivision, and
hanging-node quad refinement.

A mesh is its vertex coordinates and one CycleTable: the CCW vertex
cycles of its star-shaped polygons flattened into slots, with a hanging
flag per slot.  Subdivision connects each polygon's vertex centroid to its
cycle vertices, producing one triangle per slot; the interior
centroid-to-vertex edges form the dual edge family. Refinement replaces
a marked polygon by quads (centroid to edge midpoints); midpoints shared
with unrefined neighbours are absorbed as flat vertices, at most one per
original edge (closure marks the neighbour otherwise). Both are array
code over the table.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyDomain, FractureNotAligned, GridTooLarge, MeshError, NotStarShaped, is_real

# edge kinds
BOUNDARY = 0  # on the domain boundary, one adjacent triangle
INTERIOR = 1  # interior primal edge, pressure-continuous
FRACTURE = 2  # lies on a fracture segment
DUAL = 3  # centroid-to-vertex edge created by subdivision

MAX_INITIAL_CELLS = 300_000  # keeps `build_initial_mesh` under 1 GiB; see there


@dataclass(frozen=True)
class Fracture:
    """A non-self-intersecting open polyline with reduced-dimension data.

    points : (m+1, 2) polyline vertices, traversal order fixes the
        orientation (side 1 is the left of travel; the edge normal
        points right, out of side 1).
    kappa_n : (m,) normal permeability per segment.
    kappa_t : (m,) tangential permeability per segment.
    thickness : aperture of the fracture (uniform along it).
    """

    points: np.ndarray
    kappa_n: np.ndarray
    kappa_t: np.ndarray
    thickness: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError(f"fracture needs at least two polyline points of shape (m+1, 2), got shape {pts.shape}")
        m = pts.shape[0] - 1
        for name in ("kappa_n", "kappa_t"):
            kappa = np.asarray(getattr(self, name), dtype=float)
            if kappa.ndim > 1 or kappa.size not in (1, m):
                raise ValueError(f"{name} has {kappa.size} values for {m} fracture segments")
            kappa = np.broadcast_to(kappa, (m,)).copy()
            bad = np.flatnonzero(~(np.isfinite(kappa) & (kappa > 0)))
            if bad.size:
                raise ValueError(f"{name}={kappa[bad[0]]} of fracture segment {bad[0]} is not positive and finite")
            object.__setattr__(self, name, kappa)
        if not (is_real(self.thickness) and np.isfinite(self.thickness) and self.thickness > 0):
            raise ValueError(f"fracture thickness {self.thickness!r} is not a positive finite real number")
        seg = pts[1:] - pts[:-1]
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        zero = np.flatnonzero(lengths <= 0)
        if zero.size:
            raise ValueError(f"fracture polyline segment {zero[0]} has zero length, at {tuple(pts[zero[0]].tolist())}")
        tol = 1e-12 * max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1.0)
        for i, j in itertools.combinations(range(m), 2):
            point = _meeting_point(pts[i], pts[i + 1], pts[j], pts[j + 1], tol, joined=j == i + 1)
            if point is not None:
                raise ValueError(f"fracture polyline segments {i} and {j} meet at {tuple(point.tolist())}")
        object.__setattr__(self, "points", pts)

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1

    @cached_property
    def seg_lengths(self) -> np.ndarray:
        seg = self.points[1:] - self.points[:-1]
        return np.hypot(seg[:, 0], seg[:, 1])

    @cached_property
    def seg_tangents(self) -> np.ndarray:
        seg = self.points[1:] - self.points[:-1]
        return seg / self.seg_lengths[:, None]

    @cached_property
    def seg_normals(self) -> np.ndarray:
        """Unit normals per segment, pointing out of side 1 (right of travel)."""
        t = self.seg_tangents
        return np.column_stack([t[:, 1], -t[:, 0]])

    @cached_property
    def arclength(self) -> np.ndarray:
        """Cumulative arc length at polyline vertices (m+1,)."""
        return np.concatenate([[0.0], np.cumsum(self.seg_lengths)])

    @property
    def normal_resistance(self) -> np.ndarray:
        """thickness / kappa_n per segment: pressure jump per unit average flux."""
        return self.thickness / self.kappa_n

    def nearest(self, pts: np.ndarray):
        """(dist, par, offset), (n,) each, of points (n, 2): the distance to
        the nearest segment, the arclength of the nearest point on it and
        the offset from that point along the segment's normal.  Among equally
        near segments the first one wins."""
        best = np.full(pts.shape[0], np.inf)
        par = np.zeros(pts.shape[0])
        offset = np.zeros(pts.shape[0])
        for s in range(self.n_segments):
            a, t = self.points[s], self.seg_tangents[s]
            proj = np.clip((pts - a) @ t, 0.0, self.seg_lengths[s])
            gap = pts - (a + proj[:, None] * t)
            dist = np.hypot(gap[:, 0], gap[:, 1])
            better = dist < best
            best = np.where(better, dist, best)
            par = np.where(better, self.arclength[s] + proj, par)
            offset = np.where(better, gap @ self.seg_normals[s], offset)
        return best, par, offset

    def param_of(self, pts: np.ndarray) -> np.ndarray:
        """Arc-length parameter of points assumed to lie on the polyline."""
        return self.nearest(np.atleast_2d(pts))[1]


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _meeting_point(p0, p1, q0, q1, tol, joined=False):
    """A point where the closed segments [p0, p1] and [q0, q1] meet, or None:
    an end point of one on the other (a touch or a collinear overlap), else
    their crossing point.  `joined` segments share p1 = q0, which does not
    count, so they meet only where one folds back onto the other."""
    ends = ((p0, q0, q1), (q1, p0, p1)) if joined else ((p0, q0, q1), (p1, q0, q1), (q0, p0, p1), (q1, p0, p1))
    for c, a, b in ends:  # c within distance tol of [a, b]
        inside = np.all(np.minimum(a, b) - tol <= c) and np.all(c <= np.maximum(a, b) + tol)
        if inside and abs(_orient(a, b, c)) <= tol * np.hypot(*(b - a)):
            return c
    d0, d1 = _orient(q0, q1, p0), _orient(q0, q1, p1)
    if d0 * d1 < 0 and _orient(p0, p1, q0) * _orient(p0, p1, q1) < 0:
        return p0 + d0 / (d0 - d1) * (p1 - p0)
    return None


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned rectangle union with embedded fracture polylines, which
    must be pairwise disjoint as closed sets: no touch, overlap or crossing."""

    rectangles: tuple
    fractures: tuple = ()

    def __post_init__(self):
        rects = tuple(tuple(float(c) for c in r) for r in self.rectangles)
        if not rects:
            raise EmptyDomain("domain outline has no rectangles")
        for r in rects:
            if not np.all(np.isfinite(r)):
                raise ValueError(f"rectangle {r!r} has a non-finite coordinate")
            if len(r) != 4 or r[2] <= r[0] or r[3] <= r[1]:
                raise ValueError(f"malformed rectangle {r!r}; expected (x0, y0, x1, y1)")
        fracs = tuple(self.fractures)
        tol = 1e-12 * self._diameter_of(rects)
        for (a, fa), (b, fb) in itertools.combinations(enumerate(fracs), 2):
            for s, t in itertools.product(range(fa.n_segments), range(fb.n_segments)):
                point = _meeting_point(fa.points[s], fa.points[s + 1], fb.points[t], fb.points[t + 1], tol)
                if point is not None:
                    raise ValueError(f"fractures {a} and {b} meet at {tuple(point.tolist())}")
        object.__setattr__(self, "rectangles", rects)
        object.__setattr__(self, "fractures", fracs)

    @staticmethod
    def _diameter_of(rects):
        xs = [r[0] for r in rects] + [r[2] for r in rects]
        ys = [r[1] for r in rects] + [r[3] for r in rects]
        return float(np.hypot(max(xs) - min(xs), max(ys) - min(ys)))

    @property
    def diameter(self) -> float:
        return self._diameter_of(self.rectangles)

    @property
    def origin(self):
        xs = [r[0] for r in self.rectangles]
        ys = [r[1] for r in self.rectangles]
        return min(xs), min(ys)

    @property
    def tolerance(self) -> float:
        return 1e-10 * self.diameter


@dataclass(frozen=True)
class CycleTable:
    """The polygon cycles flattened into slots, in CSR form.

    Polygon p owns slots offsets[p]:offsets[p+1] in cycle order; slot s
    holds cycle vertex `vertex[s]`, and `hanging[s]` says whether that
    vertex is a hanging node absorbed as a flat vertex of the polygon.
    Slot s is also subdivision triangle s, the one on cycle edge
    (vertex[s], vertex[next[s]]).
    """

    offsets: np.ndarray  # (np+1,)
    vertex: np.ndarray  # (ns,) vertex id per slot
    hanging: np.ndarray  # (ns,) bool

    def __post_init__(self):
        for name, dtype in (("offsets", int), ("vertex", int), ("hanging", bool)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def polygon(self) -> np.ndarray:
        """(ns,) owning polygon per slot."""
        return np.repeat(np.arange(self.lengths.size), self.lengths)

    @cached_property
    def next(self) -> np.ndarray:
        """(ns,) slot of the next cycle vertex."""
        nxt = np.arange(1, self.vertex.size + 1)
        nxt[self.offsets[1:] - 1] = self.offsets[:-1]
        return nxt

    @cached_property
    def prev(self) -> np.ndarray:
        """(ns,) slot of the previous cycle vertex."""
        prev = np.empty_like(self.next)
        prev[self.next] = np.arange(self.vertex.size)
        return prev


def _cycle_blocks(cyc: CycleTable, polys: np.ndarray):
    """Per cycle length n among `polys`, (sel, slots (m, n)): the slots of
    polys[sel] as rows.  Summed along axis 1, each row adds in the order of
    a per-polygon sum: in sequence for (m, n, 2) arrays, as pts.sum(axis=0)
    does, and pairwise beyond 7 terms for (m, n) ones, as 1D sums do."""
    lengths = cyc.lengths[polys]
    for n in np.unique(lengths):
        sel = lengths == n
        yield sel, cyc.offsets[polys[sel], None] + np.arange(n)


class PolygonalMesh:
    """Immutable star-shaped polygon mesh; refinement returns a new mesh.

    vertices : (nv, 2) coordinates.
    cycles : the CycleTable of CCW vertex cycles, one per polygon
        (absorbed hanging nodes appear as flat cycle vertices).
    fractures : snapped fracture polylines carried through refinement.

    The vertices and the table are the whole mesh.  A mesh made by
    `refine` also knows its `parent` mesh and, in `kept_from`, the parent
    id of every polygon it copied unchanged (-1 for the others).
    """

    def __init__(self, vertices, cycles: CycleTable, fractures, tolerance, parent=None, kept_from=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.vertices.setflags(write=False)
        self.cycles = cycles
        self.fractures = tuple(fractures)
        self.tolerance = float(tolerance)
        if cycles.lengths.size == 0:
            raise EmptyDomain("mesh has no elements")
        # a weak reference, so that a chain of refinements does not keep
        # every earlier mesh alive
        self._parent = None if parent is None else weakref.ref(parent)
        self.kept_from = np.full(cycles.lengths.size, -1) if kept_from is None else np.asarray(kept_from)
        self.kept_from.setflags(write=False)
        sizes = cycles.offsets[-1], cycles.hanging.size, cycles.vertex.size
        if cycles.offsets[0] != 0 or np.any(cycles.lengths < 0) or len(set(sizes)) > 1:
            raise MeshError("cycle offsets, vertex and hanging arrays out of sync")
        nv = self.vertices.shape[0]
        out_of_range = cycles.polygon[(cycles.vertex < 0) | (cycles.vertex >= nv)]
        bad = np.union1d(np.flatnonzero(cycles.lengths < 3), out_of_range)
        if bad.size:
            p = bad[0]
            cycle = tuple(cycles.vertex[cycles.offsets[p] : cycles.offsets[p + 1]].tolist())
            raise MeshError(f"polygon {p} has cycle {cycle}, not 3+ vertex ids in 0..{nv - 1}")

    @property
    def n_elements(self) -> int:
        return self.cycles.lengths.size

    @property
    def parent(self):
        """The mesh `refine` made this one from, while it is alive; else None."""
        return None if self._parent is None else self._parent()

    @cached_property
    def element_centroids(self) -> np.ndarray:
        """Arithmetic mean of each polygon's cycle vertices (subdivision point)."""
        cyc = self.cycles
        out = np.empty((self.n_elements, 2))
        for sel, slots in _cycle_blocks(cyc, np.arange(self.n_elements)):
            out[sel] = self.vertices[cyc.vertex[slots]].sum(axis=1) / slots.shape[1]
        out.setflags(write=False)
        return out

    @cached_property
    def element_diameters(self) -> np.ndarray:
        """Largest distance between two cycle vertices of each polygon."""
        cyc = self.cycles
        n = cyc.lengths[:, None]
        # row p runs through p's cycle (repeated) up to the longest length,
        # so a roll along it pairs two vertices of p
        pts = self.vertices[cyc.vertex[cyc.offsets[:-1, None] + np.arange(n.max()) % n]]
        sq = np.zeros(pts.shape[:2])
        for shift in range(1, n.max()):
            d = np.roll(pts, shift, axis=1) - pts
            sq = np.maximum(sq, (d * d).sum(-1))
        out = np.sqrt(sq.max(axis=1))
        out.setflags(write=False)
        return out

    @cached_property
    def rho_E(self) -> float:
        """min over elements of (shortest cycle edge) / (element diameter)."""
        cyc = self.cycles
        e = self.vertices[cyc.vertex[cyc.next]] - self.vertices[cyc.vertex]
        lmin = np.minimum.reduceat(np.hypot(e[:, 0], e[:, 1]), cyc.offsets[:-1])
        return float((lmin / self.element_diameters).min())

    @cached_property
    def element_regions(self) -> np.ndarray:
        """Side tag per element: 1 or 2 relative to the nearest fracture, 0 if none."""
        if not self.fractures:
            return np.zeros(self.n_elements, dtype=int)
        best = np.full(self.n_elements, np.inf)
        sign = np.zeros(self.n_elements)
        for fr in self.fractures:
            dist, _, offset = fr.nearest(self.element_centroids)
            better = dist < best
            best = np.where(better, dist, best)
            sign = np.where(better, offset, sign)
        return np.where(sign <= 0, 1, 2)

    @cached_property
    def subdivision(self) -> "Subdivision":
        return subdivide(self)


@dataclass(frozen=True)
class FractureEdgeTable:
    """Every fracture edge in one table, fracture-major, in CSR form.

    Fracture f owns rows offsets[f]:offsets[f+1], in order along its
    polyline from the start tip: row r is edge `edge[r]`, run from vertex
    `ends[r, 0]` to `ends[r, 1]`, on segment `segment[r]` of the fracture,
    and starts at arclength `arclength[r]`.  The coefficients of the
    segment are gathered per edge.
    """

    offsets: np.ndarray  # (nf+1,)
    edge: np.ndarray  # (n_fe,) global edge id
    ends: np.ndarray  # (n_fe, 2) vertex ids in polyline direction
    segment: np.ndarray  # (n_fe,) fracture segment index
    arclength: np.ndarray  # (n_fe,) arclength at the edge's start, 0 at each start tip
    thickness: np.ndarray  # (n_fe,)
    eta: np.ndarray  # (n_fe,) normal resistance thickness / kappa_n
    K_gamma: np.ndarray  # (n_fe,) tangential conductivity kappa_t * thickness

    @property
    def n_edges(self) -> int:
        return self.edge.size

    @cached_property
    def fracture(self) -> np.ndarray:
        """(n_fe,) fracture index per row."""
        return np.repeat(np.arange(self.offsets.size - 1), np.diff(self.offsets))

    @cached_property
    def descending(self) -> np.ndarray:
        """(n_fe,) whether the edge runs from its higher vertex id to its
        lower one, against the order of the edge dofs (see `edge_points`)."""
        return self.ends[:, 0] > self.ends[:, 1]

    @cached_property
    def joints(self) -> np.ndarray:
        """(n_fe - nf,) the rows r whose end vertex is the start of row r+1:
        one per interior vertex of each fracture, fracture by fracture."""
        return np.flatnonzero(np.diff(self.fracture) == 0)


@dataclass(frozen=True)
class Subdivision:
    """Simplicial subdivision of a polygonal mesh with its edge families.

    The fracture edges form one `FractureEdgeTable`, which every stage reads
    in one array pass; `edge_fracture` gives the fracture of every edge.
    `tri_side` and `tri_flip` form the side table that the spaces and the
    assembly read, derived once by `subdivide`.
    The mesh caches its subdivision, so the subdivision refers to its mesh
    weakly, as a mesh to its `parent`: the two form no reference cycle, and
    a dropped mesh is freed by reference counting alone.  Keep the mesh
    alive while its subdivision, or a space built on it, is used; `mesh`
    raises MeshError once it is freed.
    """

    _mesh: weakref.ref  # the PolygonalMesh
    vertices: np.ndarray  # mesh vertices followed by polygon centroids
    tri_vertices: np.ndarray  # (nt, 3); [a, b, centroid], (a, b) a cycle edge, CCW
    tri_polygon: np.ndarray  # (nt,) owning polygon
    tri_area: np.ndarray
    tri_centroid: np.ndarray
    tri_diameter: np.ndarray
    edge_vertices: np.ndarray  # (ne, 2)
    edge_kind: np.ndarray  # (ne,) BOUNDARY / INTERIOR / FRACTURE / DUAL
    edge_tris: np.ndarray  # (ne, 2), tri on side 1 first; -1 when absent
    edge_normal: np.ndarray  # (ne, 2) unit; points from side 1 into side 2
    edge_length: np.ndarray
    edge_midpoint: np.ndarray
    tri_edges: np.ndarray  # (nt, 3) side l runs tri_vertices[l] -> [(l+1) % 3]; side 0 primal
    tri_side: np.ndarray  # (nt, 3) int: t is edge_tris[tri_edges[t, l], tri_side[t, l]]
    tri_flip: np.ndarray  # (nt, 3) bool: side l runs from the edge's higher vertex id to its lower
    fracture_edges: FractureEdgeTable
    edge_fracture: np.ndarray  # (ne,) fracture index or -1

    @property
    def mesh(self) -> PolygonalMesh:
        mesh = self._mesh()
        if mesh is None:
            raise MeshError("subdivision outlived its mesh: the PolygonalMesh was freed while its subdivision was in use")
        return mesh

    @property
    def n_triangles(self) -> int:
        return self.tri_vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_vertices.shape[0]

    def edges_of_kind(self, kind: int) -> np.ndarray:
        return np.flatnonzero(self.edge_kind == kind)

    @cached_property
    def tri_coords(self) -> np.ndarray:
        return self.vertices[self.tri_vertices]

    @cached_property
    def tri_jacobian(self) -> np.ndarray:
        """Columns (v1 - v0, v2 - v0) of the affine map from the reference triangle."""
        c = self.tri_coords
        return np.stack([c[:, 1, :] - c[:, 0, :], c[:, 2, :] - c[:, 0, :]], axis=-1)

    @cached_property
    def tri_jacobian_inv(self) -> np.ndarray:
        return inv_2x2(self.tri_jacobian)

    def reference_coords(self, tris: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Pull physical points (n, k, 2) on given triangles back to the reference."""
        v0 = self.tri_coords[tris][:, 0, :]
        return np.einsum("nij,nkj->nki", self.tri_jacobian_inv[tris], pts - v0[:, None, :])

    def edge_points(self, edges: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Points at parameters ts along edges, from the lower vertex id to
        the higher one; (ne, nq, 2).  Flux dofs and shared pressure nodes
        follow this direction."""
        ev = self.edge_vertices[edges]
        lo = self.vertices[ev.min(axis=1)]
        hi = self.vertices[ev.max(axis=1)]
        return lo[:, None, :] + ts[None, :, None] * (hi - lo)[:, None, :]

    def fracture_points(self, ts: np.ndarray):
        """Points (n_fe, nq, 2) and arclength parameters (n_fe, nq) at
        parameters ts along every fracture edge, in polyline direction, in
        the rows of `fracture_edges`."""
        fe = self.fracture_edges
        a, b = self.vertices[fe.ends[:, 0]], self.vertices[fe.ends[:, 1]]
        pts = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
        par = fe.arclength[:, None] + ts[None, :] * self.edge_length[fe.edge][:, None]
        return pts, par


def inv_2x2(A: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2x2 matrices (..., 2, 2) by the adjugate."""
    det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    inv = np.empty_like(A)
    inv[..., 0, 0] = A[..., 1, 1]
    inv[..., 0, 1] = -A[..., 0, 1]
    inv[..., 1, 0] = -A[..., 1, 0]
    inv[..., 1, 1] = A[..., 0, 0]
    return inv / det[..., None, None]


def initial_grid(domain: DomainSpec, target_h: float):
    """(ranges, cells): the cell index ranges (i0, j0, i1, j1) of the
    rectangles on the grid of spacing target_h, and a lower bound on the
    number of cells of their union, counted from the ranges without visiting
    a cell.  Rectangles may overlap, so the bound is the largest rectangle's
    count, not the sum.

    Every rectangle corner must land on the grid (within the domain
    tolerance); otherwise the grid is rejected.
    """
    if not (np.isfinite(target_h) and target_h > 0):
        raise ValueError(f"target_h={target_h} is not a positive finite mesh size")
    h = float(target_h)
    ox, oy = domain.origin
    tol = domain.tolerance

    def to_index(val, origin):
        idx = round((val - origin) / h)
        if abs(origin + idx * h - val) > tol:
            return None
        return idx

    ranges = []
    for x0, y0, x1, y1 in domain.rectangles:
        r = (to_index(x0, ox), to_index(y0, oy), to_index(x1, ox), to_index(y1, oy))
        if None in r:
            raise MeshError(
                f"target_h={h} does not divide rectangle ({x0}, {y0}, {x1}, {y1}) on the common grid"
            )
        ranges.append(r)
    cells = max((i1 - i0) * (j1 - j0) for i0, j0, i1, j1 in ranges)
    return ranges, cells


def build_initial_mesh(domain: DomainSpec, target_h: float) -> PolygonalMesh:
    """Uniform square grid over the rectangle union, fracture-aligned.

    Every rectangle corner and every fracture segment must land on the
    grid (within the domain tolerance, after snapping); otherwise the
    build is rejected; so is a grid of more than `MAX_INITIAL_CELLS` cells,
    before any of it is built.

    The cells are listed in (i, j) order and the vertices numbered in
    order of first use, each cycle running (i, j), (i+1, j), (i+1, j+1),
    (i, j+1), all in array passes over the cells.  Measured on a 2-core
    machine (Python 3.11.7, numpy 2.4.6) on the domain of case1, median of
    3 fresh processes: the mesh with its validating subdivision takes
    0.10 s at 20,000 cells (8 ms of it the grid) and 0.47 s at 125,000,
    and the process peaks at 146.1, 229.2 and 394.0 MiB `ru_maxrss` at
    31,250, 62,658 and 125,000 cells, of which the imports take 61.5 MiB.
    A line through these, 63.5 MiB + 2.64 MiB per 1,000 cells, fits them
    within 0.04 MiB and gives 857 MiB at the bound of 300,000 cells: the
    bound keeps the build under 1 GiB.
    """
    ranges, n_cells = initial_grid(domain, target_h)
    if n_cells == 0:
        raise EmptyDomain("no cells produced; check rectangles against target_h")
    if n_cells > MAX_INITIAL_CELLS:
        raise GridTooLarge(f"h0={target_h} gives at least {n_cells} initial cells, above {MAX_INITIAL_CELLS}")
    h = float(target_h)
    ox, oy = domain.origin
    tol = domain.tolerance
    # cell (i, j) and its lowest corner, grid point (i, j), have key
    # i * rows + j; sorted, the keys of the union's cells list them in order
    top = (max(r[2] for r in ranges), max(r[3] for r in ranges))
    rows = top[1] + 1
    cells = np.unique(np.concatenate([
        (np.arange(i0, i1)[:, None] * rows + np.arange(j0, j1)).ravel() for i0, j0, i1, j1 in ranges
    ]))

    snapped = [_snap_fracture(fr, h, (ox, oy), tol, cells, top) for fr in domain.fractures]

    corners = (cells[:, None] + [0, rows, rows + 1, 1]).ravel()
    _, first, inverse = np.unique(corners, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the vertices in order of first use
    i, j = np.divmod(corners[first[order]], rows)
    mesh = PolygonalMesh(
        vertices=np.column_stack([ox + i * h, oy + j * h]),
        cycles=CycleTable(
            offsets=np.arange(0, corners.size + 1, 4),
            vertex=np.argsort(order)[inverse],
            hanging=np.zeros(corners.size, dtype=bool),
        ),
        fractures=snapped,
        tolerance=tol,
    )
    mesh.subdivision  # validates star-shape and fracture edge coverage
    return mesh


def _snap_fracture(fr: Fracture, h, origin, tol, cells, top) -> Fracture:
    """Snap an axis-aligned fracture polyline onto the grid; reject misfits.

    `cells` holds the sorted keys of the covered cells and `top` the
    largest grid point indices, as in `build_initial_mesh`."""
    idx = np.round((fr.points - origin) / h)
    pts = origin + idx * h
    off = np.flatnonzero((np.abs(pts - fr.points) > tol).any(axis=1))
    if off.size:
        point = tuple(fr.points[off[0]].tolist())
        raise FractureNotAligned(f"fracture point {point} is not on the grid of spacing {h}")
    idx = idx.astype(int).tolist()
    rows = top[1] + 1
    outside = "fracture segment lies on the domain boundary or outside the domain"
    for s in range(pts.shape[0] - 1):
        dx, dy = pts[s + 1] - pts[s]
        if abs(dx) > tol and abs(dy) > tol:
            a, b = tuple(fr.points[s].tolist()), tuple(fr.points[s + 1].tolist())
            raise FractureNotAligned(f"fracture segment from {a} to {b} does not follow a grid line (axis-aligned)")
        # interior check: every covered grid edge must separate two cells.
        # On the grid's points, a side cell one past its end (index -1 or
        # top) has a key no cell has.
        (i0, j0), (i1, j1) = idx[s], idx[s + 1]
        if not (0 <= min(i0, i1) and max(i0, i1) <= top[0] and 0 <= min(j0, j1) and max(j0, j1) <= top[1]):
            raise FractureNotAligned(outside)
        if abs(dx) <= tol:  # vertical
            j = np.arange(min(j0, j1), max(j0, j1))
            sides = np.concatenate([(i0 - 1) * rows + j, i0 * rows + j])
        else:
            i = np.arange(min(i0, i1), max(i0, i1)) * rows
            sides = np.concatenate([i + j0 - 1, i + j0])
        if not np.isin(sides, cells).all():
            raise FractureNotAligned(outside)
    return Fracture(points=pts, kappa_n=fr.kappa_n, kappa_t=fr.kappa_t, thickness=fr.thickness)


def subdivide(mesh: PolygonalMesh) -> Subdivision:
    """Triangulate every polygon from its vertex centroid and classify edges.

    Triangle t is cycle slot t of `mesh.cycles`.  Primal edges are numbered
    in order of their first cycle slot, dual edge n_primal + t joins slot
    t's vertex to the centroid.
    """
    nv = mesh.vertices.shape[0]
    cyc = mesh.cycles
    centroids = mesh.element_centroids
    all_vertices = np.vstack([mesh.vertices, centroids])
    tris = np.arange(cyc.vertex.size)
    a, b = cyc.vertex, cyc.vertex[cyc.next]

    p0, p1, c = mesh.vertices[a], mesh.vertices[b], centroids[cyc.polygon]
    cross = (p1[:, 0] - p0[:, 0]) * (c[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (c[:, 0] - p0[:, 0])
    elen = np.hypot(p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1])
    bad = np.flatnonzero(cross <= mesh.tolerance * elen)
    if bad.size:
        raise NotStarShaped(f"polygon {cyc.polygon[bad[0]]} is not star-shaped about its vertex centroid")
    tri_v = np.column_stack([a, b, nv + cyc.polygon])

    coords = all_vertices[tri_v]
    e01 = coords[:, 1] - coords[:, 0]
    e02 = coords[:, 2] - coords[:, 0]
    e12 = coords[:, 2] - coords[:, 1]
    area = 0.5 * (e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0])
    tri_diam = np.maximum(
        np.hypot(e01[:, 0], e01[:, 1]),
        np.maximum(np.hypot(e02[:, 0], e02[:, 1]), np.hypot(e12[:, 0], e12[:, 1])),
    )
    tri_centroid = coords.mean(axis=1)

    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _, first, inverse = np.unique(lo * nv + hi, return_index=True, return_inverse=True)
    tri_primal = np.argsort(np.argsort(first))[inverse]  # ranks of the first slots
    n_primal = first.size
    count = np.bincount(tri_primal)
    if count.max() > 2:
        slots = np.flatnonzero(tri_primal == np.argmax(count > 2))
        raise MeshError(
            f"edge ({lo[slots[0]]}, {hi[slots[0]]}) is shared by polygons "
            f"{cyc.polygon[slots].tolist()}, more than two"
        )

    ne = n_primal + tris.size  # one dual edge per (polygon, cycle vertex) == one per triangle
    edge_v = np.empty((ne, 2), dtype=int)
    edge_kind = np.empty(ne, dtype=int)
    edge_tris = np.full((ne, 2), -1, dtype=int)
    edge_frac = np.full(ne, -1, dtype=int)
    edge_seg = np.full(ne, -1, dtype=int)

    # the slots of each primal edge in slot order; INTERIOR edges may be
    # reclassified as FRACTURE below
    by_edge = np.argsort(tri_primal, kind="stable")
    head = np.cumsum(count) - count
    edge_tris[:n_primal, 0] = by_edge[head]
    edge_tris[:n_primal, 1] = np.where(count == 2, by_edge[np.minimum(head + 1, tris.size - 1)], -1)
    edge_v[:n_primal] = np.column_stack([lo, hi])[by_edge[head]]
    edge_kind[:n_primal] = np.where(count == 1, BOUNDARY, INTERIOR)

    # the dual edge of slot t is shared with the polygon's previous slot
    duals = n_primal + tris
    edge_v[duals] = tri_v[:, [0, 2]]
    edge_kind[duals] = DUAL
    edge_tris[duals] = np.column_stack([cyc.prev, tris])

    # geometry
    delta = all_vertices[edge_v[:, 1]] - all_vertices[edge_v[:, 0]]
    edge_len = np.hypot(delta[:, 0], delta[:, 1])
    edge_mid = 0.5 * (all_vertices[edge_v[:, 0]] + all_vertices[edge_v[:, 1]])
    edge_normal = np.column_stack([delta[:, 1], -delta[:, 0]]) / edge_len[:, None]

    # fracture classification of interior primal edges; a fracture edge
    # takes its segment's normal
    ends = all_vertices[edge_v[:n_primal].T]  # (2, n_primal, 2)
    tol = mesh.tolerance
    for fi, fr in enumerate(mesh.fractures):
        for s in range(fr.n_segments):
            t = fr.seg_tangents[s]
            d = ends - fr.points[s]
            off = np.abs(d[..., 0] * t[1] - d[..., 1] * t[0])
            par = d @ t
            on_seg = (off <= tol) & (par >= -tol) & (par <= fr.seg_lengths[s] + tol)
            ids = np.flatnonzero(on_seg.all(axis=0))
            lone = ids[edge_kind[ids] == BOUNDARY]
            if lone.size:
                raise FractureNotAligned(
                    f"fracture {fi} edge {lone[0]} ({edge_v[lone[0], 0]}, {edge_v[lone[0], 1]}) "
                    "lacks a bulk element on one side"
                )
            edge_kind[ids] = FRACTURE
            edge_frac[ids] = fi
            edge_seg[ids] = s
            edge_normal[ids] = fr.seg_normals[s]

    # side 1 = the side the normal points away from
    t0 = edge_tris[:, 0]
    side = np.einsum("ij,ij->i", tri_centroid[t0] - edge_mid, edge_normal)
    two = edge_tris[:, 1] >= 0
    flip_pair = two & (side > 0)
    edge_tris[flip_pair] = edge_tris[flip_pair][:, ::-1]
    flip_normal = (~two) & (side > 0)  # boundary normal points outward
    if np.any(flip_normal & (edge_kind == FRACTURE)):
        raise MeshError("fracture normal orientation lost")
    edge_normal[flip_normal] *= -1.0

    # side 0 of a triangle is its cycle edge (a, b), side 1 the dual edge at
    # b (the next triangle's), side 2 its own dual edge at a
    tri_edges = np.column_stack([tri_primal, n_primal + cyc.next, duals])
    tri_side = (edge_tris[tri_edges, 0] != tris[:, None]).astype(int)

    fracture_edges = _fracture_edge_table(mesh, all_vertices, edge_v, edge_frac, edge_seg, edge_len)

    return Subdivision(
        _mesh=weakref.ref(mesh),
        vertices=all_vertices,
        tri_vertices=tri_v,
        tri_polygon=cyc.polygon,
        tri_area=area,
        tri_centroid=tri_centroid,
        tri_diameter=tri_diam,
        edge_vertices=edge_v,
        edge_kind=edge_kind,
        edge_tris=edge_tris,
        edge_normal=edge_normal,
        edge_length=edge_len,
        edge_midpoint=edge_mid,
        tri_edges=tri_edges,
        tri_side=tri_side,
        tri_flip=tri_v > np.roll(tri_v, -1, axis=1),
        fracture_edges=fracture_edges,
        edge_fracture=edge_frac,
    )


def _fracture_edge_table(mesh, all_vertices, edge_v, edge_frac, edge_seg, edge_len) -> FractureEdgeTable:
    """Order the edges of each fracture along its polyline, orient each one
    along it and check that they chain from tip to tip."""
    # an empty block first, so that a mesh without fractures concatenates too
    rows = [(np.zeros(0, dtype=int), np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int)) + 4 * (np.zeros(0),)]
    for fi, fr in enumerate(mesh.fractures):
        ids = np.flatnonzero(edge_frac == fi)
        if ids.size == 0:
            raise FractureNotAligned(f"fracture {fi} is not covered by any mesh edge")
        par = fr.param_of(all_vertices[edge_v[ids].ravel()]).reshape(-1, 2)
        order = np.argsort(par.sum(axis=1), kind="stable")
        ids, par = ids[order], par[order]
        ends = np.take_along_axis(edge_v[ids], np.argsort(par, axis=1), axis=1)
        if np.any(ends[1:, 0] != ends[:-1, 1]):
            raise FractureNotAligned(f"fracture {fi} mesh edges do not chain contiguously")
        gap = all_vertices[[ends[0, 0], ends[-1, 1]]] - fr.points[[0, -1]]
        if np.hypot(*gap.T).max() > mesh.tolerance:
            raise FractureNotAligned(f"fracture {fi} mesh does not span tip to tip")
        seg = edge_seg[ids]
        arclength = np.concatenate([[0.0], np.cumsum(edge_len[ids][:-1])])
        thickness = np.full(ids.size, fr.thickness)
        rows.append((ids, ends, seg, arclength, thickness, fr.normal_resistance[seg], fr.kappa_t[seg] * fr.thickness))
    offsets = np.cumsum([0] + [r[0].size for r in rows[1:]])
    return FractureEdgeTable(offsets, *(np.concatenate(column) for column in zip(*rows)))


def refine(mesh: PolygonalMesh, marked) -> PolygonalMesh:
    """Quad-refine the marked polygons; returns a new mesh.

    Each marked polygon is split by connecting its area centroid to the
    midpoints of its original sides, one child quad per original corner.
    An absorbed hanging node already sits at the midpoint of its side (the
    closure rule allows at most one per side), so the side splits there
    and no new vertex appears; descendants of rectangles therefore stay
    rectangles and shape regularity does not drift across generations.

    Closure extends the marked set so that no original edge of a
    surviving polygon ever carries two hanging nodes.  `marked` holds
    integer element ids; a boolean mask or a float id is a ValueError.

    Every other polygon keeps its cycle, with a neighbour's new midpoint
    absorbed on each split side.  One with no split side is copied
    unchanged, vertex ids and hanging flags included, and the new mesh's
    `kept_from` gives its old id.  New cycles follow the old slot order,
    so the kept polygons keep their relative order.
    """
    marked = np.asarray(marked)
    if marked.size == 0:
        return mesh
    if not np.issubdtype(marked.dtype, np.integer):
        raise ValueError(f"marked entry {marked.flat[0].item()!r} is not an integer element id")
    out_of_range = marked[(marked < 0) | (marked >= mesh.n_elements)]
    if out_of_range.size:
        raise ValueError(f"marked element {out_of_range[0]} out of range")
    cyc = mesh.cycles
    closed_polygons = _closure(mesh, marked)
    closed = closed_polygons[cyc.polygon]
    hang, nxt, prev = cyc.hanging, cyc.next, cyc.prev
    edge = mesh.subdivision.tri_edges[:, 0]
    nv = mesh.vertices.shape[0]

    # one midpoint per split edge, numbered by its first split slot; the
    # sides of a refined polygon split at their absorbed hanging node if any
    split = np.flatnonzero(closed & ~hang & ~hang[nxt])
    split = split[np.sort(np.unique(edge[split], return_index=True)[1])]
    mid = np.full(edge.max() + 1, -1)
    mid[edge[split]] = nv + np.arange(split.size)
    mids = 0.5 * (mesh.vertices[cyc.vertex[split]] + mesh.vertices[cyc.vertex[nxt[split]]])

    # area centroids: insensitive to absorbed (flat) cycle vertices, which
    # keeps child shapes from drifting under repeated hanging node
    # absorption.  Each cycle sums as one row, in the order (pairwise
    # beyond 7 terms) of a per-polygon sum.
    refined = np.flatnonzero(closed_polygons)
    centroids = np.empty((refined.size, 2))
    for sel, slots in _cycle_blocks(cyc, refined):
        p, q = mesh.vertices[cyc.vertex[slots]], mesh.vertices[cyc.vertex[nxt[slots]]]
        w = p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1]
        area6 = 3.0 * w.sum(axis=1)
        centroids[sel, 0] = ((p[..., 0] + q[..., 0]) * w).sum(axis=1) / area6
        centroids[sel, 1] = ((p[..., 1] + q[..., 1]) * w).sum(axis=1) / area6
    centroid = np.full(mesh.n_elements, -1)
    centroid[refined] = nv + split.size + np.arange(refined.size)

    # per slot, the candidate entries [v0, absorbed mid, v1, c, v3, absorbed
    # mid] of the new cycles, which follow the old slot order; an unrefined
    # slot uses the first two, a corner slot all six (child v0 v1 c v3 with
    # the midpoints a same-pass neighbour put on its outer half sides), a
    # hanging refined slot none
    corner = closed & ~hang
    side_mid, prev_mid = mid[edge], mid[edge[prev]]
    v1 = np.where(hang[nxt], cyc.vertex[nxt], side_mid)
    v3 = np.where(hang[prev], cyc.vertex[prev], prev_mid)
    entry = np.column_stack([cyc.vertex, side_mid, v1, centroid[cyc.polygon], v3, prev_mid])
    after_v0 = (side_mid >= 0) & (~closed | corner & hang[nxt])
    after_v3 = corner & hang[prev] & (prev_mid >= 0)
    keep = np.column_stack([~closed | corner, after_v0, corner, corner, corner, after_v3])
    flag = np.zeros_like(keep)
    flag[:, 0] = hang
    flag[:, [1, 5]] = True
    size = keep.sum(axis=1)
    start = np.cumsum(size) - size
    # a new cycle starts at each corner slot and each unrefined polygon's first slot
    first = corner | (~closed & (np.arange(hang.size) == cyc.offsets[cyc.polygon]))
    cycles = CycleTable(offsets=np.append(start[first], size.sum()), vertex=entry[keep], hanging=flag[keep])
    split_side = np.bincount(cyc.polygon, side_mid >= 0, minlength=mesh.n_elements) > 0
    unchanged = np.flatnonzero(~closed_polygons & ~split_side)
    kept_from = np.full(cycles.lengths.size, -1)
    kept_from[(np.cumsum(first) - 1)[cyc.offsets[unchanged]]] = unchanged
    return PolygonalMesh(
        np.vstack([mesh.vertices, mids, centroids]), cycles, mesh.fractures, mesh.tolerance, mesh, kept_from
    )


def _closure(mesh: PolygonalMesh, marked) -> np.ndarray:
    """Least superset of `marked` (as a mask over polygons) in which no
    unmarked polygon has a marked neighbour across a cycle edge that ends
    at one of its own hanging nodes; refining that neighbour would put a
    second hanging node on the side."""
    sub = mesh.subdivision
    cyc = mesh.cycles
    pairs = sub.edge_tris[(sub.edge_kind == INTERIOR) | (sub.edge_kind == FRACTURE)]
    side_hangs = (cyc.hanging | cyc.hanging[cyc.next])[pairs]
    poly = sub.tri_polygon[pairs]
    src, dst = poly[:, ::-1][side_hangs], poly[side_hangs]
    closed = np.zeros(mesh.n_elements, dtype=bool)
    closed[marked] = True
    while True:
        new = dst[closed[src] & ~closed[dst]]
        if new.size == 0:
            return closed
        closed[new] = True


@dataclass(frozen=True)
class RegularityReport:
    """Shape-regularity summary of a polygonal mesh."""

    rho_S: float  # min inscribed-ball radius / element diameter
    rho_E: float  # min cycle-edge length / element diameter
    h_max: float
    h_min: float


def check_regularity(mesh: PolygonalMesh) -> RegularityReport:
    """Exact regularity minima over all elements (deterministic)."""
    diam = mesh.element_diameters
    cycles = np.split(mesh.cycles.vertex, mesh.cycles.offsets[1:-1])
    rho_s = min(_inscribed_radius(mesh.vertices[cyc], mesh.tolerance) / d for cyc, d in zip(cycles, diam))
    return RegularityReport(
        rho_S=float(rho_s),
        rho_E=mesh.rho_E,
        h_max=float(diam.max()),
        h_min=float(diam.min()),
    )


def _inscribed_radius(pts: np.ndarray, tol: float) -> float:
    """Largest inscribed ball radius of a CCW polygon.

    Exact for convex polygons (optimum of the Chebyshev LP sits on three
    active edge lines; all triples are enumerated). Non-convex elements
    fall back to a sampled lower bound.
    """
    n = pts.shape[0]
    e = np.roll(pts, -1, axis=0) - pts
    elen = np.hypot(e[:, 0], e[:, 1])
    inward = np.column_stack([-e[:, 1], e[:, 0]]) / elen[:, None]
    b = np.einsum("ij,ij->i", inward, pts)
    cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    convex = np.all(cross >= -tol * elen * np.roll(elen, -1))
    if not convex:
        # sampled lower bound: min distance to boundary segments over a fan
        # of points between the vertex centroid and the vertices
        c = pts.mean(axis=0)
        best = 0.0
        for lam in np.linspace(0.0, 0.9, 8):
            for q in c + lam * (pts - c):
                d = q - pts
                t = np.clip((d * e).sum(axis=1) / (elen * elen), 0.0, 1.0)
                foot = pts + t[:, None] * e
                best = max(best, float(np.hypot(*(q - foot).T).min()))
        return best
    scale = elen.max()
    best = 0.0
    for i, j, k in itertools.combinations(range(n), 3):
        A = np.array(
            [
                [inward[i, 0], inward[i, 1], -1.0],
                [inward[j, 0], inward[j, 1], -1.0],
                [inward[k, 0], inward[k, 1], -1.0],
            ]
        )
        det = np.linalg.det(A)
        if abs(det) < 1e-14 * scale:
            continue
        x = np.linalg.solve(A, np.array([b[i], b[j], b[k]]))
        r = x[2]
        if r <= best:
            continue
        if np.all(inward @ x[:2] - b >= r - 1e-9 * scale):
            best = r
    return float(best)
