"""Polygonal meshes aligned with fractures, simplicial subdivision, and
hanging-node quad refinement.

The primal mesh is a set of star-shaped polygons (CCW vertex cycles).
Subdivision connects each polygon's vertex centroid to its cycle
vertices, producing one triangle per cycle edge; the interior
centroid-to-vertex edges form the dual edge family. Refinement replaces
a marked polygon by quads (centroid to edge midpoints); midpoints shared
with unrefined neighbours are absorbed as flat vertices, at most one per
original edge (closure marks the neighbour otherwise).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyDomain, FractureNotAligned, MeshError, NotStarShaped

# edge kinds
BOUNDARY = 0  # on the domain boundary, one adjacent triangle
INTERIOR = 1  # interior primal edge, pressure-continuous
FRACTURE = 2  # lies on a fracture segment
DUAL = 3  # centroid-to-vertex edge created by subdivision


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
            raise ValueError("fracture needs at least two polyline points of shape (m+1, 2)")
        kn = np.broadcast_to(np.asarray(self.kappa_n, dtype=float), (pts.shape[0] - 1,)).copy()
        kt = np.broadcast_to(np.asarray(self.kappa_t, dtype=float), (pts.shape[0] - 1,)).copy()
        if not (np.all(np.isfinite(kn)) and np.all(kn > 0)):
            raise ValueError("kappa_n must be positive and finite per segment")
        if not (np.all(np.isfinite(kt)) and np.all(kt > 0)):
            raise ValueError("kappa_t must be positive and finite per segment")
        if not (np.isfinite(self.thickness) and self.thickness > 0):
            raise ValueError("fracture thickness must be positive")
        seg = pts[1:] - pts[:-1]
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(lengths <= 0):
            raise ValueError("fracture polyline has a zero-length segment")
        if _polyline_self_intersects(pts):
            raise ValueError("fracture polyline intersects itself")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "kappa_n", kn)
        object.__setattr__(self, "kappa_t", kt)

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

    @property
    def tangential_conductivity(self) -> np.ndarray:
        """kappa_t * thickness per segment: effective along-fracture conductivity."""
        return self.kappa_t * self.thickness

    def param_of(self, pts: np.ndarray) -> np.ndarray:
        """Arc-length parameter of points assumed to lie on the polyline."""
        pts = np.atleast_2d(pts)
        best = np.full(pts.shape[0], np.inf)
        par = np.zeros(pts.shape[0])
        for s in range(self.n_segments):
            a = self.points[s]
            t = self.seg_tangents[s]
            d = pts - a
            proj = np.clip(d @ t, 0.0, self.seg_lengths[s])
            foot = a + proj[:, None] * t
            dist = np.hypot(*(pts - foot).T)
            better = dist < best
            best = np.where(better, dist, best)
            par = np.where(better, self.arclength[s] + proj, par)
        return par

    def segment_of(self, pts: np.ndarray) -> np.ndarray:
        """Index of the segment containing each point (midpoints expected)."""
        par = self.param_of(pts)
        idx = np.searchsorted(self.arclength, par, side="right") - 1
        return np.clip(idx, 0, self.n_segments - 1)


def _segments_intersect(p0, p1, q0, q1, tol):
    """True if closed segments [p0,p1] and [q0,q1] intersect beyond shared endpoints."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q0, q1, p0)
    d2 = orient(q0, q1, p1)
    d3 = orient(p0, p1, q0)
    d4 = orient(p0, p1, q1)
    if ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and (
        (d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)
    ):
        return True
    return False


def _polyline_self_intersects(pts: np.ndarray) -> bool:
    n = pts.shape[0] - 1
    scale = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1.0)
    tol = 1e-12 * scale * scale
    for i in range(n):
        for j in range(i + 2, n):
            if _segments_intersect(pts[i], pts[i + 1], pts[j], pts[j + 1], tol):
                return True
    return False


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned rectangle union with embedded fracture polylines."""

    rectangles: tuple
    fractures: tuple = ()

    def __post_init__(self):
        rects = tuple(tuple(float(c) for c in r) for r in self.rectangles)
        if not rects:
            raise EmptyDomain("domain outline has no rectangles")
        for r in rects:
            if len(r) != 4 or r[2] <= r[0] or r[3] <= r[1]:
                raise ValueError(f"malformed rectangle {r!r}; expected (x0, y0, x1, y1)")
        fracs = tuple(self.fractures)
        tol = 1e-12 * self._diameter_of(rects)
        for i, fa in enumerate(fracs):
            for fb in fracs[i + 1 :]:
                for s in range(fa.n_segments):
                    for t in range(fb.n_segments):
                        if _segments_intersect(
                            fa.points[s], fa.points[s + 1], fb.points[t], fb.points[t + 1], tol
                        ):
                            raise ValueError("fractures must be pairwise non-intersecting")
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
    holds cycle vertex `vertex[s]`, and `next[s]` is the slot of the
    following cycle vertex.  Slot s is also subdivision triangle s, the one
    on cycle edge (vertex[s], vertex[next[s]]).
    """

    offsets: np.ndarray  # (np+1,)
    vertex: np.ndarray  # (ns,) vertex id per slot
    next: np.ndarray  # (ns,) slot of the next cycle vertex
    polygon: np.ndarray  # (ns,) owning polygon per slot
    hanging: np.ndarray  # (ns,) bool: vertex[s] is an absorbed hanging node of polygon[s]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)


class PolygonalMesh:
    """Immutable star-shaped polygon mesh; refinement returns a new mesh.

    vertices : (nv, 2) coordinates.
    polygons : tuple of CCW vertex-index cycles (absorbed hanging nodes
        appear as flat cycle vertices).
    hanging : per polygon, the frozenset of cycle vertices absorbed as
        hanging nodes since the polygon was created.
    fractures : snapped fracture polylines carried through refinement.
    """

    def __init__(self, vertices, polygons, hanging, fractures, tolerance):
        self.vertices = np.asarray(vertices, dtype=float)
        self.vertices.setflags(write=False)
        self.polygons = tuple(tuple(int(v) for v in cyc) for cyc in polygons)
        self.hanging = tuple(frozenset(h) for h in hanging)
        self.fractures = tuple(fractures)
        self.tolerance = float(tolerance)
        if len(self.polygons) == 0:
            raise EmptyDomain("mesh has no elements")
        if len(self.hanging) != len(self.polygons):
            raise MeshError("hanging bookkeeping out of sync with polygons")
        self.cycles  # validates the cycles

    @property
    def n_elements(self) -> int:
        return len(self.polygons)

    @cached_property
    def cycles(self) -> CycleTable:
        """The flat cycle table; rejects a polygon whose cycle has fewer than
        3 vertices or a vertex id out of range."""
        nv = self.vertices.shape[0]
        lengths = np.array([len(cyc) for cyc in self.polygons])
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        vertex = np.array([v for cyc in self.polygons for v in cyc], dtype=int)
        polygon = np.repeat(np.arange(self.n_elements), lengths)
        bad = np.union1d(np.flatnonzero(lengths < 3), polygon[(vertex < 0) | (vertex >= nv)])
        if bad.size:
            p = bad[0]
            raise MeshError(f"polygon {p} has cycle {self.polygons[p]}, not 3+ vertex ids in 0..{nv - 1}")
        hanging = np.array(
            [v in h for cyc, h in zip(self.polygons, self.hanging) for v in cyc], dtype=bool
        )
        nxt = np.arange(1, offsets[-1] + 1)
        nxt[offsets[1:] - 1] = offsets[:-1]
        return CycleTable(offsets=offsets, vertex=vertex, next=nxt, polygon=polygon, hanging=hanging)

    @cached_property
    def element_centroids(self) -> np.ndarray:
        """Arithmetic mean of each polygon's cycle vertices (subdivision point)."""
        cyc = self.cycles
        out = np.add.reduceat(self.vertices[cyc.vertex], cyc.offsets[:-1], axis=0)
        out /= cyc.lengths[:, None]
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
        c = self.element_centroids
        best = np.full(self.n_elements, np.inf)
        sign = np.zeros(self.n_elements)
        for fr in self.fractures:
            for s in range(fr.n_segments):
                a, t, n = fr.points[s], fr.seg_tangents[s], fr.seg_normals[s]
                d = c - a
                proj = np.clip(d @ t, 0.0, fr.seg_lengths[s])
                foot = a + proj[:, None] * t
                gap = c - foot
                dist = np.hypot(gap[:, 0], gap[:, 1])
                better = dist < best
                best = np.where(better, dist, best)
                sign = np.where(better, gap @ n, sign)
        return np.where(sign <= 0, 1, 2)

    @cached_property
    def subdivision(self) -> "Subdivision":
        return subdivide(self)


@dataclass(frozen=True)
class FractureLineMesh:
    """1D mesh induced on one fracture by the bulk edges lying on it."""

    fracture_index: int
    edge_ids: np.ndarray  # (ne,) global edge ids ordered along the polyline
    vertex_ids: np.ndarray  # (ne+1,) ordered vertex ids, tips first/last
    edge_segment: np.ndarray  # (ne,) fracture segment index per edge
    edge_tangent: np.ndarray  # (ne, 2) unit tangent in polyline direction
    edge_length: np.ndarray  # (ne,)
    vertex_arclength: np.ndarray  # (ne+1,) arclength at vertex_ids, 0 at the start tip

    @property
    def n_edges(self) -> int:
        return self.edge_ids.shape[0]

    @property
    def interior_vertex_ids(self) -> np.ndarray:
        return self.vertex_ids[1:-1]

    @property
    def h_vertex(self) -> np.ndarray:
        """Per interior vertex: max length of the two adjacent fracture edges."""
        return np.maximum(self.edge_length[:-1], self.edge_length[1:])


@dataclass(frozen=True)
class Subdivision:
    """Simplicial subdivision of a polygonal mesh with its edge families."""

    mesh: PolygonalMesh
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
    fracture_meshes: tuple
    edge_fracture: np.ndarray  # (ne,) fracture index or -1

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

    def fracture_points(self, fi: int, ts: np.ndarray):
        """Points (ne, nq, 2) and arclength parameters (ne, nq) at parameters
        ts along each edge of fracture fi, in polyline direction."""
        fm = self.fracture_meshes[fi]
        a = self.vertices[fm.vertex_ids[:-1]]
        b = self.vertices[fm.vertex_ids[1:]]
        pts = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
        par = fm.vertex_arclength[:-1, None] + ts[None, :] * fm.edge_length[:, None]
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


def build_initial_mesh(domain: DomainSpec, target_h: float) -> PolygonalMesh:
    """Uniform square grid over the rectangle union, fracture-aligned.

    Every rectangle corner and every fracture segment must land on the
    grid (within the domain tolerance, after snapping); otherwise the
    build is rejected.
    """
    if not (np.isfinite(target_h) and target_h > 0):
        raise ValueError("target_h must be positive")
    h = float(target_h)
    ox, oy = domain.origin
    tol = domain.tolerance

    def to_index(val, origin):
        idx = round((val - origin) / h)
        if abs(origin + idx * h - val) > tol:
            return None
        return idx

    cells = set()
    for x0, y0, x1, y1 in domain.rectangles:
        i0, j0, i1, j1 = (to_index(x0, ox), to_index(y0, oy), to_index(x1, ox), to_index(y1, oy))
        if None in (i0, j0, i1, j1):
            raise MeshError(
                f"target_h={h} does not divide rectangle ({x0}, {y0}, {x1}, {y1}) on the common grid"
            )
        for i in range(i0, i1):
            for j in range(j0, j1):
                cells.add((i, j))
    if not cells:
        raise EmptyDomain("no cells produced; check rectangles against target_h")

    snapped = [_snap_fracture(fr, h, ox, oy, tol, cells) for fr in domain.fractures]

    vid = {}
    coords = []

    def vertex(i, j):
        key = (i, j)
        if key not in vid:
            vid[key] = len(coords)
            coords.append((ox + i * h, oy + j * h))
        return vid[key]

    polygons = []
    for i, j in sorted(cells):
        polygons.append((vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1), vertex(i, j + 1)))

    mesh = PolygonalMesh(
        vertices=np.array(coords, dtype=float),
        polygons=polygons,
        hanging=[frozenset()] * len(polygons),
        fractures=snapped,
        tolerance=tol,
    )
    mesh.subdivision  # validates star-shape and fracture edge coverage
    return mesh


def _snap_fracture(fr: Fracture, h, ox, oy, tol, cells) -> Fracture:
    """Snap an axis-aligned fracture polyline onto the grid; reject misfits."""
    pts = fr.points.copy()
    for p in range(pts.shape[0]):
        for c, o in ((0, ox), (1, oy)):
            idx = round((pts[p, c] - o) / h)
            if abs(o + idx * h - pts[p, c]) > tol:
                raise FractureNotAligned(
                    f"fracture point {tuple(fr.points[p])} is not on the grid of spacing {h}"
                )
            pts[p, c] = o + idx * h
    for s in range(pts.shape[0] - 1):
        dx, dy = pts[s + 1] - pts[s]
        if abs(dx) > tol and abs(dy) > tol:
            raise FractureNotAligned("fracture segments must follow grid lines (axis-aligned)")
        # interior check: every covered grid edge must separate two cells
        i0 = round((pts[s, 0] - ox) / h)
        j0 = round((pts[s, 1] - oy) / h)
        i1 = round((pts[s + 1, 0] - ox) / h)
        j1 = round((pts[s + 1, 1] - oy) / h)
        if abs(dx) <= tol:  # vertical
            for j in range(min(j0, j1), max(j0, j1)):
                if ((i0 - 1, j) not in cells) or ((i0, j) not in cells):
                    raise FractureNotAligned(
                        "fracture segment lies on the domain boundary or outside the domain"
                    )
        else:
            for i in range(min(i0, i1), max(i0, i1)):
                if ((i, j0 - 1) not in cells) or ((i, j0) not in cells):
                    raise FractureNotAligned(
                        "fracture segment lies on the domain boundary or outside the domain"
                    )
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
        raise MeshError("an edge is shared by more than two polygons")

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
    prev = np.empty_like(cyc.next)
    prev[cyc.next] = tris
    duals = n_primal + tris
    edge_v[duals] = tri_v[:, [0, 2]]
    edge_kind[duals] = DUAL
    edge_tris[duals] = np.column_stack([prev, tris])

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
            if np.any(edge_kind[ids] == BOUNDARY):
                raise FractureNotAligned("fracture edge lacks a bulk element on one side")
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

    fr_meshes = _build_fracture_meshes(mesh, all_vertices, edge_v, edge_kind, edge_frac, edge_seg, edge_len)

    return Subdivision(
        mesh=mesh,
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
        fracture_meshes=fr_meshes,
        edge_fracture=edge_frac,
    )


def _build_fracture_meshes(mesh, all_vertices, edge_v, edge_kind, edge_frac, edge_seg, edge_len):
    out = []
    for fi, fr in enumerate(mesh.fractures):
        ids = np.flatnonzero((edge_kind == FRACTURE) & (edge_frac == fi))
        if ids.size == 0:
            raise FractureNotAligned(f"fracture {fi} is not covered by any mesh edge")
        par = fr.param_of(all_vertices[edge_v[ids].ravel()]).reshape(-1, 2)
        # order the edges along the polyline, orient each one along it and
        # chain them
        order = np.argsort(par.sum(axis=1), kind="stable")
        ids, par = ids[order], par[order]
        lo, hi = np.take_along_axis(edge_v[ids], np.argsort(par, axis=1), axis=1).T
        if np.any(lo[1:] != hi[:-1]):
            raise FractureNotAligned(f"fracture {fi} mesh edges do not chain contiguously")
        vids = np.concatenate([lo[:1], hi])
        if (
            np.hypot(*(all_vertices[vids[0]] - fr.points[0])) > mesh.tolerance
            or np.hypot(*(all_vertices[vids[-1]] - fr.points[-1])) > mesh.tolerance
        ):
            raise FractureNotAligned(f"fracture {fi} mesh does not span tip to tip")
        out.append(
            FractureLineMesh(
                fracture_index=fi,
                edge_ids=ids,
                vertex_ids=vids,
                edge_segment=edge_seg[ids],
                edge_tangent=fr.seg_tangents[edge_seg[ids]],
                edge_length=edge_len[ids],
                vertex_arclength=np.concatenate([[0.0], np.cumsum(edge_len[ids])]),
            )
        )
    return tuple(out)


def refine(mesh: PolygonalMesh, marked) -> PolygonalMesh:
    """Quad-refine the marked polygons; returns a new mesh.

    Each marked polygon is split by connecting its area centroid to the
    midpoints of its original sides, one child quad per original corner.
    An absorbed hanging node already sits at the midpoint of its side (the
    closure rule allows at most one per side), so the side splits there
    and no new vertex appears; descendants of rectangles therefore stay
    rectangles and shape regularity does not drift across generations.

    Closure extends the marked set so that no original edge of a
    surviving polygon ever carries two hanging nodes.
    """
    marked = set(int(m) for m in marked)
    for m in marked:
        if not (0 <= m < mesh.n_elements):
            raise ValueError(f"marked element {m} out of range")
    if not marked:
        return mesh
    closed = _closure(mesh, list(marked))

    coords = [tuple(xy) for xy in mesh.vertices]
    midpoint = {}

    def mid_of(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            midpoint[key] = len(coords)
            coords.append(
                (
                    0.5 * (coords[a][0] + coords[b][0]),
                    0.5 * (coords[a][1] + coords[b][1]),
                )
            )
        return midpoint[key]

    # create all fresh side midpoints of marked polygons first; cycle edges
    # touching an absorbed vertex are halves of a side that splits there
    for p in np.flatnonzero(closed).tolist():
        cyc = mesh.polygons[p]
        n = len(cyc)
        hang = mesh.hanging[p]
        for i in range(n):
            a, b = cyc[i], cyc[(i + 1) % n]
            if a not in hang and b not in hang:
                mid_of(a, b)

    new_polys = []
    new_hang = []
    for p, cyc in enumerate(mesh.polygons):
        n = len(cyc)
        if not closed[p]:
            out = []
            extra = set(mesh.hanging[p])
            for i in range(n):
                a, b = cyc[i], cyc[(i + 1) % n]
                out.append(a)
                key = (a, b) if a < b else (b, a)
                if key in midpoint:
                    m = midpoint[key]
                    out.append(m)
                    extra.add(m)
            new_polys.append(tuple(out))
            new_hang.append(frozenset(extra))
        else:
            c_id = len(coords)
            pts = mesh.vertices[list(cyc)]
            # area centroid: insensitive to absorbed (flat) cycle vertices,
            # which keeps child shapes from drifting under repeated hanging
            # node absorption
            nxt = np.roll(pts, -1, axis=0)
            w = pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]
            area6 = 3.0 * w.sum()
            coords.append(
                (
                    float(((pts[:, 0] + nxt[:, 0]) * w).sum() / area6),
                    float(((pts[:, 1] + nxt[:, 1]) * w).sum() / area6),
                )
            )
            hang = mesh.hanging[p]
            corners = [i for i in range(n) if cyc[i] not in hang]
            m = len(corners)
            splits = []
            for idx in range(m):
                i, j = corners[idx], corners[(idx + 1) % m]
                between = (i + 1) % n
                if between == j:
                    splits.append(mid_of(cyc[i], cyc[j]))
                else:
                    splits.append(cyc[between])  # side splits at the absorbed vertex
            for idx in range(m):
                v0, v1, v3 = cyc[corners[idx]], splits[idx], splits[idx - 1]
                child = [v0, v1, c_id, v3]
                extra = set()
                # a same-pass neighbor refining across a half side may have
                # put a midpoint on an outer child edge; absorb it (keys hold
                # only pre-existing vertex pairs, fresh splits never match)
                key = (v0, v1) if v0 < v1 else (v1, v0)
                if key in midpoint:
                    child.insert(1, midpoint[key])
                    extra.add(midpoint[key])
                key = (v3, v0) if v3 < v0 else (v0, v3)
                if key in midpoint:
                    child.append(midpoint[key])
                    extra.add(midpoint[key])
                new_polys.append(tuple(child))
                new_hang.append(frozenset(extra))

    return PolygonalMesh(
        vertices=np.array(coords, dtype=float),
        polygons=new_polys,
        hanging=new_hang,
        fractures=mesh.fractures,
        tolerance=mesh.tolerance,
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

    def ok(self, rho_S_floor: float = 0.0, rho_E_floor: float = 0.0) -> bool:
        return self.rho_S >= rho_S_floor and self.rho_E >= rho_E_floor


def check_regularity(mesh: PolygonalMesh) -> RegularityReport:
    """Exact regularity minima over all elements (deterministic)."""
    diam = mesh.element_diameters
    rho_s = min(
        _inscribed_radius(mesh.vertices[list(cyc)], mesh.tolerance) / d
        for cyc, d in zip(mesh.polygons, diam)
    )
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
