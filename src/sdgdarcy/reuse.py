"""Per-triangle and per-polygon data carried from a mesh to its refinement.

`refine` copies every polygon that it neither refines nor splits a side of
unchanged into the new mesh, and `PolygonalMesh.kept_from` gives its old id.
A `BlockCache` holds the arrays the stages computed on the mesh it was last
used on.  When a stage asks for them on that mesh's refinement, the rows of
the kept polygons come from the cache and the stage computes the others.
See `adaptivity` for what is carried and why the result is bit-equal.
"""

from __future__ import annotations

import numpy as np


def group_rows(key: np.ndarray):
    """(first, label): the rows of `key` (n, w) grouped by byte equality,
    so -0.0 and 0.0 stay apart; `first` holds the first row of each class
    and label[i] is the class of row i, key[first[label]] == key."""
    rows = np.ascontiguousarray(key).view(np.dtype((np.void, key.dtype.itemsize * key.shape[1])))[:, 0]
    _, first, label = np.unique(rows, return_index=True, return_inverse=True)
    return first, label.ravel()


class BlockCache:
    """Arrays of one mesh, kept for its refinement.

    Each name holds a tuple of arrays with one row per triangle, or, per
    triangle count n, with one row per polygon of a chunk: a list of
    polygons with n triangles.  On the refinement of the mesh, the rows of
    the kept polygons of all chunks of one count become one carried chunk,
    and everything else is dropped.  An empty cache carries nothing.  A name
    must stand for the same computation on every mesh, so one cache serves
    one loop: one problem at one order.
    """

    def __init__(self):
        self.mesh = None
        self._kept = None  # (n_elements,) bool: polygon carried from the previous mesh
        self._triangles = {}  # name -> arrays on self.mesh
        self._chunks = {}  # (name, n) -> [(polygon ids, arrays)] on self.mesh
        self._carried_triangles = {}  # name -> rows of the kept polygons' triangles
        self._carried_chunks = {}  # (name, n) -> (polygon ids, arrays) of the kept polygons

    def _bind(self, mesh) -> None:
        """Make `mesh` current: carry the rows of its kept polygons, drop the rest."""
        if mesh is self.mesh:
            return
        old, self.mesh = self.mesh, mesh
        self._kept = mesh.kept_from >= 0
        if old is None or mesh.parent is not old:
            self._kept[:] = False
        triangles, chunks = self._triangles, self._chunks
        self._triangles, self._chunks, self._carried_triangles, self._carried_chunks = {}, {}, {}, {}
        if not self._kept.any():
            return
        new_id = np.full(old.n_elements, -1)
        new_id[mesh.kept_from[self._kept]] = np.flatnonzero(self._kept)
        sel = new_id[old.cycles.polygon] >= 0
        for name, arrays in triangles.items():
            self._carried_triangles[name] = tuple(a[sel] for a in arrays)
        for key, parts in chunks.items():
            rows = [np.flatnonzero(new_id[ids] >= 0) for ids, _ in parts]
            ids = np.concatenate([new_id[ids[r]] for (ids, _), r in zip(parts, rows)])
            if not ids.size:
                continue
            carried = []
            for j, first in enumerate(parts[0][1]):
                a = np.empty((ids.size,) + first.shape[1:], dtype=first.dtype)
                end = 0
                for (_, arrays), r in zip(parts, rows):
                    np.take(arrays[j], r, axis=0, out=a[end : end + r.size], mode="clip")
                    end += r.size
                carried.append(a)
            self._carried_chunks[key] = (ids, tuple(carried))

    def triangles(self, mesh, name: str, compute) -> tuple:
        """The arrays `name`, one row per triangle of `mesh`: rows of kept
        polygons carried, compute(triangle ids) for the others.  Asked for
        twice on one mesh, they are computed once."""
        self._bind(mesh)
        if name in self._triangles:
            return self._triangles[name]
        carried = self._carried_triangles.get(name)
        kept = self._kept[mesh.cycles.polygon]
        if carried is None:
            kept[:] = False
        new = np.flatnonzero(~kept)
        if new.size == 0:
            out = carried
        elif carried is None:
            out = tuple(compute(new))
        else:
            out = []
            for fresh, old in zip(compute(new), carried):
                a = np.empty((kept.size,) + fresh.shape[1:], dtype=fresh.dtype)
                a[new] = fresh
                a[kept] = old
                out.append(a)
            out = tuple(out)
        self._triangles[name] = out
        return out

    def split(self, mesh, name: str, polygons: np.ndarray) -> list:
        """`polygons`, all with one triangle count, as chunks: the ones
        carried for `name` in the cache's order, then the others."""
        self._bind(mesh)
        carried = self._carried_chunks.get((name, int(mesh.cycles.lengths[polygons[0]])))
        if carried is None:
            return [polygons]
        rest = np.ones(mesh.n_elements, dtype=bool)
        rest[carried[0]] = False
        return [c for c in (carried[0], polygons[rest[polygons]]) if c.size]

    def polygons(self, mesh, name: str, ids: np.ndarray, compute) -> tuple:
        """The arrays `name` of one chunk `ids`, one row per polygon: the
        carried chunk when `ids` is it, else compute()."""
        self._bind(mesh)
        key = (name, int(mesh.cycles.lengths[ids[0]]))
        chunks = self._chunks.setdefault(key, [])
        for done, arrays in chunks:
            if np.array_equal(done, ids):
                return arrays
        carried = self._carried_chunks.get(key)
        if carried is not None and np.array_equal(carried[0], ids):
            arrays = carried[1]
        else:
            arrays = tuple(compute())
        chunks.append((ids, arrays))
        return arrays
