"""Per-triangle data carried from a mesh to its refinement, and the
grouping of polygons into classes.

`refine` copies every polygon that it neither refines nor splits a side of
unchanged into the new mesh, and `PolygonalMesh.kept_from` gives its old id.
A `BlockCache` holds the per-triangle arrays the stages computed on the mesh
it was last used on.  When a stage asks for them on that mesh's refinement,
the rows of the kept polygons' triangles come from the cache and the stage
computes the others.

Per-polygon arrays are shared by content within one mesh instead: a stage
keys every polygon on all inputs of its arrays, and `group_rows` makes the
polygons of equal keys one class, computed once.  Nothing per polygon
crosses from one mesh to the next.  See `adaptivity` for what is carried
and shared, and why the result is bit-equal.
"""

from __future__ import annotations

import numpy as np


def group_rows(key: np.ndarray):
    """(first, label): the rows of `key` (n, w) grouped by byte equality,
    so -0.0 and 0.0 stay apart, with the classes in order of appearance;
    `first` holds the first row of each class and label[i] is the class of
    row i, key[first[label]] == key."""
    rows = np.ascontiguousarray(key).view(np.dtype((np.void, key.dtype.itemsize * key.shape[1])))[:, 0].tolist()
    index = {}  # hashing the row bytes is faster than sorting them
    label = np.fromiter((index.setdefault(r, len(index)) for r in rows), dtype=np.int64, count=key.shape[0])
    return np.unique(label, return_index=True)[1], label


class BlockCache:
    """Per-triangle arrays of one mesh, kept for its refinement.

    Each name holds a tuple of arrays with one row per triangle; on the
    refinement of the mesh, the rows of the kept polygons' triangles are
    carried until the name is asked for, and the rest dropped.  An empty
    cache carries nothing.  A name must stand for the same computation on
    every mesh, so one cache serves one loop: one problem at one order.
    """

    def __init__(self):
        self.mesh = None
        self._kept = None  # (n_elements,) bool: polygon carried from the previous mesh
        self._triangles = {}  # name -> arrays on self.mesh
        self._carried_triangles = {}  # name -> rows of the kept polygons' triangles

    def _bind(self, mesh) -> None:
        """Make `mesh` current: carry the rows of its kept polygons'
        triangles, drop the rest."""
        if mesh is self.mesh:
            return
        old, self.mesh = self.mesh, mesh
        self._kept = mesh.kept_from >= 0
        if old is None or mesh.parent is not old:
            self._kept[:] = False
        triangles, self._triangles, self._carried_triangles = self._triangles, {}, {}
        if not self._kept.any():
            return
        new_id = np.full(old.n_elements, -1)
        new_id[mesh.kept_from[self._kept]] = np.flatnonzero(self._kept)
        sel = new_id[old.cycles.polygon] >= 0
        for name, arrays in triangles.items():
            self._carried_triangles[name] = tuple(a[sel] for a in arrays)

    def triangles(self, mesh, name: str, compute) -> tuple:
        """The arrays `name`, one row per triangle of `mesh`: rows of kept
        polygons carried, compute(triangle ids) for the others; the carried
        rows are dropped once merged.  Asked for twice on one mesh, they
        are computed once."""
        self._bind(mesh)
        if name in self._triangles:
            return self._triangles[name]
        carried = self._carried_triangles.pop(name, None)
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
