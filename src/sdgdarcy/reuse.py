"""Per-triangle and per-class data carried from a mesh to its refinement.

`refine` copies every polygon that it neither refines nor splits a side of
unchanged into the new mesh, and `PolygonalMesh.kept_from` gives its old id.
A `BlockCache` holds the per-triangle arrays the stages computed on the mesh
it was last used on.  When a stage asks for them on that mesh's refinement,
the rows of the kept polygons' triangles come from the cache and the stage
computes the others.

Per-polygon arrays are carried by content instead: a stage keys every
polygon on all inputs of its arrays, polygons of equal keys form a class,
and the cache stores the arrays of the classes of its last call, one row
per class, whose label is that row; only the other classes are computed.
A name that one mesh does not call is dropped when the next is bound.
See `adaptivity` for what is carried and why the result is bit-equal.
"""

from __future__ import annotations

import numpy as np


def _row_bytes(key: np.ndarray) -> list:
    """The bytes of each row of `key` (n, w)."""
    return np.ascontiguousarray(key).view(np.dtype((np.void, key.dtype.itemsize * key.shape[1])))[:, 0].tolist()


def group_rows(key: np.ndarray):
    """(first, label): the rows of `key` (n, w) grouped by byte equality,
    so -0.0 and 0.0 stay apart, with the classes in order of appearance;
    `first` holds the first row of each class and label[i] is the class of
    row i, key[first[label]] == key."""
    index = {}  # hashing the row bytes is faster than sorting them
    label = np.fromiter((index.setdefault(r, len(index)) for r in _row_bytes(key)), dtype=np.int64, count=key.shape[0])
    return np.unique(label, return_index=True)[1], label


class BlockCache:
    """Arrays of one mesh and of its classes, kept for its refinement.

    Each per-triangle name holds a tuple of arrays with one row per
    triangle; on the refinement of the mesh, the rows of the kept polygons'
    triangles are carried until the name is asked for, and the rest
    dropped.  Each per-class name holds a store of the classes of its last
    call: the key bytes of each class and tables with one row per class,
    rebuilt on every call, so a label names a class only in the tables
    returned with it; binding a mesh drops the stores that the previous
    mesh did not call.  An empty cache carries nothing.  A name must stand
    for the same computation on every mesh, so one cache serves one loop:
    one problem at one order.
    """

    def __init__(self):
        self.mesh = None
        self._kept = None  # (n_elements,) bool: polygon carried from the previous mesh
        self._triangles = {}  # name -> arrays on self.mesh
        self._carried_triangles = {}  # name -> rows of the kept polygons' triangles
        self._classes = {}  # name -> (key bytes -> label, arrays with one row per label)
        self._called = set()  # the per-class names called since self.mesh was bound

    def _bind(self, mesh) -> None:
        """Make `mesh` current: carry the rows of its kept polygons' triangles
        and the class stores the previous mesh called, drop the rest."""
        if mesh is self.mesh:
            return
        old, self.mesh = self.mesh, mesh
        self._classes = {name: self._classes[name] for name in self._called}
        self._called = set()
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

    def classes(self, name: str, key: np.ndarray, compute) -> tuple:
        """(labels, table) of `name` for the rows of `key` (n, w), whose
        rows of equal bytes form one class: per row the label of its class,
        which is the class's row of every array of `table`.  The store of
        `name` then holds the classes of this call alone: the known ones,
        then those compute(rows) gives, one row each, from one row of `key`
        per class it lacks; if `compute` raises, the store stays."""
        first, label = group_rows(key)
        reps = _row_bytes(key[first])
        index, table = self._classes.get(name, ({}, ()))
        # only the class representatives are looked up
        row = np.array([index.get(r, -1) for r in reps], dtype=np.int64)
        known, new = np.flatnonzero(row >= 0), np.flatnonzero(row < 0)
        fresh = tuple(compute(first[new])) if new.size else ()
        kept = tuple(a[row[known]] for a in table) if known.size else ()
        table = tuple(np.concatenate(p) for p in zip(kept, fresh)) if kept and fresh else kept or fresh
        order = np.concatenate([known, new])
        row[order] = np.arange(order.size)
        self._classes[name] = (dict(zip((reps[i] for i in order), range(order.size))), table)
        self._called.add(name)
        return row[label], table
