"""Machine-speed probe for the end-to-end times.

The CPU throughput of a shared virtual machine drifts: the same adaptive loop
runs up to 2x slower for seconds or minutes at a time, and a fixed kernel
timed between its iterations slows with it (see README.md, "Drift on this
machine").  The end-to-end times are therefore reported at a reference
speed: a time measured while the probe takes p seconds is scaled by
REFERENCE_S / p.  The probe uses numpy, scipy and plain Python only, never
`sdgdarcy`, so a change to the program moves the scaled times as much as
the raw ones.

Its kernel is a small copy of the loop's mix: dictionary and tuple work in
Python as in the per-polygon loops, batched small dense products and solves
as in the per-triangle kernels, and COLAMD `splu` of two 2D Laplacians, one
cache-sized and one that spills out of the core's L2 cache, as in the
sparse solve.  Like the program, it allocates its factors afresh on every
call; a variant that allocated nothing tracked the loop less well.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# A typical probe time between the loop's iterations on the reference
# machine (2-core Intel Xeon VM, 2.0 GHz, Python 3.11, numpy 2.4, scipy
# 1.17).  Any fixed value serves: it sets the unit of the scaled times, not
# their spread.
REFERENCE_S = 0.060


def _laplacian(n):
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return (sp.kron(t, sp.eye(n)) + sp.kron(sp.eye(n), t)).tocsc()


class SpeedProbe:
    """A fixed kernel whose duration measures the machine's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = [(float(i % 13), float(i % 7)) for i in range(2000)]
        self._blocks = rng.standard_normal((400, 6, 6))
        self._small = _laplacian(48)
        self._large = _laplacian(100)

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        acc = {}
        for _ in range(6):
            for i, (x, y) in enumerate(self._points):
                key = (i % 31, int(x))
                acc[key] = acc.get(key, 0.0) + x * y - 0.5 * x
        for _ in range(4):
            np.einsum("nij,njk->nik", self._blocks, self._blocks)
            np.linalg.solve(self._blocks, self._blocks)
        spla.splu(self._small, permc_spec="COLAMD")
        spla.splu(self._large, permc_spec="COLAMD")
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median of five probe times after two discarded ones."""
        self()
        self()
        return float(np.median([self() for _ in range(5)]))
