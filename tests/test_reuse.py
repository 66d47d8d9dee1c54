"""The arrays a loop carries from one mesh to the next, per kept triangle
and per polygon class, equal the ones built from an empty cache, bit for
bit.

Every mesh of a short cached run is rebuilt with fresh stages, each of which
then starts from an empty `BlockCache`.
"""

import numpy as np
import pytest

from sdgdarcy.adaptivity import AmrConfig, amr_loop
from sdgdarcy.assembly import assemble_system, build_spaces
from sdgdarcy.benchmarks import get_benchmark
from sdgdarcy.estimator import compute_estimator, true_error
from sdgdarcy.geometry import build_initial_mesh
from sdgdarcy.solve import solve_system
from sdgdarcy.spaces import SpaceConfig

RUNS = [("case1-a0.1", 2, 12_000), ("case2", 1, 12_000), ("multifrac", 2, 8_000)]


def _by_polygon(system, name):
    """One block array per triangle count, the rows in polygon-id order."""
    return [getattr(g, name) for g in system.blocks]


@pytest.mark.parametrize("name,k,max_dofs", RUNS, ids=[f"{n}-k{k}" for n, k, _ in RUNS])
def test_cached_run_equals_fresh_rebuild(name, k, max_dofs):
    spec, exact, h0 = get_benchmark(name)
    config = SpaceConfig(k)
    kept = []

    def rebuild(record, mesh, sol, bd, system):
        kept.append(int((mesh.kept_from >= 0).sum()))
        fresh = assemble_system(mesh, spec, config, spaces=build_spaces(mesh, spec, config))
        assert np.array_equal(fresh.V.ref_coeff, system.V.ref_coeff)
        assert len(fresh.blocks) == len(system.blocks)
        for field in ("polygons", "M", "G", "flux", "cols"):
            for a, b in zip(_by_polygon(fresh, field), _by_polygon(system, field)):
                assert np.array_equal(a, b), field
        assert np.array_equal(fresh.rhs, system.rhs)
        fsol, _ = solve_system(fresh)
        for field in ("u", "p", "p_gamma"):
            assert np.array_equal(getattr(fsol, field), getattr(sol, field)), field
        fbd = compute_estimator(mesh, spec, fsol)
        assert np.array_equal(fbd.terms, bd.terms)
        assert np.array_equal(fbd.element_sq, bd.element_sq)
        assert fbd.osc == bd.osc
        if exact is not None:
            assert true_error(mesh, spec, fsol, exact).err_sdg == record.err_sdg

    mesh = build_initial_mesh(spec.domain, h0)
    hist = amr_loop(mesh, spec, AmrConfig(k=k, max_dofs=max_dofs), exact=exact, callback=rebuild)
    assert len(hist.records) >= 4
    # the comparison is not vacuous: every later mesh reuses polygons
    assert min(kept[1:]) > 0
