"""The arrays a loop carries from one mesh to the next, per kept triangle,
and the polygon classes of each mesh give the bits of a build from an empty
cache, and the cache keeps only the rows of the current mesh.

Every mesh of a short cached run is rebuilt with fresh stages, each of which
then starts from an empty `BlockCache`.
"""

import numpy as np
import pytest
from conftest import per_polygon

from sdgdarcy.adaptivity import AmrConfig, amr_loop, dorfler_mark
from sdgdarcy.assembly import assemble_system, build_spaces
from sdgdarcy.benchmarks import get_benchmark
from sdgdarcy.estimator import compute_estimator, data_oscillation, true_error
from sdgdarcy.geometry import build_initial_mesh, refine
from sdgdarcy.reuse import BlockCache
from sdgdarcy.solve import solve_system
from sdgdarcy.spaces import SpaceConfig

RUNS = [("case1-a0.1", 2, 12_000), ("case2", 1, 12_000), ("multifrac", 2, 8_000)]


def _by_polygon(g):
    """The arrays of the `PolygonBlocks` g with one row per polygon."""
    return (g.polygons, g.flux, g.cols, *per_polygon(g))


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
        for a, b in zip(fresh.blocks, system.blocks):
            for field, x, y in zip(("polygons", "flux", "cols", "M", "G"), _by_polygon(a), _by_polygon(b)):
                assert np.array_equal(x, y), field
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


@pytest.mark.parametrize("k", [1, 2])
def test_oscillation_carried_equals_fresh(k):
    """The loop carries the oscillation residual of kept triangles; at every
    iteration osc equals `data_oscillation` on an empty cache, bit for bit."""
    spec, exact, h0 = get_benchmark("case1-a0.1")
    kept = []

    def fresh(record, mesh, sol, bd, system):
        kept.append(int((mesh.kept_from >= 0).sum()))
        assert data_oscillation(mesh, spec, k) == record.osc

    mesh = build_initial_mesh(spec.domain, h0)
    hist = amr_loop(mesh, spec, AmrConfig(k=k, max_dofs=30_000), callback=fresh)
    assert len(hist.records) >= 6 and min(kept[1:]) > 0


def test_loop_cache_holds_only_live_rows():
    """After the stages ran on a refined mesh, the cache keeps no copy of
    the rows it carried, every row of the class tables is used by the
    system, and the oscillation is carried as one float per triangle."""
    spec, _, h0 = get_benchmark("case1-a0.1")
    config = SpaceConfig(2)
    cache = BlockCache()
    mesh = build_initial_mesh(spec.domain, h0)
    for it in range(3):
        if it:
            mesh = refine(mesh, dorfler_mark(bd.element_sq, 0.5))
        system = assemble_system(mesh, spec, config, cache=cache)
        bd = compute_estimator(mesh, spec, solve_system(system)[0], cache)
    assert (mesh.kept_from >= 0).any()
    assert cache.mesh is mesh and not cache._carried_triangles
    assert sorted(cache._triangles) == ["bulk source, degree 6", "flux transforms", "oscillation residual"]
    (res,) = cache._triangles["oscillation residual"]
    assert res.shape == (mesh.subdivision.n_triangles,)
    for g in system.blocks:
        for table in (g.M, g.G, g.W, g.S_inv, g.H, g.R):
            assert np.array_equal(np.unique(g.classes), np.arange(len(table)))
