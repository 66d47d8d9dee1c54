"""Polygons of one mesh whose block inputs are identical form a class, and
the polygon blocks and their condensation are computed once per class.
Every array, and the Dirichlet lifts computed apart, must equal the ones
computed polygon by polygon, bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from conftest import condense_every, per_polygon, polygon_blocks_every

from sdgdarcy.adaptivity import dorfler_mark
from sdgdarcy.assembly import _polygon_blocks, assemble_system, build_spaces, dirichlet_values
from sdgdarcy.benchmarks import get_benchmark
from sdgdarcy.geometry import CycleTable, PolygonalMesh, build_initial_mesh, refine
from sdgdarcy.problem import DIRICHLET, BoundaryRule, constant, everywhere
from sdgdarcy.reuse import BlockCache, group_rows
from sdgdarcy.solve import solve_system
from sdgdarcy.spaces import SpaceConfig


def _refined(name, times=3, seed=4):
    spec, _, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)
    rng = np.random.default_rng(seed)
    for _ in range(times):
        mesh = refine(mesh, dorfler_mark(rng.random(mesh.n_elements) ** 4, 0.5))
    assert mesh.cycles.hanging.any()
    return spec, mesh


def _inputs(mesh, spec, k):
    """The arguments `assemble_system` passes to `_polygon_blocks`."""
    sub = mesh.subdivision
    S, V, W = build_spaces(mesh, spec, SpaceConfig(k))
    p_dir, _ = dirichlet_values(sub, spec, S, W)
    free = ~np.concatenate([S.dirichlet_mask, W.dirichlet_mask])
    ycol = np.where(free, np.cumsum(free) - 1, free.sum())  # index in y; ny where constrained
    return sub, V, S, spec.permeability(mesh.element_centroids), p_dir, ycol


def _check_blocks(args):
    """The class-keyed blocks and lifts equal the oracle's; returns them."""
    blocks, lift = _polygon_blocks(*args)
    ref, ref_lift = polygon_blocks_every(*args)
    assert np.array_equal(lift, ref_lift)
    assert len(blocks) == len(ref)
    for g, want in zip(blocks, ref):
        for got, w in zip((g.polygons, g.flux, g.cols, *per_polygon(g)), want):
            assert np.array_equal(got, w)
    return blocks


@pytest.mark.parametrize("name,k", [("case1-a0.1", 2), ("case2", 1), ("multifrac", 2), ("lshape", 1)])
def test_classes_bit_equal_to_every_polygon(name, k):
    """The condensation tables W, S_II^-1, H and R_P, gathered by class,
    equal the polygon-by-polygon oracle after three seeded Doerfler
    refinements with hanging nodes; on case1 the classes engage.  The
    polygon blocks and the lifts are held to the same oracle by
    `test_system_bit_equal_to_full_dof_path`."""
    spec, mesh = _refined(name)
    system = assemble_system(mesh, spec, SpaceConfig(k))
    n_classes = sum(np.unique(g.classes).size for g in system.blocks)
    if name == "case1-a0.1":
        assert n_classes < mesh.n_elements

    for g, want in zip(system.blocks, condense_every(system)):
        got = (g.W, g.S_inv, g.H, g.R)
        for a, w in zip(got, want):
            assert np.array_equal(a[g.classes], w)


def test_changed_input_leaves_the_class():
    """Two congruent polygons of one class, the second on the Dirichlet
    boundary; changing the K or the vertex-id order of the second parts
    them, changing one of its Dirichlet values does not, as the lifts are
    computed apart, and the blocks and lifts still equal the oracle's.
    Byte equality keeps -0.0 and 0.0 apart."""
    _, label = group_rows(np.array([[0.0], [-0.0], [0.0]]))
    assert label[0] == label[2] != label[1]

    spec, mesh = _refined("case1-a0.1", times=2)
    spec = dataclasses.replace(spec, boundary=(BoundaryRule(DIRICHLET, everywhere, constant(1.0)),))
    k = 1
    args = _inputs(mesh, spec, k)
    sub, V, S, K_elem, p_dir, ycol = args
    blocks = _check_blocks(args)

    # two polygons of one class that share no vertex, the second with a
    # Dirichlet node
    cyc = mesh.cycles
    verts = [set(cyc.vertex[cyc.offsets[p] : cyc.offsets[p + 1]].tolist()) for p in range(mesh.n_elements)]
    on_dirichlet = np.zeros(mesh.n_elements, dtype=bool)
    on_dirichlet[sub.tri_polygon[np.any(S.dirichlet_mask[S.tri_dofs], axis=1)]] = True
    twins = [
        (g, i, j)
        for g in blocks
        for i in range(g.polygons.size)
        for j in np.flatnonzero(g.classes == g.classes[i])
        if j > i and on_dirichlet[g.polygons[j]] and not verts[g.polygons[i]] & verts[g.polygons[j]]
    ]
    assert twins
    g, i, j = twins[0]
    p1, p2 = g.polygons[[i, j]]

    def label_of(blocks, p):
        g = next(g for g in blocks if p in g.polygons)
        return g.classes[np.flatnonzero(g.polygons == p)[0]]

    def parted(args):
        blocks = _check_blocks(args)
        return label_of(blocks, p1) != label_of(blocks, p2)

    K = K_elem.copy()
    K[p2] = 2.0 * K[p2]
    assert parted((sub, V, S, K, p_dir, ycol))

    tris = np.flatnonzero(sub.tri_polygon == p2)
    node = S.tri_dofs[tris][S.dirichlet_mask[S.tri_dofs[tris]]][0]
    moved = p_dir.copy()
    moved[node] = 2.0
    assert not parted((sub, V, S, K_elem, moved, ycol))

    # swap the ids of two consecutive vertices of p2: the geometry stays
    a, b = cyc.vertex[cyc.offsets[p2] : cyc.offsets[p2] + 2]
    perm = np.arange(mesh.vertices.shape[0])
    perm[[a, b]] = [b, a]
    swapped = PolygonalMesh(
        vertices=mesh.vertices[perm],
        cycles=CycleTable(offsets=cyc.offsets, vertex=perm[cyc.vertex], hanging=cyc.hanging),
        fractures=mesh.fractures,
        tolerance=mesh.tolerance,
    )
    assert parted(_inputs(swapped, spec, k))


def _cached_refinement(k, seed=7):
    """A mesh after two seeded refinements, assembled with a loop cache,
    then refined once more; returns the system assembled with that cache."""
    spec, mesh = _refined("case1-a0.1", times=2)
    config = SpaceConfig(k)
    cache = BlockCache()
    assemble_system(mesh, spec, config, cache=cache)
    rng = np.random.default_rng(seed)
    mesh = refine(mesh, dorfler_mark(rng.random(mesh.n_elements) ** 4, 0.5))
    return assemble_system(mesh, spec, config, cache=cache)


def test_solve_without_cache_equals_carried_solve():
    """After one refinement with a loop cache, the system takes the flux
    transforms and the source of kept triangles from the previous mesh; the
    system assembled without the cache computes them all, and its solve
    gives the carried system's bits."""
    system = _cached_refinement(2)
    cached, _ = solve_system(system)
    spec = get_benchmark("case1-a0.1")[0]  # the spec of `_cached_refinement`
    fresh, _ = solve_system(assemble_system(system.mesh, spec, SpaceConfig(2)))
    for field in ("u", "p", "p_gamma"):
        assert np.array_equal(getattr(fresh, field), getattr(cached, field)), field


@pytest.mark.parametrize("k", [1, 2])
def test_solve_takes_one_path_for_every_right_hand_side(k):
    """M^-1 f is solved per polygon, not per class, on every right-hand
    side: on a mesh whose 80 polygons fall into 43 classes, a random x0
    with f = A x0 nonzero on every polygon is recovered by the first solve,
    without a refinement step."""
    spec, mesh = _refined("case1-a0.1", times=2, seed=7)
    system = assemble_system(mesh, spec, SpaceConfig(k))
    assert mesh.n_elements == 80
    assert sum(np.unique(g.classes).size for g in system.blocks) == 43
    x0 = np.random.default_rng(k).standard_normal(system.n)
    sol, report = solve_system(dataclasses.replace(system, rhs=system.A @ x0))
    assert report.refinement_steps == 0
    x = np.concatenate([sol.u, sol.p[system.s_free], sol.p_gamma[system.w_free]])
    assert np.linalg.norm(x - x0) <= 1e-11 * np.linalg.norm(x0)


def test_nnz_counts_the_classes_in_use():
    """After a cached refinement the class tables hold the classes of the
    refined mesh, every row in use; `nnz` counts each class once per
    polygon and equals the stored entries of `A`."""
    system = _cached_refinement(1)
    for g in system.blocks:
        assert np.array_equal(np.unique(g.classes), np.arange(len(g.M)))
    assert system.nnz == system.A.nnz

