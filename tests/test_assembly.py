"""Assembly oracles: frozen bilinear-form values, the discrete adjoint
identity between the two pressure-gradient assembly paths, and exact
consistency of the reduced system on interpolants of a linear solution."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from sdgdarcy import assembly
from sdgdarcy.adaptivity import dorfler_mark
from sdgdarcy.assembly import (
    assemble_rhs,
    assemble_system,
    build_spaces,
    dirichlet_values,
)
from sdgdarcy.benchmarks import get_benchmark, linear_patch
from sdgdarcy.errors import SolverError
from sdgdarcy.geometry import (
    BOUNDARY,
    DomainSpec,
    Fracture,
    build_initial_mesh,
    refine,
)
from sdgdarcy.problem import (
    DIRICHLET,
    NEUMANN,
    BoundaryRule,
    ProblemSpec,
    constant,
    everywhere,
)
from sdgdarcy.spaces import SpaceConfig, build_S_h, build_V_h, build_W_h

from conftest import (
    assemble_bh_star,
    assemble_interface_quadrature,
    bh_matrix,
    fracture_stiffness_matrix,
    interface_blocks,
    interpolate_flux,
    interpolate_fracture,
    interpolate_pressure,
    mass_matrix,
    neumann_load_quadrature,
    per_polygon,
    reduced_system_full_dofs,
    saddle_system,
)


def unit_square_mesh(h=1.0):
    dom = DomainSpec(rectangles=[(0.0, 0.0, 1.0, 1.0)])
    return build_initial_mesh(dom, h)


def patch_mesh(h=1.0, marked=None):
    spec, exact = linear_patch()
    mesh = build_initial_mesh(spec.domain, h)
    if marked is not None:
        mesh = refine(mesh, marked)
    return spec, exact, mesh


def identity_K(n):
    return np.tile(np.eye(2), (n, 1, 1))


def element_indicator(S, sub, poly_ids):
    p = np.zeros(S.ndof)
    for t in range(sub.n_triangles):
        if sub.tri_polygon[t] in poly_ids:
            p[S.tri_dofs[t]] = 1.0
    return p


# -- mass matrix -----------------------------------------------------------


def test_mass_constant_flux_energy():
    mesh = unit_square_mesh()
    sub = mesh.subdivision
    V = build_V_h(mesh, SpaceConfig(1))
    M = mass_matrix(sub, V, identity_K(1))
    u = interpolate_flux(V, lambda pts: np.tile([1.0, 0.0], pts.shape[:-1] + (1,)))
    assert abs(u @ (M @ u) - 1.0) < 1e-12

    M4 = mass_matrix(sub, V, 4.0 * identity_K(1))
    assert abs((M4 - 0.25 * M).toarray()).max() < 1e-14

    u2 = interpolate_flux(V, lambda pts: pts)  # u = (x, y)
    assert abs(u2 @ (M @ u2) - 2.0 / 3.0) < 1e-12


def test_mass_k2_energy():
    mesh = unit_square_mesh()
    sub = mesh.subdivision
    V = build_V_h(mesh, SpaceConfig(2))
    M = mass_matrix(sub, V, identity_K(1))
    # u = (x^2, x*y): integral of x^4 + x^2 y^2 over the unit square
    u = interpolate_flux(V, lambda pts: np.stack([pts[..., 0] ** 2, pts[..., 0] * pts[..., 1]], axis=-1))
    assert abs(u @ (M @ u) - (1.0 / 5.0 + 1.0 / 9.0)) < 1e-12


def test_mass_symmetric_positive(two_square_fractured):
    mesh = two_square_fractured
    sub = mesh.subdivision
    V = build_V_h(mesh, SpaceConfig(1))
    M = mass_matrix(sub, V, identity_K(mesh.n_elements)).toarray()
    assert abs(M - M.T).max() < 1e-12
    w = np.linalg.eigvalsh(M)
    assert w.min() > 0


# -- pressure-gradient form -----------------------------------------------


def test_bh_vanishes_on_constant_pressure(two_square_fractured):
    mesh = two_square_fractured
    sub = mesh.subdivision
    V = build_V_h(mesh, SpaceConfig(1))
    S = build_S_h(mesh, SpaceConfig(1))
    B = bh_matrix(sub, V, S)
    ones = np.ones(S.ndof)
    assert abs(ones @ B).max() < 1e-12


def test_bh_volume_oracle():
    # u = (1, 0), q = x on the unit square: b_h(u, q) = (u, grad q) = area
    mesh = unit_square_mesh()
    sub = mesh.subdivision
    V = build_V_h(mesh, SpaceConfig(1))
    S = build_S_h(mesh, SpaceConfig(1))
    B = bh_matrix(sub, V, S)
    u = interpolate_flux(V, lambda pts: np.tile([1.0, 0.0], pts.shape[:-1] + (1,)))
    q = interpolate_pressure(S, lambda pts, tris: pts[:, 0])
    assert abs(q @ (B @ u) - 1.0) < 1e-12


def test_adjoint_identity_zero_trace():
    # B^T and the facewise adjoint assembly agree on pressures with zero
    # boundary trace and differ by the boundary pairing elsewhere.
    spec, exact, mesh = patch_mesh(h=0.5)
    sub = mesh.subdivision
    V = build_V_h(mesh, SpaceConfig(1))
    S = build_S_h(mesh, SpaceConfig(1), dirichlet_edges=sub.edges_of_kind(BOUNDARY))
    B = bh_matrix(sub, V, S).toarray()
    Bstar = assemble_bh_star(sub, V, S).toarray()
    free = np.flatnonzero(~S.dirichlet_mask)
    bnd = np.flatnonzero(S.dirichlet_mask)
    assert abs(B.T[:, free] - Bstar[:, free]).max() < 1e-12
    assert abs(B.T[:, bnd] - Bstar[:, bnd]).max() > 1e-3


def test_bh_star_fracture_pairing(two_square_fractured):
    # constant v = (1, 0) has v.n = 1 on the fracture; pairing with the
    # one-sided indicator pressure picks out +/- the fracture length
    mesh = two_square_fractured
    sub = mesh.subdivision
    V = build_V_h(mesh, SpaceConfig(1))
    S = build_S_h(mesh, SpaceConfig(1))
    Bstar = assemble_bh_star(sub, V, S)
    v = interpolate_flux(V, lambda pts: np.tile([1.0, 0.0], pts.shape[:-1] + (1,)))
    left = np.flatnonzero(mesh.element_centroids[:, 0] < 1.0)
    right = np.flatnonzero(mesh.element_centroids[:, 0] > 1.0)
    p_left = element_indicator(S, sub, set(left))
    p_right = element_indicator(S, sub, set(right))
    assert abs(v @ (Bstar @ p_left) - 1.0) < 1e-12
    assert abs(v @ (Bstar @ p_right) + 1.0) < 1e-12


# -- interface coupling ----------------------------------------------------


def interface_spec(mesh):
    return ProblemSpec(
        domain=DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=list(mesh.fractures)),
        boundary=(BoundaryRule(DIRICHLET, everywhere),),
        fracture_tips=((None, None),),
    )


def test_interface_oracle(two_square_fractured):
    mesh = two_square_fractured
    sub = mesh.subdivision
    spec = interface_spec(mesh)
    S = build_S_h(mesh, SpaceConfig(1))
    W = build_W_h(mesh, SpaceConfig(1))
    C_pp, C_pw, C_ww = interface_blocks(sub, S, W, spec)

    # eta = 0.01 / 100 = 1e-4; alpha = eta * (0.75/2 - 0.25) = 1.25e-5;
    # one fracture edge of length 1.  One-sided indicator: jump 1, mean 1/2:
    # energy = 1/(4 alpha) + 1/eta = 20000 + 10000
    left = np.flatnonzero(mesh.element_centroids[:, 0] < 1.0)
    p = element_indicator(S, sub, set(left))
    assert abs(p @ (C_pp @ p) - 30000.0) < 1e-8

    # equal constants on both sides: jump 0, mean 1: energy = 1/alpha
    ones = np.ones(S.ndof)
    assert abs(ones @ (C_pp @ ones) - 80000.0) < 1e-8

    # matching fracture pressure cancels the exchange term entirely
    wg = np.ones(W.ndof)
    energy = ones @ (C_pp @ ones) + 2.0 * ones @ (C_pw @ wg) + wg @ (C_ww @ wg)
    assert abs(energy) < 1e-9


def test_interface_block_psd():
    spec, exact, mesh = patch_mesh(h=0.5)
    sub = mesh.subdivision
    S = build_S_h(mesh, SpaceConfig(1))
    W = build_W_h(mesh, SpaceConfig(1))
    C_pp, C_pw, C_ww = interface_blocks(sub, S, W, spec)
    assert abs((C_pp - C_pp.T).toarray()).max() < 1e-10
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.standard_normal(S.ndof)
        w = rng.standard_normal(W.ndof)
        energy = p @ (C_pp @ p) + 2.0 * p @ (C_pw @ w) + w @ (C_ww @ w)
        assert energy > -1e-9 * (abs(p).max() + abs(w).max()) ** 2


def test_fracture_stiffness_oracle():
    # unit-length fracture split into 2 edges of h = 1/2 with K_gamma = 1:
    # the interior vertex row reduces to the single entry [4]
    fr = Fracture(
        points=np.array([[0.5, 0.0], [0.5, 1.0]]),
        kappa_n=100.0,
        kappa_t=100.0,
        thickness=0.01,
    )
    dom = DomainSpec(rectangles=[(0.0, 0.0, 1.0, 1.0)], fractures=[fr])
    mesh = build_initial_mesh(dom, 0.5)
    sub = mesh.subdivision
    spec = ProblemSpec(
        domain=dom,
        boundary=(BoundaryRule(DIRICHLET, everywhere),),
        fracture_tips=((0.0, 0.0),),
    )
    S = build_S_h(mesh, SpaceConfig(1))
    W = build_W_h(mesh, SpaceConfig(1), dirichlet_tips=spec.dirichlet_tips())
    A = fracture_stiffness_matrix(sub, S, W, spec)
    free = np.flatnonzero(~W.dirichlet_mask)
    assert free.size == 1
    dense = A.toarray()[np.ix_(free, free)]
    assert abs(dense - np.array([[4.0]])).max() < 1e-12
    # constants carry no tangential energy
    assert abs(A @ np.ones(W.ndof)).max() < 1e-12


# -- right-hand side -------------------------------------------------------


def test_rhs_bulk_source_total(two_square_plain):
    mesh = two_square_plain
    sub = mesh.subdivision
    spec = ProblemSpec(
        domain=DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)]),
        boundary=(BoundaryRule(DIRICHLET, everywhere),),
        f=lambda pts, region: np.ones(pts.shape[0]),
    )
    V = build_V_h(mesh, SpaceConfig(1))
    S = build_S_h(mesh, SpaceConfig(1))
    W = build_W_h(mesh, SpaceConfig(1))
    rhs = assemble_rhs(mesh, spec, V, S, W)
    assert abs(rhs[: V.ndof]).max() == 0.0
    assert abs(rhs[V.ndof :].sum() - 2.0) < 1e-12  # integral of f over the domain


def test_rhs_fracture_source_total(two_square_fractured):
    mesh = two_square_fractured
    sub = mesh.subdivision
    spec = ProblemSpec(
        domain=DomainSpec(
            rectangles=[(0.0, 0.0, 2.0, 1.0)], fractures=list(mesh.fractures)
        ),
        boundary=(BoundaryRule(DIRICHLET, everywhere),),
        f_gamma=lambda pts, param, fr: 3.0 * np.ones(np.asarray(pts).shape[0]),
        fracture_tips=((None, None),),
    )
    V = build_V_h(mesh, SpaceConfig(1))
    S = build_S_h(mesh, SpaceConfig(1))
    W = build_W_h(mesh, SpaceConfig(1))
    rhs = assemble_rhs(mesh, spec, V, S, W)
    wblock = rhs[V.ndof + S.ndof :]
    # thickness * f_gamma * length = 0.01 * 3 * 1
    assert abs(wblock.sum() - 0.03) < 1e-14


def test_rhs_neumann_sign():
    # g_N = 1 on the bottom edge of the unit square subtracts its length
    mesh = unit_square_mesh()
    sub = mesh.subdivision
    spec = ProblemSpec(
        domain=DomainSpec(rectangles=[(0.0, 0.0, 1.0, 1.0)]),
        boundary=(
            BoundaryRule(NEUMANN, lambda mids: np.abs(mids[:, 1]) < 1e-9, constant(1.0)),
            BoundaryRule(DIRICHLET, everywhere),
        ),
    )
    V = build_V_h(mesh, SpaceConfig(1))
    S = build_S_h(mesh, SpaceConfig(1))
    W = build_W_h(mesh, SpaceConfig(1))
    rhs = assemble_rhs(mesh, spec, V, S, W)
    assert abs(rhs[V.ndof :].sum() + 1.0) < 1e-12


def test_zero_data_zero_rhs(two_square_plain):
    mesh = two_square_plain
    sub = mesh.subdivision
    spec = ProblemSpec(
        domain=DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)]),
        boundary=(BoundaryRule(DIRICHLET, everywhere),),
    )
    V = build_V_h(mesh, SpaceConfig(1))
    S = build_S_h(mesh, SpaceConfig(1))
    W = build_W_h(mesh, SpaceConfig(1))
    assert abs(assemble_rhs(mesh, spec, V, S, W)).max() == 0.0


# -- assembled system ------------------------------------------------------


def exact_free_vector(sys, mesh, exact):
    sub = mesh.subdivision

    def p_fn(pts, tris):
        region = mesh.element_regions[sub.tri_polygon[tris]]
        return exact.p(pts, region)

    def u_fn(pts):
        flat = pts.reshape(-1, 2)
        return np.asarray(exact.u(flat, None)).reshape(pts.shape)

    u_I = interpolate_flux(sys.V, u_fn)
    p_I = interpolate_pressure(sys.S, p_fn)
    w_I = interpolate_fracture(sys.V.sub, sys.W, exact.p_gamma)
    return np.concatenate([u_I, p_I[sys.s_free], w_I[sys.w_free]]), p_I, w_I


def relative_residual(sys, x):
    res = sys.A @ x - sys.rhs
    scale = np.abs(sys.A) @ np.abs(x) + np.abs(sys.rhs) + 1.0
    return np.max(np.abs(res) / scale)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("h,marked", [(1.0, None), (0.5, None), (0.5, [0, 3])])
def test_patch_consistency(k, h, marked):
    # interpolants of the linear solution solve the reduced system exactly
    spec, exact, mesh = patch_mesh(h=h, marked=marked)
    sys = assemble_system(mesh, spec, SpaceConfig(k))
    x, p_I, w_I = exact_free_vector(sys, mesh, exact)
    assert relative_residual(sys, x) < 1e-10


def test_patch_consistency_neumann():
    # bottom edge flux data g_N = u.n = 1; everything else Dirichlet
    spec0, exact, mesh = patch_mesh(h=0.5)

    def p_val(pts, mids=None):
        return np.asarray(pts)[:, 1]

    spec = ProblemSpec(
        domain=spec0.domain,
        boundary=(
            BoundaryRule(NEUMANN, lambda mids: np.abs(mids[:, 1]) < 1e-9, constant(1.0)),
            BoundaryRule(DIRICHLET, everywhere, p_val),
        ),
        fracture_tips=((0.0, 1.0),),
    )
    sys = assemble_system(mesh, spec, SpaceConfig(1))
    x, p_I, w_I = exact_free_vector(sys, mesh, exact)
    assert relative_residual(sys, x) < 1e-10


def test_system_shapes_and_blocks():
    spec, exact, mesh = patch_mesh(h=0.5)
    sys = assemble_system(mesh, spec, SpaceConfig(1))
    nV = sys.V.ndof
    nSf = sys.s_free.size
    nWf = sys.w_free.size
    assert sys.offsets == (0, nV, nV + nSf, nV + nSf + nWf)
    assert sys.A.shape == (sys.offsets[3], sys.offsets[3])
    assert sys.rhs.shape == (sys.offsets[3],)
    assert np.all(np.isfinite(sys.rhs))

    # all-Dirichlet problem: the saddle blocks are exact negative transposes
    A = sys.A.toarray()
    VS = A[:nV, nV : nV + nSf]
    SV = A[nV : nV + nSf, :nV]
    assert abs(VS + SV.T).max() < 1e-12


def test_matvec_slices_keep_every_bit(monkeypatch):
    """`LinearSystem.matvec` multiplies a slice of polygons at a time; on a
    mesh with several slices in one triangle count, A x and |A| |x| equal
    the products over whole blocks bit for bit, and A x the sparse one."""
    spec, _, h0 = get_benchmark("case2")
    mesh = build_initial_mesh(spec.domain, h0)
    for _ in range(2):
        mesh = refine(mesh, np.arange(mesh.n_elements))
    system = assemble_system(mesh, spec, SpaceConfig(1))
    assert max(g.polygons.size for g in system.blocks) > 5 * 100
    x = np.random.default_rng(3).standard_normal(system.n)
    monkeypatch.setattr(assembly, "_SLICE", 100)  # the last slice is partial
    sliced = system.matvec(x), system.matvec(np.abs(x), absolute=True)
    monkeypatch.setattr(assembly, "_SLICE", system.n)
    whole = system.matvec(x), system.matvec(np.abs(x), absolute=True)
    for a, b in zip(sliced, whole):
        assert np.array_equal(a, b)
    ref = system.A @ x
    assert np.abs(sliced[0] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_absolute_matvec_adds_duplicate_entries_first():
    """|A| |x| takes |C| of C's summed entries: a C that holds each entry c
    as 2c and -c, which add up to c exactly, gives the bits of the canonical
    C, and stays as it was."""
    spec, _, h0 = get_benchmark("case2")
    system = assemble_system(build_initial_mesh(spec.domain, h0), spec, SpaceConfig(1))
    C = system.C
    assert C.has_canonical_format and C.nnz > 0
    parts = np.column_stack([2.0 * C.data, -C.data]).ravel()
    split = sp.csr_matrix((parts, np.repeat(C.indices, 2), 2 * C.indptr), shape=C.shape)
    assert not split.has_canonical_format
    x = np.abs(np.random.default_rng(4).standard_normal(system.n))
    got = dataclasses.replace(system, C=split).matvec(x, absolute=True)
    assert np.array_equal(got, system.matvec(x, absolute=True))
    assert split.nnz == 2 * C.nnz and np.array_equal(split.data, parts)


def test_dirichlet_values_patch():
    spec, exact, mesh = patch_mesh(h=0.5)
    sub = mesh.subdivision
    table = spec.boundary_table(sub)
    S = build_S_h(mesh, SpaceConfig(1), dirichlet_edges=table.dirichlet_edges)
    W = build_W_h(mesh, SpaceConfig(1), dirichlet_tips=spec.dirichlet_tips())
    p_dir, w_dir = dirichlet_values(sub, spec, S, W)
    dofs = np.flatnonzero(S.dirichlet_mask)
    assert dofs.size > 0
    assert abs(p_dir[dofs] - interpolate_pressure(S, lambda pts, tris: pts[:, 1])[dofs]).max() < 1e-14
    tips = {(fi, end) for fi, end in spec.dirichlet_tips()}
    assert tips == {(0, 0), (0, 1)}
    wd = np.flatnonzero(W.dirichlet_mask)
    assert sorted(w_dir[wd].tolist()) == [0.0, 1.0]


def test_expand_roundtrip():
    spec, exact, mesh = patch_mesh(h=0.5)
    sys = assemble_system(mesh, spec, SpaceConfig(1))
    x, p_I, w_I = exact_free_vector(sys, mesh, exact)
    sol = sys.expand(x)
    assert abs(sol.p - p_I).max() < 1e-12  # boundary values match interpolant
    assert abs(sol.p_gamma - w_I).max() < 1e-12
    assert sol.u.shape == (sys.V.ndof,)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["patch", "case1-a0.1", "case2", "multifrac"])
def test_system_matches_global_saddle_assembly(name, k):
    """`A` built from the polygon blocks equals the globally assembled and
    sliced saddle matrix entrywise, to 1e-14 of each entry, and the lifted
    right-hand sides agree."""
    spec, exact, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)
    sys = assemble_system(mesh, spec, SpaceConfig(k))
    A_ref, rhs_ref = saddle_system(mesh, spec, SpaceConfig(k))
    assert (abs(sys.A - A_ref) - 1e-14 * abs(A_ref)).max() <= 0.0
    assert sys.nnz == sys.A.nnz == np.count_nonzero(A_ref.data)
    assert np.abs(sys.rhs - rhs_ref).max() <= 1e-14 * np.abs(rhs_ref).max()
    x = np.random.default_rng(0).standard_normal(sys.n)
    assert np.abs(sys.matvec(x) - A_ref @ x).max() <= 1e-13 * np.abs(A_ref @ x).max()
    assert np.abs(sys.matvec(x, absolute=True) - abs(A_ref) @ x).max() <= 1e-13 * (
        abs(A_ref) @ np.abs(x)
    ).max()


@pytest.mark.parametrize(
    "name, k, xi",
    [("case1-a0.1", 2, 0.75), ("case2", 1, 0.75), ("multifrac", 2, 0.75), ("lshape", 1, 0.75), ("case1-a0.1", 1, 1.0)],
)
def test_system_bit_equal_to_full_dof_path(name, k, xi):
    """C (indptr, indices, data), the rhs and every array of every polygon
    block of `assemble_system` equal those of the full-dof path bit for bit,
    after two seeded Doerfler refinements that leave hanging nodes.  At
    xi = 1 the entries of C_pp between the two sides of a fracture edge are
    exact zeros, which C keeps as stored entries."""
    spec, exact, h0 = get_benchmark(name)
    spec = dataclasses.replace(spec, xi=xi)
    mesh = build_initial_mesh(spec.domain, h0)
    rng = np.random.default_rng(4)
    for _ in range(2):
        mesh = refine(mesh, dorfler_mark(rng.random(mesh.n_elements) ** 4, 0.5))
    assert mesh.cycles.hanging.any()
    sys = assemble_system(mesh, spec, SpaceConfig(k))
    blocks, C, rhs = reduced_system_full_dofs(mesh, spec, SpaceConfig(k))
    for got, want in ((sys.C.indptr, C.indptr), (sys.C.indices, C.indices), (sys.C.data, C.data), (sys.rhs, rhs)):
        assert np.array_equal(got, want)
    assert np.any(C.data == 0) == (xi == 1.0)
    assert len(sys.blocks) == len(blocks)
    for g, ref in zip(sys.blocks, blocks):
        for got, want in zip((g.polygons, g.flux, g.cols, *per_polygon(g)), ref):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["case1-a0.1", "case2", "multifrac"])
def test_interface_and_neumann_match_quadrature(name, k):
    """`assemble_interface` and the Neumann load of `assemble_rhs`, read from
    the edge dofs, against quadrature at physical edge points with the full
    pulled-back pressure basis.  Three seeded Doerfler refinements make
    fracture edges run both ways against their vertex ids, and the Neumann
    data is nonzero on the whole boundary.  C entries agree to 1e-13 of
    sqrt(C_ii C_jj), the load to 1e-13 of its largest entry."""
    spec, exact, h0 = get_benchmark(name)
    mesh = build_initial_mesh(spec.domain, h0)
    rng = np.random.default_rng(4)
    for _ in range(3):
        mesh = refine(mesh, dorfler_mark(rng.random(mesh.n_elements) ** 4, 0.5))
    sub = mesh.subdivision
    assert np.any(sub.fracture_edges.descending)
    S, V, W = build_spaces(mesh, spec, SpaceConfig(k))

    def coupling(pp, pw, ww):
        return sp.bmat([[pp, pw], [pw.T, ww]], format="csr")

    C = coupling(*interface_blocks(sub, S, W, spec))
    C_ref = coupling(*assemble_interface_quadrature(mesh, S, W, spec))
    d = np.sqrt(C_ref.diagonal())
    diff = abs(C - C_ref).tocoo()
    assert np.all(diff.data <= 1e-13 * d[diff.row] * d[diff.col])

    g = lambda pts, mids: 1.0 + pts[:, 0] - 2.0 * pts[:, 1] ** 2  # noqa: E731
    neumann = dataclasses.replace(spec, f=None, boundary=(BoundaryRule(NEUMANN, everywhere, g),))
    load = assemble_rhs(mesh, neumann, V, S, W)[V.ndof : V.ndof + S.ndof]
    load_ref = neumann_load_quadrature(sub, neumann, S)
    assert np.abs(load - load_ref).max() <= 1e-13 * np.abs(load_ref).max()


def test_flux_dof_outside_its_polygon_raises():
    """The polygon blocks rely on build_V_h's numbering; a flux numbering
    that puts a triangle's dof in another polygon's range is rejected, and
    so is one that swaps two dofs of a triangle between its sides, inside
    its polygon's range."""
    spec, exact, mesh = patch_mesh(h=0.5)
    S, V, W = build_spaces(mesh, spec, SpaceConfig(1))
    last = V.sub.n_triangles - 1
    assert V.sub.tri_polygon[0] != V.sub.tri_polygon[last]
    tri_dofs = V.tri_dofs.copy()
    tri_dofs[[0, last], 0] = tri_dofs[[last, 0], 0]
    bad = dataclasses.replace(V, tri_dofs=tri_dofs)
    with pytest.raises(SolverError, match="leaves its polygon"):
        assemble_system(mesh, spec, SpaceConfig(1), spaces=(S, bad, W))

    # side 0 (columns 0, 1) and side 1 (columns 2, 3) of triangle 0
    tri_dofs = V.tri_dofs.copy()
    tri_dofs[0, [0, 2]] = tri_dofs[0, [2, 0]]
    bad = dataclasses.replace(V, tri_dofs=tri_dofs)
    with pytest.raises(SolverError, match=f"flux dof {tri_dofs[0, 0]} of triangle 0 leaves its polygon"):
        assemble_system(mesh, spec, SpaceConfig(1), spaces=(S, bad, W))
