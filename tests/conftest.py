import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from sdgdarcy.adaptivity import dorfler_mark
from sdgdarcy.geometry import FRACTURE, INTERIOR, DomainSpec, Fracture, build_initial_mesh, refine
from sdgdarcy.quadrature import edge_rule, map_to_triangles, triangle_rule


def make_fracture(points, kappa_n=100.0, kappa_t=100.0, thickness=0.01):
    return Fracture(
        points=np.asarray(points, dtype=float),
        kappa_n=kappa_n,
        kappa_t=kappa_t,
        thickness=thickness,
    )


def doerfler_refinements(data, mesh):
    """Yield (mesh, marked) along three Doerfler refinements of mesh, with
    drawn indicators and theta, then the last mesh with marked None."""
    for _ in range(3):
        n = mesh.n_elements
        ind = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        theta = data.draw(st.floats(0.1, 0.9))
        marked = dorfler_mark(np.array(ind) ** 4, theta)
        yield mesh, marked
        mesh = refine(mesh, marked)
    yield mesh, None


@pytest.fixture
def two_square_fractured():
    """(0,2)x(0,1) split by the fracture {1}x(0,1), one square per side."""
    dom = DomainSpec(
        rectangles=[(0.0, 0.0, 2.0, 1.0)],
        fractures=[make_fracture([[1.0, 0.0], [1.0, 1.0]])],
    )
    return build_initial_mesh(dom, 1.0)


@pytest.fixture
def two_square_plain():
    dom = DomainSpec(rectangles=[(0.0, 0.0, 2.0, 1.0)])
    return build_initial_mesh(dom, 1.0)


def assemble_bh_star(sub, V, S):
    """Facewise adjoint pressure-gradient form, the oracle for B^T.

    Rows are flux dofs, columns pressure dofs:

    b_h*(p, v) = sum_{interior e} <p, [v.n]>_e - sum_tau (p, div v)_tau
               + sum_{fracture e} (<[p], {v.n}>_e + <{p}, [v.n]>_e).

    It agrees with B^T on pressures with zero boundary trace.
    """
    k = V.k
    rows, cols, vals = [], [], []

    def add(dofs_i, dofs_j, local):
        rows.append(np.broadcast_to(dofs_i[:, :, None], local.shape).ravel())
        cols.append(np.broadcast_to(dofs_j[:, None, :], local.shape).ravel())
        vals.append(local.ravel())

    rule = triangle_rule(2 * k + 2)
    qp, qw = map_to_triangles(rule, sub.tri_coords)
    div = V.basis_divergence(np.arange(sub.n_triangles), qp)  # (nt, nq, nv)
    sv = S.eval_ref(rule.points)  # (nq, ns)
    add(V.tri_dofs, S.tri_dofs, -np.einsum("tq,tqv,qs->tvs", qw, div, sv))

    erule = edge_rule(2 * k + 2)
    ts, ws = erule.points, erule.weights
    L = V.edge_trace_matrix(ts)
    # p is single valued across interior edges but each side's triangle
    # expands it in its own dofs, so traces and test dofs are taken per
    # side; on fracture edges the jump and average terms collapse to the
    # same per-side pairing <p1, v1.n> - <p2, v2.n>
    for kind in (INTERIOR, FRACTURE):
        edges = sub.edges_of_kind(kind)
        if edges.size == 0:
            continue
        pts = sub.edge_points(edges, ts)
        wl = sub.edge_length[edges]
        for side, sign in ((0, 1.0), (1, -1.0)):
            t = sub.edge_tris[edges, side]
            sb = S.basis_values(t, pts)
            local = sign * np.einsum("q,e,qj,eqs->ejs", ws, wl, L, sb)
            add(V.edge_side_dofs[edges, side], S.tri_dofs[t], local)

    r, c, v = (np.concatenate(a) for a in (rows, cols, vals))
    return sp.coo_matrix((v, (r, c)), shape=(V.ndof, S.ndof)).tocsr()
