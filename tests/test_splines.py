"""Spline spaces, basis evaluation and the quasi-interpolant."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from mcflow.assembly import BoundaryTables, MeshTables
from mcflow.geometry import SplineField
from mcflow.splines import (
    GaussGrid,
    TensorGrid,
    TensorSplineSpace,
    UnivariateSpline,
    _dual_weights,
    build_quasi_interpolant,
    build_space,
    edge_points,
    gauss_rule,
)
from tests import element_oracle as oracle
from tests.conftest import eval_basis, grid_planes, grid_points

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# -- knot vectors and dimensions -------------------------------------------


@pytest.mark.parametrize(
    "p,l,N,dim",
    [(2, 1, 20, 22), (2, 1, 4, 6), (3, 2, 20, 23), (3, 1, 10, 22), (4, 3, 5, 9)],
)
def test_univariate_dimension(p, l, N, dim):
    u = UnivariateSpline(p, l, N)
    assert u.dim == dim == N * (p - l) + l + 1
    # open knot vector: end multiplicities p+1, interior multiplicities p-l
    assert np.all(u.knots[: p + 1] == 0.0) and np.all(u.knots[-p - 1 :] == 1.0)
    interior, counts = np.unique(u.knots[p + 1 : -p - 1], return_counts=True)
    assert np.allclose(interior, np.linspace(0, 1, N + 1)[1:-1])
    assert np.all(counts == p - l)


def test_tensor_dimension_and_boundary_split():
    space = build_space(2, 1, 6)
    assert space.dim == 64
    assert len(space.boundary_indices) == 4 * 8 - 4
    assert len(space.interior_indices) == 64 - 28


@pytest.mark.parametrize(
    "bad",
    [(1, 0, 4), (2, 2, 4), (2, -1, 4), (2, 1, 0)],
)
def test_invalid_space_parameters_rejected(bad):
    with pytest.raises(ValueError):
        UnivariateSpline(*bad)


# -- basis evaluation --------------------------------------------------------


@pytest.mark.parametrize("N", [1, 5])
@pytest.mark.parametrize("p,l", [(p, l) for p in (2, 3, 4, 5) for l in (0, p - 1)])
def test_univariate_basis_matches_scipy(rng, p, l, N):
    """Independent oracle: scipy BSpline with the same knot vector, for
    values and first derivatives at random points, every knot, 0 and 1."""
    u = UnivariateSpline(p, l, N)
    coeffs = rng.normal(size=u.dim)
    ref = BSpline(u.knots, coeffs, u.degree)
    x = np.concatenate([rng.uniform(0.0, 1.0, size=200), u.knots, [0.0, 1.0]])
    first, ders = u.eval_basis(x)
    assert ders.shape == (len(x), 2, u.degree + 1)
    idx = first[:, None] + np.arange(u.degree + 1)[None, :]
    for k in range(2):
        ours = np.einsum("na,na->n", ders[:, k, :], coeffs[idx])
        theirs = ref.derivative(k)(x) if k else ref(x)
        assert np.abs(ours - theirs).max() < 1e-11


@settings(max_examples=50, deadline=None)
@given(u=UNIT, v=UNIT)
def test_partition_of_unity(u, v):
    space = build_space(2, 1, 5)
    _, vals = eval_basis(space, (u, v))
    assert vals.min() >= -1e-15
    assert abs(vals.sum() - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(u=UNIT, v=UNIT)
def test_basis_gradients_sum_to_zero(u, v):
    space = build_space(3, 2, 4)
    _, jac = SplineField(space, np.ones(space.dim)).eval(np.array([u, v]), 1)
    assert np.abs(jac).max() < 1e-10


def test_eval_outside_domain_rejected():
    u = UnivariateSpline(2, 1, 4)
    with pytest.raises(ValueError):
        u.eval_basis(np.array([-0.01]))
    space = build_space(2, 1, 4)
    with pytest.raises(ValueError):
        eval_basis(space, (0.5, 1.01))
    with pytest.raises(ValueError):
        TensorGrid(space, [0.0, 1.01])
    with pytest.raises(ValueError, match="sorted"):
        TensorGrid(space, [0.5, 0.25])


def test_element_tables_consistency():
    u = UnivariateSpline(2, 1, 5)
    points, weights, first, values = oracle.element_tables(u, 4)
    assert abs(weights.sum() - u.mesh_size) < 1e-15
    # tabulated values agree with pointwise evaluation
    f2, d2 = u.eval_basis(points.ravel())
    assert np.array_equal(f2.reshape(5, 4)[:, 0], first)
    assert np.allclose(d2.reshape(5, 4, 2, 3), values)


DIAGONAL_SPACES = [
    (p, l, N) for p in (2, 3, 4) for l in range(p) for N in [*range(1, 2 * p + 3), 40]
]


@pytest.mark.parametrize("p,l,N", DIAGONAL_SPACES)
def test_diagonals_match_the_search(p, l, N):
    """The closed-form diagonals of a space, bit for bit and dtype for
    dtype, against the search over every coupling, also where n <= 2p
    merges two offsets."""
    space = build_space(p, l, N)
    offsets, gather = space.diagonals
    ref_offsets, ref_gather = oracle.space_diagonals(space)
    assert offsets.dtype == ref_offsets.dtype and gather.dtype == ref_gather.dtype
    assert np.array_equal(offsets, ref_offsets)
    assert np.array_equal(gather, ref_gather)


# -- quasi-interpolant -------------------------------------------------------


def test_dual_basis_identity(space_small, quasi_small):
    """The coefficient functionals are exactly dual to the basis."""
    p1d = quasi_small.grid.points_1d
    B = np.zeros((len(p1d) ** 2, space_small.dim))
    for i, pt in enumerate(grid_points(p1d)):
        idx, vals = eval_basis(space_small, pt)
        B[i, idx] = vals
    C = quasi_small.apply_to_values(B.T.reshape(-1, len(p1d), len(p1d)))
    assert np.abs(C - np.eye(space_small.dim)).max() < 1e-10


def _dual_weights_by_loop(uspace, n_quad):
    """The dual weights by one local least-squares solve per basis function.

    Oracle of `_dual_weights`: for each b_j, gather the elements of its
    support and the basis functions active there, add up their local
    Gram matrix and right-hand side entry by entry, element by element,
    solve on every point of the grid, and keep the row of b_j.
    """
    p = uspace.degree
    N = uspace.num_elements
    points, weights, first, values = oracle.element_tables(uspace, n_quad)
    vals = values[:, :, 0, :]  # derivative row 0: the values, (N, nq, p+1)

    W = np.zeros((uspace.dim, N * n_quad))
    for j in range(uspace.dim):
        elems = np.nonzero((first <= j) & (j <= first + p))[0]
        active = np.unique(
            np.concatenate([first[e] + np.arange(p + 1) for e in elems])
        )
        na = len(active)
        pos = {g: a for a, g in enumerate(active)}
        gram = np.zeros((na, na))
        rhs_rows = np.zeros((na, N * n_quad))
        for e in elems:
            cols = e * n_quad + np.arange(n_quad)
            loc = [pos[first[e] + a] for a in range(p + 1)]
            be = vals[e]  # (nq, p+1)
            wbe = weights[:, None] * be
            gram_e = be.T @ wbe
            for a, ga in enumerate(loc):
                for b, gb in enumerate(loc):
                    gram[ga, gb] += gram_e[a, b]
                rhs_rows[ga, cols] += wbe[:, a]
        sol = np.linalg.solve(gram, rhs_rows)
        W[j] = sol[pos[j]]
    return W, points.ravel()


@pytest.mark.parametrize("n_quad_extra", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3, 8])
@pytest.mark.parametrize("p,l", [(p, l) for p in (2, 3, 4) for l in (0, p - 1)])
def test_dual_weights_match_the_per_function_solve(p, l, N, n_quad_extra):
    """The dual weights equal the oracle's bit for bit, and are dual."""
    u = UnivariateSpline(p, l, N)
    n_quad = p + n_quad_extra
    grid = GaussGrid(TensorSplineSpace(u), n_quad)
    W, points = _dual_weights(grid), grid.points_1d
    ref, ref_points = _dual_weights_by_loop(u, n_quad)
    assert np.array_equal(points, ref_points)
    assert np.array_equal(W, ref)
    B = u.collocation(points)[0]  # (N nq, dim)
    assert np.abs(W @ B - np.eye(u.dim)).max() <= 1e-13


def test_projector_on_spline_data(space_small, quasi_small, rng):
    """Applying the quasi-interpolant to a spline reproduces coefficients."""
    coeffs = rng.normal(size=(space_small.dim, 3))
    fld = SplineField(space_small, coeffs)
    p1d = quasi_small.grid.points_1d
    values = fld.eval(grid_points(p1d)).T.reshape(3, len(p1d), len(p1d))
    out = quasi_small.apply_to_values(values)
    assert np.abs(out - coeffs).max() < 1e-11


@pytest.mark.parametrize("p,l", [(2, 1), (3, 2)])
def test_polynomial_reproduction(p, l, rng):
    space = build_space(p, l, 5)
    quasi = build_quasi_interpolant(space)
    cu = rng.normal(size=p + 1)
    cv = rng.normal(size=p + 1)

    def f(pts):
        return np.polyval(cu, pts[0]) * np.polyval(cv, pts[1])

    fld = SplineField(space, quasi.apply_to_values(f(grid_planes(quasi.grid.points_1d))))
    pts = rng.uniform(size=(60, 2))
    assert np.abs(fld.eval(pts)[:, 0] - f(pts.T)).max() < 1e-11


@pytest.mark.parametrize("p,l,gate", [(2, 1, 2.8), (3, 2, 3.8)])
def test_quasi_interpolant_l2_order(p, l, gate):
    """L2 error of Q(f) for smooth non-polynomial f decays at order p+1."""

    def f(pts):
        return np.sin(1.3 * np.pi * pts[0]) * np.exp(0.7 * pts[1])

    errs = []
    for N in (4, 8, 16, 32):
        space = build_space(p, l, N)
        quasi = build_quasi_interpolant(space)
        fld = SplineField(space, quasi.apply_to_values(f(grid_planes(quasi.grid.points_1d))))
        tables = MeshTables(space, p + 2)
        pts = grid_points(tables.points_1d)
        w = tables.weights.ravel()
        d = fld.eval(pts)[:, 0] - f(pts.T)
        errs.append(np.sqrt(np.sum(w * d * d)))
    eocs = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert eocs.min() >= gate


def test_functional_support_is_local(space_small, quasi_small):
    """Dual functionals only sample inside the support of their basis function."""
    uspace, W, points = space_small.factor, quasi_small.w, quasi_small.grid.points_1d
    h, p = uspace.mesh_size, uspace.degree
    for j in (0, uspace.dim // 2, uspace.dim - 1):
        pts = points[np.nonzero(W[j])[0]]
        # support of b_j plus the elements overlapping it
        lo, hi = uspace.knots[j] - p * h, uspace.knots[j + p + 1] + p * h
        assert len(pts) > 0
        assert pts.min() >= lo and pts.max() <= hi


# -- quadrature and edges ----------------------------------------------------


def test_gauss_rule_exactness():
    x, w = gauss_rule(4)
    # exact for degree <= 7 on [0, 1]
    for k in range(8):
        assert abs(np.dot(w, x ** k) - 1.0 / (k + 1)) < 1e-14


def test_edge_points_layout():
    """Edge points are component first, (2, ...) for parameters (...)."""
    s = np.array([0.0, 0.25, 1.0])
    assert edge_points(0, s).shape == (2, 3)
    assert edge_points(1, s.reshape(3, 1)).shape == (2, 3, 1)
    assert np.array_equal(edge_points(0, s)[1], np.zeros(3))
    assert np.array_equal(edge_points(1, s)[0], np.ones(3))
    assert np.array_equal(edge_points(2, s)[0], s)
    assert np.array_equal(edge_points(3, s)[1], s)


def test_boundary_trace_space(space_small, rng):
    """4n - 4 constraint rows with shared corners; traces match the full field."""
    bt = BoundaryTables(space_small, 3)
    n = space_small.factor.dim
    edge_indices = space_small.edge_indices
    assert edge_indices.shape == bt.rows.shape == (4, n)
    assert len(space_small.boundary_indices) == 4 * n - 4
    assert np.array_equal(np.unique(bt.rows), np.arange(4 * n - 4))
    # each per-edge coefficient belongs to one tensor basis function and
    # one row: those the per-element route names for it
    et = oracle.EdgeTables(space_small, 3)
    assert np.array_equal(edge_indices.ravel()[et.local], et.flat)
    assert np.array_equal(bt.rows.ravel()[et.local], et.rows)
    # the corner (u, v) = (0, 0) starts edges 0 and 3 and has one row,
    # but a coefficient on each edge
    first = [k * space_small.factor.num_elements for k in (0, 3)]
    assert edge_indices[0, 0] == edge_indices[3, 0] == 0
    assert et.flat[first[0], 0] == et.flat[first[1], 0] == 0
    assert bt.rows[0, 0] == bt.rows[3, 0]
    assert et.local[first[0], 0] != et.local[first[1], 0]
    coeffs = rng.normal(size=(space_small.dim, 2))
    fld = SplineField(space_small, coeffs)
    vals = bt.trace(coeffs[edge_indices])
    for edge in range(4):
        full = fld.eval(edge_points(edge, bt.points_1d).T)
        assert np.abs(vals[:, edge] - full.T).max() < 1e-13
