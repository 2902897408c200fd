"""The fast paths of a flow step agree with the plain computations they replace.

The quadrature kernels run on the tensor Gauss grid, as 1-D collocation
passes along u and v, sum-factorized matrices and componentwise
multiply-adds on planes; each is checked against the per-element route
it replaced (`tests.element_oracle`: per-element tabulations, `np.einsum`
formulas, `np.bincount` assembly), and against the stacked matrix
products, `np.cross` and mass products kept here as oracles.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse

import mcflow.assembly
import mcflow.flow
import mcflow.splines
from mcflow.assembly import (
    BoundaryTables,
    ConstrainedSolver,
    ElementGeometry,
    MeshTables,
    assemble_boundary_load,
    assemble_constraint,
    assemble_curvature_load,
    assemble_mass_stiffness,
    assemble_normal_load,
    weingarten_energy,
)
from mcflow.config import ScenarioConfig
from mcflow.convergence import VARIABLES, convergence_study
from mcflow.export import _sample_grid
from mcflow.flow import FlowProblem
from mcflow.geometry import DegenerateSurface, SplineField, metric_pieces, surface_area
from mcflow.projections import RITZ_LAMBDA, initial_data, project_velocity
from mcflow.splines import (
    BLOCK_ELEMENTS,
    TensorGrid,
    build_quasi_interpolant,
    build_space,
    edge_points,
)
from tests import element_oracle as oracle
from tests.conftest import (
    boundary_data,
    full_constraint,
    grid_planes,
    grid_points,
    interpolate,
    weighted_mass_stiffness,
)
from tests.setup_oracle import constraint_residual

KERNEL_RTOL = 1e-13


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= KERNEL_RTOL * np.abs(ref).max()


def assert_same_matrix(got, ref):
    """`got`, on the diagonals of its space, against the oracle's CSR
    `ref`: the same diagonals, entries close, and exactly zero wherever
    `ref` stores nothing."""
    offsets, data, held = oracle.diagonals(ref)
    assert got.format == "dia"
    assert np.array_equal(got.offsets, offsets)
    assert_close(got.data, data)
    assert not np.any(got.data[~held])


@pytest.fixture(
    scope="module",
    params=[(sc, p) for sc in ("perturbed_plane", "sphere_patch") for p in (2, 3)],
    ids=lambda param: f"{param[0]}-p{param[1]}",
)
def kernel_setup(request):
    """An initialized problem at N=6 (frozen boundary data), the
    interpolated x, kappa, nu of its scenario and the per-element tables
    of its rule."""
    scenario, p = request.param
    cfg = ScenarioConfig(
        scenario=scenario,
        degree=p,
        smoothness=p - 1,
        elements_per_side=6,
        dt=0.01,
        t_final=0.01,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    prob.initialize()
    sc = prob.scenario
    x = interpolate(prob.quasi, sc)
    kappa = interpolate(prob.quasi, sc, "mean_curvature")
    kappa[prob.space.boundary_indices] = 0.0
    nu = interpolate(prob.quasi, sc, "normal")
    return prob, x, kappa, nu, oracle.ElementTables(prob.space, p + 1)


def test_field_kernels_match_einsum(kernel_setup):
    """Values and Jacobians on the grid against the per-element einsum."""
    prob, x, kappa, nu, et = kernel_setup
    rows = np.concatenate([x.T, kappa[None], nu.T])
    vals, du, dv = prob.tables.evaluate(rows, jac=slice(None))
    ref = et.field_values(np.column_stack([x, kappa, nu]))
    assert_close(vals, et.to_grid(ref))
    ref = et.to_grid(et.field_jacobians(np.column_stack([x, kappa, nu])))
    assert_close(du, ref[:, 0])
    assert_close(dv, ref[:, 1])
    vals, du, dv = prob.tables.evaluate(rows, values=slice(3, 5))
    assert du is None and dv is None
    assert_close(vals, et.to_grid(et.field_values(np.column_stack([kappa, nu[:, 0]]))))


def stacked_metric_pieces(J):
    """The metric as `metric_pieces` formed it before it went by components:
    G by a stacked 2 x 3 by 3 x 2 matrix product, G^-1 by the adjugate."""
    G = np.ascontiguousarray(np.swapaxes(J, -1, -2)) @ np.ascontiguousarray(J)
    det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
    Ginv = np.empty_like(G)
    Ginv[..., 0, 0] = G[..., 1, 1]
    Ginv[..., 1, 1] = G[..., 0, 0]
    Ginv[..., 0, 1] = -G[..., 0, 1]
    Ginv[..., 1, 0] = -G[..., 1, 0]
    return G, Ginv / det[..., None, None], np.sqrt(det)


def entries(G):
    """The entries (00, 01, 11) of stacked symmetric matrices (..., 2, 2), as (3, ...)."""
    return np.stack([G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]])


def test_metric_pieces_match_einsum(kernel_setup):
    """On the grid's Jacobian planes and on a scenario sample's Jacobians."""
    prob, x, _, _, et = kernel_setup
    J = et.field_jacobians(x)
    _, du, dv = prob.tables.evaluate(x.T, jac=slice(None))
    ginv, q = metric_pieces(du, dv)
    G = np.einsum("...da,...db->...ab", J, J)
    assert_close(ginv, et.to_grid(np.moveaxis(entries(np.linalg.inv(G)), 0, -1)))
    assert_close(q, et.to_grid(np.sqrt(np.linalg.det(G))))
    _, Ginv, q_ref = stacked_metric_pieces(J)
    assert_close(ginv, et.to_grid(np.moveaxis(entries(Ginv), 0, -1)))
    assert_close(q, et.to_grid(q_ref))

    J = prob.scenario.sample(grid_planes(prob.tables.points_1d).reshape(2, -1)).J
    ginv, q = metric_pieces(*J)
    G = np.einsum("adn,bdn->nab", J, J)
    assert_close(ginv, entries(np.linalg.inv(G)))
    assert_close(q, np.sqrt(np.linalg.det(G)))
    _, Ginv, q_ref = stacked_metric_pieces(J.transpose(2, 1, 0))
    assert_close(ginv, entries(Ginv))
    assert_close(q, q_ref)


def test_metric_of_a_nan_jacobian_raises(kernel_setup):
    """A NaN anywhere in J fails the determinant check, in both the metric
    and the area."""
    prob, x, _, _, _ = kernel_setup
    _, du, dv = prob.tables.evaluate(x.T, jac=slice(None))
    dv[2, 3, 1] = np.nan
    with pytest.raises(DegenerateSurface, match="nan"):
        metric_pieces(du, dv)
    x = x.copy()
    x[prob.space.interior_indices[0], 1] = np.nan
    with pytest.raises(DegenerateSurface, match="nan"):
        surface_area(x, prob.tables)


def test_area_weingarten_and_boundary_kernels_match_the_replaced_ones(kernel_setup):
    """`surface_area`, `weingarten_energy` and the conormal boundary load
    against the stacked matrix products and `np.cross` they replaced."""
    prob, x, _, nu, et = kernel_setup
    _, Ginv, q = stacked_metric_pieces(et.field_jacobians(x))
    ref = float(np.sum(et.weights * q))
    assert abs(surface_area(x, prob.tables) - ref) <= KERNEL_RTOL * ref
    assert abs(surface_area(x, prob.tables) - oracle.area(et, x)) <= KERNEL_RTOL * ref

    Jn = et.field_jacobians(nu)
    H = Jn.swapaxes(2, 3) @ np.ascontiguousarray(Jn)
    ref = et.to_grid(np.sum(H * Ginv.swapaxes(2, 3), axis=(2, 3)))
    geom = ElementGeometry(prob.tables, x, nu.T, num_jac=3)
    assert_close(weingarten_energy(geom), ref)

    bt = prob.btables
    et_b = oracle.EdgeTables(prob.space, bt.n_quad)
    tangent, curvature = boundary_data(prob.quasi, prob.scenario)
    ref = oracle.boundary_load(et_b, x, tangent, curvature, nu)
    assert_close(assemble_boundary_load(bt, nu), ref)


def test_assembly_kernels_match_einsum(kernel_setup):
    """M, A, c M + A, the Weingarten energy and both loads against the
    per-element einsum and `np.bincount` route."""
    prob, x, kappa, nu, et = kernel_setup
    tables = prob.tables
    M_ref, A_ref = oracle.mass_stiffness(et, x)
    geom = ElementGeometry(tables, x, np.concatenate([nu.T, kappa[None]]), num_jac=3)
    c = 1.5 / 0.0125
    for got, ref in (
        (weighted_mass_stiffness(tables, geom, 1.0, 0.0), M_ref),
        (assemble_mass_stiffness(tables, geom, 0.0), A_ref),
        (assemble_mass_stiffness(tables, geom, c), c * M_ref + A_ref),
    ):
        assert_same_matrix(got, ref)

    frob2 = weingarten_energy(geom)
    frob2_ref = oracle.weingarten_energy(et, x, nu)
    assert_close(frob2, et.to_grid(frob2_ref))
    nu_q, kap_q = geom.values[:3], geom.values[3]
    assert_close(nu_q, et.to_grid(et.field_values(nu)))

    zero = np.zeros(tables.weights.shape)
    assert_close(
        assemble_curvature_load(tables, geom, kap_q, zero, frob2),
        oracle.load(et, x, kappa, frob2_ref),
    )
    assert_close(
        assemble_normal_load(tables, geom, nu_q, np.zeros_like(nu_q), frob2),
        oracle.load(et, x, nu, frob2_ref),
    )


def test_loads_fold_their_tails(kernel_setup):
    """A load with a BDF tail folded in equals the load less M tail / dt,
    the mass product it replaced."""
    prob, x, kappa, nu, _ = kernel_setup
    tables = prob.tables
    dt = 0.0125
    tail_k, tail_n = -2.0 * kappa + 0.25 * x[:, 0], 0.5 * nu - 3.0 * x
    fields = np.concatenate([nu.T, kappa[None], tail_k[None] / dt, tail_n.T / dt])
    geom = ElementGeometry(tables, x, fields, num_jac=3)
    M = weighted_mass_stiffness(tables, geom, 1.0, 0.0)
    frob2 = weingarten_energy(geom)
    nu_q, kap_q, tk, tn = np.split(geom.values, [3, 4, 5])
    for got, f, tail in (
        (
            assemble_curvature_load(tables, geom, kap_q[0], tk[0], frob2),
            assemble_curvature_load(tables, geom, kap_q[0], 0.0 * tk[0], frob2),
            tail_k,
        ),
        (
            assemble_normal_load(tables, geom, nu_q, tn, frob2),
            assemble_normal_load(tables, geom, nu_q, 0.0 * tn, frob2),
            tail_n,
        ),
    ):
        assert_close(got, f - (M @ tail) / dt)


def test_solver_schur_complements_match_dense_ones(kernel_setup):
    """G = (K^-1)_BB against the dense inverse, and T against
    sum_k S_kB G S_kB^T from the dense constraint, both from the factors
    the solver keeps."""
    prob, x, _, _, _ = kernel_setup
    tables, dim = prob.tables, prob.space.dim
    K = assemble_mass_stiffness(tables, ElementGeometry(tables, x), 1.5 / 0.0125)
    solver = ConstrainedSolver(K, prob.saddle, "test solve")
    B = prob.space.boundary_indices
    U = np.triu(solver.G)
    G = U.T @ U
    assert_close(G, np.linalg.inv(K.toarray())[B][:, B])
    S = full_constraint(prob.saddle.C, prob.space).toarray()
    T_ref = sum(S[:, k * dim + B] @ G @ S[:, k * dim + B].T for k in range(3))
    U = np.triu(solver.T)
    assert_close(U.T @ U, T_ref)


def _oracle_setup(p, l, N, scenario="sphere_patch"):
    """A problem, interpolated x, kappa, nu and a smooth tail on it."""
    cfg = ScenarioConfig(scenario=scenario, degree=p, smoothness=l, elements_per_side=N)
    prob = FlowProblem(cfg)
    sc = prob.scenario
    x = interpolate(prob.quasi, sc)
    nu = interpolate(prob.quasi, sc, "normal")
    kappa = interpolate(prob.quasi, sc, "mean_curvature")
    return prob, x, kappa, nu


SPACES = [(p, l) for p in (2, 3, 4) for l in range(p)]


@pytest.fixture(params=[None, 2], ids=["one-block", "blocks-of-2"])
def block_elements(request, monkeypatch):
    """The grids' default blocking (one block at N=5), or blocks of two
    elements, the last one short."""
    if request.param is not None:
        monkeypatch.setattr(mcflow.splines, "BLOCK_ELEMENTS", request.param)
    return request.param


def _point_sets(space, quasi):
    """Sorted 1-D point sets a `TensorGrid` is built on, by name."""
    f = space.factor
    return {
        "quasi": quasi.grid.points_1d,
        "gauss": f.element_rule(space.degree + 3)[0].ravel(),
        "export": np.linspace(0.0, 1.0, 2 * f.num_elements + 1),
        # every knot, 0 and 1 included, bit for bit as the knot vector has it
        "knots": np.linspace(0.0, 1.0, f.num_elements + 1),
        # whole elements without a point
        "sparse": np.array([0.0, 0.5, 1.0]),
    }


# below C^(p-1) and at C^(p-1), in one block and in three, the last short
GRID_SPACES = [
    (p, l, N) for p, l in ((2, 0), (2, 1), (3, 0), (3, 2)) for N in (6, 2 * BLOCK_ELEMENTS + 3)
] + [(2, 1, 40)]


@pytest.mark.parametrize("points", ["quasi", "gauss", "export", "knots", "sparse"])
@pytest.mark.parametrize("p, l, N", GRID_SPACES, ids=[f"p{p}-C{l}-N{N}" for p, l, N in GRID_SPACES])
def test_tensor_grid_matches_spline_field_eval(p, l, N, points, block_elements):
    """The blocked grid products against dense ones and a pointwise
    evaluation: values and both derivatives against the dense
    collocation products and `SplineField.eval`, and the
    quasi-interpolant's transposed product against the dense product of
    its dual weights, at the quasi-interpolant's, a Gauss and the export
    grid, at the knots, and on [0, 0.5, 1], which leaves whole elements
    without a point."""
    space = build_space(p, l, N)
    quasi = build_quasi_interpolant(space)
    pts = _point_sets(space, quasi)[points]
    grid = TensorGrid(space, pts)
    blocks = -(-N // (block_elements or BLOCK_ELEMENTS))
    assert len(grid.point_blocks) == len(grid.basis_blocks) == blocks
    rng = np.random.default_rng(100 * p + 10 * l + N)
    rows = rng.normal(size=(4, space.dim))
    vals, du, dv = grid.evaluate(rows, jac=slice(None))

    n, m = space.factor.dim, len(pts)
    C0, C1 = space.factor.collocation(pts)
    X = rows.reshape(-1, n, n)
    for got, (a, b) in zip((vals, du, dv), ((C0, C0), (C1, C0), (C0, C1))):
        assert_close(got, a @ X @ b.T)
    ref_vals, ref_jac = SplineField(space, rows.T).eval(grid_points(pts), 1)
    assert_close(vals, ref_vals.T.reshape(-1, m, m))
    assert_close(du, ref_jac[:, :, 0].T.reshape(-1, m, m))
    assert_close(dv, ref_jac[:, :, 1].T.reshape(-1, m, m))

    if points == "quasi":
        values = rng.normal(size=(3, m, m))
        ref = np.einsum("aq,dqr,br->abd", quasi.w, values, quasi.w, optimize=True)
        assert_close(quasi.apply_to_values(values), ref.reshape(-1, 3))
        assert_close(quasi.apply_to_values(values[0]), ref[:, :, 0].ravel())


def test_velocity_errors_and_export_match_one_block(monkeypatch):
    """The velocity, the convergence study's errors and the export sample
    in blocks of two elements against one block."""
    base = ScenarioConfig(
        scenario="sphere_patch", degree=2, smoothness=1, elements_per_side=2, dt=0.0125
    )

    def outputs():
        prob = FlowProblem(replace(base, elements_per_side=8))
        state = prob.initialize()
        velocity = project_velocity(prob.quasi, state.kappa, state.nu)
        report = convergence_study(base, [2, 4, 8], t_final=2 * base.dt)
        return velocity, report, _sample_grid(prob, state)

    one = outputs()
    monkeypatch.setattr(mcflow.splines, "BLOCK_ELEMENTS", 2)
    blocked = outputs()
    assert_close(blocked[0], one[0])
    for var in VARIABLES:
        assert_close(blocked[1].errors_h1[var], one[1].errors_h1[var])
    for got, want in zip(blocked[2], one[2]):
        assert_close(got, want)


# N = 5 at every smoothness, and meshes with n <= 2p coefficients per
# direction, on which two pairs (e1, e2) share a flat diagonal e1 n + e2
KERNEL_MESHES = [(p, l, 5) for p, l in SPACES] + [(2, 1, 1), (3, 2, 1), (2, 1, 2), (3, 2, 2)]


@pytest.mark.parametrize(
    "p, l, N",
    KERNEL_MESHES,
    ids=[f"p{p}-C{l}" + ("" if N == 5 else f"-N{N}") for p, l, N in KERNEL_MESHES],
)
def test_tensor_kernels_match_the_element_oracle(p, l, N, block_elements):
    """Every tensor-grid kernel against the per-element route, at every
    smoothness and in one block or several: values and Jacobians, the
    metric, M, A and K, both loads with tails, the area and the
    Weingarten energy, on the flow's rule and on the quasi-interpolant's."""
    prob, x, kappa, nu = _oracle_setup(p, l, N)
    rng = np.random.default_rng(p * 10 + l)
    tail = rng.normal(size=(prob.space.dim, 4))
    for n_quad in (p + 1, p + 2):
        tables = MeshTables(prob.space, n_quad)
        assert len(tables.basis_blocks) == -(-N // (block_elements or BLOCK_ELEMENTS))
        et = oracle.ElementTables(prob.space, n_quad)
        fields = np.concatenate([nu.T, kappa[None], tail.T])
        geom = ElementGeometry(tables, x, fields, num_jac=3)
        assert_close(geom.values, et.to_grid(et.field_values(fields.T)))
        jac = et.to_grid(et.field_jacobians(nu))
        assert_close(geom.du, jac[:, 0])
        assert_close(geom.dv, jac[:, 1])
        Ginv, q = oracle.metric(et.field_jacobians(x))
        assert_close(geom.metric_inv, et.to_grid(np.moveaxis(entries(Ginv), 0, -1)))
        assert_close(geom.area_element, et.to_grid(q))

        M, A = oracle.mass_stiffness(et, x)
        assert_same_matrix(assemble_mass_stiffness(tables, geom, 7.5), 7.5 * M + A)
        assert_same_matrix(weighted_mass_stiffness(tables, geom, 1.0, 0.0), M)
        assert_same_matrix(assemble_mass_stiffness(tables, geom, 0.0), A)

        frob2 = weingarten_energy(geom)
        frob2_ref = oracle.weingarten_energy(et, x, nu)
        assert_close(frob2, et.to_grid(frob2_ref))
        vals = geom.values
        assert_close(
            assemble_curvature_load(tables, geom, vals[3], vals[4], frob2),
            oracle.load(et, x, kappa, frob2_ref) - M @ tail[:, 0],
        )
        assert_close(
            assemble_normal_load(tables, geom, vals[:3], vals[5:], frob2),
            oracle.load(et, x, nu, frob2_ref) - M @ tail[:, 1:],
        )
        ref = oracle.area(et, x)
        assert abs(surface_area(x, tables) - ref) <= KERNEL_RTOL * ref


@pytest.mark.parametrize("p, l", SPACES, ids=[f"p{p}-C{l}" for p, l in SPACES])
def test_band_entries_drop_exactly_the_structural_zeros(p, l, block_elements):
    """The entries of the diagonals that hold a coupling sit at distinct
    band entries, and the band entries they leave out are zero in a
    dense per-element assembly: so the gather drops exactly the
    couplings of basis functions that share no element, which below
    C^(p-1) the band holds and the diagonals keep as exact zeros."""
    prob, x, _, _ = _oracle_setup(p, l, 4)
    space, n = prob.space, prob.space.factor.dim
    offsets, gather = space.diagonals
    width = 2 * p + 1
    band_entry = gather[gather < (n * width) ** 2]
    assert len(np.unique(band_entry)) == len(band_entry)
    et = oracle.ElementTables(space, p + 1)
    Ginv, q = oracle.metric(et.field_jacobians(x))
    w, B, dB = et.weights, et.basis, et.basis_grad
    local = np.einsum("q,eq,eqi,eqj->eij", w, q, B, B) + np.einsum(
        "q,eq,eqai,eqab,eqbj->eij", w, q, dB, Ginv, dB
    )
    dense = np.zeros((space.dim, space.dim))
    np.add.at(dense, (et.conn[:, :, None], et.conn[:, None, :]), local)
    tables = MeshTables(space, p + 1)
    K = assemble_mass_stiffness(tables, ElementGeometry(tables, x), 1.0)
    assert_close(K.toarray(), dense)
    assert np.array_equal(K.offsets, offsets)
    # every in-range band entry that no entry of the diagonals takes couples nothing
    i1, d1, i2, d2 = np.meshgrid(*(np.arange(n), np.arange(width)) * 2, indexing="ij")
    j1, j2 = i1 + d1 - p, i2 + d2 - p
    inside = (j1 >= 0) & (j1 < n) & (j2 >= 0) & (j2 < n)
    taken = np.zeros(inside.shape, dtype=bool)
    taken.reshape(-1)[band_entry] = True
    assert np.all(inside[taken])
    left = inside & ~taken
    assert not np.any(dense[(i1 * n + i2)[left], (j1 * n + j2)[left]])
    if l == p - 1:
        assert not left.any()
    else:
        assert left.any()


@pytest.mark.parametrize("p, l", [(2, 1), (3, 2), (3, 0), (4, 1)])
@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_ritz_matrix_and_rhs_match_the_element_oracle(scenario, p, l, block_elements):
    """The Ritz projection's A + RITZ_LAMBDA M, its Gram matrix A + M and
    its right-hand side against the per-element route on the
    quasi-interpolant's rule."""
    prob, x, _, _ = _oracle_setup(p, l, 5, scenario)
    quasi = prob.quasi
    tables = MeshTables.of(quasi.grid)
    et = oracle.ElementTables(prob.space, quasi.grid.n_quad)
    M, A = oracle.mass_stiffness(et, x)
    geom = ElementGeometry(tables, x)
    assert_same_matrix(assemble_mass_stiffness(tables, geom, RITZ_LAMBDA), A + RITZ_LAMBDA * M)
    assert_same_matrix(assemble_mass_stiffness(tables, geom, 1.0), A + M)
    sc, p1d = prob.scenario, quasi.grid.points_1d
    edges = [sc.sample(edge_points(k, p1d), k) for k in range(4)]
    # the oracle reads the grid sample as a point list, element by element
    ref = oracle.ritz_rhs(et, sc.sample(grid_planes(p1d).reshape(2, -1)), edges)
    assert_close(initial_data(sc, quasi, tables, edges)[3], ref)


@pytest.mark.parametrize("p, l", SPACES, ids=[f"p{p}-C{l}" for p, l in SPACES])
def test_boundary_forms_match_the_element_oracle(p, l, block_elements):
    """The constraint S, slot for slot, and the conormal load against the
    per-element edge route, at every smoothness and in one block or
    several."""
    prob, x, _, nu = _oracle_setup(p, l, 5)
    tangent, curvature = boundary_data(prob.quasi, prob.scenario)
    bt = BoundaryTables(prob.space, 3 * p).freeze(x, tangent, curvature)
    et = oracle.EdgeTables(prob.space, 3 * p)
    S = full_constraint(assemble_constraint(bt), prob.space)
    S_ref = oracle.constraint(et, x, tangent)
    assert np.array_equal(S.indptr, S_ref.indptr)
    assert np.array_equal(S.indices, S_ref.indices)
    assert_close(S.data, S_ref.data)
    ref = oracle.boundary_load(et, x, tangent, curvature, nu)
    assert_close(assemble_boundary_load(bt, nu), ref)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("N", [4, 8, 20])
def test_apply_to_values_matches_einsum(p, N, rng):
    quasi = build_quasi_interpolant(build_space(p, p - 1, N))
    m = len(quasi.grid.points_1d)
    for shape in ((m, m), (3, m, m), (2, 3, m, m)):
        values = rng.normal(size=shape)
        got = quasi.apply_to_values(values)
        assert got.shape == (quasi.grid.space.dim,) + shape[:-2]
        grid = values.reshape(-1, m, m)
        ref = np.einsum("aq,dqr,br->abd", quasi.w, grid, quasi.w)
        ref = ref.reshape(got.shape)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_apply_to_values_checks_the_grid_shape(quasi_small, rng):
    """Values must be planes, ending in (m, m): samples listed flat in
    grid order, (m * m,) or (3, m * m), two stacked scalar samples and
    the point-major (m * m, 3) layout raise, while component-first planes
    (3, m, m) give each component's coefficients."""
    m = len(quasi_small.grid.points_1d)
    for shape in ((m * m,), (3, m * m), (2 * m * m,), (m * m, 3), (m, m * m + 1)):
        with pytest.raises(ValueError, match="off the"):
            quasi_small.apply_to_values(np.zeros(shape))
    values = rng.normal(size=(3, m, m))
    got = quasi_small.apply_to_values(values)
    assert got.shape == (quasi_small.grid.space.dim, 3)
    for d in range(3):
        assert_close(got[:, d], quasi_small.apply_to_values(values[d]))


@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_flow_area_matches_surface_area(scenario):
    """The area on the tables' Jacobian planes equals a pointwise evaluation."""
    p, N = 2, 8
    cfg = ScenarioConfig(
        scenario=scenario,
        degree=p,
        smoothness=1,
        elements_per_side=N,
        dt=0.01,
        t_final=0.1,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    x = interpolate(prob.quasi, prob.scenario)
    tables = MeshTables(prob.space, p + 1)
    _, J = SplineField(prob.space, x).eval(grid_points(tables.points_1d), 1)
    dens = np.sqrt(np.linalg.det(np.einsum("nda,ndb->nab", J, J)))
    ref = np.sum(tables.weights.ravel() * dens)
    assert abs(surface_area(x, prob.tables) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("N, nq", [(1, 3), (5, 3), (7, 4)])
def test_all_points_matches_element_loop(N, nq):
    """The grid points and weights of MeshTables equal a per-element
    tensor loop, read in grid order."""
    space = build_space(2, 1, N)
    tables = MeshTables(space, nq)
    points_1d, weights_1d, _, _ = oracle.element_tables(space.factor, nq)
    m = N * nq
    points = np.empty((m, m, 2))
    weights = np.empty((m, m))
    for eu in range(N):
        for ev in range(N):
            U, V = np.meshgrid(points_1d[eu], points_1d[ev], indexing="ij")
            block = (slice(eu * nq, (eu + 1) * nq), slice(ev * nq, (ev + 1) * nq))
            points[block] = np.stack([U, V], axis=-1)
            weights[block] = np.outer(weights_1d, weights_1d)
    assert np.array_equal(grid_points(tables.points_1d), points.reshape(-1, 2))
    assert np.array_equal(tables.weights, weights)
    pts, _ = oracle.gauss_mesh(space, nq)
    in_grid_order = oracle.ElementTables(space, nq).to_grid(pts).reshape(2, -1).T
    assert np.array_equal(in_grid_order, grid_points(tables.points_1d))


def test_step_evaluates_weingarten_energy_once(monkeypatch):
    cfg = ScenarioConfig(
        scenario="perturbed_plane",
        degree=2,
        smoothness=1,
        elements_per_side=6,
        dt=0.0015625,
        t_final=0.0015625,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    prob.initialize()

    calls = []
    original = mcflow.assembly.weingarten_energy

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mcflow.assembly, "weingarten_energy", counted)
    monkeypatch.setattr(mcflow.flow, "weingarten_energy", counted)
    prob.step()
    assert len(calls) == 1


class _CountedProducts:
    """A matrix that counts its products `self @ x`."""

    def __init__(self, matrix):
        self.matrix, self.calls = matrix, 0

    def __matmul__(self, other):
        self.calls += 1
        return self.matrix @ other


def test_bdf2_step_applies_s_b_three_times():
    """One BDF2 step makes three products with S_B: T at the solver's
    set-up, the multiplier's right-hand side and the saddle residual,
    whose max |S_B w_B| the diagnostics reuse as the constraint residual."""
    cfg = ScenarioConfig(elements_per_side=6, t_final=2 * ScenarioConfig.dt)
    prob = FlowProblem(cfg)
    prob.initialize()
    prob.step()
    counted = _CountedProducts(prob.saddle.S_B)
    prob.saddle.S_B = counted
    state, diag = prob.step()
    assert counted.calls == 3
    prob.saddle.S_B = counted.matrix
    assert diag.constraint_residual == constraint_residual(prob.saddle, state.nu)


def _count_factorizations(monkeypatch):
    """A list that gains one entry per `scipy.linalg.lapack.dpbtrf` call."""
    calls = []
    original = scipy.linalg.lapack.dpbtrf

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", counted)
    return calls


def test_step_factors_one_sparse_matrix(monkeypatch):
    """The curvature and the normal solve share one banded Cholesky per step."""
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=6,
        dt=0.0125,
        t_final=0.025,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    prob.initialize()
    calls = _count_factorizations(monkeypatch)
    for _ in range(2):
        calls.clear()
        prob.step()
        assert len(calls) == 1


@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_setup_factors_one_sparse_matrix(monkeypatch, scenario):
    """The Ritz projection of the normal runs at one weight on one factor."""
    cfg = ScenarioConfig(
        scenario=scenario,
        degree=2,
        smoothness=1,
        elements_per_side=6,
        dt=0.0125,
        t_final=0.025,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    calls = _count_factorizations(monkeypatch)
    prob.initialize()
    assert len(calls) == 1


@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_step_runs_no_einsum(monkeypatch, scenario):
    """A BDF1 and a BDF2 step run every contraction as a matrix product."""
    cfg = ScenarioConfig(
        scenario=scenario,
        degree=2,
        smoothness=1,
        elements_per_side=6,
        dt=0.0125,
        t_final=0.025,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    prob.initialize()

    calls = []
    original = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    for _ in range(2):
        prob.step()
    assert calls == []


@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_initialize_runs_no_einsum(monkeypatch, scenario):
    """Set-up, from the scenario sample to the Ritz projection, runs every
    contraction as a matrix product or by components."""
    cfg = ScenarioConfig(
        scenario=scenario,
        degree=2,
        smoothness=1,
        elements_per_side=6,
        dt=0.0125,
        t_final=0.025,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    calls = []
    original = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    prob.initialize()
    assert calls == []


def _two_step_problem(scenario):
    """An N=6 problem of two steps, not yet initialized."""
    cfg = ScenarioConfig(
        scenario=scenario,
        degree=2,
        smoothness=1,
        elements_per_side=6,
        dt=0.0125,
        t_final=0.025,
        output_dir="",
    )
    return FlowProblem(cfg)


def _count_sparse_indexing(monkeypatch):
    """A list that gains one entry per `__getitem__` of any scipy sparse matrix."""
    calls = []
    # the class whose __getitem__ each sparse format runs
    owners = {
        next(k for k in cls.__mro__ if "__getitem__" in vars(k))
        for cls in vars(scipy.sparse).values()
        if isinstance(cls, type)
        and issubclass(cls, scipy.sparse.sparray | scipy.sparse.spmatrix)
        and hasattr(cls, "__getitem__")
    }
    for owner in owners:
        original = vars(owner)["__getitem__"]

        def counted(self, key, original=original):
            calls.append(type(self).__name__)
            return original(self, key)

        monkeypatch.setattr(owner, "__getitem__", counted)
    return calls


@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_step_slices_no_sparse_matrix(monkeypatch, scenario):
    """The constraint blocks and the band plan are frozen at set-up,
    so a BDF1 and a BDF2 step index no sparse matrix."""
    prob = _two_step_problem(scenario)
    prob.initialize()
    calls = _count_sparse_indexing(monkeypatch)
    for _ in range(2):
        prob.step()
    assert calls == []


def _count_solve_widths(monkeypatch):
    """A list that gains, per `dpbtrf` call, the list of the column counts
    of the `dpbtrs` solves that follow it."""
    factors = []
    factor, solve = scipy.linalg.lapack.dpbtrf, scipy.linalg.lapack.dpbtrs

    def counted_factor(*args, **kwargs):
        factors.append([])
        return factor(*args, **kwargs)

    def counted_solve(ab, b, *args, **kwargs):
        factors[-1].append(b.shape[1])
        return solve(ab, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", counted_factor)
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", counted_solve)
    return factors


@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_no_wide_solve(monkeypatch, scenario):
    """A step solves with its factor at most twice, at most 4 columns a time;
    a Ritz iteration solves only the normal's 3 columns, twice."""
    prob = _two_step_problem(scenario)
    factors = _count_solve_widths(monkeypatch)
    prob.initialize()
    (ritz,) = factors
    assert ritz == [3] * (2 * prob.ritz_info["iterations"])
    for _ in range(2):
        factors.clear()
        prob.step()
        (widths,) = factors
        assert len(widths) <= 2 and max(widths) <= 4


def _pattern_per_table(space, n_quad):
    """The CSR pattern as each `MeshTables` used to build it, from its Gauss points."""
    p, f = space.degree, space.factor
    first = f.find_span(f.element_rule(n_quad)[0][:, 0]) - p
    a = first[:, None] + np.arange(p + 1)[None, :]
    conn = (a[:, None, :, None] * f.dim + a[None, :, None, :]).reshape(-1, (p + 1) ** 2)
    dim = space.dim
    keys = (conn[:, :, None] * dim + conn[:, None, :]).ravel()
    pairs, scatter = np.unique(keys, return_inverse=True)
    counts = np.bincount(pairs // dim, minlength=dim)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    return conn, (pairs % dim).astype(np.int32), indptr, scatter


@pytest.mark.parametrize("p,l,N", [(2, 1, 1), (2, 0, 3), (2, 1, 8), (3, 2, 5), (3, 0, 4)])
def test_element_pattern_matches_per_table_build(p, l, N):
    """The diagonals of the space hold exactly the couplings of a CSR
    pattern built from Gauss points, and the oracle's CSR pattern, element
    connectivity and scatter equal that build."""
    space = build_space(p, l, N)
    offsets, gather = space.diagonals
    width = 2 * p + 1
    indices, indptr = oracle.csr_pattern(space)
    conn, scatter = oracle.element_pattern(space)
    for n_quad in (p + 1, p + 2):
        ref = _pattern_per_table(space, n_quad)
        for got, want in zip((conn, indices, indptr, scatter), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        coupled = scipy.sparse.csr_matrix(
            (np.ones(len(ref[1])), ref[1], ref[2]), shape=(space.dim, space.dim)
        )
        ref_offsets, _, held = oracle.diagonals(coupled)
        assert np.array_equal(offsets, ref_offsets)
        assert np.array_equal(gather < (space.factor.dim * width) ** 2, held)


def _tabulation_by_broadcast(space, n_quad):
    """Points, basis and gradients as `MeshTables` used to build them:
    broadcast products of the univariate tables, stacked."""
    f = space.factor
    pts, _, _, tab = oracle.element_tables(f, n_quad)
    ne = f.num_elements**2
    nq2, nloc = n_quad * n_quad, (f.degree + 1) ** 2

    def tensor(fu_tab, fv_tab):
        B = fu_tab[:, None, :, None, :, None] * fv_tab[None, :, None, :, None, :]
        return B.reshape(ne, nq2, nloc)

    b, g = tab[:, :, 0, :], tab[:, :, 1, :]
    shape = (len(pts), len(pts), n_quad, n_quad)
    U = np.broadcast_to(pts[:, None, :, None], shape).reshape(ne, nq2)
    V = np.broadcast_to(pts[None, :, None, :], shape).reshape(ne, nq2)
    points = np.stack([U, V], axis=-1)
    return points, tensor(b, b), np.stack([tensor(g, b), tensor(b, g)], axis=2)


@pytest.mark.parametrize("p,l,N", [(2, 1, 1), (2, 0, 3), (2, 1, 8), (3, 2, 5), (3, 0, 4)])
def test_mesh_tables_match_the_broadcast_tabulation(p, l, N):
    """The per-element tables of the oracle, and the collocation matrices
    and pair tables of `MeshTables` read on each element, equal the
    broadcast products of the univariate tabulation."""
    space = build_space(p, l, N)
    first, n = space.factor.element_first, space.factor.dim
    for n_quad in (p + 1, p + 2, 3 * p):
        et = oracle.ElementTables(space, n_quad)
        ref = _tabulation_by_broadcast(space, n_quad)
        for g, want in zip((et.points, et.basis, et.basis_grad), ref):
            assert g.shape == want.shape
            assert np.array_equal(g, want)
        assert np.shares_memory(et.grad_rows, et.basis_grad)

        tables = MeshTables(space, n_quad)
        tab = oracle.element_tables(space.factor, n_quad)[3]
        for e in range(N):
            rows = slice(e * n_quad, (e + 1) * n_quad)
            active = slice(first[e], first[e] + p + 1)
            for k in range(2):
                assert np.array_equal(tables.c[k][rows, active], tab[e, :, k])
                assert not np.any(np.delete(tables.c[k][rows], np.r_[active], axis=1))
        pairs = tables.pairs.reshape(len(tables.points_1d), 4, n, 2 * p + 1)
        for k, (a, b) in enumerate(((0, 0), (1, 1), (1, 0), (0, 1))):
            for d in range(-p, p + 1):
                ref = np.zeros((len(tables.points_1d), n))
                i = np.arange(max(0, -d), min(n, n - d))
                ref[:, i] = tables.c[a][:, i] * tables.c[b][:, i + d]
                assert np.array_equal(pairs[:, k, :, d + p], ref)


def test_flow_step_builds_no_sparse_transpose(monkeypatch):
    """The saddle solves keep one matrix of the constraint, C = S_B^T as
    CSR, and apply S_B by its CSC view, which shares C's arrays and is
    taken once per problem: a step builds no transpose."""
    prob = _two_step_problem("sphere_patch")
    prob.initialize()
    lo, dim = prob.saddle, prob.space.dim
    S = full_constraint(lo.C, prob.space).toarray()
    blocks = [S[:, k * dim + lo.boundary] for k in range(3)]
    assert lo.C.format == "csr"
    assert np.array_equal(lo.C.toarray(), np.hstack(blocks).T)
    assert np.array_equal(lo.S_B.toarray(), np.hstack(blocks))
    for a in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(lo.S_B, a), getattr(lo.C, a))
    calls = []
    original = scipy.sparse.csr_matrix.transpose

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csr_matrix, "transpose", counted)
    prob.step()
    assert calls == []


@pytest.mark.parametrize(
    "scenario, p, l, N",
    [("sphere_patch", 2, 1, 20), ("perturbed_plane", 3, 2, 8), ("sphere_patch", 3, 0, 5)],
)
def test_constraint_blocks_are_symmetric(scenario, p, l, N):
    """Each component block S_kB of the constraint integrates products of
    two trace basis functions, so it is symmetric: `SaddleLayout.C`,
    which is S_B^T, stacks the blocks S_kB, and `C @ G` gives S_kB G."""
    cfg = ScenarioConfig(scenario=scenario, degree=p, smoothness=l, elements_per_side=N)
    prob = FlowProblem(cfg)
    prob.initialize()
    C = prob.saddle.C.toarray()
    nB = C.shape[1]
    for k in range(3):
        S_kB = C[k * nB : (k + 1) * nB].T
        assert S_kB.shape[0] == S_kB.shape[1]
        assert np.abs(S_kB - S_kB.T).max() <= 1e-14 * np.abs(S_kB).max()


def test_flow_step_builds_no_csr_of_k(monkeypatch):
    """K lives as its diagonals: a BDF1 and a BDF2 step build no
    `scipy.sparse.csr_matrix` of shape (dim, dim)."""
    prob = _two_step_problem("sphere_patch")
    prob.initialize()
    dim = prob.space.dim
    calls = []
    original = scipy.sparse.csr_matrix.__init__

    def counted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        calls.append(self.shape)

    monkeypatch.setattr(scipy.sparse.csr_matrix, "__init__", counted)
    for _ in range(2):
        prob.step()
    assert (dim, dim) not in calls


def test_run_builds_no_full_width_constraint(monkeypatch):
    """The constraint lives on the boundary coefficients: the problem
    keeps C = S_B^T (3 n_B, n_B) and no S, and `initialize`, a BDF1 and
    a BDF2 step build no sparse matrix with 3 dim columns."""
    prob = _two_step_problem("sphere_patch")
    dim, n_B = prob.space.dim, len(prob.space.boundary_indices)
    shapes = []
    for cls in (
        scipy.sparse.coo_matrix,
        scipy.sparse.csr_matrix,
        scipy.sparse.csc_matrix,
        scipy.sparse.dia_matrix,
    ):

        def counted(self, *args, _original=cls.__init__, **kwargs):
            _original(self, *args, **kwargs)
            shapes.append(self.shape)

        monkeypatch.setattr(cls, "__init__", counted)
    prob.initialize()
    assert prob.saddle.C.shape == (3 * n_B, n_B)
    assert not hasattr(prob, "S")
    for _ in range(2):
        prob.step()
    assert shapes and all(3 * dim not in shape for shape in shapes)


def test_ritz_tables_share_the_flow_pattern(monkeypatch):
    """Both `MeshTables` of a set-up hold the one set of diagonals of their
    space: the flow's, built anew, and the Ritz projection's, built on the
    quasi-interpolant's grid by `MeshTables.of`."""
    built = []

    class Recorded(MeshTables):
        def _tabulate(self):
            super()._tabulate()
            built.append(self)

    monkeypatch.setattr(mcflow.flow, "MeshTables", Recorded)
    prob = FlowProblem(ScenarioConfig(scenario="sphere_patch", elements_per_side=4))
    prob.initialize()
    flow_tables, ritz_tables = built
    assert ritz_tables.n_quad != flow_tables.n_quad
    assert flow_tables is prob.tables
    for name in ("offsets", "gather"):
        assert getattr(ritz_tables, name) is getattr(flow_tables, name)
    assert np.array_equal(ritz_tables.offsets, flow_tables.offsets)
    assert np.array_equal(ritz_tables.gather, flow_tables.gather)
