"""The fast paths of a flow step agree with the plain computations they replace.

The quadrature kernels run as batched matrix products and componentwise
multiply-adds; each is checked against the `np.einsum` formula, and the
stacked matrix products, `np.cross` and mass products that it replaced,
kept here as oracles.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse

import mcflow.assembly
import mcflow.flow
from mcflow.assembly import (
    ConstrainedSolver,
    ElementGeometry,
    MeshTables,
    assemble_boundary_load,
    assemble_curvature_load,
    assemble_mass_stiffness,
    assemble_normal_load,
    scatter_vector,
    weingarten_energy,
)
from mcflow.config import ScenarioConfig
from mcflow.flow import BdfScheme, FlowProblem
from mcflow.geometry import DegenerateSurface, SplineField, metric_pieces, surface_area
from mcflow.splines import TensorGrid, build_quasi_interpolant, build_space
from tests.conftest import interpolate

KERNEL_RTOL = 1e-13


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= KERNEL_RTOL * np.abs(ref).max()


@pytest.fixture(
    scope="module",
    params=[(sc, p) for sc in ("perturbed_plane", "sphere_patch") for p in (2, 3)],
    ids=lambda param: f"{param[0]}-p{param[1]}",
)
def kernel_setup(request):
    """An initialized problem at N=6 (frozen boundary data) and the
    interpolated x, kappa, nu of its scenario."""
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
    return prob, x, kappa, nu


def test_field_kernels_match_einsum(kernel_setup):
    prob, x, kappa, _ = kernel_setup
    tables = prob.tables
    for coeffs in (kappa, x):
        loc = coeffs[tables.conn]
        vals = tables.field_values(coeffs)
        jacs = tables.field_jacobians(coeffs)
        if coeffs.ndim == 1:
            assert_close(vals, np.einsum("eql,el->eq", tables.basis, loc))
            loc = loc[:, :, None]
        else:
            assert_close(vals, np.einsum("eql,eld->eqd", tables.basis, loc))
        assert_close(jacs, np.einsum("eqal,eld->eqda", tables.basis_grad, loc))


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


def test_metric_pieces_match_einsum(kernel_setup):
    prob, x, _, _ = kernel_setup
    pts = prob.tables.points.reshape(-1, 2)
    for J in (prob.tables.field_jacobians(x), prob.scenario.sample(pts).J):
        Ginv, q = metric_pieces(J)
        ref = np.einsum("...da,...db->...ab", J, J)
        assert_close(Ginv, np.linalg.inv(ref))
        assert_close(q, np.sqrt(np.linalg.det(ref)))
        for got, want in zip((Ginv, q), stacked_metric_pieces(J)[1:]):
            assert_close(got, want)


def test_metric_of_a_nan_jacobian_raises(kernel_setup):
    """A NaN anywhere in J fails the determinant check, in both the metric
    and the area."""
    prob, x, _, _ = kernel_setup
    J = prob.tables.field_jacobians(x).copy()
    J[3, 1, 2, 0] = np.nan
    with pytest.raises(DegenerateSurface, match="nan"):
        metric_pieces(J)
    x = x.copy()
    x[prob.space.interior_indices[0], 1] = np.nan
    with pytest.raises(DegenerateSurface, match="nan"):
        surface_area(x, prob.tables)


def test_area_weingarten_and_boundary_kernels_match_the_replaced_ones(kernel_setup):
    """`surface_area`, `weingarten_energy` and the conormal boundary load
    against the stacked matrix products and `np.cross` they replaced."""
    prob, x, _, nu = kernel_setup
    tables = prob.tables
    _, Ginv, q = stacked_metric_pieces(tables.field_jacobians(x))
    ref = float(np.sum(tables.weights * q))
    assert abs(surface_area(x, tables) - ref) <= KERNEL_RTOL * ref

    Jn = tables.field_jacobians(nu)
    H = Jn.swapaxes(2, 3) @ np.ascontiguousarray(Jn)
    ref = np.sum(H * Ginv.swapaxes(2, 3), axis=(2, 3))
    assert_close(weingarten_energy(tables, ElementGeometry(tables, x), nu), ref)

    bt, fr = prob.btables, prob.btables.frozen
    nu_b = bt.trace(nu[bt.flat])
    alpha = np.sum(fr["kappa"] * nu_b, axis=2)
    dens = bt.weights * fr["length"] * alpha
    local = bt.values.swapaxes(1, 2) @ (dens[:, :, None] * np.cross(nu_b, fr["tau"]))
    assert_close(assemble_boundary_load(bt, nu), scatter_vector(bt.flat, local, prob.space.dim))


def test_assembly_kernels_match_einsum(kernel_setup):
    prob, x, kappa, nu = kernel_setup
    tables = prob.tables
    geom = ElementGeometry(tables, x)
    w, q = tables.weights, geom.area_element
    B, dB = tables.basis, tables.basis_grad
    dim = prob.space.dim

    M, A = assemble_mass_stiffness(tables, geom)
    Mloc = np.einsum("q,eq,eqi,eqj->eij", w, q, B, B)
    Aloc = np.einsum("q,eq,eqai,eqab,eqbj->eij", w, q, dB, geom.metric_inv, dB)
    assert_close(M.toarray(), tables.matrix(Mloc).toarray())
    assert_close(A.toarray(), tables.matrix(Aloc).toarray())

    frob2 = weingarten_energy(tables, geom, nu)
    Jn = tables.field_jacobians(nu)
    J = tables.field_jacobians(x)
    W = np.einsum("eqda,eqab,eqcb->eqdc", Jn, geom.metric_inv, J)
    assert_close(frob2, np.einsum("eqdc,eqdc->eq", W, W))

    dens = w * q * frob2
    kap = np.einsum("eql,el->eq", B, kappa[tables.conn])
    ref = np.einsum("eq,eqi->ei", dens * kap, B)
    assert_close(
        assemble_curvature_load(tables, geom, kappa, frob2, np.zeros(dim)),
        scatter_vector(tables.conn, ref, dim),
    )
    nuq = np.einsum("eql,eld->eqd", B, nu[tables.conn])
    ref = np.einsum("eq,eqd,eqi->eid", dens, nuq, B)
    load, nu_q = assemble_normal_load(tables, geom, nu, frob2, np.zeros((dim, 3)))
    assert_close(load, scatter_vector(tables.conn, ref, dim))
    assert_close(nu_q, nuq)


def test_loads_fold_their_tails(kernel_setup):
    """A load with a BDF tail folded in equals the load less M tail / dt,
    the mass product it replaced."""
    prob, x, kappa, nu = kernel_setup
    tables, dim = prob.tables, prob.space.dim
    geom = ElementGeometry(tables, x)
    M, _ = assemble_mass_stiffness(tables, geom)
    frob2 = weingarten_energy(tables, geom, nu)
    dt = 0.0125
    tail_k, tail_n = -2.0 * kappa + 0.25 * x[:, 0], 0.5 * nu - 3.0 * x
    for got, f, tail in (
        (
            assemble_curvature_load(tables, geom, kappa, frob2, tail_k / dt),
            assemble_curvature_load(tables, geom, kappa, frob2, np.zeros(dim)),
            tail_k,
        ),
        (
            assemble_normal_load(tables, geom, nu, frob2, tail_n / dt)[0],
            assemble_normal_load(tables, geom, nu, frob2, np.zeros((dim, 3)))[0],
            tail_n,
        ),
    ):
        assert_close(got, f - (M @ tail) / dt)


def test_solver_schur_complements_match_dense_ones(kernel_setup):
    """G = (K^-1)_BB against the dense inverse, and T against
    sum_k S_kB G S_kB^T from the dense constraint, both from the factors
    the solver keeps."""
    prob, x, _, _ = kernel_setup
    tables, dim = prob.tables, prob.space.dim
    M, A = assemble_mass_stiffness(tables, ElementGeometry(tables, x))
    K = tables.combine(1.5 / 0.0125, M, A)
    solver = ConstrainedSolver(K, prob.saddle, "test solve")
    B = prob.space.boundary_indices
    U = np.triu(solver.G)
    G = U.T @ U
    assert_close(G, np.linalg.inv(K.toarray())[B][:, B])
    S = prob.S.toarray()
    T_ref = sum(S[:, k * dim + B] @ G @ S[:, k * dim + B].T for k in range(3))
    U = np.triu(solver.T)
    assert_close(U.T @ U, T_ref)


def test_tensor_grid_matches_spline_field_eval(kernel_setup):
    """At the quasi-interpolant, Gauss and export grids, values and Jacobians."""
    prob, x, kappa, _ = kernel_setup
    space = prob.space
    gauss, _ = space.factor.element_rule(space.degree + 3)
    g = np.linspace(0.0, 1.0, 2 * space.factor.num_elements + 1)
    for points_1d in (prob.quasi.points_1d, gauss.ravel(), g):
        grid = TensorGrid(space, points_1d, nderiv=1)
        for coeffs in (kappa, x):
            vals, jac = grid.eval(coeffs, 1)
            ref_vals, ref_jac = SplineField(space, coeffs).eval(grid.points, 1)
            assert_close(vals, ref_vals)
            assert_close(jac, ref_jac)
            assert_close(grid.eval(coeffs), ref_vals)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("N", [4, 8, 20])
def test_apply_to_values_matches_einsum(p, N, rng):
    quasi = build_quasi_interpolant(build_space(p, p - 1, N))
    m = len(quasi.points_1d)
    for shape in ((m * m,), (m * m, 3)):
        values = rng.normal(size=shape)
        got = quasi.apply_to_values(values)
        assert got.shape == (quasi.space.dim,) + shape[1:]
        grid = values.reshape(m, m, -1)
        ref = np.einsum("aq,qrd,br->abd", quasi.w, grid, quasi.w)
        ref = ref.reshape(got.shape)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_flow_area_matches_surface_area(scenario):
    """The area on the tables' Jacobians equals a pointwise evaluation."""
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
    _, J = SplineField(prob.space, x).eval(tables.points.reshape(-1, 2), 1)
    dens = np.sqrt(np.linalg.det(np.einsum("nda,ndb->nab", J, J)))
    ref = np.sum(np.tile(tables.weights, tables.num_elements) * dens)
    assert abs(prob.area(x) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("N, nq", [(1, 3), (5, 3), (7, 4)])
def test_all_points_matches_element_loop(N, nq):
    """MeshTables points and weights equal a per-element tensor loop."""
    space = build_space(2, 1, N)
    tables = MeshTables(space, nq)
    points_1d, weights_1d, _, _ = space.factor.element_tables(nq)
    blocks = []
    for eu in range(N):
        for ev in range(N):
            U, V = np.meshgrid(points_1d[eu], points_1d[ev], indexing="ij")
            blocks.append(np.column_stack([U.ravel(), V.ravel()]))
    assert np.array_equal(tables.points.reshape(-1, 2), np.vstack(blocks))
    assert np.array_equal(tables.weights, np.outer(weights_1d, weights_1d).ravel())


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
    scheme = BdfScheme(1)
    scheme.push(prob.initialize())

    calls = []
    original = mcflow.assembly.weingarten_energy

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mcflow.assembly, "weingarten_energy", counted)
    monkeypatch.setattr(mcflow.flow, "weingarten_energy", counted)
    prob.step(scheme, cfg.dt)
    assert len(calls) == 1


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
    scheme = BdfScheme(2)
    scheme.push(prob.initialize())
    calls = _count_factorizations(monkeypatch)
    for _ in range(2):
        calls.clear()
        state, _ = prob.step(scheme, cfg.dt)
        assert len(calls) == 1
        scheme.push(state)


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
    scheme = BdfScheme(2)
    scheme.push(prob.initialize())

    calls = []
    original = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    for _ in range(2):
        state, _ = prob.step(scheme, cfg.dt)
        scheme.push(state)
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
    """An N=6 problem and a BDF2 scheme holding its initial state."""
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
    scheme = BdfScheme(2)
    return prob, scheme, cfg.dt


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
    prob, scheme, dt = _two_step_problem(scenario)
    scheme.push(prob.initialize())
    calls = _count_sparse_indexing(monkeypatch)
    for _ in range(2):
        state, _ = prob.step(scheme, dt)
        scheme.push(state)
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
    prob, scheme, dt = _two_step_problem(scenario)
    factors = _count_solve_widths(monkeypatch)
    scheme.push(prob.initialize())
    (ritz,) = factors
    assert ritz == [3] * (2 * prob.ritz_info["iterations"])
    for _ in range(2):
        factors.clear()
        state, _ = prob.step(scheme, dt)
        scheme.push(state)
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
    space = build_space(p, l, N)
    for n_quad in (p + 1, p + 2):
        ref = _pattern_per_table(space, n_quad)
        for got, want in zip(space.element_pattern, ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _tabulation_by_broadcast(space, n_quad):
    """Points, basis and gradients as `MeshTables` used to build them:
    broadcast products of the univariate tables, stacked."""
    f = space.factor
    pts, _, _, tab = f.element_tables(n_quad)
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
    space = build_space(p, l, N)
    for n_quad in (p + 1, p + 2, 3 * p):
        tables = MeshTables(space, n_quad)
        got = (tables.points, tables.basis, tables.basis_grad)
        for g, want in zip(got, _tabulation_by_broadcast(space, n_quad)):
            assert g.shape == want.shape
            assert np.array_equal(g, want)
        assert np.shares_memory(tables.grad_rows, tables.basis_grad)


def test_flow_step_builds_no_sparse_transpose(monkeypatch):
    """The saddle solves apply the transpose `SaddleLayout` keeps."""
    prob, scheme, dt = _two_step_problem("sphere_patch")
    scheme.push(prob.initialize())
    lo, dim = prob.saddle, prob.space.dim
    blocks = [prob.S.toarray()[:, k * dim + lo.boundary] for k in range(3)]
    assert np.array_equal(lo.S_B.toarray(), np.hstack(blocks))
    assert np.array_equal(lo.S_BT.toarray(), np.hstack(blocks).T)
    assert np.array_equal(lo.S_B_rows.toarray(), np.vstack(blocks))
    calls = []
    original = scipy.sparse.csr_matrix.transpose

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csr_matrix, "transpose", counted)
    prob.step(scheme, dt)
    assert calls == []


def test_ritz_tables_share_the_flow_pattern(monkeypatch):
    """Both `MeshTables` of a set-up hold the one pattern of their space."""
    built = []

    class Recorded(MeshTables):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(mcflow.flow, "MeshTables", Recorded)
    prob = FlowProblem(ScenarioConfig(scenario="sphere_patch", elements_per_side=4))
    prob.initialize()
    flow_tables, ritz_tables = built
    assert ritz_tables.n_quad != flow_tables.n_quad
    assert flow_tables is prob.tables
    for name in ("conn", "indices", "indptr", "scatter"):
        assert getattr(ritz_tables, name) is getattr(flow_tables, name)
    assert np.array_equal(ritz_tables.indptr, flow_tables.indptr)
    assert np.array_equal(ritz_tables.indices, flow_tables.indices)
