"""Galerkin assembly: interior forms, boundary terms, oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mcflow.assembly import (
    BoundaryTables,
    ConstrainedSolver,
    ElementGeometry,
    MeshTables,
    SaddleLayout,
    SolverFailure,
    assemble_boundary_load,
    assemble_constraint,
    assemble_curvature_load,
    assemble_mass_stiffness,
    assemble_normal_load,
    boundary_last_order,
    constraint_residual,
    weingarten_energy,
)
from mcflow.config import ScenarioConfig
from mcflow.flow import FlowProblem, initialize
from mcflow.geometry import DegenerateSurface, SplineField
from mcflow.scenarios import get_scenario
from mcflow.splines import build_quasi_interpolant, build_space, gauss_rule
from tests.conftest import boundary_data, dense_conormal_load, interpolate


@pytest.fixture(scope="module")
def sphere_problem():
    """Initialized sphere patch at N=10 (frozen boundary data, Ritz normal)."""
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=10,
        dt=0.025,
        t_final=0.9,
        output_dir="",
    )
    return initialize(cfg)


@pytest.fixture(scope="module")
def flat_setup():
    space = build_space(2, 1, 5)
    quasi = build_quasi_interpolant(space)
    sc = get_scenario("perturbed_plane", amplitude=0.0)
    x = interpolate(quasi, sc)
    tables = MeshTables(space, 3)
    geom = ElementGeometry(tables, x)
    return space, tables, geom, x


def test_mesh_tables_field_values(space_small, rng):
    tables = MeshTables(space_small, 3)
    coeffs = rng.normal(size=(space_small.dim, 3))
    fld = SplineField(space_small, coeffs)
    vals = tables.field_values(coeffs)
    jacs = tables.field_jacobians(coeffs)
    pts = tables.points.reshape(-1, 2)
    ref_v, ref_j = fld.eval(pts, 1)
    assert np.abs(vals.reshape(-1, 3) - ref_v).max() < 1e-13
    assert np.abs(jacs.reshape(-1, 3, 2) - ref_j).max() < 1e-12


def test_mass_stiffness_structure(flat_setup):
    space, tables, geom, _ = flat_setup
    M, A = assemble_mass_stiffness(tables, geom)
    assert (M - M.T).nnz == 0 or abs((M - M.T)).max() < 1e-14
    assert abs((A - A.T)).max() < 1e-13
    ones = np.ones(space.dim)
    # partition of unity: total mass is the area, constants are stiffness kernel
    assert abs(ones @ (M @ ones) - 4.0) < 1e-12
    assert np.abs(A @ ones).max() < 1e-12
    evals = np.linalg.eigvalsh(M.toarray())
    assert evals.min() > 0.0


def test_flat_mass_matches_dense_quadrature(flat_setup):
    """Independent oracle: 8-point Gauss tensor rule per element.

    On the flat square the integrand is piecewise polynomial of degree
    2p = 4, exact for both rules, so agreement is to roundoff.
    """
    space, tables, geom, x = flat_setup
    M, _ = assemble_mass_stiffness(tables, geom)
    N = space.u.num_elements
    h = 1.0 / N
    xg, wg = gauss_rule(8)
    dense = np.zeros((space.dim, space.dim))
    for eu in range(N):
        for ev in range(N):
            for a, wa in zip(xg, wg):
                for b, wb in zip(xg, wg):
                    pt = ((eu + a) * h, (ev + b) * h)
                    idx, vals = space.eval_basis(pt)
                    w = wa * wb * h * h * 4.0  # area element of the flat map
                    dense[np.ix_(idx, idx)] += w * np.outer(vals, vals)
    assert np.abs(M.toarray() - dense).max() < 1e-13


def test_fixed_pattern_matches_coo_assembly(sphere_problem, rng):
    """Summing into the fixed CSR pattern equals a COO -> CSR assembly.

    M and A of two different geometries all carry the same canonical
    pattern (sorted column indices, no duplicates) as the reference.
    """
    prob, st = sphere_problem
    tables = prob.tables
    rows = np.repeat(tables.conn, tables.nloc, axis=1).ravel()
    cols = np.tile(tables.conn, (1, tables.nloc)).ravel()
    w, B, dB = tables.weights, tables.basis, tables.basis_grad
    for x in (st.x, st.x + 0.01 * rng.normal(size=st.x.shape)):
        geom = ElementGeometry(tables, x)
        q = geom.area_element
        Mloc = np.einsum("q,eq,eqi,eqj->eij", w, q, B, B)
        Aloc = np.einsum("q,eq,eqai,eqab,eqbj->eij", w, q, dB, geom.metric_inv, dB)
        for got, loc in zip(assemble_mass_stiffness(tables, geom), (Mloc, Aloc)):
            ref = sp.coo_matrix((loc.ravel(), (rows, cols)), shape=got.shape).tocsr()
            assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
            assert got.has_canonical_format
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)


def test_weingarten_energy_on_sphere(sphere_problem):
    """|A|^2 = 2 on the interpolated unit sphere patch."""
    prob, st = sphere_problem
    geom = ElementGeometry(prob.tables, st.x)
    frob2 = weingarten_energy(prob.tables, geom, st.nu)
    assert np.abs(frob2 - 2.0).max() < 0.08


def test_curvature_load_oracle():
    """On the sphere, |A|^2 kappa = -4, so f1 ~ M (-4) over interior DOFs.

    With plainly interpolated fields the agreement is exact: nu = -X on
    the unit sphere and the interpolant is linear, so the coefficients
    satisfy nu_h = -x_h and the discrete Weingarten map is minus the
    tangent projector, whose Frobenius norm squared is exactly 2.  The
    run initialization (Ritz normal, zero-trace curvature) perturbs both
    fields, leaving an O(h) discrepancy that stays below 5% at N=16.
    """
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=16,
        dt=0.025,
        t_final=0.9,
        output_dir="",
    )
    prob, st = initialize(cfg)
    geom = ElementGeometry(prob.tables, st.x)
    M, _ = assemble_mass_stiffness(prob.tables, geom)
    ref = M @ np.full(prob.space.dim, -4.0)
    idx = prob.space.interior_indices

    sc = prob.scenario
    kap_exact = interpolate(prob.quasi, sc, "mean_curvature")
    nu_exact = interpolate(prob.quasi, sc, "normal")
    frob2_exact = weingarten_energy(prob.tables, geom, nu_exact)
    f1 = assemble_curvature_load(prob.tables, geom, kap_exact, frob2_exact)
    assert np.abs(f1 - ref).max() < 1e-13

    frob2_init = weingarten_energy(prob.tables, geom, st.nu)
    f1_init = assemble_curvature_load(prob.tables, geom, st.kappa, frob2_init)
    rel = np.linalg.norm(f1_init[idx] - ref[idx]) / np.linalg.norm(ref[idx])
    assert rel < 0.05


def test_normal_load_consistent_with_curvature_load(sphere_problem):
    """f2 = |A|^2 nu: on the sphere nu ~ -x, and f1/kappa = f2 . (nu/|nu|^2)."""
    prob, st = sphere_problem
    geom = ElementGeometry(prob.tables, st.x)
    frob2 = weingarten_energy(prob.tables, geom, st.nu)
    f2 = assemble_normal_load(prob.tables, geom, st.nu, frob2)
    # against a brute-force contraction at quadrature points
    nu = prob.tables.field_values(st.nu)
    dens = prob.tables.weights[None, :] * geom.area_element * frob2
    ref = np.zeros((prob.space.dim, 3))
    np.add.at(
        ref,
        prob.tables.conn,
        np.einsum("eq,eqd,eqi->eid", dens, nu, prob.tables.basis),
    )
    assert np.abs(f2 - ref).max() < 1e-14


# -- boundary terms ----------------------------------------------------------


def test_boundary_load_dense_oracle(sphere_problem):
    """Brute-force dense quadrature of the conormal load, 24 points/element."""
    prob, st = sphere_problem
    fb = assemble_boundary_load(prob.btables, st.nu)
    assert np.abs(fb - dense_conormal_load(prob, st)).max() < 1e-10


def test_boundary_load_vanishes_for_straight_edges():
    """Straight boundary: kappa_b = 0, so the conormal load vanishes.

    At the calibrated bump amplitude the only residue is sin(pi) != 0 in
    float arithmetic, cubed by the bump profile, hence the denormal-level
    tolerance; the unperturbed square is exactly zero.
    """
    for amplitude, tol in ((None, 1e-30), (0.0, 0.0)):
        cfg = ScenarioConfig(
            scenario="perturbed_plane",
            degree=2,
            smoothness=1,
            elements_per_side=6,
            dt=0.01,
            t_final=0.1,
            output_dir="",
        )
        if amplitude is not None:
            cfg.perturbation_amplitude = amplitude
        prob, st = initialize(cfg)
        fb = assemble_boundary_load(prob.btables, st.nu)
        assert np.abs(fb).max() <= tol


def test_constraint_matrix_structure(sphere_problem):
    prob, st = sphere_problem
    S = prob.S
    space = prob.space
    n_b = len(space.boundary_indices)
    assert S.shape == (n_b, 3 * space.dim)
    # columns touch boundary DOFs only
    cols = np.unique(S.tocoo().col % space.dim)
    assert np.all(np.isin(cols, space.boundary_indices))
    # the initialized normal satisfies the constraint
    assert constraint_residual(S, st.nu) < 1e-12


def test_constraint_reads_only_the_tangential_trace(sphere_problem, rng):
    """S w vanishes iff the boundary trace has no tangential component."""
    prob, _ = sphere_problem
    space = prob.space
    # zero boundary coefficients: S w = 0 exactly (column support)
    w = rng.normal(size=(space.dim, 3))
    w[space.boundary_indices] = 0.0
    assert constraint_residual(prob.S, w) == 0.0
    # a trace along the interpolated tangent is maximally visible
    bt = prob.btables
    tangent, _ = boundary_data(prob.quasi, prob.scenario)
    wt = np.zeros((space.dim, 3))
    wt[bt.flat] = tangent[bt.local]
    assert constraint_residual(prob.S, wt) > 1e-2


def test_constraint_on_flat_square():
    """Flat square tangents live in the xy plane, so nu = e_z is constrained out."""
    cfg = ScenarioConfig(
        scenario="perturbed_plane",
        perturbation_amplitude=0.0,
        degree=2,
        smoothness=1,
        elements_per_side=5,
        dt=0.01,
        t_final=0.1,
        output_dir="",
    )
    prob, _ = initialize(cfg)
    ez = np.tile(np.array([0.0, 0.0, 1.0]), (prob.space.dim, 1))
    assert constraint_residual(prob.S, ez) < 1e-12


def _initialized_saddle(scenario, p, n=8):
    """Mass and stiffness on the initial surface of an initialized N=n
    patch, the shifted stiffness on the mesh pattern, and the problem."""
    cfg = ScenarioConfig(
        scenario=scenario,
        degree=p,
        smoothness=p - 1,
        elements_per_side=n,
        dt=0.025,
        t_final=0.9,
        output_dir="",
    )
    prob, st = initialize(cfg)
    M, A = assemble_mass_stiffness(prob.tables, ElementGeometry(prob.tables, st.x))
    return M, A, prob.tables.combine(1.5 / cfg.dt, M, A), prob


@pytest.fixture(scope="module")
def sphere_saddle():
    return _initialized_saddle("sphere_patch", 2)


@pytest.mark.parametrize(
    "scenario, p",
    [
        pytest.param("sphere_patch", 2, id="sphere_patch-2"),
        # the flat boundary makes the z block of S numerically zero
        pytest.param("perturbed_plane", 2, id="perturbed_plane-2"),
        pytest.param("sphere_patch", 3, id="sphere_patch-3"),
    ],
)
def test_constrained_solver_matches_direct_saddle_solve(scenario, p, rng):
    """The Schur-complement solve equals a direct solve of the assembled saddle."""
    _, _, K, prob = _initialized_saddle(scenario, p)
    S = prob.S
    dim, nb = K.shape[0], S.shape[0]
    f = rng.normal(size=(dim, 3))
    w, mult, res = ConstrainedSolver(K, prob.saddle, "test solve")(f)
    assert w.shape == (dim, 3) and mult.shape == (nb,)
    assert res <= 1e-12
    saddle = sp.bmat([[sp.block_diag([K, K, K]), S.T], [S, None]], format="csc")
    ref = spla.spsolve(saddle, np.concatenate([f.T.ravel(), np.zeros(nb)]))
    got = np.concatenate([w.T.ravel(), mult])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert constraint_residual(S, w) <= 1e-12


def test_constrained_solver_interior_solve(sphere_saddle, rng):
    """`with_interior` solves the zero-trace block K_II beside the saddle."""
    _, _, K, prob = sphere_saddle
    idx, bnd = prob.space.interior_indices, prob.space.boundary_indices
    K_II = K[idx][:, idx].tocsc()
    r = rng.normal(size=K.shape[0])
    f = rng.normal(size=(K.shape[0], 3))
    solver = ConstrainedSolver(K, prob.saddle, "test solve")
    (x, res), (w, mult, _) = solver.with_interior(r, f, "interior test solve")
    assert res <= 1e-12
    ref = spla.spsolve(K_II, r[idx])
    assert np.abs(x[idx] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(x[bnd] == 0.0)
    w_alone, mult_alone, _ = solver(f)
    assert np.abs(w - w_alone).max() <= 1e-13 * np.abs(w_alone).max()
    assert np.abs(mult - mult_alone).max() <= 1e-13 * np.abs(mult_alone).max()


def test_constrained_solver_rejects_nonfinite_residual(sphere_saddle, rng):
    _, _, K, prob = sphere_saddle
    f = rng.normal(size=(K.shape[0], 3))
    f[3, 1] = np.nan
    with pytest.raises(SolverFailure, match="nan"):
        ConstrainedSolver(K, prob.saddle, "test solve")(f)


def test_constrained_solver_rejects_indefinite_schur_complements(sphere_saddle):
    """A non-SPD block or a rank-deficient constraint is a named SolverFailure."""
    _, _, K, prob = sphere_saddle
    S = prob.S
    with pytest.raises(SolverFailure, match="test solve: boundary Schur complement"):
        ConstrainedSolver(-K, prob.saddle, "test solve")
    S0 = S.tolil()
    S0[0, :] = 0.0
    with pytest.raises(SolverFailure, match="test solve: multiplier Schur complement"):
        ConstrainedSolver(K, SaddleLayout(prob.tables, S0.tocsr()), "test solve")


def test_shifted_matrix_keeps_entries_that_cancel(sphere_saddle):
    """With A = -c M, c M + A is zero on the whole pattern and the solver
    rejects it as singular; sparse `+` would drop every entry."""
    M, _, _, prob = sphere_saddle
    c = 60.0
    A = -c * M
    K = prob.tables.combine(c, M, A)
    assert K.nnz == len(prob.tables.indices)
    assert not np.any(K.data)
    with pytest.raises(SolverFailure, match="test solve: .*singular"):
        ConstrainedSolver(K, prob.saddle, "test solve")
    dropped = c * M + A
    assert dropped.nnz < K.nnz
    with pytest.raises(SolverFailure, match="test solve: K is not stored on the mesh pattern"):
        ConstrainedSolver(dropped, prob.saddle, "test solve")


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_schur_complement_read_off_the_factor(scenario, p):
    """C from the boundary-last LU equals the dense K_BB - K_BI K_II^-1 K_IB,
    and the order puts the interior, then the boundary, each index once."""
    _, _, K, prob = _initialized_saddle(scenario, p, n=6)
    space = prob.space
    perm = prob.saddle.perm
    I, B = space.interior_indices, space.boundary_indices
    assert np.array_equal(np.sort(perm), np.arange(space.dim))
    assert np.array_equal(perm[len(I) :], B)
    assert np.array_equal(np.sort(perm[: len(I)]), I)
    Kd = K.toarray()
    C_ref = Kd[np.ix_(B, B)] - Kd[np.ix_(B, I)] @ np.linalg.solve(
        Kd[np.ix_(I, I)], Kd[np.ix_(I, B)]
    )
    C = ConstrainedSolver(K, prob.saddle, "test solve").C
    assert np.abs(C - C_ref).max() <= 1e-12 * np.abs(C_ref).max()


@pytest.mark.parametrize("p, n", [(2, 20), (2, 40), (3, 16)])
def test_dissection_fills_no_more_than_minimum_degree(p, n):
    """nnz(L) + nnz(U) with `boundary_last_order` is at most that with
    SuperLU's MMD_AT_PLUS_A order of the interior, boundary appended."""
    cfg = ScenarioConfig(
        scenario="perturbed_plane", degree=p, smoothness=p - 1, elements_per_side=n
    )
    prob = FlowProblem(cfg)
    x = interpolate(prob.quasi, prob.scenario)
    M, A = assemble_mass_stiffness(prob.tables, ElementGeometry(prob.tables, x))
    K = prob.tables.combine(1.0 / cfg.dt, M, A)
    I, B = prob.space.interior_indices, prob.space.boundary_indices
    mmd = spla.splu(
        K[I][:, I].tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    # SuperLU factors the columns of K_II in the order argsort(perm_c)
    minimum_degree = np.concatenate([I[np.argsort(mmd.perm_c)], B])
    fill = []
    for perm in (boundary_last_order(prob.space), minimum_degree):
        lu = spla.splu(
            K[perm][:, perm].tocsc(),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        assert np.array_equal(lu.perm_c, np.arange(len(perm)))
        fill.append(lu.L.nnz + lu.U.nnz)
    assert fill[0] <= fill[1]


def test_boundary_tables_require_freeze(space_small):
    bt = BoundaryTables(space_small, 6)
    with pytest.raises(AssertionError):
        assemble_constraint(bt)


def test_degenerate_geometry_raises(space_small):
    tables = MeshTables(space_small, 3)
    with pytest.raises(DegenerateSurface):
        ElementGeometry(tables, np.zeros((space_small.dim, 3)))
