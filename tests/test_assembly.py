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
    weingarten_energy,
)
from mcflow.config import ScenarioConfig
from mcflow.flow import FlowProblem, initialize
from mcflow.geometry import DegenerateSurface, SplineField
from mcflow.scenarios import get_scenario
from mcflow.splines import build_quasi_interpolant, build_space, gauss_rule
from tests import element_oracle as oracle
from tests.conftest import (
    boundary_data,
    dense_conormal_load,
    eval_basis,
    full_constraint,
    grid_points,
    interpolate,
    weighted_mass_stiffness,
)
from tests.setup_oracle import constraint_residual


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
    vals, du, dv = tables.evaluate(coeffs.T, jac=slice(None))
    ref_v, ref_j = fld.eval(grid_points(tables.points_1d), 1)
    assert np.abs(vals.reshape(3, -1).T - ref_v).max() < 1e-13
    jacs = np.stack([du, dv], axis=-1).reshape(3, -1, 2).transpose(1, 0, 2)
    assert np.abs(jacs - ref_j).max() < 1e-12


def _mass(tables, geom):
    return weighted_mass_stiffness(tables, geom, 1.0, 0.0)


def _stiffness(tables, geom):
    return assemble_mass_stiffness(tables, geom, 0.0)


def test_mass_stiffness_structure(flat_setup):
    space, tables, geom, _ = flat_setup
    M, A = _mass(tables, geom), _stiffness(tables, geom)
    # the DIA format has no max: read the differences as CSR
    assert (M - M.T).tocsr().nnz == 0 or abs((M - M.T).tocsr()).max() < 1e-14
    assert abs((A - A.T).tocsr()).max() < 1e-13
    ones = np.ones(space.dim)
    # partition of unity: total mass is the area, constants are stiffness kernel
    assert abs(ones @ (M @ ones) - 4.0) < 1e-12
    assert np.abs(A @ ones).max() < 1e-12
    evals = np.linalg.eigvalsh(M.toarray())
    assert evals.min() > 0.0
    # the weighted sum is one matrix on the same diagonals
    K = weighted_mass_stiffness(tables, geom, 3.0, 0.5)
    assert np.array_equal(K.offsets, M.offsets) and K.data.shape == M.data.shape
    assert np.abs(K.data - (3.0 * M.data + 0.5 * A.data)).max() < 1e-13 * np.abs(K.data).max()


def test_flat_mass_matches_dense_quadrature(flat_setup):
    """Independent oracle: 8-point Gauss tensor rule per element.

    On the flat square the integrand is piecewise polynomial of degree
    2p = 4, exact for both rules, so agreement is to roundoff.
    """
    space, tables, geom, x = flat_setup
    M = _mass(tables, geom)
    N = space.factor.num_elements
    h = 1.0 / N
    xg, wg = gauss_rule(8)
    dense = np.zeros((space.dim, space.dim))
    for eu in range(N):
        for ev in range(N):
            for a, wa in zip(xg, wg):
                for b, wb in zip(xg, wg):
                    pt = ((eu + a) * h, (ev + b) * h)
                    idx, vals = eval_basis(space, pt)
                    w = wa * wb * h * h * 4.0  # area element of the flat map
                    dense[np.ix_(idx, idx)] += w * np.outer(vals, vals)
    assert np.abs(M.toarray() - dense).max() < 1e-13


# The stiffness of the two routes differs entry by entry by at most this
# multiple of eps sum_q w q cond(G) |G^-1| |grad b_i| |grad b_j|; measured
# at 2.3-3.4 on the unperturbed sphere patch and on 40 noise draws of
# amplitude 0.01 (seeds 0-39, cond(G) up to 1.9e3).
STIFFNESS_GAP = 8.0


def test_fixed_pattern_matches_coo_assembly(sphere_problem):
    """Gathering the diagonals of the space equals a COO -> CSR assembly
    of the per-element matrices, read by its diagonals.

    M and A of two different geometries all carry the diagonals of the
    reference, each entry of them in full, and are exactly zero at every
    entry of them that the reference does not store.  The second geometry
    is the first with noise from the test's own generator.  The two routes
    form G^-1 differently, the assembly in closed form and the oracle by
    `np.linalg.inv`, each to about cond(G) eps |G^-1| at a point, so A is
    bounded entry by entry through the conditioning of G on the geometry;
    M, which reads det G alone, to 1e-14 of its largest entry.
    """
    prob, st = sphere_problem
    tables = prob.tables
    et = oracle.ElementTables(prob.space, tables.n_quad)
    rows = np.repeat(et.conn, et.nloc, axis=1).ravel()
    cols = np.tile(et.conn, (1, et.nloc)).ravel()
    w, B, dB = et.weights, et.basis, et.basis_grad
    grad = np.linalg.norm(dB, axis=2)  # |grad b_i| at each point
    eps = np.finfo(float).eps
    noise = np.random.default_rng(20260814).normal(size=st.x.shape)
    for x in (st.x, st.x + 0.01 * noise):
        geom = ElementGeometry(tables, x)
        Ginv, q = oracle.metric(et.field_jacobians(x))
        spread = q * np.linalg.cond(Ginv) * np.linalg.norm(Ginv, 2, axis=(-2, -1))
        Mloc = np.einsum("q,eq,eqi,eqj->eij", w, q, B, B)
        Aloc = np.einsum("q,eq,eqai,eqab,eqbj->eij", w, q, dB, Ginv, dB)
        Agap = STIFFNESS_GAP * eps * np.einsum("q,eq,eqi,eqj->eij", w, spread, grad, grad)
        M, A = _mass(tables, geom), _stiffness(tables, geom)
        Mref, Aref, Abound = (
            sp.coo_matrix((loc.ravel(), (rows, cols)), shape=M.shape).tocsr()
            for loc in (Mloc, Aloc, Agap)
        )
        assert abs(M - Mref).max() <= 1e-14 * abs(Mref).max()
        assert (abs(A - Aref) - Abound).max() <= 0.0
        for got, ref in ((M, Mref), (A, Aref)):
            assert got.format == "dia" and got.data.shape == (len(got.offsets), got.shape[1])
            offsets, _, held = oracle.diagonals(ref)
            assert np.array_equal(got.offsets, offsets)
            assert not np.any(got.data[~held])


def _with_normal(tables, x, nu):
    """Geometry of x carrying the values and Jacobians of nu, and the
    Weingarten energy of nu on it."""
    geom = ElementGeometry(tables, x, np.asarray(nu).T, num_jac=3)
    return geom, weingarten_energy(geom)


def test_weingarten_energy_on_sphere(sphere_problem):
    """|A|^2 = 2 on the interpolated unit sphere patch."""
    prob, st = sphere_problem
    _, frob2 = _with_normal(prob.tables, st.x, st.nu)
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
    tables = prob.tables
    M = _mass(tables, ElementGeometry(tables, st.x))
    ref = M @ np.full(prob.space.dim, -4.0)
    idx = prob.space.interior_indices

    sc = prob.scenario
    kap_exact = interpolate(prob.quasi, sc, "mean_curvature")
    nu_exact = interpolate(prob.quasi, sc, "normal")
    no_tail = np.zeros(tables.weights.shape)
    geom, frob2_exact = _with_normal(tables, st.x, nu_exact)
    kap_q = tables.evaluate(kap_exact[None])[0][0]
    f1 = assemble_curvature_load(tables, geom, kap_q, no_tail, frob2_exact)
    assert np.abs(f1 - ref).max() < 1e-13

    geom, frob2_init = _with_normal(tables, st.x, st.nu)
    kap_q = tables.evaluate(st.kappa[None])[0][0]
    f1_init = assemble_curvature_load(tables, geom, kap_q, no_tail, frob2_init)
    rel = np.linalg.norm(f1_init[idx] - ref[idx]) / np.linalg.norm(ref[idx])
    assert rel < 0.05


def test_normal_load_consistent_with_curvature_load(sphere_problem):
    """f2 = |A|^2 nu against a brute-force per-element contraction."""
    prob, st = sphere_problem
    tables = prob.tables
    geom, frob2 = _with_normal(tables, st.x, st.nu)
    nu_q = geom.values
    f2 = assemble_normal_load(tables, geom, nu_q, np.zeros_like(nu_q), frob2)
    # against a brute-force contraction at quadrature points
    et = oracle.ElementTables(prob.space, tables.n_quad)
    nu = et.field_values(st.nu)
    assert np.abs(nu_q - et.to_grid(nu)).max() < 1e-14
    _, q = oracle.metric(et.field_jacobians(st.x))
    dens = et.weights[None, :] * q * oracle.weingarten_energy(et, st.x, st.nu)
    ref = np.zeros((prob.space.dim, 3))
    np.add.at(ref, et.conn, np.einsum("eq,eqd,eqi->eid", dens, nu, et.basis))
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
    space = prob.space
    n_b = len(space.boundary_indices)
    assert prob.saddle.C.shape == (3 * n_b, n_b)
    S = full_constraint(prob.saddle.C, space)
    assert S.shape == (n_b, 3 * space.dim)
    # columns touch boundary DOFs only
    cols = np.unique(S.tocoo().col % space.dim)
    assert np.all(np.isin(cols, space.boundary_indices))
    # the initialized normal satisfies the constraint
    assert constraint_residual(prob.saddle, st.nu) < 1e-12


def test_constraint_reads_only_the_tangential_trace(sphere_problem, rng):
    """S w vanishes iff the boundary trace has no tangential component."""
    prob, _ = sphere_problem
    space = prob.space
    # zero boundary coefficients: S w = 0 exactly (column support)
    w = rng.normal(size=(space.dim, 3))
    w[space.boundary_indices] = 0.0
    assert constraint_residual(prob.saddle, w) == 0.0
    # a trace along the interpolated tangent is maximally visible
    bt = oracle.EdgeTables(space, prob.btables.n_quad)
    tangent, _ = boundary_data(prob.quasi, prob.scenario)
    wt = np.zeros((space.dim, 3))
    wt[bt.flat] = tangent.reshape(-1, 3)[bt.local]
    assert constraint_residual(prob.saddle, wt) > 1e-2


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
    assert constraint_residual(prob.saddle, ez) < 1e-12


def _initialized_saddle(scenario, p, n=8, smoothness=None):
    """Mass and stiffness on the initial surface of an initialized N=n
    patch (C^{p-1} unless `smoothness` is given), the shifted stiffness
    on the diagonals of the space, and the problem."""
    cfg = ScenarioConfig(
        scenario=scenario,
        degree=p,
        smoothness=p - 1 if smoothness is None else smoothness,
        elements_per_side=n,
        dt=0.025,
        t_final=0.9,
        output_dir="",
    )
    prob, st = initialize(cfg)
    geom = ElementGeometry(prob.tables, st.x)
    K = assemble_mass_stiffness(prob.tables, geom, 1.5 / cfg.dt)
    return _mass(prob.tables, geom), _stiffness(prob.tables, geom), K, prob


@pytest.fixture(scope="module")
def sphere_saddle():
    return _initialized_saddle("sphere_patch", 2)


@pytest.mark.parametrize(
    "scenario, p, smoothness, n",
    [
        pytest.param("sphere_patch", 2, 1, 8, id="sphere_patch-2"),
        # the flat boundary makes the z block of S numerically zero
        pytest.param("perturbed_plane", 2, 1, 8, id="perturbed_plane-2"),
        pytest.param("sphere_patch", 3, 2, 8, id="sphere_patch-3"),
        pytest.param("sphere_patch", 2, 0, 8, id="sphere_patch-2-C0"),
        # n <= 2p coefficients per direction: two pairs (e1, e2) share a
        # flat diagonal e1 n + e2
        pytest.param("sphere_patch", 2, 1, 1, id="sphere_patch-2-N1"),
        pytest.param("sphere_patch", 3, 2, 1, id="sphere_patch-3-N1"),
        pytest.param("sphere_patch", 2, 1, 2, id="sphere_patch-2-N2"),
        pytest.param("sphere_patch", 3, 2, 2, id="sphere_patch-3-N2"),
    ],
)
def test_constrained_solver_matches_direct_saddle_solve(scenario, p, smoothness, n, rng):
    """The Schur-complement solve equals a direct solve of the assembled saddle."""
    _, _, K, prob = _initialized_saddle(scenario, p, n=n, smoothness=smoothness)
    S = full_constraint(prob.saddle.C, prob.space)
    dim, nb = K.shape[0], S.shape[0]
    f = rng.normal(size=(dim, 3))
    w, mult, res, constraint = ConstrainedSolver(K, prob.saddle, "test solve")(f)
    assert w.shape == (dim, 3) and mult.shape == (nb,)
    assert res <= 1e-12
    saddle = sp.bmat([[sp.block_diag([K, K, K]), S.T], [S, None]], format="csc")
    ref = spla.spsolve(saddle, np.concatenate([f.T.ravel(), np.zeros(nb)]))
    got = np.concatenate([w.T.ravel(), mult])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert constraint_residual(prob.saddle, w) <= 1e-12
    # the solver's own max |S_B w_B| is the same product on the same w
    assert constraint == constraint_residual(prob.saddle, w)


def _check_interior_solve(K, prob, rng):
    """`with_interior` against a direct solve of K_II, and its saddle
    against the saddle solved alone."""
    idx, bnd = prob.space.interior_indices, prob.space.boundary_indices
    K_II = K.tocsr()[idx][:, idx].tocsc()
    r = rng.normal(size=K.shape[0])
    f = rng.normal(size=(K.shape[0], 3))
    solver = ConstrainedSolver(K, prob.saddle, "test solve")
    (x, res), (w, mult, _, _) = solver.with_interior(r, f, "interior test solve")
    assert res <= 1e-12
    ref = spla.spsolve(K_II, r[idx])
    assert np.abs(x[idx] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(x[bnd] == 0.0)
    w_alone, mult_alone, _, _ = solver(f)
    assert np.abs(w - w_alone).max() <= 1e-13 * np.abs(w_alone).max()
    assert np.abs(mult - mult_alone).max() <= 1e-13 * np.abs(mult_alone).max()


def test_constrained_solver_interior_solve(sphere_saddle, rng):
    """`with_interior` solves the zero-trace block K_II beside the saddle."""
    _, _, K, prob = sphere_saddle
    _check_interior_solve(K, prob, rng)


def test_constrained_solver_interior_solve_on_c0_space(rng):
    """The same on a C^0 space, whose band holds repeated knots."""
    _, _, K, prob = _initialized_saddle("sphere_patch", 2, smoothness=0)
    _check_interior_solve(K, prob, rng)


def test_constrained_solver_rejects_nonfinite_residual(sphere_saddle, rng):
    _, _, K, prob = sphere_saddle
    f = rng.normal(size=(K.shape[0], 3))
    f[3, 1] = np.nan
    with pytest.raises(SolverFailure, match="nan"):
        ConstrainedSolver(K, prob.saddle, "test solve")(f)


def test_constrained_solver_rejects_indefinite_schur_complements(sphere_saddle):
    """A non-SPD K or a rank-deficient constraint is a named SolverFailure."""
    _, _, K, prob = sphere_saddle
    with pytest.raises(SolverFailure, match="test solve: K is not positive definite"):
        ConstrainedSolver(-K, prob.saddle, "test solve")
    C0 = prob.saddle.C.tolil()
    C0[:, 0] = 0.0  # the first row of S
    with pytest.raises(SolverFailure, match="test solve: multiplier Schur complement"):
        ConstrainedSolver(K, SaddleLayout(prob.tables, C0.tocsr()), "test solve")


def test_shifted_matrix_keeps_entries_that_cancel(sphere_saddle):
    """With both weights zero, mass M + stiffness A is zero on every
    diagonal of the space and the solver rejects it as not positive
    definite; a matrix not stored on those diagonals, such as the CSR
    sum of c M and -c M, which drops every entry, is rejected by name."""
    M, _, _, prob = sphere_saddle
    c = 60.0
    geom = ElementGeometry(prob.tables, interpolate(prob.quasi, prob.scenario))
    K = weighted_mass_stiffness(prob.tables, geom, 0.0, 0.0)
    assert K.data.shape == (len(prob.tables.offsets), prob.space.dim)
    assert not np.any(K.data)
    with pytest.raises(SolverFailure, match="test solve: K is not positive definite"):
        ConstrainedSolver(K, prob.saddle, "test solve")
    dropped = (c * M).tocsr() + (-c * M).tocsr()
    assert dropped.nnz < K.nnz
    shifted = sp.dia_matrix((M.data[1:], M.offsets[1:]), shape=M.shape)
    for matrix in (dropped, shifted):
        with pytest.raises(SolverFailure, match="test solve: K is not stored on the diagonals"):
            ConstrainedSolver(matrix, prob.saddle, "test solve")


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_schur_complement_read_off_the_factor(scenario, p):
    """G = (K^-1)_BB from the banded Cholesky, the inverse of the boundary
    Schur complement, equals the dense inverse's boundary block."""
    _, _, K, prob = _initialized_saddle(scenario, p, n=6)
    B = prob.space.boundary_indices
    G_ref = np.linalg.inv(K.toarray())[np.ix_(B, B)]
    U = np.triu(ConstrainedSolver(K, prob.saddle, "test solve").G)
    G = U.T @ U
    assert np.abs(G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()


@pytest.mark.parametrize("p, smoothness", [(2, 1), (3, 2), (2, 0)])
def test_band_plan_holds_each_lower_entry_once(p, smoothness):
    """Every diagonal of offset <= 0 has its own row of the band, and
    copying K.data there gives the band of the dense K."""
    _, _, K, prob = _initialized_saddle("sphere_patch", p, n=5, smoothness=smoothness)
    lo, space = prob.saddle, prob.space
    kd = lo.kd
    assert kd == p * (space.factor.dim + 1)
    lower = K.offsets <= 0
    assert np.array_equal(lo.band_rows, -K.offsets[lower])
    assert lo.band_rows.max() == kd and lo.band_rows.min() == 0
    assert np.all(lower[: len(lo.band_rows)])  # the diagonals of offset <= 0 come first
    assert len(np.unique(lo.band_rows)) == len(lo.band_rows)
    band = np.zeros((kd + 1, space.dim))
    band[lo.band_rows] = K.data[: len(lo.band_rows)]
    band = band.T.ravel()
    Kd = K.toarray()
    i, j = np.nonzero(np.tri(space.dim, dtype=bool) & ~np.tri(space.dim, k=-kd - 1, dtype=bool))
    assert np.array_equal(band[i - j + j * (kd + 1)], Kd[i, j])
    assert not np.any(np.tril(Kd, -kd - 1))


def test_boundary_tables_require_freeze(space_small):
    bt = BoundaryTables(space_small, 6)
    with pytest.raises(AssertionError):
        assemble_constraint(bt)


def test_degenerate_geometry_raises(space_small):
    tables = MeshTables(space_small, 3)
    with pytest.raises(DegenerateSurface):
        ElementGeometry(tables, np.zeros((space_small.dim, 3)))
