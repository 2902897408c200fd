"""Quasi-interpolation onto surfaces and the two Ritz projections."""

from __future__ import annotations

import numpy as np
import pytest

import mcflow.flow
import mcflow.projections
from mcflow.assembly import (
    ConstrainedSolver,
    ElementGeometry,
    assemble_boundary_load,
    assemble_mass_stiffness,
)
from mcflow.config import ScenarioConfig
from mcflow.export import read_diagnostics_csv
from mcflow.flow import NORMAL_DRIFT_TOL, FlowProblem, NormalDrift, initialize, run
from mcflow.geometry import DegenerateSurface, SplineField
from mcflow.projections import (
    RITZ_LAMBDA,
    RITZ_MAX_ITER,
    RITZ_TOL,
    NoContraction,
    project_velocity,
)
from mcflow.scenarios import SCENARIOS, Scenario, ScenarioEntry, get_scenario
from mcflow.splines import GaussGrid, build_quasi_interpolant, build_space, edge_points
from tests.conftest import boundary_data, grid_planes, grid_points, interpolate
from tests.setup_oracle import constraint_residual


def _sphere_problem(N, p=2, l=None):
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=p,
        smoothness=p - 1 if l is None else l,
        elements_per_side=N,
        dt=0.025,
        t_final=0.9,
        output_dir="",
    )
    return FlowProblem(cfg)


# -- boundary quasi-interpolation ---------------------------------------------


def test_boundary_interp_reproduces_constant_tangent():
    """Plane edges have constant tangent and zero curvature vector."""
    prob = FlowProblem(
        ScenarioConfig(
            scenario="perturbed_plane",
            degree=2,
            smoothness=1,
            elements_per_side=6,
            dt=0.01,
            t_final=0.1,
            output_dir="",
        )
    )
    tangent, curvature = boundary_data(prob.quasi, prob.scenario)
    assert np.abs(curvature).max() < 1e-13
    for tau in tangent:
        assert np.abs(np.abs(tau).max(axis=0) - np.abs(tau[0])).max() < 1e-13
        assert np.abs(np.linalg.norm(tau, axis=1) - 1.0).max() < 1e-13


def test_boundary_interp_accuracy_on_sphere():
    """The interpolated tangent tracks the unit tangent at order p+1."""
    sc = get_scenario("sphere_patch")
    sup = []
    for N in (8, 16):
        prob = _sphere_problem(N)
        tangent, _ = boundary_data(prob.quasi, sc)
        worst = 0.0
        s = np.linspace(0.0, 1.0, 160)
        for edge, tau_edge in enumerate(tangent):
            uspace = prob.space.factor
            first, ders = uspace.eval_basis(s)
            idx = first[:, None] + np.arange(uspace.degree + 1)[None, :]
            tau_h = np.einsum("nk,nkd->dn", ders[:, 0, :], tau_edge[idx])
            tau = sc.sample(edge_points(edge, s), edge).edge_tangent
            worst = max(worst, np.abs(tau_h - tau).max())
        sup.append(worst)
    assert sup[0] < 1e-3
    assert sup[1] < sup[0] / 2.0 ** 2.5


# -- velocity projection -------------------------------------------------------


def test_project_velocity_zero_trace_and_values(rng):
    space = build_space(2, 1, 6)
    quasi = build_quasi_interpolant(space)
    kap = rng.normal(size=space.dim)
    nu = rng.normal(size=(space.dim, 3))
    v = project_velocity(quasi, kap, nu)
    assert np.all(v[space.boundary_indices] == 0.0)
    # interior coefficients are the plain interpolant of -kappa nu; the grid
    # evaluates through its collocation matrices, so up to roundoff
    m = len(quasi.grid.points_1d)
    pts = grid_points(quasi.grid.points_1d)
    direct = quasi.apply_to_values(
        (-SplineField(space, kap).eval(pts) * SplineField(space, nu).eval(pts)).T.reshape(3, m, m)
    )
    idx = space.interior_indices
    assert np.abs(v[idx] - direct[idx]).max() < 1e-13


# -- nonlinear normal projection -------------------------------------------------


def test_flat_patch_normal_in_two_iterations():
    """Constant normal on the flat square: fixed point closes immediately."""
    cfg = ScenarioConfig(
        scenario="perturbed_plane",
        perturbation_amplitude=0.0,
        degree=2,
        smoothness=1,
        elements_per_side=8,
        dt=0.01,
        t_final=0.1,
        output_dir="",
    )
    prob, st = initialize(cfg)
    assert prob.ritz_info["iterations"] <= 2
    nu = st.nu.reshape(-1, 3)
    assert np.abs(nu - np.array([0.0, 0.0, 1.0])).max() < 1e-12


@pytest.mark.parametrize("N,p", [(8, 2), (12, 2), (16, 3)])
def test_sphere_normal_projection_converges(N, p):
    """The fixed point contracts at the default weight for these spaces."""
    prob = _sphere_problem(N, p=p, l=p - 1)
    st = prob.initialize()
    info = prob.ritz_info
    assert info["iterations"] < 40
    # the last residual reaches RITZ_TOL, or the roundoff floor below 100 RITZ_TOL
    res = info["residuals"]
    assert res[-1] <= 1e-12 or res[-1] <= 100.0 * 1e-12
    nu = st.nu.reshape(-1, 3)
    pts = np.column_stack([np.linspace(0.1, 0.9, 9), np.linspace(0.2, 0.8, 9)])
    err = SplineField(prob.space, nu).eval(pts).T - prob.scenario.sample(pts.T).normal
    assert np.abs(err).max() < 5e-3
    assert constraint_residual(prob.saddle, nu) < 1e-12


def test_normal_projection_iteration_budget(monkeypatch):
    """Exhausting the budget raises instead of silently returning."""
    monkeypatch.setattr(mcflow.projections, "RITZ_MAX_ITER", 3)
    prob = _sphere_problem(8)
    with pytest.raises(NoContraction):
        prob.initialize()


def _plain_fixed_point(x, rhs, start, tables, btables, saddle):
    """The Ritz fixed point without mixing, run until the H1 increment
    reaches RITZ_TOL (no roundoff-floor exit)."""
    geom = ElementGeometry(tables, x)
    solve = ConstrainedSolver(assemble_mass_stiffness(tables, geom, RITZ_LAMBDA), saddle, "plain")
    h1 = assemble_mass_stiffness(tables, geom, 1.0)
    current = start
    for _ in range(RITZ_MAX_ITER):
        new = solve(rhs + assemble_boundary_load(btables, current))[0]
        d = new - current
        current = new
        if np.sqrt(np.sum(d * (h1 @ d))) <= RITZ_TOL:
            return current
    raise AssertionError("the plain fixed point did not reach RITZ_TOL")


def _initialize_recording_ritz(monkeypatch, prob):
    """Initialize `prob`; return nu0 and the arguments of its Ritz projection."""
    calls = []
    original = mcflow.flow.nonlinear_ritz_normal

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mcflow.flow, "nonlinear_ritz_normal", recorded)
    nu = prob.initialize().nu
    (args,) = calls
    return nu, args


@pytest.mark.parametrize(
    "N, p, max_iterations",
    [(20, 2, 12), (4, 2, 16), (8, 2, 16), (40, 2, 12), (16, 3, 14)],
)
def test_anderson_ritz_matches_the_plain_fixed_point(monkeypatch, N, p, max_iterations):
    """Anderson mixing cuts the sphere's iterations and lands on the plain fixed point."""
    prob = _sphere_problem(N, p=p)
    nu, args = _initialize_recording_ritz(monkeypatch, prob)
    assert prob.ritz_info["iterations"] <= max_iterations
    ref = _plain_fixed_point(*args)
    assert np.abs(nu - ref).max() <= 1e-12 * np.abs(ref).max()
    assert constraint_residual(prob.saddle, nu) <= 1e-10


def test_ritz_stops_on_the_roundoff_floor(monkeypatch):
    """Below the floor of about 1e-15 the stall exit ends the mixed iteration."""
    monkeypatch.setattr(mcflow.projections, "RITZ_TOL", 3e-16)
    prob = _sphere_problem(20)
    nu, args = _initialize_recording_ritz(monkeypatch, prob)
    res = prob.ritz_info["residuals"]
    assert 3e-16 < res[-1] <= 3e-14
    assert len(res) < RITZ_MAX_ITER
    ref = _plain_fixed_point(*args)  # to the module's RITZ_TOL, 1e-12
    assert np.abs(nu - ref).max() <= 1e-12 * np.abs(ref).max()


def test_plane_normal_projection_stays_at_two_iterations():
    """The plane's straight edges load nothing, so the map is constant."""
    prob = FlowProblem(
        ScenarioConfig(scenario="perturbed_plane", elements_per_side=8, output_dir="")
    )
    prob.initialize()
    assert prob.ritz_info["iterations"] == 2
    assert prob.ritz_info["residuals"][1] == 0.0


# -- exact solution on a curved minimal surface ---------------------------------


def test_drifting_normal_stops_the_run(enneper, tmp_path):
    """On the Enneper patch the surface stays put, but the length of the
    discrete normal drifts; the step whose extrapolated normal is off unit
    length by more than NORMAL_DRIFT_TOL raises NormalDrift.

    At N=8, p=2, dt=0.0125 that is the step to t = 1.55, the 124th.  The
    abort record holds t = 0 and the 123 steps before it, each with the
    same area and the constraint kept.
    """
    dt = 0.0125
    cfg = ScenarioConfig(
        scenario=enneper,
        degree=2,
        smoothness=1,
        elements_per_side=8,
        dt=dt,
        t_final=4.0,
        output_dir=str(tmp_path),
    )
    with pytest.raises(NormalDrift, match="step to t = 1.55: extrapolated normal length"):
        run(cfg)
    rows = read_diagnostics_csv(tmp_path / "diagnostics_abort.csv")
    assert np.allclose(rows["t"], dt * np.arange(124), rtol=0, atol=1e-12)
    assert np.all(rows["area"] == rows["area"][0])
    assert abs(rows["area"][0] - 5.397371046564217) <= 1e-12
    assert np.all(rows["constraint_residual"] <= 1e-10)
    assert (tmp_path / "last_good_state.vtk").exists()
    assert NORMAL_DRIFT_TOL == 0.5


def scenario_pinched_edge():
    """The flat square with its edge v=0 pinched to the point (0, -1, 0).

    X(u, v) = ((2u - 1) v, 2v - 1, 0) is a regular flat triangle inside
    the square, but dX/du vanishes on v = 0, so the boundary tangent and
    the normal are undefined along that edge.
    """

    def jet(pts):
        u, v = pts
        X = np.stack([(2 * u - 1) * v, 2 * v - 1, 0 * u])
        J = np.zeros((2, 3) + u.shape)
        J[0, 0] = 2 * v
        J[1, 0] = 2 * u - 1
        J[1, 1] = 2.0
        H = np.zeros((2, 2, 3) + u.shape)
        H[0, 1, 0] = H[1, 0, 0] = 2.0
        return X, J, H

    return Scenario(jet)


def test_pinched_edge_raises_degenerate_surface(monkeypatch, tmp_path):
    """A boundary edge that collapses to a point fails as DegenerateSurface.

    The edge sample finds no oriented tangent there; the run stops in
    initialization and leaves an abort record instead of reaching a
    solver with NaN boundary data.
    """
    entry = ScenarioEntry(scenario_pinched_edge, {})
    monkeypatch.setitem(SCENARIOS, "pinched", entry)
    cfg = ScenarioConfig(
        scenario="pinched",
        elements_per_side=4,
        dt=0.01,
        t_final=0.01,
        output_dir=str(tmp_path),
    )
    with pytest.raises(DegenerateSurface, match="edge 0"):
        FlowProblem(cfg).run()
    assert (tmp_path / "diagnostics_abort.csv").exists()


def _h1_error_to_exact_normal(prob, nu):
    """Parametric H1 error of nu against the scenario normal, Gauss grid."""
    grid = GaussGrid(prob.space, prob.space.degree + 3)
    weights = np.outer(grid.weights_1d, grid.weights_1d)
    values, du, dv = grid.evaluate(nu.T, jac=slice(None))
    exact = prob.scenario.sample(grid_planes(grid.points_1d))
    err = values - exact.normal
    err_jac = np.stack([du, dv]) - exact.normal_jacobian
    return np.sqrt(np.sum(weights * (np.sum(err**2, 0) + np.sum(err_jac**2, (0, 1)))))


@pytest.mark.parametrize("p, min_order", [(2, 1.8), (3, 2.8)])
def test_ritz_normal_exact_on_enneper_patch(enneper, p, min_order):
    """The stationary minimal surface keeps x, kappa = 0 and nu = n[X0].

    Two steps at dt = 0.1 / N on N = 4, 8, 16: the H1 error of nu against
    the exact normal converges at order p, kappa stays at roundoff, the
    constraint holds and the surface does not move.
    """
    errors = []
    for N in (4, 8, 16):
        dt = 0.1 / N
        cfg = ScenarioConfig(
            scenario=enneper,
            degree=p,
            smoothness=p - 1,
            elements_per_side=N,
            dt=dt,
            t_final=2 * dt,
            output_dir="",
        )
        result = FlowProblem(cfg).run()
        prob, state = result.problem, result.final_state
        errors.append(_h1_error_to_exact_normal(prob, state.nu))
        assert max(d.max_abs_kappa for d in result.diagnostics) <= 1e-14
        assert max(d.constraint_residual for d in result.diagnostics) <= 1e-10
        assert np.abs(state.x - interpolate(prob.quasi, prob.scenario)).max() <= 1e-14
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= min_order), (errors, orders)
