"""Acceptance gate: one test per shipped claim, at pinned tolerances.

Criterion 4 is expected to fail at the reference step size: the area
record of the shrinking spherical patch is not strictly decreasing after
the flow reaches the discrete minimal surface.  The failure is asserted
(not waived) so the gap stays visible; the test message carries the
measured evidence.  Everything else passes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from mcflow.assembly import MeshTables, assemble_boundary_load
from mcflow.config import ScenarioConfig
import mcflow.convergence
from mcflow.convergence import VARIABLES, convergence_study
from mcflow.flow import FlowProblem, bdf_coefficients, initialize, run
from mcflow.geometry import SplineField
from mcflow.splines import GaussGrid, build_quasi_interpolant, build_space
from tests.conftest import (
    dense_conormal_load,
    eval_basis,
    grid_planes,
    grid_points,
    interior_grid,
)


@pytest.fixture(scope="module")
def example1():
    """Perturbed-plane relaxation: p=2, C^1, N=20, dt=0.0015625, T=0.8."""
    cfg = ScenarioConfig(
        scenario="perturbed_plane",
        degree=2,
        smoothness=1,
        elements_per_side=20,
        dt=0.0015625,
        t_final=0.8,
        snapshot_stride=1,
        output_dir="",
    )
    return FlowProblem(cfg).run()


@pytest.fixture(scope="module")
def example2():
    """Shrinking spherical patch: p=2, C^1, N=20, dt=0.025, T=0.9."""
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=20,
        dt=0.025,
        t_final=0.9,
        snapshot_stride=1,
        output_dir="",
    )
    return FlowProblem(cfg).run()


def test_criterion_1_space_dimension():
    """p=2, C^1, 20 elements per side: 400 elements and exactly 484 DOFs."""
    space = build_space(2, 1, 20)
    assert space.factor.num_elements**2 == 400
    assert space.dim == 484


def test_criterion_2_sphere_curvature_initialization():
    """Discrete curvature of the sphere patch is -2 away from the boundary.

    Interior samples keep a parametric distance >= 0.1 from the edges,
    outside the support of the zeroed boundary coefficients.  The first
    check reads the curvature field `initialize` builds and asserts exact
    reproduction of the constant -2: the quasi-interpolant is a projector
    that reproduces polynomials up to degree p (see the ``splines``
    module docstring), so the interpolated curvature differs from -2
    only by roundoff, at every N.  The second
    check observes the curvature the surface actually carries (trace of
    the Weingarten map of the projected normal); it carries the
    convergence in N.
    """
    pts = interior_grid(33, margin=0.1).T  # point-major, for `SplineField.eval`

    def initial_errors(N):
        """Max errors of the initial curvature field and Weingarten trace."""
        cfg = ScenarioConfig(
            scenario="sphere_patch",
            degree=2,
            smoothness=1,
            elements_per_side=N,
            dt=0.025,
            t_final=0.9,
            output_dir="",
        )
        prob, st = initialize(cfg)
        kap = SplineField(prob.space, st.kappa).eval(pts)[:, 0]
        field_err = np.abs(kap + 2.0).max()
        _, J = SplineField(prob.space, st.x).eval(pts, 1)
        _, Jn = SplineField(prob.space, st.nu).eval(pts, 1)
        G = np.einsum("nda,ndb->nab", J, J)
        B = np.einsum("nda,ndb->nab", Jn, J)
        tr = np.trace(np.linalg.solve(G, B), axis1=1, axis2=2)
        return field_err, np.abs(tr + 2.0).max()

    f20, e20 = initial_errors(20)
    f40, e40 = initial_errors(40)
    assert f20 <= 1e-13
    assert f40 <= 1e-13
    assert e20 <= 0.05
    assert e40 < e20


def test_criterion_3_plane_relaxation(example1):
    """Area decreases monotonically from 4.0442 and lands within 1e-3 of 4."""
    areas = np.array([d.area for d in example1.diagnostics])
    assert len(areas) == 513
    assert abs(areas[0] - 4.0442) < 5e-5
    assert np.all(np.diff(areas) <= 1e-8)
    assert abs(areas[-1] - 4.0) <= 1e-3


def test_criterion_4_sphere_patch_run(example2):
    """Sphere-patch run: starts at 5.859 +- 5e-3 and should strictly decrease.

    The strict-decrease clause fails at the reference step size and is
    asserted anyway: after the flow reaches the discrete minimal surface
    (step 21 of 36), the linearly implicit treatment of the reaction
    terms overshoots and the area rebounds by up to ~1.1e-3 per step.
    Halving the step size reduces the worst rebound to ~5e-5 and halving
    it twice removes every increase, so this is a time-discretization
    artifact of the pinned run parameters, not an assembly defect.
    """
    areas = np.array([d.area for d in example2.diagnostics])
    assert len(areas) == 37
    assert abs(areas[0] - 5.859) <= 5e-3
    # informational: closest approach to the minimal surface and final area
    print(
        f"area record: initial {areas[0]:.6f}, min {areas.min():.6f} "
        f"at step {int(areas.argmin())}, final {areas[-1]:.6f}"
    )
    inc = np.diff(areas)
    bad = np.nonzero(inc > 1e-8)[0]
    assert bad.size == 0, (
        f"area increases at {bad.size} of {inc.size} steps (first at step "
        f"{bad[0] + 1 if bad.size else '-'}, worst +{inc.max():.3e}); the "
        "rebound off the discrete minimal surface does not occur at dt/4"
    )


def test_criterion_5_self_convergence_orders():
    """H1 self-convergence orders >= 1.8 for position, curvature, normal
    and velocity."""
    base = ScenarioConfig(
        scenario="perturbed_plane",
        degree=2,
        smoothness=1,
        elements_per_side=4,
        dt=0.0125,
        t_final=0.05,
        output_dir="",
    )
    report = convergence_study(base, [4, 8, 16, 32], t_final=0.05)
    for var in ("position", "kappa", "nu", "velocity"):
        assert report.eoc_h1[var] >= 1.8, (var, report.eoc_h1)


def test_criterion_5_self_convergence_orders_p3():
    """At p=3, C^2 on levels 4, 8, 16: H1 orders >= 2.5 for all four fields."""
    base = ScenarioConfig(
        scenario="perturbed_plane",
        degree=3,
        smoothness=2,
        elements_per_side=4,
        dt=0.0125,
        t_final=0.05,
        output_dir="",
    )
    report = convergence_study(base, [4, 8, 16], t_final=0.05)
    for var in ("position", "kappa", "nu", "velocity"):
        assert report.eoc_h1[var] >= 2.5, (var, report.eoc_h1)


def test_criterion_5_self_convergence_orders_on_a_curved_boundary(perturbed_enneper):
    """H1 self-convergence orders >= 1.8 for position, curvature, normal
    and velocity on the perturbed Enneper patch at p=2.

    Its edges are curved and |A|^2 != 0 there, so this is the order test
    that reaches the conormal boundary load and the constraint, which
    the plane's straight edges leave at zero.  At p=3, levels 4, 8, 16,
    the orders are printed and not asserted.
    """
    base = ScenarioConfig(
        scenario=perturbed_enneper,
        degree=2,
        smoothness=1,
        elements_per_side=4,
        dt=0.0125,
        t_final=0.05,
        output_dir="",
    )
    report = convergence_study(base, [4, 8, 16, 32], t_final=0.05)
    p3 = convergence_study(replace(base, degree=3, smoothness=2), [4, 8, 16], t_final=0.05)
    print(f"p=2 H1 orders {report.eoc_h1}\np=3 H1 orders {p3.eoc_h1}")
    for var in ("position", "kappa", "nu", "velocity"):
        assert report.eoc_h1[var] >= 1.8, (var, report.eoc_h1)


def test_sphere_patch_interior_self_convergence_orders(monkeypatch):
    """H1 self-convergence orders >= 1.8 for position, curvature, normal
    and velocity on the sphere patch at p=2, levels 8-64, away from the
    boundary: on u, v in (1/8, 7/8) of the study's reference Gauss grid.

    The patch has H = -2 up to its fixed boundary, where the flow has
    H = 0 for t > 0, so its data are incompatible there and the orders
    over the whole domain fall short in a layer along the boundary;
    they are printed and not asserted.  The masked errors are taken
    from the planes the study evaluates, as `_h1_errors` receives them.
    """
    base = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=8,
        dt=0.00625,
        t_final=0.05,
        output_dir="",
    )
    levels = [8, 16, 32, 64]
    points = GaussGrid(build_space(2, 1, levels[-1]), base.degree + 3).points_1d
    inside = (points > 1 / 8) & (points < 7 / 8)
    mask = np.outer(inside, inside)
    original = mcflow.convergence._h1_errors
    interior = []  # H1 errors on the mask, VARIABLES in order, level after level

    def recorded(planes_a, planes_b, weights):
        interior.append(original(planes_a, planes_b, weights * mask)[1])
        return original(planes_a, planes_b, weights)

    monkeypatch.setattr(mcflow.convergence, "_h1_errors", recorded)
    report = convergence_study(base, levels, t_final=0.05)
    errors = np.reshape(interior, (len(VARIABLES), len(levels) - 1))
    hs = np.log2([1.0 / n for n in levels[:-1]])
    orders = {v: float(np.polyfit(hs, np.log2(e), 1)[0]) for v, e in zip(VARIABLES, errors)}
    print(f"interior H1 orders {orders}\nfull-domain H1 orders {report.eoc_h1}")
    for var in VARIABLES:
        assert orders[var] >= 1.8, (var, orders)


def test_criterion_6_constraint_and_boundary_invariants(example1, example2):
    """Every step of both runs: ||S nu||_inf <= 1e-10, boundary bits frozen."""
    for result in (example1, example2):
        for d in result.diagnostics:
            assert d.constraint_residual <= 1e-10
        bidx = result.problem.space.boundary_indices
        x0b = result.snapshots[0][1].x[bidx]
        for k, state in result.snapshots:
            assert np.array_equal(state.x[bidx], x0b), f"boundary moved at step {k}"


@pytest.mark.parametrize(
    "scenario, dt, N, p",
    [
        pytest.param("perturbed_plane", 0.0015625, 40, 2, id="40-2"),
        pytest.param("perturbed_plane", 0.0015625, 16, 3, id="16-3"),
        pytest.param("sphere_patch", 0.025, 40, 2, id="sphere_patch-40-2"),
        pytest.param("sphere_patch", 0.025, 16, 3, id="sphere_patch-16-3"),
        pytest.param("perturbed_plane", 0.0015625, 80, 2, id="80-2"),
        pytest.param("sphere_patch", 0.025, 80, 2, id="sphere_patch-80-2"),
        pytest.param("perturbed_plane", 0.0015625, 80, 3, id="80-3"),
        pytest.param("sphere_patch", 0.025, 80, 3, id="sphere_patch-80-3"),
    ],
)
def test_criterion_6_invariants_on_scale_ladder(scenario, dt, N, p):
    """A few steps of each scenario higher up the scale ladder.

    Four steps up to N=40 and two at N=80.  Every step keeps
    ||S nu||_inf <= 1e-10 and both solver residuals <= 1e-9, and the
    boundary control points keep their initial bits.
    """
    steps = 2 if N >= 80 else 4
    cfg = ScenarioConfig(
        scenario=scenario,
        degree=p,
        smoothness=p - 1,
        elements_per_side=N,
        dt=dt,
        t_final=steps * dt,
        snapshot_stride=1,
        output_dir="",
    )
    result = FlowProblem(cfg).run()
    assert len(result.diagnostics) == steps + 1
    for d in result.diagnostics:
        assert d.constraint_residual <= 1e-10
        assert d.solver_residual <= 1e-9
    bidx = result.problem.space.boundary_indices
    x0b = result.snapshots[0][1].x[bidx]
    assert len(result.snapshots) == steps + 1
    for k, state in result.snapshots:
        assert np.array_equal(state.x[bidx], x0b), f"boundary moved at step {k}"


def test_criterion_7_flat_square_stationarity():
    """100 steps on the unperturbed square leave all coefficients at 1e-12."""
    cfg = ScenarioConfig(
        scenario="perturbed_plane",
        perturbation_amplitude=0.0,
        degree=2,
        smoothness=1,
        elements_per_side=8,
        dt=0.01,
        t_final=1.0,
        snapshot_stride=0,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    st0 = prob.initialize()
    res = prob.run()
    assert len(res.diagnostics) == 101
    s = res.final_state
    for name in ("x", "kappa", "nu", "v"):
        drift = np.abs(getattr(s, name) - getattr(st0, name)).max()
        assert drift <= 1e-12, (name, drift)


def test_criterion_8_projector_and_oracle_suite(example2):
    # dual-basis identity
    space = build_space(2, 1, 6)
    quasi = build_quasi_interpolant(space)
    m = len(quasi.grid.points_1d)
    B = np.zeros((m * m, space.dim))
    for i, pt in enumerate(grid_points(quasi.grid.points_1d)):
        idx, vals = eval_basis(space, pt)
        B[i, idx] = vals
    C = quasi.apply_to_values(B.T.reshape(-1, m, m))
    assert np.abs(C - np.eye(space.dim)).max() <= 1e-10

    # polynomial reproduction at degree p
    rng = np.random.default_rng(3)
    cu, cv = rng.normal(size=(2, 3))

    def poly(pts):
        return np.polyval(cu, pts[0]) * np.polyval(cv, pts[1])

    fld = SplineField(space, quasi.apply_to_values(poly(grid_planes(quasi.grid.points_1d))))
    probe = rng.uniform(size=(80, 2))
    assert np.abs(fld.eval(probe)[:, 0] - poly(probe.T)).max() <= 1e-11

    # L2 order of the quasi-interpolant on a smooth non-polynomial
    def smooth(pts):
        return np.sin(1.3 * np.pi * pts[0]) * np.exp(0.7 * pts[1])

    for p, l in ((2, 1), (3, 2)):
        errs = []
        for N in (4, 8, 16, 32):
            sp_n = build_space(p, l, N)
            q_n = build_quasi_interpolant(sp_n)
            f_n = SplineField(sp_n, q_n.apply_to_values(smooth(grid_planes(q_n.grid.points_1d))))
            tables = MeshTables(sp_n, p + 2)
            mpts = grid_points(tables.points_1d)
            w = tables.weights.ravel()
            d = f_n.eval(mpts)[:, 0] - smooth(mpts.T)
            errs.append(np.sqrt(np.sum(w * d * d)))
        eocs = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert eocs.min() >= p + 0.8, (p, eocs)

    # constant normal on the flat patch in at most 2 fixed-point iterations
    flat = FlowProblem(
        ScenarioConfig(
            scenario="perturbed_plane",
            perturbation_amplitude=0.0,
            degree=2,
            smoothness=1,
            elements_per_side=8,
            dt=0.01,
            t_final=0.1,
            output_dir="",
        )
    )
    flat.initialize()
    assert flat.ritz_info["iterations"] <= 2

    # conormal boundary load against a dense brute-force quadrature
    prob = example2.problem
    st0 = example2.snapshots[0][1]
    fb = assemble_boundary_load(prob.btables, st0.nu)
    dense = dense_conormal_load(prob, st0)
    assert np.abs(fb - dense).max() <= 1e-10


def test_criterion_9_bdf_identities():
    """Exact coefficient identities and exactness on quadratic sequences."""
    from fractions import Fraction

    for order in (1, 2):
        delta, gamma = bdf_coefficients(order)
        assert sum(Fraction(d) for d in delta) == Fraction(0)
        assert sum(Fraction(g) for g in gamma) == Fraction(1)

    delta, _ = bdf_coefficients(2)
    rng = np.random.default_rng(9)
    a, b, c = rng.normal(size=(3, 11))
    dt, t = 0.05, 2.3

    def val(tt):
        return a + b * tt + c * tt * tt

    deriv = sum(d * val(t - j * dt) for j, d in enumerate(delta)) / dt
    assert np.abs(deriv - (b + 2 * c * t)).max() <= 1e-12
