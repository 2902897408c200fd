"""BDF stepping: coefficients, invariants, determinism, failure paths."""

from __future__ import annotations

from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

import mcflow.assembly
import mcflow.flow
import mcflow.projections
from mcflow.assembly import SolverFailure
from mcflow.config import ConfigError, ScenarioConfig
from mcflow.export import read_diagnostics_csv, write_diagnostics_csv
from mcflow.flow import FlowProblem, NormalDrift, bdf_coefficients, run
from mcflow.geometry import DegenerateSurface, surface_area
from mcflow.projections import NoContraction
from tests.setup_oracle import constraint_residual


def small_cfg(**kw):
    base = dict(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=6,
        dt=0.01,
        t_final=0.05,
        snapshot_stride=0,
        output_dir="",
    )
    base.update(kw)
    return ScenarioConfig(**base)


# -- BDF coefficients ---------------------------------------------------------


def test_bdf_coefficient_values():
    d1, g1 = bdf_coefficients(1)
    assert np.array_equal(d1, [1.0, -1.0]) and np.array_equal(g1, [1.0])
    d2, g2 = bdf_coefficients(2)
    assert np.array_equal(d2, [1.5, -2.0, 0.5]) and np.array_equal(g2, [2.0, -1.0])


@pytest.mark.parametrize("order", [1, 2])
def test_bdf_identities_exact(order):
    """sum(delta) = 0 and sum(gamma) = 1 in exact rational arithmetic."""
    delta, gamma = bdf_coefficients(order)
    assert sum(Fraction(d) for d in delta) == 0
    assert sum(Fraction(g) for g in gamma) == 1


def test_bdf2_exact_on_quadratic_sequences(rng):
    """The BDF2 derivative recovers d/dt of t -> a + b t + c t^2 exactly."""
    delta, gamma = bdf_coefficients(2)
    a, b, c = rng.normal(size=(3, 7))
    dt = 0.03
    t = 1.7

    def val(tt):
        return a + b * tt + c * tt * tt

    newest_first = [val(t), val(t - dt), val(t - 2 * dt)]
    deriv = sum(d * y for d, y in zip(delta, newest_first)) / dt
    assert np.abs(deriv - (b + 2 * c * t)).max() < 1e-12
    # extrapolation is exact on linear sequences
    lin = [val(t - dt), val(t - 2 * dt)]
    ext = sum(g * y for g, y in zip(gamma, lin))
    assert np.abs(ext - (a + b * t)).max() < 1e-9 or c.any()


def test_bdf_order_validation():
    with pytest.raises(ValueError):
        bdf_coefficients(3)
    with pytest.raises(ValueError, match=r"no initial state .* call initialize\(\) first"):
        FlowProblem(small_cfg()).step()  # before initialize(): an empty history


# -- initial data ----------------------------------------------------------------


@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_initialize_samples_each_point_set_once(scenario):
    """One jet call on the quasi-interpolant's grid and one per edge, no point twice."""
    prob = FlowProblem(small_cfg(scenario=scenario))
    jet, calls = prob.scenario.jet, []

    def counted(pts):
        calls.append(np.array(pts))
        return jet(pts)

    prob.scenario.jet = counted
    prob.initialize()
    assert len(calls) <= 5
    pts = np.concatenate([c.reshape(2, -1).T for c in calls])
    assert len(np.unique(pts, axis=0)) == len(pts)


def test_initial_curvature_has_zero_trace():
    """kappa(0) interpolates the mean curvature, boundary coefficients zeroed.

    The sphere patch has constant mean curvature -2, which the
    quasi-interpolant reproduces in every interior coefficient.
    """
    prob = FlowProblem(small_cfg())
    kappa = prob.initialize().kappa
    assert np.all(kappa[prob.space.boundary_indices] == 0.0)
    assert np.allclose(kappa[prob.space.interior_indices], -2.0)


# -- invariants over short runs -------------------------------------------------


def test_single_step_invariants():
    """One step: area shrinks, boundary stays put, constraint holds."""
    prob = FlowProblem(small_cfg(dt=0.005, t_final=0.005))
    res = prob.run()
    assert len(res.diagnostics) == 2
    a0, a1 = (d.area for d in res.diagnostics)
    assert a1 < a0
    bidx = prob.space.boundary_indices
    st0 = prob.initialize()
    assert np.array_equal(res.final_state.x[bidx], st0.x[bidx])
    assert res.diagnostics[-1].constraint_residual < 1e-10
    assert np.all(res.final_state.v[bidx] == 0.0)
    assert np.all(res.final_state.kappa[bidx] == 0.0)


def test_area_monotone_on_short_sphere_run():
    res = run(small_cfg(t_final=0.1))
    areas = [d.area for d in res.diagnostics]
    assert np.all(np.diff(areas) < 0.0)
    assert max(d.solver_residual for d in res.diagnostics[1:]) < 1e-9


def test_snapshot_stride():
    """Snapshots every stride steps and at the last step.  A snapshot is
    the state the step returned, not a copy, so the last one is the final
    state; the step-0 snapshot still holds the initial data, since no
    step writes to a state it returned."""
    prob = FlowProblem(small_cfg(snapshot_stride=2, t_final=0.05))
    res = prob.run()
    assert [k for k, _ in res.snapshots] == [0, 2, 4, 5]
    assert res.snapshots[-1][1] is res.final_state
    first = prob.initialize()
    for name in ("x", "kappa", "nu", "v"):
        assert np.array_equal(getattr(res.snapshots[0][1], name), getattr(first, name))
    res = run(small_cfg(snapshot_stride=0, t_final=0.03))
    assert res.snapshots == []


def test_zero_step_run():
    res = run(small_cfg(t_final=0.0, dt=0.01))
    assert len(res.diagnostics) == 1
    assert res.final_state.time == 0.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(dt=0.0),
        dict(dt=-0.1),
        dict(dt=float("nan")),
        dict(t_final=-0.1),
        dict(t_final=1.0, dt=0.3),
        dict(snapshot_stride=-1),
    ],
    ids=[
        "dt-zero",
        "dt-negative",
        "dt-nan",
        "t_final-negative",
        "t_final-off-grid",
        "stride-negative",
    ],
)
def test_bad_time_grid_rejected(bad):
    """A config whose time grid cannot be marched raises before any set-up."""
    with pytest.raises(ConfigError):
        FlowProblem(small_cfg(**bad))


@pytest.mark.parametrize(
    "bad",
    [
        dict(elements_per_side=0),
        dict(degree=1, smoothness=0),
        dict(degree=2, smoothness=2),
    ],
    ids=["elements-zero", "degree-1", "smoothness-2"],
)
def test_bad_space_rejected(bad, monkeypatch):
    """A config that makes no spline space raises ConfigError before any set-up."""

    def no_setup(*args, **kwargs):
        raise AssertionError("set-up reached")

    monkeypatch.setattr(mcflow.flow, "get_scenario", no_setup)
    with pytest.raises(ConfigError, match="bad spline space"):
        FlowProblem(small_cfg(**bad))


def test_determinism_bit_identical_csv(tmp_path):
    """Everything but the wallclock column is reproduced byte for byte."""
    paths = []
    for i in range(2):
        res = run(small_cfg(t_final=0.05))
        p = tmp_path / f"diag_{i}.csv"
        write_diagnostics_csv(res.diagnostics, p)
        paths.append(p)

    def content(p):
        return [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]

    assert content(paths[0]) == content(paths[1])
    back = read_diagnostics_csv(paths[0])
    assert back["area"][0] == res.diagnostics[0].area


def _same(states, want):
    return len(states) == len(want) and all(a is b for a, b in zip(states, want))


def test_bdf2_bootstraps_with_one_bdf1_step(monkeypatch):
    """A problem steps by BDF1 from its initial state and by BDF2 from two
    states on, and keeps the newest two states, newest first."""
    orders = []

    def recorded(order):
        orders.append(order)
        return bdf_coefficients(order)

    monkeypatch.setattr(mcflow.flow, "bdf_coefficients", recorded)
    prob = FlowProblem(small_cfg())
    states = [prob.initialize()]
    assert _same(prob.history, states)
    for _ in range(3):
        states.insert(0, prob.step()[0])
        assert _same(prob.history, states[:2])
    assert orders == [1, 2, 2]


def test_run_is_initialize_and_a_step_per_step():
    """`FlowProblem.run` equals a manual `initialize()`/`step()` loop bit
    for bit: the diagnostics, wallclock aside, and the final state.  Its
    t = 0 row takes the constraint residual from the Ritz projection,
    which is the same product with S_B as the oracle's."""
    cfg = small_cfg(t_final=0.03)
    ran = FlowProblem(cfg)
    res = ran.run()
    prob = FlowProblem(cfg)
    state = prob.initialize()
    steps = [prob.step() for _ in range(3)]

    first = res.diagnostics[0]
    assert astuple(first) == (
        0.0,
        surface_area(state.x, prob.tables),
        float(np.abs(state.kappa).max()),
        constraint_residual(prob.saddle, state.nu),
        0.0,
        0.0,
    )
    assert len(res.diagnostics) == 1 + len(steps)
    for got, (_, want) in zip(res.diagnostics[1:], steps):
        assert astuple(got)[:-1] == astuple(want)[:-1]
    final = steps[-1][0]
    assert res.final_state is ran.history[0]
    for name in ("time", "x", "kappa", "nu", "v"):
        assert np.array_equal(getattr(res.final_state, name), getattr(final, name)), name


@pytest.mark.parametrize("guard", ["NORMAL_DRIFT_TOL", "CONSTRAINT_TOL"])
def test_a_step_that_raises_leaves_the_history(monkeypatch, guard):
    """A step stopped by either `NormalDrift` guard keeps the history it
    started from, states and values, so the next step is the one it
    would have been."""
    prob, ref = FlowProblem(small_cfg()), FlowProblem(small_cfg())
    for p in (prob, ref):
        p.initialize()
        p.step()
    before = list(prob.history)
    with monkeypatch.context() as m:
        m.setattr(mcflow.flow, guard, -1.0)
        with pytest.raises(NormalDrift):
            prob.step()
    assert _same(prob.history, before)
    got, want = prob.step()[0], ref.step()[0]
    for name in ("time", "x", "kappa", "nu", "v"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_a_failed_setup_leaves_no_history(monkeypatch):
    """`initialize` empties the history first: a set-up that raises
    leaves none, so no step can run on the states of an earlier one."""
    prob = FlowProblem(small_cfg())
    prob.initialize()
    prob.step()
    monkeypatch.setattr(mcflow.projections, "RITZ_MAX_ITER", 1)
    with pytest.raises(NoContraction):
        prob.initialize()
    assert prob.history == []
    with pytest.raises(ValueError, match=r"no initial state .* call initialize\(\) first"):
        prob.step()


def test_abort_serializes_diagnostics(tmp_path, monkeypatch):
    cfg = small_cfg(t_final=0.05, output_dir=str(tmp_path / "aborted"))
    # initialization still solves; a step's residual fails the tighter gate
    init = FlowProblem.initialize

    def initialize_then_tighten(self):
        state = init(self)
        monkeypatch.setattr(mcflow.assembly, "SOLVER_RESIDUAL_TOL", 1e-30)
        return state

    monkeypatch.setattr(FlowProblem, "initialize", initialize_then_tighten)
    with pytest.raises(SolverFailure):
        run(cfg)
    out = tmp_path / "aborted"
    assert (out / "diagnostics_abort.csv").exists()
    assert (out / "last_good_state.vtk").exists()
    rows = read_diagnostics_csv(out / "diagnostics_abort.csv")
    assert len(rows["t"]) >= 1


def test_abort_record_when_the_normal_projection_fails(tmp_path, monkeypatch):
    """No state exists yet: a header-only diagnostics file and no VTK."""
    monkeypatch.setattr(mcflow.projections, "RITZ_MAX_ITER", 1)
    out = tmp_path / "aborted"
    with pytest.raises(NoContraction):
        run(small_cfg(output_dir=str(out)))
    rows = read_diagnostics_csv(out / "diagnostics_abort.csv")
    assert len(rows["t"]) == 0
    assert not (out / "last_good_state.vtk").exists()


def test_abort_record_on_degenerate_geometry(tmp_path, monkeypatch):
    """A step on a collapsed surface aborts after recording t = 0."""
    extrapolate = FlowProblem._extrapolate_with_tails

    def collapsed(self, delta, gamma):
        (x, nu, kappa), tails = extrapolate(self, delta, gamma)
        return (0.0 * x, nu, kappa), tails

    monkeypatch.setattr(FlowProblem, "_extrapolate_with_tails", collapsed)
    out = tmp_path / "aborted"
    with pytest.raises(DegenerateSurface):
        run(small_cfg(output_dir=str(out)))
    rows = read_diagnostics_csv(out / "diagnostics_abort.csv")
    assert list(rows["t"]) == [0.0]
    assert (out / "last_good_state.vtk").exists()


def test_constraint_residual_gate_stops_the_run(tmp_path, monkeypatch):
    """A new normal whose |S nu|_inf exceeds CONSTRAINT_TOL raises NormalDrift
    after its step's diagnostics are taken, and leaves the steps before it."""
    monkeypatch.setattr(mcflow.flow, "CONSTRAINT_TOL", 0.0)
    out = tmp_path / "aborted"
    with pytest.raises(NormalDrift, match="step to t = 0.01: normal constraint residual"):
        run(small_cfg(output_dir=str(out)))
    rows = read_diagnostics_csv(out / "diagnostics_abort.csv")
    assert list(rows["t"]) == [0.0]


def test_second_order_consistency():
    """Halving dt quarters the final-state coefficient error (BDF2)."""

    def final_state(dt):
        cfg = ScenarioConfig(
            scenario="perturbed_plane",
            degree=2,
            smoothness=1,
            elements_per_side=8,
            dt=dt,
            t_final=0.2,
            snapshot_stride=0,
            output_dir="",
        )
        return run(cfg).final_state

    base_dt = 0.2 / 64
    ref = final_state(base_dt / 8)

    def err(st):
        return np.sqrt(
            np.linalg.norm(st.x - ref.x) ** 2
            + np.linalg.norm(st.kappa - ref.kappa) ** 2
            + np.linalg.norm(st.nu - ref.nu) ** 2
        )

    ratio = err(final_state(base_dt)) / err(final_state(base_dt / 2))
    assert 3.5 <= ratio <= 4.5
