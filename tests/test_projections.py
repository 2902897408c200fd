"""Quasi-interpolation onto surfaces and the two Ritz projections."""

from __future__ import annotations

import numpy as np
import pytest

from mcflow.assembly import BoundaryTables, constraint_residual, assemble_constraint
from mcflow.config import ScenarioConfig
from mcflow.flow import FlowProblem, initialize
from mcflow.geometry import SplineField
from mcflow.projections import (
    NoContraction,
    boundary_quasi_interp,
    project_velocity,
)
from mcflow.scenarios import get_scenario
from mcflow.splines import build_quasi_interpolant, build_space, edge_points


def _sphere_problem(N, p=2, l=None, **overrides):
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=p,
        smoothness=p - 1 if l is None else l,
        elements_per_side=N,
        dt=0.025,
        t_final=0.9,
        output_dir="",
        **overrides,
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
    sc = prob.scenario
    tangent = boundary_quasi_interp(prob.quasi, sc.boundary_tangent)
    curvature = boundary_quasi_interp(prob.quasi, sc.boundary_curvature)
    assert np.abs(curvature).max() < 1e-13
    bt = prob.btables
    for sl in bt.edge_slices:
        tau = tangent[np.unique(bt.local[sl])]
        assert np.abs(np.abs(tau).max(axis=0) - np.abs(tau[0])).max() < 1e-13
        assert np.abs(np.linalg.norm(tau, axis=1) - 1.0).max() < 1e-13


def test_boundary_interp_accuracy_on_sphere():
    """The interpolated tangent tracks the unit tangent at order p+1."""
    sc = get_scenario("sphere_patch")
    sup = []
    for N in (8, 16):
        prob = _sphere_problem(N)
        tangent = boundary_quasi_interp(prob.quasi, sc.boundary_tangent)
        bt = prob.btables
        worst = 0.0
        s = np.linspace(0.0, 1.0, 160)
        for edge, sl in enumerate(bt.edge_slices):
            uspace = (prob.space.u, prob.space.v)[edge % 2]
            first, ders = uspace.eval_basis(s, 0)
            idx = first[:, None] + np.arange(uspace.degree + 1)[None, :]
            tau_edge = tangent[np.unique(bt.local[sl])]
            tau_h = np.einsum("nk,nkd->nd", ders[:, 0, :], tau_edge[idx])
            worst = max(worst, np.abs(tau_h - sc.boundary_tangent(edge, s)).max())
        sup.append(worst)
    assert sup[0] < 1e-3
    assert sup[1] < sup[0] / 2.0 ** 2.5


# -- velocity projection -------------------------------------------------------


def test_project_velocity_zero_trace_and_values(rng):
    space = build_space(2, 1, 6)
    quasi = build_quasi_interpolant(space)
    kap = SplineField(space, rng.normal(size=space.dim))
    nu = SplineField(space, rng.normal(size=(space.dim, 3)))
    v = project_velocity(quasi, kap, nu)
    assert np.all(v[space.boundary_indices] == 0.0)
    # interior coefficients are the plain interpolant of -kappa nu; the grid
    # evaluates through its collocation matrices, so up to roundoff
    direct = quasi.apply_to_values(
        -kap.eval(quasi.grid_points)[:, [0]] * nu.eval(quasi.grid_points)
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
    assert info["lambda"] == 10.0
    assert info["iterations"] < 40
    # increments contract geometrically after the first few
    inc = info["increments"]
    assert inc[-1] <= 1e-12 or inc[-1] <= 100.0 * 1e-12
    nu = st.nu.reshape(-1, 3)
    pts = np.column_stack([np.linspace(0.1, 0.9, 9), np.linspace(0.2, 0.8, 9)])
    err = SplineField(prob.space, nu).eval(pts) - prob.scenario.normal(pts)
    assert np.abs(err).max() < 5e-3
    assert constraint_residual(prob.S, nu) < 1e-12


def test_normal_projection_iteration_budget():
    """Exhausting the budget raises instead of silently returning."""
    prob = _sphere_problem(8, ritz_fp_max_iter=3)
    with pytest.raises(NoContraction):
        prob.initialize()
