"""The fast paths of a flow step agree with the plain computations they replace."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg

import mcflow.assembly
import mcflow.flow
from mcflow.assembly import MeshTables
from mcflow.config import ScenarioConfig
from mcflow.flow import BdfScheme, FlowProblem
from mcflow.geometry import SplineField
from mcflow.splines import build_quasi_interpolant, build_space


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("N", [4, 8, 20])
def test_apply_to_values_matches_einsum(p, N, rng):
    quasi = build_quasi_interpolant(build_space(p, p - 1, N))
    mu, mv = len(quasi.points_u), len(quasi.points_v)
    for shape in ((mu * mv,), (mu * mv, 3)):
        values = rng.normal(size=shape)
        got = quasi.apply_to_values(values)
        assert got.shape == (quasi.space.dim,) + shape[1:]
        grid = values.reshape(mu, mv, -1)
        ref = np.einsum("aq,qrd,br->abd", quasi.wu, grid, quasi.wv)
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
    x = prob.quasi(prob.scenario.position)
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
    points_1d, weights_1d, _, _ = space.u.element_tables(nq)
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


def test_step_factors_one_sparse_matrix(monkeypatch):
    """The curvature and the normal solve share one LU per step."""
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

    calls = []
    original = scipy.sparse.linalg.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    for _ in range(2):
        calls.clear()
        state, _ = prob.step(scheme, cfg.dt)
        assert len(calls) == 1
        scheme.push(state)
