"""The set-up works strip by strip, and a run's working set stays bounded.

`projections.initial_data` samples the scenario one strip of the
quasi-interpolant's grid at a time; `tests.setup_oracle` samples the
whole grid at once.  Both give the same initial data to roundoff, in one
block, two blocks and many.  The quasi-interpolant's grid carries no
quadrature tables, and `MeshTables.of` builds them on its tabulation.
The traced peaks of set-up and of a step on the p=2 N=40 plane are
bounded, so that no phase holds more than its own arrays again.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import mcflow.splines
from mcflow.assembly import MeshTables
from mcflow.config import ScenarioConfig
from mcflow.flow import FlowProblem
from mcflow.projections import initial_data
from mcflow.splines import GaussGrid, edge_points
from tests import setup_oracle

SETUP_RTOL = 1e-13

MIB = 2.0**20
# Traced peaks (tracemalloc, started before the problem is built) on the
# p=2, C^1, N=40 plane, measured at 8.82 MiB for `initialize` and
# 7.17 MiB for a BDF2 step (numpy 2.4, scipy 1.17), bounded with a margin
# of 10%.  Sampling the whole grid at once and holding the planes of a
# phase through its factorization took them to 13.3 and 10.1 MiB.
INITIALIZE_PEAK_MIB = 8.82 * 1.1
STEP_PEAK_MIB = 7.17 * 1.1


@pytest.mark.parametrize(
    "N, block_elements, num_blocks",
    [(6, None, 1), (20, None, 2), (7, 2, 4)],
    ids=["one-block", "two-blocks", "many-blocks"],
)
@pytest.mark.parametrize("scenario", ["perturbed_plane", "sphere_patch"])
def test_blockwise_setup_matches_the_one_shot_oracle(
    scenario, N, block_elements, num_blocks, monkeypatch
):
    """x0, kappa0, the start normal and the Ritz right-hand side, strip by
    strip against one sample of the whole grid."""
    if block_elements is not None:
        monkeypatch.setattr(mcflow.splines, "BLOCK_ELEMENTS", block_elements)
    prob = FlowProblem(ScenarioConfig(scenario=scenario, elements_per_side=N))
    quasi = prob.quasi
    assert len(quasi.grid.point_blocks) == num_blocks
    tables = MeshTables.of(quasi.grid)
    edges = [prob.scenario.sample(edge_points(k, quasi.grid.points_1d), k) for k in range(4)]
    got = initial_data(prob.scenario, quasi, tables, edges)
    ref = setup_oracle.initial_data(prob.scenario, quasi, tables, edges)
    for name, a, b in zip(("x0", "kappa0", "start", "rhs"), got, ref):
        assert a.shape == b.shape, name
        err = np.abs(a - b).max() / np.abs(b).max()
        assert err <= SETUP_RTOL, f"{name}: relative error {err:.3e}"


def test_tables_of_the_quasi_grid_share_its_tabulation():
    """The quasi-interpolant keeps a plain `GaussGrid`; `MeshTables.of` it
    reads the grid's collocation matrices and equals tables built anew."""
    prob = FlowProblem(ScenarioConfig(degree=3, smoothness=1, elements_per_side=5))
    grid = prob.quasi.grid
    assert type(grid) is GaussGrid
    assert not hasattr(grid, "pairs") and not hasattr(grid, "weights")
    tables = MeshTables.of(grid)
    assert tables.c is grid.c and tables.point_blocks is grid.point_blocks
    fresh = MeshTables(prob.space, grid.n_quad)
    for name in ("points_1d", "weights_1d", "weights", "pairs", "offsets", "gather", "c"):
        assert np.array_equal(getattr(tables, name), getattr(fresh, name)), name


def _traced_peak(call):
    """Run `call()` and return (its result, the traced peak in MiB)."""
    tracemalloc.reset_peak()
    result = call()
    return result, tracemalloc.get_traced_memory()[1] / MIB


def test_working_set_of_setup_and_step_is_bounded():
    cfg = ScenarioConfig(degree=2, smoothness=1, elements_per_side=40)
    tracemalloc.start()
    try:
        prob = FlowProblem(cfg)
        _, setup_peak = _traced_peak(prob.initialize)
        prob.step()  # the BDF1 bootstrap step
        _, step_peak = _traced_peak(prob.step)
    finally:
        tracemalloc.stop()
    assert setup_peak <= INITIALIZE_PEAK_MIB, (
        f"initialize peaked at {setup_peak:.2f} MiB, above {INITIALIZE_PEAK_MIB:.2f}"
    )
    assert step_peak <= STEP_PEAK_MIB, (
        f"a BDF2 step peaked at {step_peak:.2f} MiB, above {STEP_PEAK_MIB:.2f}"
    )
