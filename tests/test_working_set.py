"""The set-up works strip by strip, and a run's working set stays bounded.

`projections.initial_data` samples the scenario one strip of the
quasi-interpolant's grid at a time; `tests.setup_oracle` samples the
whole grid at once.  Both give the same initial data to roundoff, in one
block, two blocks and many.  The quasi-interpolant's grid carries no
quadrature tables, and `MeshTables.of` builds them on its tabulation.
The traced peaks of set-up and of a step on the p=2 N=40 plane are
bounded, so that no phase holds more than its own arrays again: a
geometry holds its own planes only, and the matrix kernel's work arrays
are made once per set of tables, reused by every later call and shared
by no matrix it returns.

A convergence study compares its levels one variable at a time, so its
error phase peaks no higher than its largest run.  `whole_sample_errors`
keeps the error phase that evaluated all ten coefficient rows of each
level at once, the oracle of the study's errors bit for bit.  A level's
problem goes once it has run: no later run carries an earlier one.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

import mcflow.splines
from mcflow.assembly import ElementGeometry, MeshTables
from mcflow.config import ScenarioConfig
from mcflow.convergence import VARIABLES, _h1_errors, convergence_study
from mcflow.flow import FlowProblem
from mcflow.projections import initial_data
from mcflow.splines import GaussGrid, TensorGrid, build_space, edge_points
from tests import setup_oracle

SETUP_RTOL = 1e-13

MIB = 2.0**20
# Traced peaks (tracemalloc, started before the problem is built) on the
# p=2, C^1, N=40 plane, measured at 8.82 MiB for `initialize` and
# 7.17 MiB for a BDF2 step (numpy 2.4, scipy 1.17), bounded with a margin
# of 10%.  Sampling the whole grid at once and holding the planes of a
# phase through its factorization took them to 13.3 and 10.1 MiB.  With
# the matrix kernel's work arrays kept by the tables (1.1 MiB for a step's
# tables, 1.4 MiB for the Ritz projection's) and each geometry holding
# its own planes only, they read 8.25 and 7.12 MiB.  With the Ritz
# projection iterating on the trace and its tables gone before its solver
# is set up, `initialize` reads 7.57 MiB (35.39 -> 25.84 MiB at N=80).
INITIALIZE_PEAK_MIB = 8.82 * 1.1
STEP_PEAK_MIB = 7.17 * 1.1
# A study's error phase may peak 10% above its largest run.  On the p=2
# plane at levels 4, 8, 16 it peaked at 1.55 MiB against 2.37 MiB for
# the N=16 run; three samples of all ten rows of a level took it to
# 5.19 MiB.
STUDY_PEAK_MARGIN = 1.1
# What a `matrix` call may allocate beside the data it returns: the
# dia_matrix's own small arrays and the kernel's per-block scratch, which
# is gone before the data is gathered.  A second call at p=2, N=40 traced
# 5 KiB of it; remaking the work arrays there would trace 1.1 MiB.
MATRIX_SLACK_BYTES = 64 * 1024


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


def _root(a):
    """The array whose buffer `a` views, or `a` itself."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_a_geometry_holds_only_the_planes_it_exposes():
    """Neither the Ritz projection's geometry nor a step's keeps the
    Jacobian of x alive through a view: every array it holds owns
    exactly its own planes."""
    prob = FlowProblem(ScenarioConfig(elements_per_side=8))
    st = prob.initialize()
    fields = np.concatenate([st.nu.T, st.kappa[None], st.kappa[None], st.nu.T])
    for geom in (
        ElementGeometry(prob.tables, st.x),
        ElementGeometry(prob.tables, st.x, fields, num_jac=3),
    ):
        for name, a in vars(geom).items():
            if a is not None:
                assert _root(a).nbytes == a.nbytes, f"{name} views a larger array"


def test_repeated_matrices_equal_those_of_fresh_tables(rng):
    """Calls on one set of tables, each on other density planes, give the
    matrices of fresh tables bit for bit, and share no memory with each
    other or with the work arrays."""
    space = build_space(2, 1, 20)  # two blocks of basis functions
    tables = MeshTables(space, 3)
    m = len(tables.points_1d)
    planes = [rng.standard_normal((4, m, m)) for _ in range(3)]
    got = [tables.matrix(*d) for d in planes]
    for d, K in zip(planes, got):
        ref = MeshTables(space, 3).matrix(*d)
        assert np.array_equal(K.offsets, ref.offsets)
        assert np.array_equal(K.data, ref.data)
    for a, b in itertools.combinations(got, 2):
        assert not np.shares_memory(a.data, b.data)
    for K, work in itertools.product(got, tables._work):
        assert not np.shares_memory(K.data, work)


def test_a_second_matrix_allocates_no_work_array(rng):
    """Only the first `matrix` call on a set of tables makes the work
    arrays: a later one traces its returned data and a small slack."""
    tables = MeshTables(build_space(2, 1, 40), 3)
    m = len(tables.points_1d)
    dens = rng.standard_normal((4, m, m))
    tables.matrix(*dens)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        K = tables.matrix(*dens)
        rise = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    bound = K.data.nbytes + MATRIX_SLACK_BYTES
    assert rise <= bound, f"a second call traced {rise} bytes, above {bound}"


def whole_sample_errors(finals, degree):
    """errors_l2 and errors_h1 of a study's (space, final state) pairs, each
    level's final state evaluated once, all ten coefficient rows of x,
    kappa, nu and v in one call, on the finest level's (degree + 3)-point
    Gauss grid."""
    fine = GaussGrid(finals[-1][0], degree + 3)
    weights = np.outer(fine.weights_1d, fine.weights_1d)
    rows_of = (slice(0, 3), slice(3, 4), slice(4, 7), slice(7, 10))

    def samples(s, grid):
        rows = np.concatenate([s.x.T, s.kappa[None], s.nu.T, s.v.T])
        planes = grid.evaluate(rows, jac=slice(None))
        return [tuple(a[k] for a in planes) for k in rows_of]

    ref = samples(finals[-1][1], fine)
    errors_l2 = {v: [] for v in VARIABLES}
    errors_h1 = {v: [] for v in VARIABLES}
    for space, state in finals[:-1]:
        cur = samples(state, TensorGrid(space, fine.points_1d))
        for var, a, b in zip(VARIABLES, cur, ref):
            l2, h1 = _h1_errors(a, b, weights)
            errors_l2[var].append(l2)
            errors_h1[var].append(h1)
    return errors_l2, errors_h1


def _traced_study(degree, monkeypatch):
    """A study of the plane at levels 4, 8, 16 under tracemalloc: its
    report, each run's (space, final state), which is all the study keeps
    of a run, and the traced peaks, in MiB, of each run and of what
    follows the last one."""
    base = ScenarioConfig(
        degree=degree, smoothness=degree - 1, elements_per_side=4, dt=0.0125, output_dir=""
    )
    run, finals, peaks = FlowProblem.run, [], []

    def traced(problem):
        result, peak = _traced_peak(lambda: run(problem))
        finals.append((result.problem.space, result.final_state))
        peaks.append(peak)
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(FlowProblem, "run", traced)
    tracemalloc.start()
    try:
        report = convergence_study(base, [4, 8, 16], t_final=0.05)
        peaks.append(tracemalloc.get_traced_memory()[1] / MIB)
    finally:
        tracemalloc.stop()
    return report, finals, peaks


@pytest.mark.parametrize("degree", [2, 3])
def test_study_errors_equal_one_evaluation_per_level(degree, monkeypatch):
    """Variable by variable, the study's errors are those of one ten-row
    evaluation per level, bit for bit."""
    report, finals, _ = _traced_study(degree, monkeypatch)
    errors_l2, errors_h1 = whole_sample_errors(finals, degree)
    assert report.errors_l2 == errors_l2
    assert report.errors_h1 == errors_h1


def test_working_set_of_a_study_is_its_largest_run(monkeypatch):
    """After its last run, a study holds at most two samples of one
    variable: its traced peak stays within the margin of its largest run's."""
    _, _, peaks = _traced_study(2, monkeypatch)
    *run_peaks, error_peak = peaks
    bound = STUDY_PEAK_MARGIN * max(run_peaks)
    assert error_peak <= bound, (
        f"the error phase peaked at {error_peak:.2f} MiB, above {bound:.2f} "
        f"(runs: {', '.join(f'{p:.2f}' for p in run_peaks)} MiB)"
    )


def test_a_study_lets_each_problem_go_once_it_has_run(monkeypatch):
    """When each level's run starts, no earlier level's problem is alive:
    the study keeps only its space and final state."""
    run, gone, alive = FlowProblem.run, [], []

    def counted(problem):
        gc.collect()
        alive.append(sum(ref() is not None for ref in gone))
        gone.append(weakref.ref(problem))
        return run(problem)

    monkeypatch.setattr(FlowProblem, "run", counted)
    base = ScenarioConfig(elements_per_side=2, dt=0.02, output_dir="")
    convergence_study(base, [2, 4, 8, 16], t_final=0.04)
    assert alive == [0, 0, 0, 0]
