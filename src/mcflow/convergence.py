"""Self-convergence study across nested refinement levels.

Each level runs the flow to a short final time with a step size
proportional to the mesh size; errors of position, curvature, normal
and velocity are measured against the finest level in the parametric H1
norm on a shared quadrature grid (the `splines.GaussGrid` of the finest
level's elements, with a rule finer than either space).  The levels are
compared one variable at a time: the finest level's planes of that
variable, then each coarser level's in turn, so the error phase holds at
most two samples of one variable.  Orders are the least-squares slope
of log2 error against log2 mesh size.  A study whose base config sets
an output directory writes its report there as `convergence.json`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .flow import FlowProblem
from .splines import GaussGrid, TensorGrid

VARIABLES = ("position", "kappa", "nu", "velocity")


@dataclass
class ConvergenceReport:
    scenario: str
    degree: int
    levels: list
    t_final: float
    errors_h1: dict  # variable -> per-level error vs finest
    errors_l2: dict
    eoc_h1: dict  # variable -> fitted slope
    eoc_l2: dict
    pairwise_h1: dict  # variable -> slopes between consecutive levels

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _rows(state):
    """The coefficient rows of each of VARIABLES in `state`: x, kappa, nu, v."""
    return state.x.T, state.kappa[None], state.nu.T, state.v.T


def _h1_errors(planes_a, planes_b, weights):
    """L2 and H1 norms of the difference of two fields, each given as its
    (values, du, dv) plane stacks (D, m, m), with weight planes (m, m)."""
    sq = [np.sum((a - b) ** 2, axis=0) for a, b in zip(planes_a, planes_b)]
    l2 = np.sum(weights * sq[0])
    h1 = l2 + np.sum(weights * (sq[1] + sq[2]))
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def check_levels(levels):
    """`levels` as a list of ints; ValueError unless there are at least 3,
    positive, strictly increasing, each dividing the next."""
    levels = [int(n) for n in levels]
    if len(levels) < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    if levels[0] < 1:
        raise ValueError(f"levels must be positive, got {levels}")
    for a, b in zip(levels, levels[1:]):
        if b <= a or b % a != 0:
            raise ValueError(f"levels must be nested and increasing, got {levels}")
    return levels


def convergence_study(base: ScenarioConfig, levels, t_final: float) -> ConvergenceReport:
    """Run the flow on each level to `t_final` and fit self-convergence orders.

    `base.dt` is the step size of the coarsest level; finer levels scale
    it by the mesh ratio.  Levels must pass `check_levels`: strictly
    increasing with each dividing the next, so the spaces are nested.
    Every level's problem is built, and so its config checked, before
    any level runs; each is let go once it has run.  The level runs
    write no file; when `base.output_dir` is set, the study makes it
    before the first run and writes `report.to_json()` there as
    `convergence.json`.
    """
    levels = check_levels(levels)
    problems = []
    for n in levels:
        cfg = replace(
            base,
            elements_per_side=n,
            dt=base.dt * levels[0] / n,
            t_final=t_final,
            snapshot_stride=0,
            output_dir="",
        )
        problems.append(FlowProblem(cfg))
    if base.output_dir:
        Path(base.output_dir).mkdir(parents=True, exist_ok=True)
    # a level keeps only its space and final state: its problem goes as
    # soon as it has run, before the next level's run starts
    finals = []
    while problems:
        result = problems.pop(0).run()
        finals.append((result.problem.space, result.final_state))
        del result

    fine = GaussGrid(finals[-1][0], base.degree + 3)
    weights = np.outer(fine.weights_1d, fine.weights_1d)
    rows = [_rows(state) for _, state in finals]
    grids = [TensorGrid(space, fine.points_1d) for space, _ in finals[:-1]]
    errors_l2 = {v: [] for v in VARIABLES}
    errors_h1 = {v: [] for v in VARIABLES}
    for j, var in enumerate(VARIABLES):
        ref = fine.evaluate(rows[-1][j], jac=slice(None))
        for grid, level in zip(grids, rows):
            # the coarse sample goes when `_h1_errors` returns
            l2, h1 = _h1_errors(grid.evaluate(level[j], jac=slice(None)), ref, weights)
            errors_l2[var].append(l2)
            errors_h1[var].append(h1)
        del ref  # before the next variable's is made

    hs = np.log2([1.0 / n for n in levels[:-1]])

    def fit(errs):
        return float(np.polyfit(hs, np.log2(np.maximum(errs, 1e-300)), 1)[0])

    def pairwise(errs):
        out = []
        for (e0, n0), (e1, n1) in zip(
            zip(errs, levels), zip(errs[1:], levels[1:])
        ):
            out.append(float(np.log2(e0 / e1) / np.log2(n1 / n0)))
        return out

    report = ConvergenceReport(
        scenario=base.scenario,
        degree=base.degree,
        levels=levels,
        t_final=t_final,
        errors_h1=errors_h1,
        errors_l2=errors_l2,
        eoc_h1={v: fit(errors_h1[v]) for v in VARIABLES},
        eoc_l2={v: fit(errors_l2[v]) for v in VARIABLES},
        pairwise_h1={v: pairwise(errors_h1[v]) for v in VARIABLES},
    )
    if base.output_dir:
        (Path(base.output_dir) / "convergence.json").write_text(report.to_json() + "\n")
    return report
