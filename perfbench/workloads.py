"""The benchmark's workloads: what each one runs and how its output is checked.

Every workload is deterministic and calls a public entry point of mcflow:
the CLI, `mcflow.flow.run` or `mcflow.convergence.convergence_study`.
Entry points are looked up on their modules at call time, so the tracer's
wrappers see the calls.  Each execution is checked against a reference
recorded from the unmodified solver (`reference/<name>.json`, written by
`record_reference.py`).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from mcflow import cli, convergence, flow
from mcflow.config import ScenarioConfig, serialize_config
from mcflow.export import read_diagnostics_csv

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Gates of the output check.  The 1e-10 relative match of area and
# max|kappa| is the gate a solver change (direct vs structured saddle
# solve) must pass; the other bounds are the paper's per-step invariants.
STEP_RTOL = 1e-10
CONSTRAINT_TOL = 1e-10
SOLVER_RESIDUAL_TOL = 1e-9
ERROR_RTOL = 1e-6
MIN_EOC_H1 = 1.8

PLANE_DT = 0.0015625


@dataclass
class RunOutput:
    """Per-step record of one flow run and its boundary at step 0 and at the end."""

    area: np.ndarray
    max_abs_kappa: np.ndarray
    constraint_residual: np.ndarray
    solver_residual: np.ndarray
    boundary_start: np.ndarray
    boundary_end: np.ndarray
    snapshots: int


@dataclass
class Execution:
    """One timed call of a workload's entry point."""

    wall_s: float
    step_s: np.ndarray  # per-step wallclock the solver itself records
    output: object  # RunOutput or ConvergenceReport


def check_run(out: RunOutput, ref: dict) -> list:
    """Problems found in a flow run's output; empty when it is correct.

    Area and max|kappa| must match the reference at every step to
    STEP_RTOL relative, every step must keep the constraint and solver
    residual bounds, and the final boundary must equal step 0 bit for bit.
    Criterion 4's monotone area is deliberately not asserted: the sphere
    run's rebound after step 21 is a known gap.
    """
    problems = []
    if out.snapshots != ref["snapshots"]:
        problems.append(f"{out.snapshots} snapshots, expected {ref['snapshots']}")
    for col in ("area", "max_abs_kappa"):
        got = np.asarray(getattr(out, col), dtype=float)
        want = np.asarray(ref[col], dtype=float)
        if got.shape != want.shape:
            problems.append(f"{col}: {got.size} steps, expected {want.size}")
            continue
        bad = np.nonzero(~(np.abs(got - want) <= STEP_RTOL * np.abs(want)))[0]
        if bad.size:
            k = bad[0]
            problems.append(
                f"{col} differs from the reference at {bad.size} steps "
                f"(first step {k}: {got[k]!r} vs {want[k]!r})"
            )
    for col, tol in (
        ("constraint_residual", CONSTRAINT_TOL),
        ("solver_residual", SOLVER_RESIDUAL_TOL),
    ):
        vals = np.asarray(getattr(out, col), dtype=float)
        if not np.all(vals <= tol):
            problems.append(f"{col} {np.nanmax(vals):.3e} exceeds {tol:.0e}")
    if not np.array_equal(out.boundary_end, out.boundary_start):
        problems.append("final boundary control points differ from step 0")
    return problems


def check_convergence(report, ref: dict) -> list:
    """Problems found in a convergence report; empty when it is correct."""
    problems = []
    for var, want in ref["errors_h1"].items():
        got = np.asarray(report.errors_h1[var], dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.all(
            np.abs(got - want) <= ERROR_RTOL * np.abs(want)
        ):
            problems.append(f"errors_h1[{var}] {got.tolist()} vs reference {want.tolist()}")
    for var, order in report.eoc_h1.items():
        if not order >= MIN_EOC_H1:
            problems.append(f"eoc_h1[{var}] = {order:.3f} < {MIN_EOC_H1}")
    return problems


def _run_output(result) -> RunOutput:
    diags = result.diagnostics
    bidx = result.problem.space.boundary_indices
    return RunOutput(
        area=np.array([d.area for d in diags]),
        max_abs_kappa=np.array([d.max_abs_kappa for d in diags]),
        constraint_residual=np.array([d.constraint_residual for d in diags]),
        solver_residual=np.array([d.solver_residual for d in diags]),
        boundary_start=result.problem.x0_boundary,
        boundary_end=result.final_state.x[bidx],
        snapshots=len(result.snapshots),
    )


def _vtk_boundary(path: Path) -> np.ndarray:
    """Points of a legacy-VTK snapshot that lie on the parametric boundary.

    They are evaluations of the boundary control points alone, so they
    stay bit-equal exactly when those control points do.
    """
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("POINTS "))
    n = int(lines[head].split()[1])
    pts = np.array([[float(c) for c in line.split()] for line in lines[head + 1 : head + 1 + n]])
    side = math.isqrt(n)
    i, j = np.divmod(np.arange(n), side)
    return pts[(i == 0) | (j == 0) | (i == side - 1) | (j == side - 1)]


class Workload:
    """A named, deterministic call of one mcflow entry point."""

    def __init__(self, name: str, why: str, cfg: ScenarioConfig):
        self.name = name
        self.why = why
        self.cfg = cfg

    def setup_configs(self) -> list:
        """Configs whose `flow.initialize` time, summed, is the workload's set-up."""
        return [self.cfg]

    def execute(self, workdir: Path) -> Execution:
        raise NotImplementedError

    def check(self, output, ref: dict) -> list:
        return check_run(output, ref)

    def reference_of(self, output) -> dict:
        return {
            "area": output.area.tolist(),
            "max_abs_kappa": output.max_abs_kappa.tolist(),
            "snapshots": output.snapshots,
        }

    def load_reference(self) -> dict:
        return json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())

    def tiny(self) -> "Workload":
        """The same code path on a 4x4 mesh for two steps, for warm-up and tests."""
        cfg = replace(self.cfg, elements_per_side=4, t_final=2 * self.cfg.dt)
        if cfg.snapshot_stride:
            cfg = replace(cfg, snapshot_stride=1)
        return type(self)(self.name + "-tiny", self.why, cfg)


class FlowRun(Workload):
    """`mcflow.flow.run(cfg)`."""

    def execute(self, workdir):
        t0 = perf_counter()
        result = flow.run(self.cfg)
        wall = perf_counter() - t0
        steps = np.array([d.wallclock for d in result.diagnostics[1:]])
        return Execution(wall, steps, _run_output(result))


class CliSolve(Workload):
    """`mcflow solve --config <file>` into a fresh directory under `workdir`."""

    def execute(self, workdir):
        out = Path(tempfile.mkdtemp(dir=workdir))
        try:
            cfg = replace(self.cfg, output_dir=str(out))
            cfg_path = out / "run.cfg"
            cfg_path.write_text(serialize_config(cfg))
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code = cli.main(["solve", "--config", str(cfg_path)])
                wall = perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"mcflow solve exited with {code}")
            rows = read_diagnostics_csv(out / "diagnostics.csv")
            snaps = sorted(out.glob("snapshot_*.vtk"))
            output = RunOutput(
                area=rows["area"],
                max_abs_kappa=rows["max_abs_kappa"],
                constraint_residual=rows["constraint_residual"],
                solver_residual=rows["solver_residual"],
                boundary_start=_vtk_boundary(snaps[0]),
                boundary_end=_vtk_boundary(snaps[-1]),
                snapshots=len(snaps),
            )
            return Execution(wall, rows["wallclock_s"][1:], output)
        finally:
            shutil.rmtree(out, ignore_errors=True)


@contextlib.contextmanager
def _step_times_of_runs(sink: list):
    """Append the per-step wallclocks of each `FlowProblem.run` in the block.

    `convergence_study` returns only its report, so this is the one way to
    read the step times it records.  It adds one call per run and no timer.
    """
    original = flow.FlowProblem.run

    def run(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        sink.append([d.wallclock for d in result.diagnostics[1:]])
        return result

    flow.FlowProblem.run = run
    try:
        yield
    finally:
        flow.FlowProblem.run = original


class ConvergenceStudy(Workload):
    """`mcflow.convergence.convergence_study(cfg, levels, t_final)`."""

    def __init__(self, name, why, cfg, levels, t_final):
        super().__init__(name, why, cfg)
        self.levels = tuple(levels)
        self.t_final = t_final

    def setup_configs(self):
        # the per-level configs exactly as convergence_study builds them
        return [
            replace(
                self.cfg,
                elements_per_side=n,
                dt=self.cfg.dt * self.levels[0] / n,
                t_final=self.t_final,
            )
            for n in self.levels
        ]

    def execute(self, workdir):
        runs = []
        with _step_times_of_runs(runs):
            t0 = perf_counter()
            report = convergence.convergence_study(self.cfg, self.levels, t_final=self.t_final)
            wall = perf_counter() - t0
        # The finest level's steps only: a median over all levels would fall
        # on the edge between the step-cost clusters of two levels.
        return Execution(wall, np.array(runs[-1]), report)

    def check(self, output, ref):
        return check_convergence(output, ref)

    def reference_of(self, output):
        return {"errors_h1": output.errors_h1, "eoc_h1": output.eoc_h1}

    def tiny(self):
        return ConvergenceStudy(
            self.name + "-tiny",
            self.why,
            replace(self.cfg, elements_per_side=2),
            (2, 4, 8),
            2 * self.cfg.dt,
        )


WORKLOADS = {
    w.name: w
    for w in (
        CliSolve(
            "sphere_ref",
            "the paper's sphere-cap reference run through the CLI; the only workload "
            "that exports, with a 24-iteration Ritz projection and a mixed step profile",
            ScenarioConfig(
                scenario="sphere_patch",
                degree=2,
                smoothness=1,
                elements_per_side=20,
                dt=0.025,
                t_final=0.9,
                snapshot_stride=6,
            ),
        ),
        FlowRun(
            "plane_n40",
            "large N (dim 1764): the saddle LU and the quasi-interpolant einsum "
            "dominate each step, and the Ritz projection dominates set-up",
            ScenarioConfig(
                scenario="perturbed_plane",
                degree=2,
                smoothness=1,
                elements_per_side=40,
                dt=PLANE_DT,
                t_final=3 * PLANE_DT,
            ),
        ),
        FlowRun(
            "plane_p3_n8",
            "small N, p=3, 200 cheap steps: per-call fixed costs of assembly, area "
            "and sparse plumbing dominate, while the LU is a small share",
            ScenarioConfig(
                scenario="perturbed_plane",
                degree=3,
                smoothness=2,
                elements_per_side=8,
                dt=PLANE_DT,
                t_final=200 * PLANE_DT,
            ),
        ),
        ConvergenceStudy(
            "converge_p3",
            "self-convergence study at p=3 on levels 4,8,16: the only workload that "
            "evaluates errors, and it pays set-up three times",
            ScenarioConfig(
                scenario="perturbed_plane",
                degree=3,
                smoothness=2,
                elements_per_side=4,
                dt=0.0125,
            ),
            levels=(4, 8, 16),
            t_final=0.05,
        ),
    )
}
