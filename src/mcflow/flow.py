"""Linearly implicit BDF time stepping for the constrained flow.

A `FlowProblem` keeps its own BDF history: `initialize()` makes it the
initial state, and each `step()`, of size cfg.dt, extrapolates surface,
normal and curvature and forms their BDF derivative tails in one pass
over the history (`FlowProblem._extrapolate_with_tails`), evaluates all
of them on the tensor Gauss grid at once (`assembly.ElementGeometry`),
assembles K = (d0/dt) M + A and the nonlinear loads on the extrapolated surface,
with the curvature and normal tails folded into the load densities (the
integral of tail * phi is M tail, so no mass-matrix product is needed),
lets the planes of the grid go (`FlowProblem._assemble`), then solves
two linear systems with one factorization:
`assembly.ConstrainedSolver` factors the whole of K = (d0/dt) M + A by
one banded Cholesky.  That factor solves both the zero-trace parabolic
system of the curvature, whose matrix is the interior block of K, and,
by a boundary Schur complement, the saddle system for the normal, whose
multiplier enforces discrete tangential orthogonality of the boundary
trace; the two share two banded solves of four columns each.
The velocity is the quasi-interpolant of -kappa * nu with exactly zero
boundary coefficients, and the position update resets the boundary rows
to their initial values so the Dirichlet data is preserved bit for bit.

A step raises `NormalDrift` when the extrapolated normal's length is off
1 by more than NORMAL_DRIFT_TOL at a quadrature point, read off the
planes of the normal that the normal load integrates, or when the new
normal's constraint residual |S nu|_inf, which the saddle solve hands
over from its residual gate, exceeds CONSTRAINT_TOL; a run
that diverges after it reaches the minimal surface stops there instead
of reporting areas that grow without bound.

The scheme is BDF2 (`bdf_coefficients`): the history keeps the last two
states, newest first, and the first step, which has only the initial
state, is a single BDF1 bootstrap step.  A step that raises leaves the
history as it was.
`FlowProblem` rejects a config with `ConfigError` before any set-up
unless dt > 0 divides t_final >= 0 into whole steps, the snapshot
stride is non-negative, degree, smoothness and elements per side
make a spline space and the scenario parameters make a scenario.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import (
    BoundaryTables,
    ConstrainedSolver,
    ElementGeometry,
    MeshTables,
    SaddleLayout,
    assemble_boundary_load,
    assemble_constraint,
    assemble_curvature_load,
    assemble_mass_stiffness,
    assemble_normal_load,
    weingarten_energy,
)
from .config import ConfigError, ScenarioConfig
from .export import export_vtk, write_diagnostics_csv
from .geometry import dot, surface_area
from .projections import (
    boundary_quasi_interp,
    initial_data,
    nonlinear_ritz_normal,
    project_velocity,
)
from .scenarios import get_scenario
from .splines import build_quasi_interpolant, build_space, edge_points


# Bounds of the drifting-normal guard of a step.  The reference runs stay
# far below both: at the quadrature points max||nu| - 1| peaks at 0.213 on
# the 36-step sphere patch and stays at most 0.0019 on the plane, both at
# the first BDF2 step.
NORMAL_DRIFT_TOL = 0.5
CONSTRAINT_TOL = 1e-10


class NormalDrift(Exception):
    """Raised when the evolved normal leaves unit length or its constraint."""


# (delta, gamma) by order; every value is exact in binary floating point
_BDF_COEFFICIENTS = {
    1: ([1.0, -1.0], [1.0]),
    2: ([1.5, -2.0, 0.5], [2.0, -1.0]),
}


def bdf_coefficients(order: int):
    """BDF derivative and extrapolation weights (delta, gamma).

    delta has length order + 1 (newest first), gamma length order.  They
    are the coefficients of the generating polynomials

        delta(z) = sum_{l=1..q} (1/l) (1 - z)^l,    gamma(z) = (1 - (1-z)^q) / z

    for q = order.
    """
    if order not in _BDF_COEFFICIENTS:
        raise ValueError(f"BDF order must be 1 or 2, got {order}")
    delta, gamma = _BDF_COEFFICIENTS[order]
    return np.array(delta), np.array(gamma)


@dataclass
class FlowState:
    """Discrete state: coefficients of position, curvature, normal, velocity.

    No step writes to a state it returned, so the BDF history and the
    snapshots hold the states themselves."""

    time: float
    x: np.ndarray  # (dim, 3)
    kappa: np.ndarray  # (dim,), zero boundary coefficients
    nu: np.ndarray  # (dim, 3)
    v: np.ndarray  # (dim, 3), zero boundary coefficients


@dataclass
class StepDiagnostics:
    time: float
    area: float
    max_abs_kappa: float
    constraint_residual: float
    solver_residual: float
    wallclock: float


@dataclass
class RunResult:
    diagnostics: list
    final_state: FlowState
    snapshots: list  # (step index, FlowState)
    problem: "FlowProblem"


class FlowProblem:
    """Discretization context for one scenario run, and its BDF history."""

    def __init__(self, cfg: ScenarioConfig):
        _check_time_grid(cfg)
        try:
            self.space = build_space(cfg.degree, cfg.smoothness, cfg.elements_per_side)
        except ValueError as exc:
            raise ConfigError(f"bad spline space: {exc}") from exc
        self.cfg = cfg
        try:
            self.scenario = get_scenario(cfg.scenario, **cfg.scenario_params())
        except ValueError as exc:
            raise ConfigError(f"bad scenario parameters: {exc}") from exc
        self.tables = MeshTables(self.space, cfg.degree + 1)
        # the quasi-interpolant's standard (p + 2)-point rule; the Ritz
        # projection integrates on the same grid
        self.quasi = build_quasi_interpolant(self.space)
        # The conormal load integrand stacks five spline factors, so the
        # boundary rule is sized for degree 5p rather than 2p.
        self.btables = BoundaryTables(self.space, 3 * cfg.degree)
        # filled by initialize()
        self.saddle = None
        self.x0_boundary = None
        self.ritz_info = None
        self.history: list[FlowState] = []  # the last two states, newest first

    # -- initialization ------------------------------------------------

    def initialize(self) -> FlowState:
        """Discrete initial data: interpolated surface, curvature, normal.

        Position and curvature are quasi-interpolants (curvature with
        zero boundary coefficients); the normal solves the constrained
        nonlinear projection; the velocity interpolates -kappa * nu.
        All of them read one scenario sample per edge and the samples of
        the quasi-interpolant's grid, strip by strip (`initial_data`).
        The pair tables of the grid's rule serve the projection only, so
        they live only here.  The history becomes this state alone; it is
        empty while set-up runs, so a failed set-up leaves none.
        """
        self.history = []
        sc, quasi, bidx = self.scenario, self.quasi, self.space.boundary_indices
        tables = MeshTables.of(quasi.grid)
        p1d = quasi.grid.points_1d
        edges = [sc.sample(edge_points(k, p1d), k) for k in range(4)]
        tangent = np.stack([e.edge_tangent for e in edges], axis=1)  # (3, 4, m)
        curvature = np.stack([e.edge_curvature for e in edges], axis=1)
        x, kappa, start, rhs = initial_data(sc, quasi, tables, edges)
        self.x0_boundary = x[bidx].copy()
        self.btables.freeze(
            x, boundary_quasi_interp(quasi, tangent), boundary_quasi_interp(quasi, curvature)
        )
        self.saddle = SaddleLayout(self.tables, assemble_constraint(self.btables))

        kappa[bidx] = 0.0
        nu, self.ritz_info = nonlinear_ritz_normal(
            x, rhs, start, tables, self.btables, self.saddle
        )
        v = project_velocity(quasi, kappa, nu)
        state = FlowState(time=0.0, x=x, kappa=kappa, nu=nu, v=v)
        self.history = [state]
        return state

    # -- single step -----------------------------------------------------

    def step(self):
        """One linearly implicit BDF step of size cfg.dt from the history:
        BDF1 from one state, BDF2 from two.  Returns (state, diagnostics)
        once both drift guards pass, and only then makes the state the
        newest of the history.  Raises ValueError before `initialize`."""
        if not self.history:
            raise ValueError("no initial state to step from: call initialize() first")
        delta, gamma = bdf_coefficients(len(self.history))
        dt, d0 = self.cfg.dt, delta[0]
        t0 = _time.perf_counter()

        ext, tails = self._extrapolate_with_tails(delta, gamma)
        K, rhs_k, f_n, drift = self._assemble(ext, tails, d0 / dt, dt)
        nu_ext, tail_x = ext[1], tails[0]
        time = self.history[0].time + dt
        if drift > NORMAL_DRIFT_TOL:
            raise NormalDrift(
                f"step to t = {time:.6g}: extrapolated normal "
                f"length off 1 by {drift:.3e}, above {NORMAL_DRIFT_TOL}"
            )
        rhs_n = f_n + assemble_boundary_load(self.btables, nu_ext)

        solver = ConstrainedSolver(K, self.saddle, "normal solve")
        (kappa, res_k), (nu, _, res_n, constraint) = solver.with_interior(
            rhs_k, rhs_n, "curvature solve"
        )

        # velocity on the extrapolated surface, then position update
        v = project_velocity(self.quasi, kappa, nu)
        x = (dt * v - tail_x) / d0
        x[self.space.boundary_indices] = self.x0_boundary

        state = FlowState(time=time, x=x, kappa=kappa, nu=nu, v=v)
        diag = self._diagnostics(state, constraint, max(res_k, res_n), t0)
        if diag.constraint_residual > CONSTRAINT_TOL:
            raise NormalDrift(
                f"step to t = {state.time:.6g}: normal constraint residual "
                f"{diag.constraint_residual:.3e} exceeds {CONSTRAINT_TOL:.0e}"
            )
        self.history = [state, self.history[0]]
        return state, diag

    def _extrapolate_with_tails(self, delta, gamma):
        """x, nu and kappa extrapolated, and their derivative tails.

        From one pass over the history (newest first) with the BDF
        weights (delta, gamma): the extrapolation sum_j gamma_j (state j)
        and the tail sum_{j>=1} delta_j (state j-1) of each.  Returns
        ((x, nu, kappa), (tail_x, tail_nu, tail_kappa)).
        """
        ext, tail = None, None
        for g, d, s in zip(gamma, delta[1:], self.history):
            fields = (s.x, s.nu, s.kappa)
            if ext is None:
                ext = [g * a for a in fields]
                tail = [d * a for a in fields]
            else:
                for e, t, a in zip(ext, tail, fields):
                    e += g * a
                    t += d * a
        return tuple(ext), tuple(tail)

    def _assemble(self, ext, tails, mass, dt):
        """K = mass M + A, the curvature and normal loads, and the normal's drift.

        `ext` and `tails` are the extrapolated x, nu, kappa and their BDF
        tails (`_extrapolate_with_tails`), all evaluated on the
        grid at once; the tails of nu and kappa fold into the load
        densities, as M tail / dt.  Returns (K, curvature load (dim,),
        normal load (dim, 3), max over the grid of ||nu| - 1|).  The
        planes are gone on return, before any factorization.
        """
        (x, nu, kappa), (_, tail_nu, tail_kap) = ext, tails
        fields = np.concatenate([nu.T, kappa[None], tail_kap[None] / dt, tail_nu.T / dt])
        geom = ElementGeometry(self.tables, x, fields, num_jac=3)
        nu_q, kap_q, tail_kap_q, tail_nu_q = np.split(geom.values, [3, 4, 5])
        # one matrix (d0/dt) M + A serves both systems
        K = assemble_mass_stiffness(self.tables, geom, mass)
        # |A|^2 of the extrapolated normal, shared by both loads
        frob2 = weingarten_energy(geom)
        # curvature load (zero-trace space: boundary rows unused)
        rhs_k = assemble_curvature_load(self.tables, geom, kap_q[0], tail_kap_q[0], frob2)
        # normal load (saddle system with tangential boundary constraint)
        f_n = assemble_normal_load(self.tables, geom, nu_q, tail_nu_q, frob2)
        drift = float(np.abs(np.sqrt(dot(nu_q, nu_q)) - 1.0).max())
        return K, rhs_k, f_n, drift

    def _diagnostics(self, state, constraint, solver_residual, started):
        """Diagnostics of `state`, whose normal has constraint residual
        `constraint` and whose solves left `solver_residual`, timed from
        `started` (a `perf_counter` reading; None records 0.0) to after
        the other fields."""
        return StepDiagnostics(
            time=state.time,
            area=surface_area(state.x, self.tables),
            max_abs_kappa=float(np.abs(state.kappa).max()),
            constraint_residual=constraint,
            solver_residual=solver_residual,
            wallclock=0.0 if started is None else _time.perf_counter() - started,
        )

    # -- full run ---------------------------------------------------------

    def run(self) -> RunResult:
        """March from t = 0 to t_final by BDF2; emits per-step diagnostics.

        When an output directory is configured, the run makes it before
        any other work and writes all of its files there: on success
        `diagnostics.csv` and one `snapshot_{k:06d}.vtk` per snapshot.
        A failure (a Ritz projection that does not contract, a solver
        residual, degenerate geometry or a drifting normal) aborts the
        run; it first writes the diagnostics so far as
        `diagnostics_abort.csv` and, once initialization has produced a
        state, the last good state as `last_good_state.vtk`.
        """
        cfg = self.cfg
        num_steps = int(round(cfg.t_final / cfg.dt))
        if cfg.output_dir:
            Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        diagnostics = []
        try:
            state = self.initialize()
            diagnostics.append(self._diagnostics(state, self.ritz_info["constraint"], 0.0, None))
            snapshots = []
            if cfg.snapshot_stride > 0:
                snapshots.append((0, state))

            for k in range(1, num_steps + 1):
                state, diag = self.step()
                diagnostics.append(diag)
                if cfg.snapshot_stride > 0 and (
                    k % cfg.snapshot_stride == 0 or k == num_steps
                ):
                    snapshots.append((k, state))
        except Exception:
            if cfg.output_dir:
                last = [("last_good_state.vtk", s) for s in self.history[:1]]
                self._write_files("diagnostics_abort.csv", diagnostics, last)
            raise
        if cfg.output_dir:
            snaps = [(f"snapshot_{k:06d}.vtk", s) for k, s in snapshots]
            self._write_files("diagnostics.csv", diagnostics, snaps)
        return RunResult(diagnostics, state, snapshots, self)

    def _write_files(self, csv_name, diagnostics, states):
        """Write `diagnostics` as `csv_name` and each (file name, state) of
        `states` as a VTK snapshot into the output directory."""
        out = Path(self.cfg.output_dir)
        write_diagnostics_csv(diagnostics, out / csv_name)
        for name, state in states:
            export_vtk(self, state, out / name)


def _check_time_grid(cfg: ScenarioConfig):
    """Raise ConfigError unless dt > 0 divides t_final >= 0 into whole steps."""
    if not (np.isfinite(cfg.dt) and cfg.dt > 0):
        raise ConfigError(f"dt must be positive and finite, got {cfg.dt!r}")
    if not (np.isfinite(cfg.t_final) and cfg.t_final >= 0):
        raise ConfigError(f"t_final must be finite and >= 0, got {cfg.t_final!r}")
    steps = cfg.t_final / cfg.dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise ConfigError(
            f"t_final {cfg.t_final!r} is not a whole number of steps dt {cfg.dt!r}"
        )
    if cfg.snapshot_stride < 0:
        raise ConfigError(f"snapshot_stride must be >= 0, got {cfg.snapshot_stride}")


def initialize(cfg: ScenarioConfig):
    """Build the discretization and the initial state."""
    problem = FlowProblem(cfg)
    return problem, problem.initialize()


def run(cfg: ScenarioConfig) -> RunResult:
    """Full flow run for a config, writing its files into `cfg.output_dir`
    when that is set; see FlowProblem.run."""
    return FlowProblem(cfg).run()
