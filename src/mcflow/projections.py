"""Projections onto the discrete spaces.

Quasi-interpolation onto a surface applies the parametric coefficient
functionals to the pullback of the data; the velocity is the zero-trace
quasi-interpolant of -kappa * nu, with kappa and nu evaluated at the
quasi-interpolant's fixed tensor grid by its `splines.TensorGrid`, so
evaluating and interpolating take two BLAS products each.

The Ritz projection of the normal compares the H1 form on the discrete
initial surface with the same form on the scenario's exact surface,
which it samples directly.  It is nonlinear through an
orientation-dependent boundary term and constrained to have boundary
trace discretely orthogonal to the interpolated boundary tangent.  It
is computed by a fixed-point iteration whose linear part, the
constraint saddle of stiffness + lambda * mass, is one
`assembly.ConstrainedSolver` per stabilization weight: one sparse LU of
the interior block and a boundary Schur complement, as in a flow step.
The weight and the iteration budget come from the run's
`ScenarioConfig`.  When the H1 increments expand or contract too slowly
to finish within the budget, lambda is multiplied by a growth factor
and the iteration continues from the current iterate.

The projection integrates with a rule one order finer than flow-step
assembly, on both sides, so data already in the space on the same
surface is reproduced to solver precision.
"""

from __future__ import annotations

import numpy as np

from .assembly import (
    BoundaryTables,
    ConstrainedSolver,
    ElementGeometry,
    MeshTables,
    assemble_boundary_load,
    assemble_mass_stiffness,
    conormal_load,
    scatter_vector,
)
from .geometry import SplineField, metric_pieces
from .splines import EDGE_FIXED_COORD, QuasiInterpolant, edge_points


class NoContraction(Exception):
    """Raised when the normal projection exhausts its iteration budget."""


def boundary_quasi_interp(quasi: QuasiInterpolant, fn):
    """Edge-by-edge univariate quasi-interpolation of boundary data.

    `fn(edge, s)` returns (n, D) samples by edge parameter.  The
    functionals of each edge are those of `quasi` in its running
    direction; corners carry no quadrature points, so a discontinuity
    of the data there (as of the tangent) never gets sampled.  Returns
    the per-edge coefficients stacked in edge order, the layout
    `BoundaryTables.local` indexes.
    """
    duals = ((quasi.wu, quasi.points_u), (quasi.wv, quasi.points_v))
    coeffs = []
    for edge in range(4):
        W, pts = duals[1 - EDGE_FIXED_COORD[edge]]
        coeffs.append(W @ np.asarray(fn(edge, pts)))
    return np.concatenate(coeffs)


def project_velocity(
    Q: QuasiInterpolant, kappa_field: SplineField, nu_field: SplineField
) -> np.ndarray:
    """Velocity coefficients: quasi-interpolant of -kappa * nu.

    kappa and nu are evaluated together at the quasi-interpolant's grid
    by `Q.grid`, one collocation matrix per direction.  Boundary
    coefficients are set to exactly zero so the velocity lies in the
    zero-trace subspace and the boundary stays put bit for bit.
    """
    kap_nu = Q.grid.eval(np.column_stack([kappa_field.coeffs, nu_field.coeffs]))
    coeffs = Q.apply_to_values(-kap_nu[:, :1] * kap_nu[:, 1:])
    coeffs[Q.space.boundary_indices] = 0.0
    return coeffs


# ---------------------------------------------------------------------------
# nonlinear normal projection


def nonlinear_ritz_normal(x_field: SplineField, scenario, btables, S, quasi, cfg):
    """Constrained H1 projection of the normal of `scenario`.

    The fixed-point iteration runs at the smallest stabilization weight
    that contracts, starting from `cfg.ritz_lambda`: the weight grows by
    `cfg.ritz_lambda_growth` only when the H1 increments expand or
    contract too slowly to reach `cfg.ritz_fp_tol` within the remaining
    budget of `cfg.ritz_fp_max_iter` iterations.  Large weights are
    counterproductive (the roundoff floor of the increment scales with
    the weight), so stagnation below 100 * ritz_fp_tol is accepted as
    converged.

    `quasi` is the (p + 2)-point quasi-interpolant of the space; the
    starting guess is the constrained L2 projection of its interpolant
    of the scenario normal.  Returns (SplineField, info) with info
    recording the lambda used, iteration count and the H1 increments.
    Raises NoContraction when the combined iteration budget is exhausted.
    """
    space = x_field.space
    nq = max(space.degree) + 2
    tables = MeshTables(space, nq)
    geom = ElementGeometry(tables, x_field.coeffs)
    M, A = assemble_mass_stiffness(tables, geom)
    dim = space.dim

    # right-hand side on the scenario surface (independent of the iterate)
    pts = tables.points.reshape(-1, 2)
    _, Ginv_s, q_s = metric_pieces(scenario.jacobian(pts))
    ne, nq2 = tables.points.shape[:2]
    Ginv_s = Ginv_s.reshape(ne, nq2, 2, 2)
    q_s = q_s.reshape(ne, nq2)
    Nvals = scenario.normal(pts).reshape(ne, nq2, 3)
    Njac = scenario.normal_jacobian(pts).reshape(ne, nq2, 3, 2)
    wq = (tables.weights * q_s)[:, :, None]
    t = wq[:, :, :, None] * (Ginv_s @ Njac.swapaxes(2, 3))  # (Ne, nq2, 2, 3)
    stiff_local = tables.grad_rows.swapaxes(1, 2) @ t.reshape(ne, 2 * nq2, 3)
    mass_local = tables.basis.swapaxes(1, 2) @ (wq * Nvals)

    def interior_rhs(lam):
        return scatter_vector(tables.conn, stiff_local + lam * mass_local, dim)

    # analytic boundary term, moved to the right-hand side with minus sign
    bt = BoundaryTables(space, nq)

    def on_edges(fn):
        """fn(edge, s) at the edge quadrature points, stacked (E, nq, D)."""
        return np.concatenate(
            [
                np.reshape(fn(edge, bt.s[sl].ravel()), bt.s[sl].shape + (-1,))
                for edge, sl in enumerate(bt.edge_slices)
            ]
        )

    speed = np.linalg.norm(
        on_edges(lambda edge, s: scenario.edge_derivatives(edge, s)[0]), axis=2
    )
    rhs_b = conormal_load(
        bt,
        speed,
        on_edges(scenario.boundary_curvature),
        on_edges(scenario.boundary_tangent),
        on_edges(lambda edge, s: scenario.normal(edge_points(edge, s))),
    )
    # (sign: the projection identity carries -boundary term on both sides)

    history = []
    lam = cfg.ritz_lambda
    total_iters = 0
    h1 = A + M  # Gram matrix of the increment norm

    # starting guess: constrained L2 projection of the interpolated normal
    current = ConstrainedSolver(M, S, space, 1e-9, "normal projection start")(
        M @ quasi(scenario.normal)
    )[0]

    while total_iters < cfg.ritz_fp_max_iter:
        # a fixed gate: the flow's solver_residual_tol governs steps only
        solve = ConstrainedSolver(
            A + lam * M, S, space, 1e-9, "normal projection solve"
        )
        rhs_fixed = interior_rhs(lam) - rhs_b
        prev_inc = None
        escalate = False
        while total_iters < cfg.ritz_fp_max_iter and not escalate:
            new = solve(rhs_fixed + assemble_boundary_load(btables, current))[0]
            d = new - current
            inc = float(np.sqrt(np.sum(d * (h1 @ d))))
            history.append(inc)
            current = new
            total_iters += 1
            converged = inc <= cfg.ritz_fp_tol
            if prev_inc is not None and not converged:
                ratio = inc / prev_inc
                if ratio >= 1.0:
                    # expanding, or stuck on the solver roundoff floor
                    converged = inc <= 100.0 * cfg.ritz_fp_tol
                    escalate = not converged
                elif (
                    np.log(cfg.ritz_fp_tol / inc) / np.log(ratio)
                    > cfg.ritz_fp_max_iter - total_iters
                ):
                    escalate = True  # contraction too slow for the budget
            if converged:
                info = {
                    "lambda": lam,
                    "iterations": total_iters,
                    "increments": history,
                }
                return SplineField(space, current), info
            prev_inc = inc
        lam *= cfg.ritz_lambda_growth
    raise NoContraction(
        f"normal projection: no convergence within {cfg.ritz_fp_max_iter} "
        f"iterations (last lambda {lam:g})"
    )
