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
is computed by a fixed-point iteration (as Kovacs, Li & Lubich,
Numer. Math. 143 (2019), do for closed surfaces) whose linear part, the
constraint saddle of stiffness + RITZ_LAMBDA * mass, is one
`assembly.ConstrainedSolver`: one boundary-last sparse LU of the whole
matrix and the boundary Schur complements read off it, as in a flow
step.  The weight, the tolerance and the iteration budget are the
module constants below.

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
from .geometry import metric_pieces
from .splines import EDGE_FIXED_COORD, QuasiInterpolant, edge_points


# Weight, H1 tolerance and budget of the normal's fixed-point iteration.  At
# this weight it contracts for both scenarios at N = 4..80 (p = 2) and 4..40
# (p = 3), by a ratio of at most 0.55 and in at most 30 iterations.
RITZ_LAMBDA = 10.0
RITZ_TOL = 1e-12
RITZ_MAX_ITER = 100


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


def project_velocity(Q: QuasiInterpolant, kappa, nu) -> np.ndarray:
    """Velocity coefficients: quasi-interpolant of -kappa * nu.

    `kappa` (dim,) and `nu` (dim, 3) are coefficient arrays, evaluated
    together at the quasi-interpolant's grid by `Q.grid`, one
    collocation matrix per direction.  Boundary coefficients are set to
    exactly zero so the velocity lies in the zero-trace subspace and the
    boundary stays put bit for bit.
    """
    kap_nu = Q.grid.eval(np.column_stack([kappa, nu]))
    coeffs = Q.apply_to_values(-kap_nu[:, :1] * kap_nu[:, 1:])
    coeffs[Q.space.boundary_indices] = 0.0
    return coeffs


# ---------------------------------------------------------------------------
# nonlinear normal projection


def nonlinear_ritz_normal(x, scenario, btables, saddle, quasi):
    """Constrained H1 projection of the normal of `scenario`.

    `x` holds the position coefficients of the discrete initial surface,
    `saddle` the `assembly.SaddleLayout` of its space and constraint, and
    `quasi` is the quasi-interpolant of its space.  The fixed-point
    iteration solves the saddle of A + RITZ_LAMBDA * M once per iterate,
    starting from the quasi-interpolant of the scenario normal, until
    the H1 increment reaches RITZ_TOL.  The roundoff floor of the
    increment scales with the weight, so an increment that stops
    shrinking below 100 * RITZ_TOL also counts as converged.  Returns
    (coefficients (dim, 3), info) with info recording the iteration
    count and the H1 increments.  Raises NoContraction when
    RITZ_MAX_ITER iterations do not converge.
    """
    space = quasi.space
    nq = max(space.degree) + 2
    tables = MeshTables(space, nq)
    geom = ElementGeometry(tables, x)
    M, A = assemble_mass_stiffness(tables, geom)

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
    local = stiff_local + RITZ_LAMBDA * mass_local
    rhs_fixed = scatter_vector(tables.conn, local, space.dim) - rhs_b

    K = tables.combine(RITZ_LAMBDA, M, A)
    solve = ConstrainedSolver(K, saddle, "normal projection solve")
    h1 = A + M  # Gram matrix of the increment norm
    current = quasi(scenario.normal)
    history = []
    for _ in range(RITZ_MAX_ITER):
        new = solve(rhs_fixed + assemble_boundary_load(btables, current))[0]
        d = new - current
        inc = float(np.sqrt(np.sum(d * (h1 @ d))))
        current = new
        # an increment that stops shrinking sits on the solver roundoff floor
        stalled = bool(history) and history[-1] <= inc <= 100.0 * RITZ_TOL
        history.append(inc)
        if inc <= RITZ_TOL or stalled:
            return current, {"iterations": len(history), "increments": history}
    raise NoContraction(
        f"normal projection: no convergence within {RITZ_MAX_ITER} iterations"
    )
