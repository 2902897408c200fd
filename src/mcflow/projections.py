"""Projections onto the discrete spaces.

Quasi-interpolation onto a surface applies the parametric coefficient
functionals to the pullback of the data; the velocity is the zero-trace
quasi-interpolant of -kappa * nu.  Its `splines.TensorGrid` evaluates
kappa and nu as planes of the quasi-interpolant's fixed tensor grid,
they are multiplied plane by plane, and the grid's transposed product
applies the dual weights: each is a blocked pass along u and one along v.
Values on points are component first here as everywhere (`geometry`):
planes (D, m, m), the grid sample among them, and edge values (D, 4, m).

The Ritz projection of the normal compares the H1 form on the discrete
initial surface with the same form on the scenario's exact surface,
which it reads off the one grid sample (`scenarios.Sample`) that also
gives the interpolated initial data: it integrates, in the interior
and on the edges, on the quasi-interpolant's own Gauss grid, which a
flow problem builds as an `assembly.MeshTables`.  That rule is one
order finer than flow-step assembly, so data already in the space is
reproduced to solver precision, and the sample's values are already
planes of that grid.  A + RITZ_LAMBDA M and the Gram matrix A + M come
from the same matrix kernel as a flow step's.  It is
nonlinear through an orientation-dependent boundary term and
constrained to have boundary trace discretely orthogonal to the
interpolated boundary tangent.  `ritz_rhs` assembles the part of the
right-hand side that no iterate changes; `nonlinear_ritz_normal` then
runs a fixed-point iteration (as Kovacs, Li & Lubich, Numer. Math. 143
(2019), do for closed surfaces), Anderson mixed, whose linear part, the
constraint saddle of stiffness + RITZ_LAMBDA * mass, is one
`assembly.ConstrainedSolver`, so one banded Cholesky serves every
iterate, as one serves a flow step.  The weight, the tolerance, the
iteration budget and the mixing depth are the module constants below.
"""

from __future__ import annotations

import numpy as np

from .assembly import (
    ConstrainedSolver,
    ElementGeometry,
    MeshTables,
    assemble_boundary_load,
    assemble_mass_stiffness,
    conormal_load,
)
from .splines import QuasiInterpolant


# Weight, H1 tolerance and budget of the normal's fixed-point iteration.  At
# this weight the plain iteration contracts for both scenarios at N = 4..80
# (p = 2) and 4..40 (p = 3), by a ratio of at most 0.55 and in at most 30
# iterations; Anderson mixing at depth ANDERSON_DEPTH, the number of earlier
# iterates it combines, takes at most 16 there (2 on the plane).
RITZ_LAMBDA = 10.0
RITZ_TOL = 1e-12
RITZ_MAX_ITER = 100
ANDERSON_DEPTH = 4


class NoContraction(Exception):
    """Raised when the normal projection exhausts its iteration budget."""


def boundary_quasi_interp(quasi: QuasiInterpolant, values):
    """Edge-by-edge univariate quasi-interpolation of boundary data.

    `values` (D, 4, m) holds samples at `splines.edge_points(edge,
    quasi.grid.points_1d)` for each edge.  The functionals of each edge
    are the univariate ones of `quasi`; corners carry no quadrature
    points, so a discontinuity of the data there (as of the tangent)
    never gets sampled.  Returns the (4, n, D) coefficients on the trace
    basis of each edge, the layout `assembly.BoundaryTables.trace` reads.
    """
    return np.moveaxis(values @ quasi.w.T, 0, -1)


def project_velocity(Q: QuasiInterpolant, kappa, nu) -> np.ndarray:
    """Velocity coefficients: quasi-interpolant of -kappa * nu.

    `kappa` (dim,) and `nu` (dim, 3) are coefficient arrays, evaluated
    together as planes of the quasi-interpolant's grid by `Q.grid` and
    multiplied plane by plane.  Boundary coefficients are set to exactly
    zero so the velocity lies in the zero-trace subspace and the
    boundary stays put bit for bit.
    """
    planes = Q.grid.evaluate(np.concatenate([kappa[None], nu.T]))[0]
    coeffs = Q.apply_to_values(-planes[0] * planes[1:])  # -kappa nu
    coeffs[Q.grid.space.boundary_indices] = 0.0
    return coeffs


# ---------------------------------------------------------------------------
# nonlinear normal projection


def ritz_rhs(tables: MeshTables, grid, edges):
    """The iterate-independent right-hand side of the normal projection, (dim, 3).

    The form of stiffness + RITZ_LAMBDA * mass on the scenario surface
    applied to its normal, minus the conormal term of its boundary.
    `tables` is the quasi-interpolant's grid; `grid` and `edges[k]` are
    the scenario's `Sample`s at the meshgrid of its `points_1d`, so their
    fields are planes of `tables`, and at `splines.edge_points(k,
    points_1d)`.  The interior part is the transposed tensor product of
    the sample's density planes, the boundary part the `conormal_load`
    of the edge samples on the same grid.
    """
    (g00, g01, g11), q = grid.metric
    wq = tables.weights * q
    Nu, Nv = grid.normal_jacobian
    interior = tables.integrate(
        RITZ_LAMBDA * wq * grid.normal,
        du=wq * (g00 * Nu + g01 * Nv),
        dv=wq * (g01 * Nu + g11 * Nv),
    )

    # analytic boundary term, moved to the right-hand side with minus sign,
    # on the edges of the same grid
    names = ("edge_speed", "edge_curvature", "edge_tangent", "normal")
    on_edges = (np.stack([getattr(e, k) for e in edges], axis=-2) for k in names)
    rhs_b = conormal_load(tables, *on_edges)
    # (sign: the projection identity carries -boundary term on both sides)
    return interior - rhs_b


def nonlinear_ritz_normal(x, rhs, start, tables, btables, saddle):
    """Constrained H1 projection of the scenario normal.

    `x` holds the position coefficients of the discrete initial surface,
    `rhs` the `ritz_rhs` on `tables`, `start` the first iterate and
    `saddle` the `assembly.SaddleLayout` of the space and constraint.
    The fixed-point map g solves the saddle of A + RITZ_LAMBDA * M on
    `tables` for the boundary load of its argument, once per iterate,
    until the H1 norm of the residual g(x_k) - x_k reaches RITZ_TOL;
    it then returns g(x_k).  The iterates are Anderson mixed (Walker &
    Ni, SIAM J. Numer. Anal. 49(4), 2011) at depth ANDERSON_DEPTH: the
    next iterate is g(x_k) - dG gamma, where the columns of dG and dF
    are the differences of the last map values and residuals and gamma
    minimizes |f_k - dF gamma| in the Euclidean norm of the
    coefficients.  Every map value satisfies the constraint and the
    mixed iterate is an affine combination of them, so it does too.
    Near the fixed point g is nearly affine, with linear part G, and the
    next residual is about G applied to the mixed residual, which is no
    larger than the smallest of the last ANDERSON_DEPTH + 1 residuals
    in the coefficient norm; the H1 residual may still rise from one
    iterate to the next.  The roundoff floor of the residual scales
    with the weight, so a residual below 100 * RITZ_TOL that is no
    smaller than all of the last ANDERSON_DEPTH + 1 also counts as
    converged.  Returns (coefficients (dim, 3), info) with
    info["iterations"] the iteration count and info["residuals"] the
    H1 residuals.  Raises NoContraction when RITZ_MAX_ITER iterations
    do not converge.
    """
    geom = ElementGeometry(tables, x)
    K = assemble_mass_stiffness(tables, geom, RITZ_LAMBDA)
    solve = ConstrainedSolver(K, saddle, "normal projection solve")
    h1 = assemble_mass_stiffness(tables, geom, 1.0)  # Gram matrix of the residual norm
    current = start
    history, gs, fs = [], [], []  # gs, fs: the last map values and residuals
    for _ in range(RITZ_MAX_ITER):
        g = solve(rhs + assemble_boundary_load(btables, current))[0]
        f = g - current
        res = float(np.sqrt(np.sum(f * (h1 @ f))))
        # a residual that beats none of the window sits on the roundoff floor
        window = history[-ANDERSON_DEPTH - 1 :]
        stalled = bool(window) and min(window) <= res <= 100.0 * RITZ_TOL
        history.append(res)
        if res <= RITZ_TOL or stalled:
            return g, {"iterations": len(history), "residuals": history}
        gs, fs = gs[-ANDERSON_DEPTH:] + [g], fs[-ANDERSON_DEPTH:] + [f]
        current = g
        if len(fs) > 1:
            dF = np.diff(np.stack(fs, axis=-1)).reshape(f.size, -1)
            gamma = np.linalg.lstsq(dF, f.ravel(), rcond=None)[0]
            current = g - np.diff(np.stack(gs, axis=-1)) @ gamma
    raise NoContraction(
        f"normal projection: no convergence within {RITZ_MAX_ITER} iterations"
    )
