"""Projections onto the discrete spaces.

Quasi-interpolation onto a surface applies the parametric coefficient
functionals to the pullback of the data; the velocity is the zero-trace
quasi-interpolant of -kappa * nu.  Its `splines.TensorGrid` evaluates
kappa and nu as planes of the quasi-interpolant's fixed tensor grid,
they are multiplied plane by plane, and the grid's transposed product
applies the dual weights: each is a blocked pass along u and one along v.
Values on points are component first here as everywhere (`geometry`):
planes (D, m, m), the grid samples among them, and edge values (D, 4, m).

The Ritz projection of the normal compares the H1 form on the discrete
initial surface with the same form on the scenario's exact surface,
which it reads off the samples of the grid (`scenarios.Sample`) that
also give the interpolated initial data: it integrates, in the interior
and on the edges, on the quasi-interpolant's own Gauss grid, whose
quadrature tables set-up builds on it (`assembly.MeshTables.of`) for
the projection only.  That rule is one order finer than flow-step
assembly, so data already in the space is reproduced to solver
precision, and the samples' values are already rows of planes of that
grid.  A + RITZ_LAMBDA M and the Gram matrix A + M come from the same
matrix kernel as a flow step's, and their planes are gone before K is
factored.  It is nonlinear through an orientation-dependent boundary
term and constrained to have boundary trace discretely orthogonal to
the interpolated boundary tangent.  `initial_data` samples the grid
one strip of element rows at a time and sums, strip by strip, the
interpolated initial data and the part of the right-hand side that no
iterate changes, so set-up never holds the fields of the whole grid;
`nonlinear_ritz_normal` then runs a fixed-point iteration (as Kovacs,
Li & Lubich, Numer. Math. 143 (2019), do for closed surfaces),
Anderson mixed, whose linear part, the constraint saddle of
stiffness + RITZ_LAMBDA * mass, is one `assembly.ConstrainedSolver`,
so one banded Cholesky serves every iterate, as one serves a flow
step.  The weight, the tolerance, the iteration budget and the mixing
depth are the module constants below.
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


def initial_data(scenario, quasi: QuasiInterpolant, tables: MeshTables, edges):
    """Interpolated initial data and the right-hand side of the normal projection.

    Returns the quasi-interpolants x (dim, 3), kappa (dim,) and start
    (dim, 3) of the scenario's position, mean curvature and normal, and
    the iterate-independent right-hand side rhs (dim, 3) of
    `nonlinear_ritz_normal`: the form of stiffness + RITZ_LAMBDA * mass
    on the scenario surface applied to its normal, minus the conormal
    term of its boundary.  `tables` holds the tables of the
    quasi-interpolant's grid (`MeshTables.of`), and `edges[k]` is the
    scenario's `Sample` at `splines.edge_points(k, points_1d)`.  The
    grid is sampled one strip at a time (`_add_strip`); once every strip
    is in, the pass along v completes the quasi-interpolants, as in
    `QuasiInterpolant.apply_to_values`.
    """
    n, m = quasi.w.shape
    along_u = np.zeros((7, n, m))  # x, kappa and the start normal
    interior = np.zeros((3, n, n))
    for block in tables.point_blocks:
        _add_strip(scenario, quasi, tables, block, along_u, interior)
    coeffs = tables._to_basis_last(along_u, quasi.w.T)  # transposed, (7, n, n)
    x, kappa, start = (
        np.ascontiguousarray(c.reshape(len(c), -1).T) for c in np.split(coeffs, [3, 4])
    )

    # analytic boundary term, moved to the right-hand side with minus sign,
    # on the edges of the same grid
    names = ("edge_speed", "edge_curvature", "edge_tangent", "normal")
    on_edges = (np.stack([getattr(e, k) for e in edges], axis=-2) for k in names)
    # (sign: the projection identity carries -boundary term on both sides)
    rhs = interior.reshape(3, -1).T - conormal_load(tables, *on_edges)
    return x, kappa[:, 0], start, rhs


def _add_strip(scenario, quasi, tables, block, along_u, interior):
    """Sample the rows q of the grid for a block (q, i) of
    `tables.point_blocks` and add the strip's shares: the pass along u of
    the quasi-interpolants of its position, mean curvature and normal to
    `along_u` (7, n, m), and the interior part of the Ritz right-hand
    side, integrated along v as in `MeshTables.integrate` and then along
    u, to `interior` (3, n, n), transposed.  The strip is gone on
    return, so set-up holds one strip at a time.
    """
    q, _ = block
    p1d = tables.points_1d
    strip = scenario.sample(np.meshgrid(p1d[q], p1d, indexing="ij"))
    values = np.concatenate([strip.X, strip.mean_curvature[None], strip.normal])
    tables._add_to_basis(quasi.w.T, values, block, along_u)

    (g00, g01, g11), area = strip.metric
    wq = tables.weights[q] * area
    Nu, Nv = strip.normal_jacobian
    c0, c1 = tables.c
    t = tables._to_basis_last(RITZ_LAMBDA * wq * strip.normal, c0)
    t += tables._to_basis_last(wq * (g01 * Nu + g11 * Nv), c1)
    tables._add_to_basis(c0, t, block, interior)
    du = tables._to_basis_last(wq * (g00 * Nu + g01 * Nv), c0)
    tables._add_to_basis(c1, du, block, interior)


def _ritz_matrices(tables: MeshTables, x):
    """A + RITZ_LAMBDA M and the Gram matrix A + M of the residual norm on
    the surface x; the planes of its geometry are gone on return."""
    geom = ElementGeometry(tables, x)
    return (
        assemble_mass_stiffness(tables, geom, RITZ_LAMBDA),
        assemble_mass_stiffness(tables, geom, 1.0),
    )


def nonlinear_ritz_normal(x, rhs, start, tables, btables, saddle):
    """Constrained H1 projection of the scenario normal.

    `x` holds the position coefficients of the discrete initial surface,
    `rhs` the right-hand side from `initial_data` on `tables`, `start`
    the first iterate and `saddle` the `assembly.SaddleLayout` of the
    space and constraint.
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
    info["iterations"] the iteration count, info["residuals"] the H1
    residuals and info["constraint"] the constraint residual
    max |S_B g_B| that the last saddle solve reports.  Raises
    NoContraction when RITZ_MAX_ITER iterations do not converge.
    """
    K, h1 = _ritz_matrices(tables, x)
    solve = ConstrainedSolver(K, saddle, "normal projection solve")
    current = start
    history, gs, fs = [], [], []  # gs, fs: the last map values and residuals
    for _ in range(RITZ_MAX_ITER):
        g, _, _, constraint = solve(rhs + assemble_boundary_load(btables, current))
        f = g - current
        res = float(np.sqrt(np.sum(f * (h1 @ f))))
        # a residual that beats none of the window sits on the roundoff floor
        window = history[-ANDERSON_DEPTH - 1 :]
        stalled = bool(window) and min(window) <= res <= 100.0 * RITZ_TOL
        history.append(res)
        if res <= RITZ_TOL or stalled:
            return g, {"iterations": len(history), "residuals": history, "constraint": constraint}
        gs, fs = gs[-ANDERSON_DEPTH:] + [g], fs[-ANDERSON_DEPTH:] + [f]
        current = g
        if len(fs) > 1:
            dF = np.diff(np.stack(fs, axis=-1)).reshape(f.size, -1)
            gamma = np.linalg.lstsq(dF, f.ravel(), rcond=None)[0]
            current = g - np.diff(np.stack(gs, axis=-1)) @ gamma
    raise NoContraction(
        f"normal projection: no convergence within {RITZ_MAX_ITER} iterations"
    )
