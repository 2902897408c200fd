"""The one-shot set-up route, kept as the oracle of the block-wise one.

`projections.initial_data` samples the scenario on the
quasi-interpolant's grid one strip of element rows at a time and adds
each strip's share to the transposed products.  The set-up used to
sample the whole grid at once: one `Sample` whose fields are whole
(m, m) planes, three `QuasiInterpolant.apply_to_values` of them, and
the interior of the Ritz right-hand side as one `MeshTables.integrate`
of the density planes and of their derivative terms.  `initial_data`
here is that route, with the same arguments and results as the
block-wise one; it sums the same products in another order, so the two
agree to roundoff.

`constraint_residual` forms max |S_B nu_B| by its own product with
S_B: the oracle of the constraint residual that the saddle solves of the
Ritz projection and of a step report.
"""

from __future__ import annotations

import numpy as np

from mcflow.assembly import conormal_load
from mcflow.projections import RITZ_LAMBDA


def initial_data(scenario, quasi, tables, edges):
    """x, kappa, start (the quasi-interpolants of position, mean curvature
    and normal) and the Ritz right-hand side, from one sample of the
    whole grid."""
    p1d = quasi.grid.points_1d
    grid = scenario.sample(np.meshgrid(p1d, p1d, indexing="ij"))
    x = quasi.apply_to_values(grid.X)
    kappa = quasi.apply_to_values(grid.mean_curvature)
    start = quasi.apply_to_values(grid.normal)
    return x, kappa, start, ritz_rhs(tables, grid, edges)


def ritz_rhs(tables, grid, edges):
    """The iterate-independent right-hand side of the normal projection,
    (dim, 3), from the sample `grid` of the whole grid of `tables`: the
    transposed tensor products of its density planes against the basis
    and its u- and v-derivatives, along v and then along u, less the
    `conormal_load` of the edge samples."""
    (g00, g01, g11), q = grid.metric
    wq = tables.weights * q
    Nu, Nv = grid.normal_jacobian
    c0, c1 = tables.c
    t = tables._to_basis_last(RITZ_LAMBDA * wq * grid.normal, c0)
    t += tables._to_basis_last(wq * (g01 * Nu + g11 * Nv), c1)
    interior = tables._to_basis(c0, t)
    interior += tables._to_basis(c1, tables._to_basis_last(wq * (g00 * Nu + g01 * Nv), c0))
    interior = interior.reshape(3, -1).T
    names = ("edge_speed", "edge_curvature", "edge_tangent", "normal")
    on_edges = (np.stack([getattr(e, k) for e in edges], axis=-2) for k in names)
    return interior - conormal_load(tables, *on_edges)


def constraint_residual(layout, nu_coeffs):
    """max |S_B nu_B| for the boundary rows nu_B of a (dim, 3) normal field."""
    nu_B = np.take(nu_coeffs, layout.boundary, axis=0)
    return float(np.abs(layout.S_B @ nu_B.ravel(order="F")).max())
