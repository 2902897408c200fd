"""Projections onto the discrete spaces.

Quasi-interpolation onto a surface applies the parametric coefficient
functionals to the pullback of the data; the velocity is the zero-trace
quasi-interpolant of -kappa * nu.  The Ritz projection of the normal
compares the H1 form on the discrete initial surface with the same form
on the analytic source surface.  It is nonlinear through an
orientation-dependent boundary term and constrained to have boundary
trace discretely orthogonal to the interpolated boundary tangent.  It is
computed by a fixed-point iteration whose linear part (stiffness +
lambda * mass + constraint saddle) is factorized once per stabilization
weight; when the H1 increments expand or contract too slowly to finish
within the iteration budget, lambda is multiplied by a growth factor and
the iteration continues from the current iterate.

The projection integrates with a rule one order finer than flow-step
assembly, on both sides, so data already in the space on the same
surface is reproduced to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import (
    BoundaryTables,
    ElementGeometry,
    MeshTables,
    assemble_boundary_load,
    assemble_mass_stiffness,
    check_residual,
    factor_symmetric,
    scatter_vector,
    stack_components,
    unstack_components,
)
from .geometry import SplineField, metric_pieces
from .splines import QuasiInterpolant, _dual_weights, edge_points, gauss_rule


class NoContraction(Exception):
    """Raised when the normal projection exhausts its iteration budget."""


@dataclass
class RitzConfig:
    """Parameters of the nonlinear normal projection.

    The fixed-point iteration runs at the smallest stabilization weight
    that contracts: lam grows by lambda_growth only when the increments
    expand or contract too slowly to reach fp_tol within the remaining
    budget.  Large weights are counterproductive (the roundoff floor of
    the increment scales with the weight), so stagnation below
    100 * fp_tol is accepted as converged.
    """

    lam: float = 10.0
    fp_tol: float = 1e-12
    fp_max_iter: int = 100
    lambda_growth: float = 4.0


@dataclass
class BoundaryData:
    """Per-edge interpolated boundary tangent and curvature vector.

    `tangent[k]` and `curvature[k]` are (n_k, 3) univariate coefficient
    arrays on the trace space of edge k.  The tangent is oriented so
    that (normal x tangent) is the outward conormal.
    """

    tangent: list = field(default_factory=list)
    curvature: list = field(default_factory=list)


def boundary_quasi_interp(
    btables: BoundaryTables, tangent_fn, curvature_fn
) -> BoundaryData:
    """Edge-by-edge univariate quasi-interpolation of boundary data.

    `tangent_fn(edge, s)` and `curvature_fn(edge, s)` return (n, 3)
    samples by edge parameter; corners carry no quadrature points, so
    the discontinuity of the tangent there never gets sampled.
    """
    data = BoundaryData()
    for edge in range(4):
        uspace = btables.traces.edge_spaces[edge]
        W, pts = _dual_weights(uspace, uspace.degree + 2)
        data.tangent.append(W @ np.asarray(tangent_fn(edge, pts)))
        data.curvature.append(W @ np.asarray(curvature_fn(edge, pts)))
    return data


def project_velocity(
    Q: QuasiInterpolant, kappa_field: SplineField, nu_field: SplineField
) -> np.ndarray:
    """Velocity coefficients: quasi-interpolant of -kappa * nu.

    Boundary coefficients are set to exactly zero so the velocity lies
    in the zero-trace subspace and the boundary stays put bit for bit.
    """
    kap = kappa_field.eval(Q.grid_points)[:, 0]
    nu = nu_field.eval(Q.grid_points)
    coeffs = Q.apply_to_values(-kap[:, None] * nu)
    coeffs[Q.space.boundary_indices] = 0.0
    return coeffs


# ---------------------------------------------------------------------------
# source-surface sampling


class AnalyticSource:
    """Scenario-backed geometry + data sampler for Ritz right-hand sides."""

    def __init__(self, scenario):
        self.scenario = scenario

    def geometry(self, pts):
        _, Ginv, q = metric_pieces(self.scenario.jacobian(pts))
        return Ginv, q

    def normal_data(self, pts):
        return self.scenario.normal(pts), self.scenario.normal_jacobian(pts)

    def edge_data(self, edge, s):
        c1, _ = self.scenario.edge_derivatives(edge, s)
        pts_len = np.linalg.norm(c1, axis=1)
        nu = self.scenario.normal(edge_points(edge, s))
        tau = self.scenario.boundary_tangent(edge, s)
        kap = self.scenario.boundary_curvature(edge, s)
        return nu, tau, kap, pts_len


# ---------------------------------------------------------------------------
# nonlinear normal projection


def nonlinear_ritz_normal(
    x_field: SplineField,
    source: AnalyticSource,
    btables: BoundaryTables,
    S: sp.spmatrix,
    quasi: QuasiInterpolant,
    cfg: RitzConfig | None = None,
):
    """Constrained H1 projection of the source normal field.

    `quasi` is the (p + 2)-point quasi-interpolant of the space; the
    starting guess interpolates the source normal with it.  Returns
    (SplineField, info) with info recording the lambda used, iteration
    count and the H1 increments.  Raises NoContraction when the combined
    iteration budget is exhausted.
    """
    cfg = cfg or RitzConfig()
    space = x_field.space
    nq = max(space.degree) + 2
    tables = MeshTables(space, nq)
    geom = ElementGeometry(tables, x_field.coeffs)
    M, A = assemble_mass_stiffness(tables, geom)
    dim = space.dim
    n_mult = S.shape[0]

    # right-hand side on the source surface (independent of the iterate)
    pts = tables.points.reshape(-1, 2)
    Ginv_s, q_s = source.geometry(pts)
    ne, nq2 = tables.points.shape[:2]
    Ginv_s = Ginv_s.reshape(ne, nq2, 2, 2)
    q_s = q_s.reshape(ne, nq2)
    Nvals, Njac = source.normal_data(pts)
    Nvals = Nvals.reshape(ne, nq2, 3)
    Njac = Njac.reshape(ne, nq2, 3, 2)
    w = tables.weights

    def interior_rhs(lam):
        t = np.einsum("eqab,eqdb->eqda", Ginv_s, Njac)
        local = np.einsum("q,eq,eqda,eqia->eid", w, q_s, t, tables.basis_grad)
        local += lam * np.einsum("q,eq,eqd,eqi->eid", w, q_s, Nvals, tables.basis)
        return scatter_vector(tables.conn, local, dim)

    # analytic boundary term, moved to the right-hand side with minus sign
    xb, wb = gauss_rule(nq)
    rows, entries = [], []
    for edge in range(4):
        uspace = btables.traces.edge_spaces[edge]
        h = uspace.mesh_size
        svals = (np.arange(uspace.num_elements)[:, None] * h + xb[None, :] * h).ravel()
        nu_b, tau_b, kap_b, speed = source.edge_data(edge, svals)
        alpha = np.einsum("nd,nd->n", kap_b, nu_b)
        mu = np.cross(nu_b, tau_b)
        first, ders = uspace.eval_basis(svals, 0)
        weights_s = np.tile(wb * h, uspace.num_elements)
        dens = weights_s * speed * alpha
        flat_edge = btables.traces.edge_flat_indices[edge]
        p1 = uspace.degree + 1
        idx_loc = first[:, None] + np.arange(p1)[None, :]
        entries.append(dens[:, None, None] * mu[:, None, :] * ders[:, 0, :, None])
        rows.append(flat_edge[idx_loc])
    rhs_b = scatter_vector(np.concatenate(rows), np.concatenate(entries), dim)
    # (sign: the projection identity carries -boundary term on both sides)

    history = []
    lam = cfg.lam
    total_iters = 0
    A3 = sp.block_diag([A, A, A]).tocsr()
    M3 = sp.block_diag([M, M, M]).tocsr()
    H1 = (A3 + M3).tocsr()  # increment norm

    # starting guess: constrained L2 projection of the interpolated normal
    nu0_coeffs = quasi.apply_to_values(
        np.asarray(source.normal_data(quasi.grid_points)[0])
    )
    current = _constrained_l2(M3, S, stack_components(nu0_coeffs))

    while total_iters < cfg.fp_max_iter:
        K = sp.bmat(
            [[A3 + lam * M3, S.T], [S, None]], format="csc"
        )
        lu = factor_symmetric(K)
        rhs_fixed = stack_components(interior_rhs(lam) - rhs_b)
        prev_inc = None
        escalate = False
        while total_iters < cfg.fp_max_iter and not escalate:
            fb_iter = assemble_boundary_load(
                btables, unstack_components(current, dim)
            )
            rhs = np.concatenate([rhs_fixed + stack_components(fb_iter),
                                  np.zeros(n_mult)])
            sol = lu.solve(rhs)
            # a fixed gate: the flow's solver_residual_tol governs steps only
            check_residual(K, sol, rhs, 1e-9, "normal projection solve")
            new = sol[: 3 * dim]
            d = new - current
            inc = float(np.sqrt(d @ (H1 @ d)))
            history.append(inc)
            current = new
            total_iters += 1
            converged = inc <= cfg.fp_tol
            if prev_inc is not None and not converged:
                ratio = inc / prev_inc
                if ratio >= 1.0:
                    # expanding, or stuck on the solver roundoff floor
                    converged = inc <= 100.0 * cfg.fp_tol
                    escalate = not converged
                elif (
                    np.log(cfg.fp_tol / inc) / np.log(ratio)
                    > cfg.fp_max_iter - total_iters
                ):
                    escalate = True  # contraction too slow for the budget
            if converged:
                info = {
                    "lambda": lam,
                    "iterations": total_iters,
                    "increments": history,
                }
                nu = unstack_components(current, dim)
                return SplineField(space, nu), info
            prev_inc = inc
        lam *= cfg.lambda_growth
    raise NoContraction(
        f"normal projection: no convergence within {cfg.fp_max_iter} iterations "
        f"(last lambda {lam:g})"
    )


def _constrained_l2(M3, S, target_vec):
    """L2 projection onto the constraint set S w = 0."""
    n_mult = S.shape[0]
    K = sp.bmat([[M3, S.T], [S, None]], format="csc")
    rhs = np.concatenate([M3 @ target_vec, np.zeros(n_mult)])
    sol = factor_symmetric(K).solve(rhs)
    return sol[: M3.shape[0]]
