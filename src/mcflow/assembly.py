"""Galerkin assembly over the parametric mesh.

Interior forms are integrated element by element with a tensor Gauss
rule; all element loops are vectorized.  `MeshTables` is the one
quadrature layer: it caches the Gauss points and weights of the N x N
mesh, the basis tabulations and the CSR sparsity pattern of the space,
so repeated assembly on a moving surface only re-does the
coefficient-dependent contractions and then sums the element entries
into the fixed pattern with one `np.bincount`.  Mass and stiffness
share that pattern.

Every linear system for the normal, in the flow step and in the Ritz
projection, is the saddle [[I3 (x) K, S^T], [S, 0]] whose Lagrange
multiplier enforces the boundary constraint.  `ConstrainedSolver` is the
only code that solves it, and it never assembles it: S has nonzero
columns only at boundary control points, so the interior block K_II is
eliminated by its sparse LU and what remains is two small dense SPD
Schur complements on the boundary, each Cholesky-factored (the block
elimination of Benzi, Golub & Liesen, Acta Numerica 14 (2005), Sec. 5).
The same LU of K_II serves the zero-trace curvature system of a flow
step, which is that interior block, so a step factors one sparse matrix.
Vector coefficients are (dim, 3) arrays; S acts on them stacked
component-major, i.e. [all x | all y | all z].

Boundary terms live on the four edges of the parametric square.  The
constraint matrix S has one row per distinct boundary control point and
columns for all 3 * dim vector coefficients; its entries integrate
(trace basis) * (trace basis) * (unit tangent component) against the
fixed initial boundary length element, so S w = 0 expresses discrete
L2-orthogonality of the trace of w to the boundary tangent.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

from .geometry import SplineField, metric_pieces
from .splines import BoundaryTraceSpace, TensorSplineSpace


class SolverFailure(Exception):
    """Raised when a linear solve leaves too large a residual."""


def check_residual(residual, b, tol, what):
    """Relative residual |residual| / |b|; raises SolverFailure above tol."""
    b_norm = np.linalg.norm(b)
    r_norm = np.linalg.norm(residual)
    rel = r_norm / b_norm if b_norm > 0.0 else r_norm
    if not np.isfinite(rel) or rel > tol:
        raise SolverFailure(f"{what}: relative residual {rel:.3e} exceeds {tol:.1e}")
    return rel


def scatter_vector(index, local, dim):
    """Sum entries `local` (..., [D]) into rows `index` (...) of a (dim[, D]) array.

    Entries are summed one at a time in their flattened order.
    """
    if local.ndim == index.ndim:
        return np.bincount(index.ravel(), weights=local.ravel(), minlength=dim)
    D = local.shape[-1]
    rows = (index[..., None] * D + np.arange(D)).ravel()
    out = np.bincount(rows, weights=local.ravel(), minlength=dim * D)
    return out.reshape(dim, D)


class MeshTables:
    """Gauss mesh of a space: points, weights, basis tabulation, CSR pattern.

    `points` is (Ne, nq^2, 2) with elements in row-major order and
    `weights` the (nq^2,) tensor weights shared by every element, so a
    quadrature sum over the square is `sum(weights * values)` for values
    of shape (Ne, nq^2).
    """

    def __init__(self, space: TensorSplineSpace, n_quad: int):
        self.space = space
        self.n_quad = n_quad
        pu, wu, fu, tu = space.u.element_tables(n_quad, nderiv=1)
        pv, wv, fv, tv = space.v.element_tables(n_quad, nderiv=1)
        neu, nev = space.u.num_elements, space.v.num_elements
        du, dv = space.u.degree, space.v.degree
        self.num_elements = neu * nev
        self.nloc = (du + 1) * (dv + 1)
        nq2 = n_quad * n_quad

        # connectivity (Ne, nloc): flat indices of active basis functions
        au = fu[:, None] + np.arange(du + 1)[None, :]  # (neu, du+1)
        av = fv[:, None] + np.arange(dv + 1)[None, :]
        conn = (
            au[:, None, :, None] * space.v.dim + av[None, :, None, :]
        )  # (neu, nev, du+1, dv+1)
        self.conn = conn.reshape(self.num_elements, self.nloc)

        # CSR pattern of the space, sorted and without duplicates, and the
        # slot in `data` of every local entry (Ne, nloc, nloc), row-major
        dim = space.dim
        keys = (self.conn[:, :, None] * dim + self.conn[:, None, :]).ravel()
        pairs, self.scatter = np.unique(keys, return_inverse=True)
        self.indices = (pairs % dim).astype(np.int32)
        counts = np.bincount(pairs // dim, minlength=dim)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)

        # quadrature points per element (Ne, nq2, 2)
        U = np.broadcast_to(pu[:, None, :, None], (neu, nev, n_quad, n_quad))
        V = np.broadcast_to(pv[None, :, None, :], (neu, nev, n_quad, n_quad))
        self.points = np.stack(
            [U.reshape(self.num_elements, nq2), V.reshape(self.num_elements, nq2)],
            axis=-1,
        )
        self.weights = np.outer(wu, wv).ravel()  # (nq2,), same on every element

        # basis values and parametric gradients (Ne, nq2, nloc[, 2])
        bu = tu[:, :, 0, :]  # (neu, nq, du+1)
        gu = tu[:, :, 1, :]
        bv = tv[:, :, 0, :]
        gv = tv[:, :, 1, :]
        B = np.einsum("eqa,frb->efqrab", bu, bv)
        self.basis = B.reshape(self.num_elements, nq2, self.nloc)
        dB = np.stack(
            [
                np.einsum("eqa,frb->efqrab", gu, bv),
                np.einsum("eqa,frb->efqrab", bu, gv),
            ],
            axis=-1,
        )
        self.basis_grad = dB.reshape(self.num_elements, nq2, self.nloc, 2)

    def matrix(self, local):
        """Sum local matrices (Ne, nloc, nloc) into a CSR matrix on the pattern."""
        n, dim = len(self.indices), self.space.dim
        data = np.bincount(self.scatter, weights=local.ravel(), minlength=n)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(dim, dim))

    def field_values(self, coeffs):
        """Field values at all quadrature points, (Ne, nq2[, D])."""
        loc = coeffs[self.conn]
        if loc.ndim == 2:
            return np.einsum("eql,el->eq", self.basis, loc)
        return np.einsum("eql,eld->eqd", self.basis, loc)

    def field_jacobians(self, coeffs):
        """Parametric Jacobians at quadrature points, (Ne, nq2, D, 2)."""
        loc = coeffs[self.conn]
        if loc.ndim == 2:
            loc = loc[:, :, None]
        return np.einsum("eqla,eld->eqda", self.basis_grad, loc)


class ElementGeometry:
    """First-order geometry of a surface at the quadrature points."""

    def __init__(self, tables: MeshTables, x_coeffs):
        J = tables.field_jacobians(np.asarray(x_coeffs))
        self.jacobian = J
        self.metric, self.metric_inv, self.area_element = metric_pieces(J)


def assemble_mass_stiffness(tables: MeshTables, geom: ElementGeometry):
    """Surface mass and stiffness matrices on the given geometry.

    Returns (M, A) in CSR.
    """
    w = tables.weights
    q = geom.area_element
    B = tables.basis
    dB = tables.basis_grad
    Mloc = np.einsum("q,eq,eqi,eqj->eij", w, q, B, B, optimize=True)
    t = np.einsum("eqab,eqjb->eqja", geom.metric_inv, dB)
    Aloc = np.einsum("q,eq,eqia,eqja->eij", w, q, dB, t, optimize=True)
    return tables.matrix(Mloc), tables.matrix(Aloc)


def factor_symmetric(K):
    """Sparse LU of a symmetric CSC matrix.

    Every sparse factorization of the flow and the projections is the
    interior block of a shifted stiffness matrix, which is SPD.  Ordering
    on the structure of K^T + K and preferring diagonal pivots keeps the
    factors structurally symmetric, which needs less fill and time than
    the default column ordering.
    """
    return spla.splu(
        K,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _cholesky(matrix, what, name):
    """Cholesky factor of a dense SPD matrix; SolverFailure if it is not SPD."""
    try:
        return cho_factor(matrix, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"{what}: {name} is not positive definite ({exc})") from exc


class ConstrainedSolver:
    """The saddle system [[I3 (x) K, S^T], [S, 0]], factored once.

    K is a dim x dim SPD block shared by the three components and S the
    tangential-trace constraint, whose nonzero columns all belong to the
    boundary indices of `space`.  With I the interior and B the boundary
    indices, the set-up factors K_II (sparse LU), forms
    Z = K_II^-1 K_IB, the boundary Schur complement C = K_BB - K_IB^T Z
    and the multiplier Schur complement T = sum_k S_kB C^-1 S_kB^T, and
    Cholesky-factors C and T.  Calling the solver with a (dim, 3) load f
    returns (w (dim, 3), multiplier, relative residual) with S w = 0; the
    residual is taken against the full saddle operator, applied block by
    block, and gated by `check_residual(..., tol, what)`.
    `solve_interior` solves with K_II alone.
    """

    def __init__(self, K, S, space: TensorSplineSpace, tol, what):
        self.K, self.S, self.tol, self.what = K, S, tol, what
        self.interior = I = space.interior_indices
        self.boundary = B = space.boundary_indices
        K_I = K[I]
        self.K_II = K_I[:, I].tocsc()
        self.lu = factor_symmetric(self.K_II)
        self.K_IB = K_I[:, B]
        self.Z = self.lu.solve(self.K_IB.toarray())
        C = K[B][:, B].toarray() - self.K_IB.T @ self.Z
        self.C = _cholesky(C, what, "boundary Schur complement")
        dim = K.shape[0]
        self.S_B = [S[:, k * dim + B].toarray() for k in range(3)]
        self.X = [cho_solve(self.C, Sk.T, check_finite=False) for Sk in self.S_B]
        T = sum(Sk @ Xk for Sk, Xk in zip(self.S_B, self.X))
        self.T = _cholesky(T, what, "multiplier Schur complement")

    def solve_interior(self, b, what):
        """Solve K_II x = b; returns (x, relative residual), gated at tol."""
        x = self.lu.solve(b)
        return x, check_residual(self.K_II @ x - b, b, self.tol, what)

    def __call__(self, f):
        I, B = self.interior, self.boundary
        u = self.lu.solve(f[I])
        Cg = cho_solve(self.C, f[B] - self.K_IB.T @ u, check_finite=False)
        rhs = sum(Sk @ Cg[:, k] for k, Sk in enumerate(self.S_B))
        mu = cho_solve(self.T, rhs, check_finite=False)
        w = np.empty(f.shape)
        w[B] = Cg - np.column_stack([Xk @ mu for Xk in self.X])
        w[I] = u - self.Z @ w[B]
        r = self.K @ w + (self.S.T @ mu).reshape(3, -1).T - f
        r = np.concatenate([r.ravel(), self.S @ w.T.ravel()])
        return w, mu, check_residual(r, f, self.tol, self.what)


def assemble_curvature_load(tables, geom, kappa_coeffs, frob2):
    """Load |A|^2 kappa against the scalar basis (full-length vector).

    `frob2` is `weingarten_energy` of the normal on the same geometry.
    """
    kap = tables.field_values(np.asarray(kappa_coeffs))
    dens = tables.weights[None, :] * geom.area_element * frob2 * kap
    local = np.einsum("eq,eqi->ei", dens, tables.basis)
    return scatter_vector(tables.conn, local, tables.space.dim)


def assemble_normal_load(tables, geom, nu_coeffs, frob2):
    """Load |A|^2 nu against the vector basis, (dim, 3).

    `frob2` is `weingarten_energy` of `nu_coeffs` on the same geometry.
    """
    nu = tables.field_values(np.asarray(nu_coeffs))
    dens = tables.weights[None, :] * geom.area_element * frob2
    local = np.einsum("eq,eqd,eqi->eid", dens, nu, tables.basis)
    return scatter_vector(tables.conn, local, tables.space.dim)


def weingarten_energy(tables, geom, nu_coeffs):
    """|grad_Gamma nu|_F^2 at the quadrature points, (Ne, nq2)."""
    Jn = tables.field_jacobians(np.asarray(nu_coeffs))
    A = np.einsum(
        "eqda,eqab,eqcb->eqdc", Jn, geom.metric_inv, geom.jacobian, optimize=True
    )
    return np.einsum("eqdc,eqdc->eq", A, A)


# ---------------------------------------------------------------------------
# boundary assembly


class BoundaryTables:
    """Edge tabulations plus frozen boundary data of the initial surface.

    The boundary of the evolving surface is fixed in time, so the length
    element, the interpolated tangent (raw and unit) and the boundary
    curvature vector are all sampled once at the edge quadrature points
    of the initial surface and reused by every assembly call.
    """

    def __init__(self, space: TensorSplineSpace, n_quad: int):
        self.space = space
        self.n_quad = n_quad
        self.traces = BoundaryTraceSpace(space)
        self.edge_tabs = []
        for edge in range(4):
            uspace = self.traces.edge_spaces[edge]
            pts, wts, first, vals = uspace.element_tables(n_quad, nderiv=1)
            self.edge_tabs.append(
                {
                    "points": pts,  # (Ne, nq)
                    "weights": wts,  # (nq,)
                    "first": first,  # (Ne,)
                    "values": vals[:, :, 0, :],  # (Ne, nq, p+1)
                    "derivs": vals[:, :, 1, :],
                    "degree": uspace.degree,
                }
            )
        self.frozen = None

    def edge_local_indices(self, edge):
        """Per-element trace DOF indices, (Ne, p+1)."""
        tab = self.edge_tabs[edge]
        return tab["first"][:, None] + np.arange(tab["degree"] + 1)[None, :]

    def edge_field_values(self, edge, edge_coeffs, deriv=False):
        """Trace values (Ne, nq[, D]) from per-edge univariate coefficients."""
        tab = self.edge_tabs[edge]
        loc = np.asarray(edge_coeffs)[self.edge_local_indices(edge)]
        key = "derivs" if deriv else "values"
        if loc.ndim == 2:
            return np.einsum("eqa,ea->eq", tab[key], loc)
        return np.einsum("eqa,ead->eqd", tab[key], loc)

    def trace_coeffs(self, edge, coeffs):
        """Edge univariate coefficients of a tensor-space field."""
        return np.asarray(coeffs)[self.traces.edge_flat_indices[edge]]

    def freeze(self, x0_field: SplineField, boundary_data):
        """Sample time-independent boundary quantities at the edge points.

        `boundary_data` carries the per-edge interpolated tangent and
        curvature-vector coefficients (see projections.BoundaryData).
        """
        frozen = []
        for edge in range(4):
            dx = self.edge_field_values(
                edge, self.trace_coeffs(edge, x0_field.coeffs), deriv=True
            )
            length = np.linalg.norm(dx, axis=2)  # (Ne, nq)
            tau = self.edge_field_values(edge, boundary_data.tangent[edge])
            tau_hat = tau / np.linalg.norm(tau, axis=2, keepdims=True)
            kap = self.edge_field_values(edge, boundary_data.curvature[edge])
            frozen.append(
                {"length": length, "tau": tau, "tau_hat": tau_hat, "kappa": kap}
            )
        self.frozen = frozen
        return self


def assemble_constraint(btables: BoundaryTables):
    """Tangential-trace constraint matrix S, (n_boundary, 3*dim) CSR.

    Requires frozen boundary data; rows follow the distinct boundary
    control point numbering of the trace space.
    """
    assert btables.frozen is not None, "freeze boundary data first"
    space = btables.space
    traces = btables.traces
    rows, cols, vals = [], [], []
    for edge in range(4):
        tab = btables.edge_tabs[edge]
        fr = btables.frozen[edge]
        loc = btables.edge_local_indices(edge)  # (Ne, p+1)
        flat = traces.edge_flat_indices[edge][loc]  # tensor flat indices
        brow = traces.row_of_flat(flat)  # boundary row numbers
        dens = tab["weights"][None, :] * fr["length"]  # (Ne, nq)
        p1 = loc.shape[1]
        r = np.repeat(brow, p1, axis=1).ravel()
        c0 = np.tile(flat, (1, p1)).ravel()
        for k in range(3):
            Sk = np.einsum(
                "eq,eqa,eqb->eab",
                dens * fr["tau_hat"][:, :, k],
                tab["values"],
                tab["values"],
            )
            rows.append(r)
            cols.append(c0 + k * space.dim)
            vals.append(Sk.ravel())
    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(traces.num_rows, 3 * space.dim),
    )
    return S.tocsr()


def assemble_boundary_load(btables: BoundaryTables, nu_coeffs):
    """Conormal boundary load for the normal equation, (dim, 3).

    Integrates (kappa_b . nu)(nu x tau) against the vector basis traces
    over the fixed initial boundary, with the interpolated tangent kept
    unnormalized.
    """
    assert btables.frozen is not None
    rows, entries = [], []
    for edge in range(4):
        tab = btables.edge_tabs[edge]
        fr = btables.frozen[edge]
        nu = btables.edge_field_values(
            edge, btables.trace_coeffs(edge, nu_coeffs)
        )  # (Ne, nq, 3)
        alpha = np.einsum("eqd,eqd->eq", fr["kappa"], nu)
        mu = np.cross(nu, fr["tau"])
        dens = tab["weights"][None, :] * fr["length"] * alpha
        entries.append(np.einsum("eq,eqd,eqa->ead", dens, mu, tab["values"]))
        rows.append(
            btables.traces.edge_flat_indices[edge][btables.edge_local_indices(edge)]
        )
    return scatter_vector(
        np.concatenate(rows), np.concatenate(entries), btables.space.dim
    )


def constraint_residual(S, nu_coeffs):
    """Max-norm of S applied to a stacked normal field."""
    return float(np.abs(S @ np.asarray(nu_coeffs).T.ravel()).max())


def dump_matrix_market(path, name, matrix):
    """Write a sparse matrix in MatrixMarket coordinate format."""
    from pathlib import Path

    from scipy.io import mmwrite

    target = Path(path) / f"{name}.mtx"
    mmwrite(str(target), sp.coo_matrix(matrix))
    return target
