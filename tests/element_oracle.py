"""The per-element quadrature route, kept as the oracle of the tensor-grid kernels.

The quadrature layer used to tabulate the basis on every element of the
mesh: `ElementTables` holds those stacks, values `basis` (Ne, nq2, nloc)
and parametric gradients `basis_grad` (Ne, nq2, 2, nloc) with the local
basis index last, the element connectivity `conn` and the slot `scatter`
of every local matrix entry in the CSR pattern of the space
(`element_pattern`).  Matrices and interior loads are summed from
element contributions by `np.bincount`, and every contraction is the
plain `np.einsum` formula.  Tests compare the tensor-grid kernels of
`mcflow.assembly` against it; `to_grid` reorders element-ordered values
(Ne, nq2, ...) into the planes (..., m, m) of the tensor grid.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from mcflow.assembly import BoundaryTables, conormal_load, scatter_vector
from mcflow.projections import RITZ_LAMBDA


def gauss_mesh(space, n_quad):
    """Tensor Gauss rule on the elements of a space.

    Returns `points` (Ne, nq^2, 2), elements in row-major order, and
    `weights`, the (nq^2,) tensor weights shared by every element.
    """
    pts, w = space.factor.element_rule(n_quad)
    points = np.empty((len(pts), len(pts), n_quad, n_quad, 2))
    points[..., 0] = pts[:, None, :, None]
    points[..., 1] = pts[None, :, None, :]
    return points.reshape(-1, n_quad * n_quad, 2), np.outer(w, w).ravel()


def element_pattern(space):
    """(conn, scatter): the flat indices (Ne, nloc) of the basis functions
    active on each element, elements row-major, and the slot in the
    space's CSR data of every local entry (Ne, nloc, nloc), flattened."""
    p, n = space.degree, space.factor.dim
    a = space.factor.element_first[:, None] + np.arange(p + 1)  # (ne, p+1)
    conn = (a[:, None, :, None] * n + a[None, :, None, :]).reshape(-1, (p + 1) ** 2)
    _, indptr, _ = space.csr_pattern
    s, w = space.factor.band
    i1, i2 = np.divmod(conn[:, :, None], n)  # row of each local entry
    j1, j2 = np.divmod(conn[:, None, :], n)  # and its column
    scatter = indptr[conn][:, :, None] + (j1 - s[i1]) * w[i2] + (j2 - s[i2])
    return conn, scatter.ravel()


class ElementTables:
    """Per-element Gauss tabulation of a space: points, weights, basis, pattern."""

    def __init__(self, space, n_quad):
        self.space = space
        self.n_quad = n_quad
        tab = space.factor.element_tables(n_quad)[3]
        ne, p1 = space.factor.num_elements, space.degree + 1
        self.num_elements = ne * ne
        self.nloc = p1 * p1
        nq2 = n_quad * n_quad
        self.indices, self.indptr, _ = space.csr_pattern
        self.conn, self.scatter = element_pattern(space)
        self.points, self.weights = gauss_mesh(space, n_quad)

        grid = (ne, ne, n_quad, n_quad)
        basis = np.empty(grid + (p1, p1))
        grad = np.empty(grid + (2, p1, p1))

        def tensor(fu_tab, fv_tab, out):  # (ne, nq, p+1) x (ne, nq, p+1)
            np.multiply(
                fu_tab[:, None, :, None, :, None], fv_tab[None, :, None, :, None, :], out=out
            )

        b, g = tab[:, :, 0, :], tab[:, :, 1, :]
        tensor(b, b, basis)
        tensor(g, b, grad[..., 0, :, :])
        tensor(b, g, grad[..., 1, :, :])
        self.basis = basis.reshape(self.num_elements, nq2, self.nloc)
        self.basis_grad = grad.reshape(self.num_elements, nq2, 2, self.nloc)
        # the same memory as one (2 nq2, nloc) matrix per element
        self.grad_rows = self.basis_grad.reshape(self.num_elements, 2 * nq2, self.nloc)

    def matrix(self, local):
        """Sum local matrices (Ne, nloc, nloc) into a CSR matrix on the pattern."""
        n, dim = len(self.indices), self.space.dim
        data = np.bincount(self.scatter, weights=local.ravel(), minlength=n)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(dim, dim))

    def field_values(self, coeffs):
        """Field values at all quadrature points, (Ne, nq2[, D])."""
        loc = np.asarray(coeffs)[self.conn]
        if loc.ndim == 2:
            return np.einsum("eql,el->eq", self.basis, loc)
        return np.einsum("eql,eld->eqd", self.basis, loc)

    def field_jacobians(self, coeffs):
        """Parametric Jacobians at quadrature points, (Ne, nq2, D, 2)."""
        loc = np.asarray(coeffs)[self.conn]
        if loc.ndim == 2:
            loc = loc[:, :, None]
        return np.einsum("eqal,eld->eqda", self.basis_grad, loc)

    def to_grid(self, values):
        """Element-ordered values (Ne, nq2, ...) as planes (..., m, m) of
        the tensor grid, u-major."""
        N, nq = self.space.factor.num_elements, self.n_quad
        rest = values.shape[2:]
        blocks = values.reshape((N, N, nq, nq) + rest).transpose(
            (0, 2, 1, 3) + tuple(range(4, 4 + len(rest)))
        )
        grid = blocks.reshape((N * nq, N * nq) + rest)
        return np.moveaxis(grid, (0, 1), (-2, -1))


def metric(J):
    """G^-1 (..., 2, 2) and the area element of Jacobians J (..., 3, 2),
    by `np.linalg` on G = J^T J."""
    G = np.einsum("...da,...db->...ab", J, J)
    return np.linalg.inv(G), np.sqrt(np.linalg.det(G))


def mass_stiffness(tables, x):
    """Surface mass and stiffness matrices (CSR, on the pattern) of x."""
    Ginv, q = metric(tables.field_jacobians(x))
    w, B, dB = tables.weights, tables.basis, tables.basis_grad
    Mloc = np.einsum("q,eq,eqi,eqj->eij", w, q, B, B)
    Aloc = np.einsum("q,eq,eqai,eqab,eqbj->eij", w, q, dB, Ginv, dB)
    return tables.matrix(Mloc), tables.matrix(Aloc)


def weingarten_energy(tables, x, nu):
    """|Jn G^-1 J^T|_F^2 at the quadrature points, (Ne, nq2)."""
    J = tables.field_jacobians(x)
    Ginv, _ = metric(J)
    W = np.einsum("eqda,eqab,eqcb->eqdc", tables.field_jacobians(nu), Ginv, J)
    return np.einsum("eqdc,eqdc->eq", W, W)


def load(tables, x, field, density):
    """The integral of density * field against the basis: (dim[, D]) for
    a field (dim[, D]) and a density (Ne, nq2) at the quadrature points."""
    _, q = metric(tables.field_jacobians(x))
    dens = tables.weights * q * density
    vals = tables.field_values(field)
    dim = tables.space.dim
    if vals.ndim == 2:
        local = np.einsum("eq,eqi->ei", dens * vals, tables.basis)
        return np.bincount(tables.conn.ravel(), weights=local.ravel(), minlength=dim)
    local = np.einsum("eq,eqd,eqi->eid", dens, vals, tables.basis)
    return scatter_vector(tables.conn, local, dim)


def area(tables, x):
    """Quadrature area of the surface x."""
    _, q = metric(tables.field_jacobians(x))
    return float(np.sum(tables.weights * q))


def ritz_rhs(tables, grid, edges):
    """The right-hand side of the normal projection, element by element:
    `tables` on the quasi-interpolant's rule, `grid` the scenario's
    sample at its grid points, `edges` those at its edge points."""
    Ginv = np.linalg.inv(np.einsum("nda,ndb->nab", grid.J, grid.J))
    q = np.sqrt(np.linalg.det(np.einsum("nda,ndb->nab", grid.J, grid.J)))

    def by_element(values):
        """Grid-ordered values (m * m, ...) as (Ne, nq2, ...)."""
        N, nq = tables.space.factor.num_elements, tables.n_quad
        shape = values.shape[1:]
        blocks = values.reshape((N, nq, N, nq) + shape).swapaxes(1, 2)
        return blocks.reshape((N * N, nq * nq) + shape)

    Ginv, q = by_element(Ginv), by_element(q)
    N_vals, N_jac = by_element(grid.normal), by_element(grid.normal_jacobian)
    wq = tables.weights * q
    stiff = np.einsum("eq,eqai,eqab,eqdb->eid", wq, tables.basis_grad, Ginv, N_jac)
    mass = np.einsum("eq,eqi,eqd->eid", wq, tables.basis, N_vals)
    bt = BoundaryTables(tables.space, tables.n_quad)

    def on_edges(values):
        return np.concatenate(values).reshape(bt.weights.shape + values[0].shape[1:])

    rhs_b = conormal_load(
        bt,
        on_edges([e.edge_speed for e in edges]),
        on_edges([e.edge_curvature for e in edges]),
        on_edges([e.edge_tangent for e in edges]),
        on_edges([e.normal for e in edges]),
    )
    local = stiff + RITZ_LAMBDA * mass
    return scatter_vector(tables.conn, local, tables.space.dim) - rhs_b
