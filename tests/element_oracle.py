"""The per-element quadrature route, kept as the oracle of the tensor-grid kernels.

The quadrature layer used to tabulate the basis on every element of the
mesh (`element_tables`): `ElementTables` holds those stacks, values
`basis` (Ne, nq2, nloc) and parametric gradients `basis_grad`
(Ne, nq2, 2, nloc) with the local basis index last, the element
connectivity `conn` and the slot `scatter` of every local matrix entry
in the CSR pattern of the space (`csr_pattern`, `element_pattern`).
Matrices and interior loads are summed from element contributions by
`np.bincount`, and every contraction is the plain `np.einsum` formula;
`diagonals` reads a matrix by the diagonals that `mcflow` stores, and
`space_diagonals` finds those of a space by a search over every
coupling.

The edge layer used to stack the four edges of the square along one
element axis: `EdgeTables` holds the per-element tabulation of the trace
basis on every edge element and three (E, p+1) index maps, `flat`,
`local` and `rows`; `conormal_load`, `boundary_load` and `constraint`
are the boundary forms on them.  Tests compare the tensor-grid kernels
of `mcflow.assembly` against both; `to_grid` reorders element-ordered
values (Ne, nq2, ...) into the planes (..., m, m) of the tensor grid.
Both routes keep their values element by element, point first; they
take the scenarios' samples component first, as `mcflow` keeps them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from mcflow.assembly import scatter_vector
from mcflow.projections import RITZ_LAMBDA


def element_tables(uspace, n_quad):
    """Per-element Gauss tabulation of values and first derivatives.

    Returns (points, weights, first, values) with points (N, nq) in
    global coordinates, weights (nq,) scaled to the element length,
    first (N,) the first active basis index per element, and values
    (N, nq, 2, p + 1), derivative order before basis index.
    """
    points, weights = uspace.element_rule(n_quad)
    first, ders = uspace.eval_basis(points.ravel())
    values = ders.reshape(uspace.num_elements, n_quad, 2, uspace.degree + 1)
    # sanity: one span per element
    assert np.all(first.reshape(values.shape[:2]) == uspace.element_first[:, None])
    return points, weights, uspace.element_first, values


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


def csr_pattern(space):
    """(indices, indptr): the CSR pattern of every coupling of the space,
    sorted and without duplicates.

    Basis (i1, i2) couples to (j1, j2) when j1 lies in the univariate
    band of i1 and j2 in that of i2 (`UnivariateSpline.band`), so row
    i1 n + i2 holds w[i1] w[i2] columns, j1-major.  Below C^(p-1) a band
    can be narrower than 2p + 1: basis functions that share no element
    do not couple, and the pattern omits them.
    """
    n = space.factor.dim
    s, w = space.factor.band
    counts = np.outer(w, w).ravel()
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    k = np.arange(w.max())
    b = s[:, None] + k  # the band of each row, padded to the widest
    cols = b[:, None, :, None] * n + b[None, :, None, :]
    inside = k < w[:, None]
    keep = inside[:, None, :, None] & inside[None, :, None, :]
    return cols[np.broadcast_to(keep, cols.shape)].astype(np.int32), indptr


def diagonals(matrix):
    """(offsets, data, held): a sparse matrix by its diagonals.

    `offsets` are the distinct offsets j - i of its stored entries,
    ascending; `data` (len(offsets), dim) holds entry
    (j - offsets[k], j) at [k, j], as `scipy.sparse.dia_matrix` keeps
    it, zero where the matrix stores nothing; `held` marks the entries
    it stores.
    """
    coo = matrix.tocoo()
    offsets = np.unique(coo.col - coo.row)
    k = np.searchsorted(offsets, coo.col - coo.row)
    data = np.zeros((len(offsets), matrix.shape[1]))
    data[k, coo.col] = coo.data
    held = np.zeros(data.shape, dtype=bool)
    held[k, coo.col] = True
    return offsets, data, held


def space_diagonals(space):
    """(offsets, gather) of `TensorSplineSpace.diagonals`, by search: the
    (n, 2p + 1, n, 2p + 1) coupling array of every basis pair and its
    flat offset, and `np.unique` over the offsets of all couplings."""
    p, n = space.degree, space.factor.dim
    s, w = space.factor.band
    e = np.arange(-p, p + 1)
    j = np.arange(n)[:, None] + e
    couples = (j >= s[:, None]) & (j < (s + w)[:, None])  # [i, e + p]
    i1, d1, i2, d2 = np.nonzero(couples[:, :, None, None] & couples)
    row = i1 * n + i2
    offsets, k = np.unique(e[d1] * n + e[d2], return_inverse=True)
    gather = np.full((len(offsets), space.dim), couples.size**2)
    gather[k, row + offsets[k]] = np.ravel_multi_index((i1, d1, i2, d2), couples.shape * 2)
    return offsets.astype(np.int32), gather


def element_pattern(space):
    """(conn, scatter): the flat indices (Ne, nloc) of the basis functions
    active on each element, elements row-major, and the slot in the
    space's CSR data of every local entry (Ne, nloc, nloc), flattened."""
    p, n = space.degree, space.factor.dim
    a = space.factor.element_first[:, None] + np.arange(p + 1)  # (ne, p+1)
    conn = (a[:, None, :, None] * n + a[None, :, None, :]).reshape(-1, (p + 1) ** 2)
    _, indptr = csr_pattern(space)
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
        tab = element_tables(space.factor, n_quad)[3]
        ne, p1 = space.factor.num_elements, space.degree + 1
        self.num_elements = ne * ne
        self.nloc = p1 * p1
        nq2 = n_quad * n_quad
        self.indices, self.indptr = csr_pattern(space)
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
    local = np.einsum("eq,eqd,eqi->dei", dens, vals, tables.basis)
    return scatter_vector(tables.conn, local, dim)


def area(tables, x):
    """Quadrature area of the surface x."""
    _, q = metric(tables.field_jacobians(x))
    return float(np.sum(tables.weights * q))


def ritz_rhs(tables, grid, edges):
    """The right-hand side of the normal projection, element by element:
    `tables` on the quasi-interpolant's rule, `grid` the scenario's
    sample at its grid points, `edges` those at its edge points."""
    G = np.einsum("adn,bdn->nab", grid.J, grid.J)
    Ginv, q = np.linalg.inv(G), np.sqrt(np.linalg.det(G))

    def by_element(values):
        """Grid-ordered values (m * m, ...) as (Ne, nq2, ...)."""
        N, nq = tables.space.factor.num_elements, tables.n_quad
        shape = values.shape[1:]
        blocks = values.reshape((N, nq, N, nq) + shape).swapaxes(1, 2)
        return blocks.reshape((N * N, nq * nq) + shape)

    Ginv, q = by_element(Ginv), by_element(q)
    N_vals = by_element(grid.normal.T)  # (Ne, nq2, 3)
    N_jac = by_element(grid.normal_jacobian.transpose(2, 0, 1))  # (Ne, nq2, 2, 3)
    wq = tables.weights * q
    stiff = np.einsum("eq,eqai,eqab,eqbd->dei", wq, tables.basis_grad, Ginv, N_jac)
    mass = np.einsum("eq,eqi,eqd->dei", wq, tables.basis, N_vals)
    bt = EdgeTables(tables.space, tables.n_quad)
    names = ("edge_speed", "edge_curvature", "edge_tangent", "normal")
    rhs_b = conormal_load(bt, *(bt.on_edges(getattr(e, k) for e in edges) for k in names))
    local = stiff + RITZ_LAMBDA * mass
    return scatter_vector(tables.conn, local, tables.space.dim) - rhs_b


class EdgeTables:
    """The four edges of the square as one stacked edge mesh, element by element.

    Edges are stacked along the element axis in edge order 0..3, each
    with the elements of the space's univariate factor in order.  Each
    element holds the weights `weights` (E, nq) of the Gauss rule, and
    the values `values` and edge-parameter derivatives `derivs`
    (E, nq, p+1) of the trace basis.  Three index tables (E, p+1) name
    that basis: `flat`, its tensor flat index; `local`, its row in the
    (4 n, D) per-edge coefficients, edge after edge; and `rows`, its
    constraint row, numbering the distinct boundary control points.
    """

    def __init__(self, space, n_quad):
        self.space = space
        n, p = space.factor.dim, space.degree
        pts, wts, first, vals = element_tables(space.factor, n_quad)
        ne, active = len(pts), first[:, None] + np.arange(p + 1)
        self.points = pts
        self.weights = np.tile(wts, (4 * ne, 1))
        tab = np.tile(vals, (4, 1, 1, 1))
        self.values, self.derivs = tab[:, :, 0, :], tab[:, :, 1, :]
        self.local = np.concatenate([k * n + active for k in range(4)])
        self.flat = space.edge_indices.ravel()[self.local]
        row_of_flat = np.full(space.dim, -1)
        row_of_flat[space.boundary_indices] = np.arange(len(space.boundary_indices))
        self.rows = row_of_flat[self.flat]

    def trace(self, loc, deriv=False):
        """Values (E, nq, D), or edge-parameter derivatives, of the
        coefficients `loc` (E, p+1, D) on each element's trace basis."""
        return np.einsum("eqa,ead->eqd", self.derivs if deriv else self.values, loc)

    def on_edges(self, values):
        """Per-edge samples, four of shape ([D,] N nq), as (E, nq[, D])."""
        values = np.moveaxis(np.asarray(list(values)), 1, -1)  # (4, N nq[, D])
        return values.reshape(self.weights.shape + values.shape[2:])

    def frozen(self, x0, tangent, curvature):
        """Length element, tangent and curvature vector at the edge points
        of the surface x0 (dim, 3), from per-edge coefficients (4, n, 3)."""
        length = np.linalg.norm(self.trace(x0[self.flat], deriv=True), axis=2)
        tau = self.trace(tangent.reshape(-1, 3)[self.local])
        return length, tau, self.trace(curvature.reshape(-1, 3)[self.local])


def conormal_load(bt, length, kappa_b, tau, nu):
    """Edge integral of (kappa_b . nu)(nu x tau) against the vector basis,
    element by element, from samples (E, nq[, 3]) at the edge points."""
    dens = bt.weights * length * np.einsum("eqd,eqd->eq", kappa_b, nu)
    local = np.einsum("eqa,eq,eqd->dea", bt.values, dens, np.cross(nu, tau))
    return scatter_vector(bt.flat, local, bt.space.dim)


def boundary_load(bt, x0, tangent, curvature, nu):
    """The flow's conormal load of the normal nu (dim, 3) on the boundary
    of x0 with the interpolated tangent and curvature (4, n, 3)."""
    length, tau, kappa = bt.frozen(x0, tangent, curvature)
    return conormal_load(bt, length, kappa, tau, bt.trace(nu[bt.flat]))


def constraint(bt, x0, tangent):
    """The tangential-trace constraint S (n_boundary, 3 dim), CSR, summed
    from local matrices of every edge element and component."""
    length, tau, _ = bt.frozen(x0, tangent, tangent)
    tau_hat = tau / np.linalg.norm(tau, axis=2, keepdims=True)
    dim, p1 = bt.space.dim, bt.flat.shape[1]
    rows = np.repeat(bt.rows, p1, axis=1).ravel()
    cols = np.tile(bt.flat, (1, p1)).ravel()
    dens = bt.weights[:, :, None] * length[:, :, None] * tau_hat
    vals = np.einsum("eqa,eqk,eqb->keab", bt.values, dens, bt.values).reshape(3, -1)
    S = sp.coo_matrix(
        (vals.ravel(), (np.tile(rows, 3), np.concatenate([cols + k * dim for k in range(3)]))),
        shape=(len(bt.space.boundary_indices), 3 * dim),
    )
    return S.tocsr()
