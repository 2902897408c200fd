"""Tensor-product B-spline spaces on the unit square.

Univariate spaces use an open uniform knot vector on [0, 1] with degree p,
N elements and interior smoothness C^l (interior knot multiplicity p - l),
giving dimension N*(p - l) + l + 1.  A tensor space is the square of one
univariate factor: both directions share it, so every per-direction
table (Gauss rule, tabulation, dual weights, collocation matrix) exists
once and serves u and v alike.  Basis indices are flattened row-major,
(j1, j2) -> j1*n + j2.

The flow reads the basis and its first derivatives only, so the basis
evaluation stops there: values by the Cox-de Boor recurrence, first
derivatives from the degree p - 1 values by de Boor's difference formula.

The quasi-interpolant realizes dual functionals by local least squares:
the functional for basis b_j is the j-th coefficient of the L2 projection
of the argument onto the span of all basis functions overlapping supp(b_j),
integrated with a per-element Gauss rule that is exact for the products
involved, one small solve per basis function.  This makes the
functionals exactly dual to the basis, so the operator is a projector
onto the space and reproduces polynomials up to degree p.

`UnivariateSpline.element_rule` builds its rule on each call, since no
problem asks for one rule twice.  `TensorGrid` is the one tensor-product
kernel and the one tabulation of the basis: on the square of a sorted 1-D
point set (a Gauss grid, an export grid) it holds the factor's collocation
matrices and moves fields between coefficients and planes of grid values
by 1-D products along u and along v.  The matrices are banded, so the
products run per block of BLOCK_ELEMENTS elements and skip the zero
blocks; a transposed product along u also runs on one strip of rows of
the grid at a time, so a set-up can sample data strip by strip.
`GaussGrid` is the grid of a per-element Gauss rule with its 1-D
weights.  `assembly.MeshTables` is a Gauss grid with the quadrature tables
on top; the quasi-interpolant keeps a plain Gauss grid, takes the element
blocks of its dual functionals from its collocation matrix and applies
them by the grid's transposed product; and `assembly.BoundaryTables` is the
Gauss grid of the edge rule used along one axis, since with open knot
vectors the trace of the space on an edge is the factor.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


def gauss_rule(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


class UnivariateSpline:
    """B-spline space of one variable on [0, 1] with an open knot vector."""

    def __init__(self, degree: int, smoothness: int, num_elements: int):
        if degree < 2:
            raise ValueError(f"degree must be >= 2, got {degree}")
        if not 0 <= smoothness <= degree - 1:
            raise ValueError(
                f"smoothness must satisfy 0 <= l <= p-1, got l={smoothness}, p={degree}"
            )
        if num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {num_elements}")
        self.degree = degree
        self.smoothness = smoothness
        self.num_elements = num_elements
        self.mesh_size = 1.0 / num_elements

        mult = degree - smoothness
        breaks = np.linspace(0.0, 1.0, num_elements + 1)
        interior = np.repeat(breaks[1:-1], mult)
        self.knots = np.concatenate(
            [np.zeros(degree + 1), interior, np.ones(degree + 1)]
        )
        self.dim = len(self.knots) - degree - 1
        assert self.dim == num_elements * mult + smoothness + 1

    def __repr__(self):
        return (
            f"UnivariateSpline(degree={self.degree}, smoothness={self.smoothness}, "
            f"num_elements={self.num_elements}, dim={self.dim})"
        )

    def find_span(self, x):
        """Knot span index for each point (spans clamp at the right end)."""
        x = np.asarray(x, dtype=float)
        span = np.searchsorted(self.knots, x, side="right") - 1
        return np.clip(span, self.degree, self.dim - 1)

    def eval_basis(self, x):
        """Nonzero basis values and first derivatives at points in [0, 1].

        Returns (first, ders): `first[i]` is the index of the first active
        basis function at x[i], `ders[i, k, a]` (n, 2, p + 1) the k-th
        derivative of basis `first[i] + a`, in index order.  The Cox-de
        Boor table `ndu` (Piegl & Tiller, The NURBS Book, A2.2) gives the
        values, the degree p - 1 values N_r and the lengths d_r of their
        supports; the derivatives follow by de Boor's difference formula
        B'_r = p (N_{r-1} / d_{r-1} - N_r / d_r), formed operation by
        operation as the first-order pass of A2.3.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError("evaluation points must lie in [0, 1]")
        spans = self.find_span(x)
        p, knots, npts = self.degree, self.knots, x.shape[0]

        ndu = np.empty((npts, p + 1, p + 1))
        ndu[:, 0, 0] = 1.0
        left = np.empty((npts, p + 1))
        right = np.empty((npts, p + 1))
        for j in range(1, p + 1):
            left[:, j] = x - knots[spans + 1 - j]
            right[:, j] = knots[spans + j] - x
            saved = np.zeros(npts)
            for r in range(j):
                # lower triangle: knot differences
                ndu[:, j, r] = right[:, r + 1] + left[:, j - r]
                temp = ndu[:, r, j - 1] / ndu[:, j, r]
                # upper triangle: basis values
                ndu[:, r, j] = saved + right[:, r + 1] * temp
                saved = left[:, j - r] * temp
            ndu[:, j, j] = saved

        ders = np.zeros((npts, 2, p + 1))
        ders[:, 0, :] = ndu[:, :, p]
        ratio = (1.0 / ndu[:, p, :p]) * ndu[:, :p, p - 1]  # N_r / d_r
        ders[:, 1, :p] -= ratio
        ders[:, 1, 1:] += ratio
        ders[:, 1, :] *= float(p)
        return spans - p, ders

    def collocation(self, x):
        """Dense collocation matrices C0 and C1 (2, n, dim) at points in [0, 1].

        Entry [k, i, j] is the k-th derivative of basis j at x[i].
        """
        first, ders = self.eval_basis(x)
        rows = np.arange(len(first))[:, None]
        cols = first[:, None] + np.arange(self.degree + 1)
        out = np.zeros((2, len(first), self.dim))
        out[:, rows, cols] = ders.transpose(1, 0, 2)
        return out

    @cached_property
    def element_first(self):
        """Index of the first basis function active on each element, (N,)."""
        midpoints = (np.arange(self.num_elements) + 0.5) * self.mesh_size
        return self.find_span(midpoints) - self.degree

    @cached_property
    def supports(self):
        """(first, last): the first and last element of the support of each
        basis function, (dim,) each."""
        j = np.arange(self.dim)
        first = self.element_first
        return (
            np.searchsorted(first, j - self.degree, side="left"),
            np.searchsorted(first, j, side="right") - 1,
        )

    @cached_property
    def band(self):
        """(start, width): the basis functions that share an element with
        basis j are start[j] .. start[j] + width[j] - 1, (dim,) each."""
        lo, hi = self.supports
        start = self.element_first[lo]
        return start, self.element_first[hi] + self.degree + 1 - start

    def element_rule(self, n_quad: int):
        """Per-element Gauss rule.

        Returns points (N, nq) in global coordinates and weights (nq,)
        scaled to the element length.
        """
        xq, wq = gauss_rule(n_quad)
        h = self.mesh_size
        offsets = np.arange(self.num_elements)[:, None] * h
        return offsets + xq[None, :] * h, wq * h


class TensorSplineSpace:
    """Tensor square of one univariate spline space on the unit square.

    Both directions use `factor`, so the space has degree `degree`,
    `shape` (n, n) for the factor's dimension n and flat index
    j1 n + j2 for basis (j1, j2).  With open knot vectors the trace of
    the space on an edge of the square is the factor: `edge_indices`
    (4, n) holds the flat index of trace basis function j of edge k
    (edges in `edge_points` order), so the corners appear twice.
    """

    def __init__(self, factor: UnivariateSpline):
        self.factor = factor
        self.degree = factor.degree
        n = factor.dim
        self.shape = (n, n)
        self.dim = n * n

        j = np.arange(n)
        edges = (j, 0), (n - 1, j), (j, n - 1), (0, j)
        self.edge_indices = np.stack([self.flat_index(*e) for e in edges])
        self.boundary_mask = np.zeros(self.dim, dtype=bool)
        self.boundary_mask[self.edge_indices] = True
        self.boundary_indices = np.nonzero(self.boundary_mask)[0]
        self.interior_indices = np.nonzero(~self.boundary_mask)[0]

    def __repr__(self):
        return f"TensorSplineSpace(shape={self.shape}, dim={self.dim})"

    @cached_property
    def diagonals(self):
        """(offsets, gather): the diagonals of every matrix of the space,
        computed once per space, so every `assembly.MeshTables` shares them.

        Basis (i1, i2) couples to (i1 + e1, i2 + e2) when both univariate
        pairs share an element (`UnivariateSpline.band`).  Every |e| <= p
        couples some pair, since an element sees p + 1 consecutive basis
        functions, so the diagonals are those of flat offset e1 n + e2,
        |e1|, |e2| <= p, held ascending and without repeats by `offsets`;
        for n <= 2p two pairs (e1, e2) share one, but never an entry.
        Entry (j - offsets[k], j) is entry [k, j] of the diagonals, as
        `scipy.sparse.dia_matrix` keeps them.  `gather` (len(offsets), dim)
        holds its place in a band array B[(i1, e1 + p), (i2, e2 + p)] of
        shape (n (2p + 1), n (2p + 1)), flattened, or for an entry that
        couples nothing the place just past B, which holds a zero.  Each
        pair (e1, e2) fills its diagonal, shifted by its offset; where two
        share one, the smaller place is the one that couples.
        """
        p, n = self.degree, self.factor.dim
        s, w = self.factor.band
        e = np.arange(-p, p + 1)
        j = np.arange(n)[:, None] + e
        couples = (j >= s[:, None]) & (j < (s + w)[:, None])  # [i, e + p]
        size = couples.size
        # [e + p, i]: whether (i, e + p) couples, and its place in a band row
        ok, place = couples.T, np.arange(size).reshape(couples.shape).T
        flat = place[:, None, :, None] * size + place[None, :, None, :]
        coupled = ok[:, None, :, None] & ok[None, :, None, :]
        by_pair = np.where(coupled, flat, size * size).reshape(len(e) ** 2, self.dim)
        pair_offsets = (e[:, None] * n + e).ravel()
        offsets, k = np.unique(pair_offsets, return_inverse=True)
        gather = np.full((len(offsets), self.dim), size * size)
        for row, o, places in zip(k, pair_offsets, by_pair):
            cols = slice(max(o, 0), self.dim + min(o, 0))
            rows = slice(max(-o, 0), self.dim - max(o, 0))
            np.minimum(gather[row, cols], places[rows], out=gather[row, cols])
        return offsets.astype(np.int32), gather

    def flat_index(self, j1, j2):
        return np.asarray(j1) * self.factor.dim + np.asarray(j2)


def build_space(degree: int, smoothness: int, num_elements: int) -> TensorSplineSpace:
    """Tensor spline space, the square of one univariate factor."""
    return TensorSplineSpace(UnivariateSpline(degree, smoothness, num_elements))


# Elements per block of the banded 1-D products of `TensorGrid`.  Dense
# products over all N elements waste (N - p - 1) / N of their work; blocks
# of 8 made the products too thin for BLAS at N = 80, where 16 was the
# fastest of 8, 12, 16 and 24 at p = 2 and within noise of the best at
# p = 3 (evaluation plus matrix, BLAS on 1 thread).
BLOCK_ELEMENTS = 16


class TensorGrid:
    """The tensor grid `points_1d` x `points_1d` of the unit square and
    the banded 1-D products between coefficients and the grid.

    `points_1d` (m,) is a sorted point set in [0, 1]; `c` holds the
    factor's collocation matrices C0 and C1 (2, m, n) at its points
    (`UnivariateSpline.collocation`).  Fields live on the grid as planes,
    one (m, m) array per component, indexed [u point, v point].

    A point sees only the p + 1 basis functions of its element: a point
    on a knot lies in the element to its right and x = 1 in the last
    one, as in `UnivariateSpline.eval_basis`.  So C0, C1 and any (m, n)
    matrix that is zero where they are, such as the transposed dual
    weights of a `QuasiInterpolant`, are banded, and every product with
    them runs in blocks of BLOCK_ELEMENTS elements and skips the zero
    blocks: `point_blocks` pairs the points of each block of elements
    with the basis functions active on them, and `basis_blocks` splits
    the basis into as many consecutive runs, each with the points in its
    support, which may be none.  A mesh of at most BLOCK_ELEMENTS
    elements is one block.
    """

    def __init__(self, space: TensorSplineSpace, points_1d):
        self.space = space
        self.points_1d = np.asarray(points_1d, dtype=float)
        if np.any(np.diff(self.points_1d) < 0.0):
            raise ValueError("grid points must be sorted")
        f, p = space.factor, space.degree
        self.c = f.collocation(self.points_1d)

        # the element of each point, and the first point of each element
        first, (lo, hi) = f.element_first, f.supports
        element = np.searchsorted(first, f.find_span(self.points_1d) - p)
        at = np.searchsorted(element, np.arange(f.num_elements + 1))
        starts = list(range(0, f.num_elements, BLOCK_ELEMENTS))
        self.point_blocks = [
            (slice(at[e], at[e1]), slice(first[e], first[e1 - 1] + p + 1))
            for e, e1 in zip(starts, starts[1:] + [f.num_elements])
        ]
        runs = [first[e] for e in starts] + [f.dim]
        self.basis_blocks = [
            (slice(at[lo[a]], at[hi[b - 1] + 1]), slice(a, b))
            for a, b in zip(runs, runs[1:])
        ]

    def _to_points(self, c, x):
        """c (m, n) applied to the middle axis of x (K, n, r): (K, m, r)."""
        out = np.empty((len(x), c.shape[0], x.shape[2]))
        for q, i in self.point_blocks:
            np.matmul(c[q, i], x[:, i], out=out[:, q])
        return out

    def _to_basis(self, c, x):
        """c^T (n, m) applied to the middle axis of x (K, m, r): (K, n, r).

        A run of basis functions with no point in its support gets rows
        of zeros, from a product over no points.
        """
        out = np.empty((len(x), c.shape[1], x.shape[2]))
        for q, i in self.basis_blocks:
            np.matmul(c[q, i].T, x[:, q], out=out[:, i])
        return out

    def _add_to_basis(self, c, x, block, out):
        """Add c^T (n, m) applied to the middle axis of the strip x (K, mq, r)
        into out (K, n, r), for a block (q, i) of `point_blocks`: x holds
        the rows of its mq points q, and only its basis functions i see
        them.  Summed over every block, the strips give `_to_basis` of the
        whole grid, bit for bit when the grid is one block."""
        q, i = block
        out[:, i] += np.matmul(c[q, i].T, x)

    def _to_points_last(self, x, c):
        """c (m, n) applied to the last axis of x (..., n): (..., m)."""
        m, n = c.shape
        x2 = x.reshape(-1, n)
        out = np.empty((len(x2), m))
        for q, i in self.point_blocks:
            np.matmul(x2[:, i], c[q, i].T, out=out[:, q])
        return out.reshape(x.shape[:-1] + (m,))

    def _to_basis_last(self, x, c):
        """c^T (n, m) applied to the last axis of x (..., m): (..., n)."""
        m, n = c.shape
        x2 = x.reshape(-1, m)
        out = np.empty((len(x2), n))
        for q, i in self.basis_blocks:
            np.matmul(x2[:, q], c[q, i], out=out[:, i])
        return out.reshape(x.shape[:-1] + (n,))

    def evaluate(self, rows, values=slice(None), jac=slice(0)):
        """Planes at the grid points of the fields with coefficient rows `rows`.

        `rows` (D, dim) holds one scalar field per row.  Returns the
        values (Dv, m, m) of the rows `values` and the u- and
        v-derivatives (Dj, m, m) each of the rows `jac` (slices), or
        None for both if `jac` is empty: C0 and C1 applied along u, then
        C0 or C1 along v, one product per block of points.
        """
        c0, c1 = self.c
        n = c0.shape[1]
        X = np.asarray(rows).reshape(-1, n, n)
        W0 = self._to_points(c0, X)
        Xj = X[jac]
        if not len(Xj):
            return self._to_points_last(W0[values], c0), None, None
        du = self._to_points_last(self._to_points(c1, Xj), c0)
        return self._to_points_last(W0[values], c0), du, self._to_points_last(W0[jac], c1)


class GaussGrid(TensorGrid):
    """The `TensorGrid` of the factor's `n_quad`-point Gauss rule on each
    of its N elements: m = N n_quad points `points_1d`, in element order,
    with their 1-D weights `weights_1d` (m,), scaled to the element
    length."""

    def __init__(self, space: TensorSplineSpace, n_quad: int):
        f = space.factor
        points, weights = f.element_rule(n_quad)
        super().__init__(space, points.ravel())
        self.n_quad = n_quad
        self.weights_1d = np.tile(weights, f.num_elements)


class QuasiInterpolant:
    """Coefficient functionals dual to the tensor-product basis.

    Each univariate functional is realized as a weighted sum of point
    values on the points `points_1d` of `grid`, a `GaussGrid`; rows of
    `w` hold the weights (zero outside the support of the corresponding
    basis function).  Tensor functionals are products of univariate
    ones, the same in both directions, so they read planes of values on
    the grid, which `grid` evaluates fields to and a scenario samples
    at the meshgrid of `points_1d`.  On the grid the dual weights are
    zero wherever the collocation matrix C0 is, so `apply_to_values` is
    the transposed blocked product of `grid` with w^T in place of C0.
    """

    def __init__(self, grid: GaussGrid):
        self.grid = grid
        self.w = _dual_weights(grid)

    def apply_to_values(self, values):
        """Coefficients from planes of values on the grid, component first.

        `values` (..., m, m) holds planes indexed [u point, v point];
        returns (dim, ...): w applied along u, then along v.  ValueError
        for any other trailing shape.
        """
        values = np.asarray(values, dtype=float)
        m, n = len(self.grid.points_1d), self.grid.space.factor.dim
        if values.shape[-2:] != (m, m):
            raise ValueError(f"values of shape {values.shape} are off the {m} x {m} grid")
        wt = self.w.T
        t = self.grid._to_basis(wt, values.reshape(-1, m, m))
        coeffs = self.grid._to_basis_last(t, wt).reshape(-1, n * n)
        return np.ascontiguousarray(coeffs.T).reshape((n * n,) + values.shape[:-2])


def _dual_weights(grid: GaussGrid):
    """Univariate dual functional weights on the points of a Gauss grid.

    Row j of the returned matrix W satisfies sum_q W[j, q] * f(x_q) =
    (local L2 projection of f onto the active basis over supp(b_j))_j,
    which is exactly dual: W @ B(x)^T = identity for basis values B.

    The basis values on each element are its block of the grid's
    collocation matrix C0: the points of the element against the p + 1
    basis functions active on it.  The local system of b_j couples the
    `width[j]` basis functions of its band (`UnivariateSpline.band`)
    over the elements of its support (`UnivariateSpline.supports`).  Its
    Gram matrix sums the element Gram matrices, in element order, into
    slices of the band, and its right-hand side holds the weighted basis
    values of each element; one `np.linalg.solve` per basis function
    gives the projection, and row j - start[j] of the solution is row j
    of W on the support's points.
    """
    uspace, n_quad = grid.space.factor, grid.n_quad
    p, N = uspace.degree, uspace.num_elements
    first = uspace.element_first
    active = first[:, None, None] + np.arange(p + 1)  # (N, 1, p+1)
    vals = np.take_along_axis(grid.c[0].reshape(N, n_quad, -1), active, axis=2)
    wvals = grid.weights_1d.reshape(N, n_quad, 1) * vals
    gram_e = vals.swapaxes(1, 2) @ wvals  # (N, p+1, p+1)

    lo, hi = uspace.supports
    start, width = uspace.band
    W = np.zeros((uspace.dim, N * n_quad))
    for j in range(uspace.dim):
        gram = np.zeros((width[j], width[j]))
        rhs = np.zeros((width[j], hi[j] + 1 - lo[j], n_quad))
        for k, e in enumerate(range(lo[j], hi[j] + 1)):
            rows = slice(first[e] - start[j], first[e] - start[j] + p + 1)
            gram[rows, rows] += gram_e[e]
            rhs[rows, k] = wvals[e].T
        sol = np.linalg.solve(gram, rhs.reshape(width[j], -1))
        W[j, lo[j] * n_quad : (hi[j] + 1) * n_quad] = sol[j - start[j]]
    return W


def build_quasi_interpolant(space: TensorSplineSpace):
    """Quasi-interpolant with the standard (p + 2)-point functional rule."""
    return QuasiInterpolant(GaussGrid(space, space.degree + 2))


# Edge conventions for the boundary of the unit square: the running
# coordinate s in [0, 1] traverses each edge, the other coordinate is
# fixed.  Edge 0: v=0, 1: u=1, 2: v=1, 3: u=0.
EDGE_FIXED_COORD = (1, 0, 1, 0)
EDGE_FIXED_VALUE = (0.0, 1.0, 1.0, 0.0)
# outward normal of the parametric domain along each edge
EDGE_OUTWARD = ((0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))


def edge_points(edge: int, s):
    """The points (2, ...) of `edge` at edge parameters `s` (...),
    component first: row 0 holds u, row 1 v."""
    s = np.asarray(s, dtype=float)
    pts = np.empty((2,) + s.shape)
    fixed = EDGE_FIXED_COORD[edge]
    pts[fixed] = EDGE_FIXED_VALUE[edge]
    pts[1 - fixed] = s
    return pts
