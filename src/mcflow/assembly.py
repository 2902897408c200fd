"""Galerkin assembly over the parametric mesh.

Interior forms are integrated on the tensor Gauss grid of the square,
and every integral factors into a pass along u and a pass along v (sum
factorization; Antolin, Buffa, Calabro, Martinelli & Sangalli, CMAME
285, 2015).  `MeshTables` is the one quadrature layer.  It is the
`splines.GaussGrid` of the m = N n_quad Gauss points of a rule, which
holds the factor's collocation matrices C0, C1 there and runs every
banded 1-D product by blocks, plus the tensor weights, the pair tables
of products of two basis functions along one direction, and the
diagonals of the space with the place of each of their entries in the
band the matrix kernel forms (`TensorSplineSpace.diagonals`).  A field
on the grid is a stack of (m, m) planes, one per component, from two
passes of C0 and C1 along u and one along v per plane stack
(`TensorGrid.evaluate`); the metric, the Weingarten energy and the load
densities are elementwise multiply-adds of whole planes; a load is the
transposed tensor product of its density planes
(`MeshTables.integrate`); and c M + A is five m x m by m x n (2p + 1)
products of density planes with pair tables, one product of the stacked
pair tables with their results and one gather of its diagonals
(`MeshTables.matrix`), with no separate M and A.  In the flat order
every coupling lies on one of at most (2p + 1)^2 fixed diagonals, so
every matrix of a space is a `scipy.sparse.dia_matrix` on all of them
(the DIA format; Saad, Iterative Methods for Sparse Linear Systems,
2nd ed., Sec. 3.4), whose compiled product serves the residuals.  A
load that carries a BDF tail takes it into its density, since the integral of
tail * phi is M tail: the step evaluates the extrapolated fields and
their tails in one evaluation and needs no mass-matrix product.

Every linear system for the normal, in the flow step and in the Ritz
projection, is the saddle [[I3 (x) K, S^T], [S, 0]] whose Lagrange
multiplier enforces the boundary constraint.  `ConstrainedSolver` is the
only code that solves it, and it never assembles it: S has nonzero
columns only at boundary control points, so the saddle reduces to the
multiplier Schur complement T = sum_k S_kB G S_kB^T with G = (K^-1)_BB,
the inverse of the boundary Schur complement K_BB - K_BI K_II^-1 K_IB
(the block elimination of Benzi, Golub & Liesen, Acta Numerica 14
(2005), Sec. 5).  In the natural flat order of a tensor space K is a
band of half-width p (n + 1) for n coefficients per direction, so one
LAPACK banded Cholesky factors it, which beats nested dissection on
grids of the sizes run here (George & Liu, Computer Solution of Large
Sparse Positive Definite Systems, 1981), whose lower band storage is
the diagonals of offset <= 0.  A load on the boundary rows only, such
as the Ritz projection's conormal term, has the boundary rows of its
saddle solution in G and T alone (`ConstrainedSolver.boundary_solve`).
`SaddleLayout` plans the row blocks of the forward substitution that
gives G from the factor on the boundary columns, and keeps the
boundary block of the constraint as one matrix, C = S_B^T, all once
per problem; G and T are Cholesky-factored by LAPACK `dpotrf`.  The
same factor serves the zero-trace curvature system of a flow step,
whose matrix is the interior block K_II, by a capacitance correction
with G, so a step factors one matrix.
Vector coefficients are (dim, 3) arrays; S_B acts on their boundary
rows stacked component-major, [x_B | y_B | z_B].  Values on points are
component first, as everywhere (`geometry`): the planes of the grid are
(D, m, m) and edge values (D, 4, m).

Boundary terms live on the four edges of the parametric square, where
the trace of the space is its univariate factor, so a Gauss grid used
along one axis serves all four edges: a trace is C0 or C1 applied to
(4, n, D) coefficients on the trace bases, giving (D, 4, m) values on
the edge points, and an edge integral is C0^T applied to a (D, 4, m)
density and one scatter that adds up the shared corners.
`BoundaryTables` is that grid on the edge rule; the Ritz projection
uses the grid of its own rule.  The constraint S has one row per
distinct boundary control point and reads boundary coefficients only,
so it is assembled as C = S_B^T, numbered by boundary position; its
entries integrate (trace basis) * (trace basis) * (unit tangent
component) against the fixed initial boundary length element, so
S w = 0 expresses discrete L2-orthogonality of the trace of w to the
boundary tangent.  `conormal_load` integrates the conormal term
(kappa_b . nu)(nu x tau) of the normal equation from sampled edge data;
the flow samples the frozen discrete boundary, the Ritz projection the
scenario's exact one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .geometry import cross3, dot, metric_pieces
from .splines import GaussGrid, TensorSplineSpace


# Relative residual gate of every linear solve, flow steps and Ritz alike.
SOLVER_RESIDUAL_TOL = 1e-9


class SolverFailure(Exception):
    """Raised when a linear solve leaves too large a residual."""


def check_residual(residual, b, what):
    """Relative residual |residual| / |b|; SolverFailure above SOLVER_RESIDUAL_TOL."""
    b_norm = np.linalg.norm(b)
    r_norm = np.linalg.norm(residual)
    rel = r_norm / b_norm if b_norm > 0.0 else r_norm
    tol = SOLVER_RESIDUAL_TOL
    if not np.isfinite(rel) or rel > tol:
        raise SolverFailure(f"{what}: relative residual {rel:.3e} exceeds {tol:.1e}")
    return rel


def scatter_vector(index, local, dim):
    """Sum entries `local` (D, ...) into rows `index` (...) of a (dim, D) array.

    Entries are summed one at a time in their flattened order.
    """
    index = index.ravel()
    return np.stack([np.bincount(index, c.ravel(), dim) for c in local], axis=1)


class MeshTables(GaussGrid):
    """The tensor Gauss grid of a space and the 1-D tables of its rule.

    The factor's `n_quad`-point Gauss rule on each of its N elements
    gives m = N n_quad points `points_1d`; the grid is their tensor
    square, a `splines.GaussGrid`, with tensor weights `weights`
    (m, m).  Every quadrature kernel applies the grid's collocation
    matrices C0 and C1 along u and along v, block by block, so a field,
    a load or a matrix costs a few BLAS products over the whole grid.

    `pairs` (m, 4, n (2p + 1)) holds the pair tables
    P_ab[q, (i, d)] = C_a[q, i] C_b[q, i + d - p] of P00, P11, P10, P01,
    zero where i + d - p leaves the basis: every product of two basis
    functions or derivatives along one direction that the matrix kernel
    integrates.  They are banded like C0 and C1, so the kernel runs on
    the grid's `basis_blocks` too.  `offsets` and `gather` are the
    diagonals of the space and the place of each of their entries in
    the band array the kernel forms (`TensorSplineSpace.diagonals`).

    `matrix` forms its products in two work arrays, the pair products
    T (m, 4, L) and the flat band, L^2 + 1 entries, for L = n (2p + 1):
    4 m L + L^2 + 1 doubles, 1.1 MiB for the 3-point rule at p = 2,
    N = 40.  Its first call makes them and every later call on the same
    tables reuses them, so they live as long as the tables, which make
    one matrix at a time.  A step's
    largest short-lived arrays would otherwise be freed and faulted in
    again every step, once the allocator has given the top of its heap
    back to the system.  Each call gathers fresh diagonals, so no
    returned matrix shares memory with them.
    """

    def __init__(self, space: TensorSplineSpace, n_quad: int):
        super().__init__(space, n_quad)
        self._tabulate()

    @classmethod
    def of(cls, grid: GaussGrid):
        """The tables of the rule of `grid`, on its collocation matrices
        and block plans, so that a grid kept for a whole run, such as the
        quasi-interpolant's, is tabulated once and carries no tables."""
        tables = cls.__new__(cls)
        vars(tables).update(vars(grid))
        tables._tabulate()
        return tables

    def _tabulate(self):
        """The tensor weights, the diagonals and the pair tables."""
        p = self.space.degree
        self.weights = np.outer(self.weights_1d, self.weights_1d)
        self.offsets, self.gather = self.space.diagonals

        m, n = self.c.shape[1:]
        padded = np.zeros((2, m, n + 2 * p))
        padded[:, :, p : p + n] = self.c
        window = np.lib.stride_tricks.sliding_window_view(padded, 2 * p + 1, axis=2)
        pairs = np.empty((m, 4, n, 2 * p + 1))
        for k, (a, b) in enumerate(((0, 0), (1, 1), (1, 0), (0, 1))):
            np.multiply(self.c[a][:, :, None], window[b], out=pairs[:, k])
        self.pairs = pairs.reshape(m, 4, -1)
        self._work = None  # the work arrays of `matrix`, made by its first call

    def integrate(self, dens):
        """sum_q (dens phi_i)(q) for density planes.

        `dens` is a (k, m, m) stack of density planes already weighted by
        the rule; the transposed tensor product integrates it against
        every basis function, along v and then along u.  Returns (dim, k).
        """
        c0 = self.c[0]
        return self._to_basis(c0, self._to_basis_last(dens, c0)).reshape(len(dens), -1).T

    def matrix(self, mass, g00, g01, g11):
        """sum_q mass phi_i phi_j + grad phi_i^T [[g00, g01], [g01, g11]] grad phi_j
        on the diagonals of the space, for density planes (m, m).

        By sum factorization: the integral over v of each of the five
        products of derivative pairs is a density plane times a pair
        table (the mass and the g11 term share P00 along u and add up),
        the integral over u is one product of the four stacked pair
        tables with those results, which gives the band array of
        `TensorSplineSpace.diagonals`, and one `np.take` gathers its
        diagonals into a `scipy.sparse.dia_matrix`.  Both passes run per
        block of `basis_blocks`, in the work arrays of the tables, which
        every call overwrites in full.  Every diagonal is kept, also one
        whose values are 0.0; an entry that couples nothing is exactly 0.0.
        """
        P = self.pairs
        m, _, L = P.shape
        width = L // self.c.shape[2]
        if self._work is None:  # T, then the band and the zero of `gather`
            self._work = np.empty((m, 4, L)), np.zeros(L * L + 1)
        T, flat = self._work
        for q, i in self.basis_blocks:
            b = slice(i.start * width, i.stop * width)
            np.matmul(mass[:, q], P[q, 0, b], out=T[:, 0, b])
            T[:, 0, b] += g11[:, q] @ P[q, 1, b]
            np.matmul(g00[:, q], P[q, 0, b], out=T[:, 1, b])
            np.matmul(g01[:, q], P[q, 3, b], out=T[:, 2, b])  # d_u phi_i d_v phi_j
            np.matmul(g01[:, q], P[q, 2, b], out=T[:, 3, b])  # d_v phi_i d_u phi_j
        band = flat[:-1].reshape(L, L)
        for q, i in self.basis_blocks:
            b = slice(i.start * width, i.stop * width)
            U = P[q, :, b].reshape(-1, b.stop - b.start)
            np.matmul(U.T, T[q].reshape(-1, L), out=band[b])
        dim = self.space.dim
        return sp.dia_matrix((np.take(flat, self.gather), self.offsets), shape=(dim, dim))


class ElementGeometry:
    """First-order geometry of a surface on the grid of a `MeshTables`,
    and the fields that the forms on it read, from one evaluation.

    `x_coeffs` (dim, 3) is the surface; `fields` (D, dim), if given,
    holds more scalar fields by rows, and the Jacobians of the first
    `num_jac` of them are evaluated too.  Holds the entries of G^-1
    `metric_inv` (3, m, m) and the area element `area_element` (m, m)
    (`geometry.metric_pieces`), the rule's weight times the area element
    `weight` (m, m), and the planes of the fields: `values` (D, m, m)
    and the derivatives `du`, `dv` (num_jac, m, m), None without fields
    or Jacobians.  The Jacobian of x is evaluated on its own and goes
    once the metric is formed, so every array held is its own planes.
    """

    def __init__(self, tables: MeshTables, x_coeffs, fields=None, num_jac=0):
        _, du, dv = tables.evaluate(np.asarray(x_coeffs).T, slice(0), slice(None))
        self.metric_inv, self.area_element = metric_pieces(du, dv)
        del du, dv
        self.weight = tables.weights * self.area_element
        self.values = self.du = self.dv = None
        if fields is not None:
            self.values, self.du, self.dv = tables.evaluate(fields, jac=slice(num_jac))


def assemble_mass_stiffness(tables: MeshTables, geom: ElementGeometry, mass):
    """mass * M + A on the given geometry, one `dia_matrix` on the
    diagonals of the space, for the surface mass M and stiffness A."""
    wq = geom.weight
    g = geom.metric_inv
    return tables.matrix(mass * wq, wq * g[0], wq * g[1], wq * g[2])


class SaddleLayout:
    """What every saddle solve of one problem shares, fixed from t = 0.

    K is factored as a band in the natural flat order of the space.
    LAPACK lower band storage, kd + 1 entries per column, holds the
    diagonal of offset o <= 0 of `offsets` as its row -o: `band_rows`
    holds those rows, for the first diagonals of K, so filling the band
    is one copy.  The half-bandwidth `kd` is minus the smallest offset,
    p (n + 1) for degree p and n coefficients per direction, at any
    smoothness; the band has room for `band_size` entries, whole row
    blocks of kd rows.

    `blocks` is the row-block plan of `boundary_inverse`: per block j of
    kd rows, the position of L_jj in the band, and the number `done` of
    boundary columns of L^-1 E_B started before it and `upto` by its end.

    The frozen constraint lives as its boundary block
    S_B = [S_0B S_1B S_2B] (nB, 3 nB), one row per boundary control
    point.  `C` is S_B^T, (3 nB, nB) CSR as `assemble_constraint` builds
    it, and `C @ mu` gives the boundary rows of S^T mu.  `S_B` is its
    transpose, a CSC view of the same arrays taken once, since building
    even a view costs more than a product with it.  Each S_kB integrates
    products of two trace basis functions, so it is symmetric, and
    `C @ G` stacks the blocks S_kB G.
    """

    def __init__(self, tables: MeshTables, C):
        space = tables.space
        self.interior = space.interior_indices
        self.boundary = B = space.boundary_indices
        self.num_boundary = len(B)
        self.offsets = tables.offsets
        self.band_rows = -self.offsets[self.offsets <= 0]
        self.kd = kd = int(self.band_rows[0])
        num_blocks = -(-space.dim // kd)
        self.band_size = (kd + 1) * kd * num_blocks
        started = np.searchsorted(B, kd * np.arange(1, num_blocks + 1))
        self.blocks, done = [], 0
        for j, upto in enumerate(started.tolist()):
            self.blocks.append((j * kd * (kd + 1), done, upto))
            done = upto
        self.C = C
        self.S_B = C.T


def _band_block(band, kd, start):
    """The (kd, kd) block of a banded Cholesky factor L whose entry (0, 0)
    sits at `band[start]`.

    `band` is the flat lower band storage of L, kd + 1 entries per
    column, so entry (r, q) of L with r - q in [0, kd] sits at r + q kd:
    a block is a column-major view with leading dimension kd.  It is
    arbitrary where r - q leaves [0, kd], so a diagonal block L_jj is
    right on and below its diagonal, and the block L_{j,j-1} left of it,
    which is upper triangular, on and above it.
    """
    step = band.itemsize
    return np.ndarray((kd, kd), band.dtype, band, start * step, (step, kd * step))


def boundary_inverse(band, layout: SaddleLayout):
    """G = (K^-1)_BB = Y^T Y with Y = L^-1 E_B, for K = L L^T.

    Forward substitution in row blocks of kd rows (`layout.blocks`), on
    the boundary columns started so far only: block j of Y is
    Y_j = L_jj^-1 (E_B - L_{j,j-1} Y_{j-1}), kept transposed, so it
    costs one `dtrmm` and one `dtrsm` from the right, and adds
    Y_j^T Y_j to G by one `dsyrk`.  Only the last block of Y is kept.
    """
    kd, B = layout.kd, layout.boundary
    G = np.zeros((layout.num_boundary,) * 2)
    Yt = None
    for j, (start, done, upto) in enumerate(layout.blocks):
        Zt = np.zeros((upto, kd), order="F")
        if done:  # L_{j,j-1} starts kd^2 before L_jj
            L_below = _band_block(band, kd, start - kd * kd)  # upper triangular
            Zt[:done] = blas.dtrmm(-1.0, L_below, Yt, side=1, trans_a=1, overwrite_b=1)
        Zt[np.arange(done, upto), B[done:upto] - j * kd] = 1.0
        L_jj = _band_block(band, kd, start)
        Yt = blas.dtrsm(1.0, L_jj, Zt, side=1, lower=1, trans_a=1, overwrite_b=1)
        G[:upto, :upto] += blas.dsyrk(1.0, Yt, lower=1)
    full = G + G.T  # G is lower triangular
    full.flat[:: len(G) + 1] = G.diagonal()
    return full


def _cholesky(a, what, name):
    """Upper Cholesky factor of a (LAPACK `dpotrf`, the lower triangle left
    as it was); SolverFailure naming `name` if a is not positive definite."""
    c, info = lapack.dpotrf(a, lower=0, clean=0, overwrite_a=1)
    if info != 0:
        raise SolverFailure(
            f"{what}: {name} is not positive definite "
            f"({info}-th leading minor of the array is not positive definite)"
        )
    return c


def _cholesky_solve(c, b):
    """a^-1 b for the upper Cholesky factor c of a (`_cholesky`)."""
    return lapack.dpotrs(c, b, lower=0)[0]


class ConstrainedSolver:
    """The saddle system [[I3 (x) K, S^T], [S, 0]], factored once.

    K is a dim x dim SPD `dia_matrix` on the diagonals of the
    `SaddleLayout` (else SolverFailure), shared by the three components,
    and S its tangential-trace constraint.  The set-up copies the
    diagonals of offset <= 0 into LAPACK band storage and makes one
    banded Cholesky K = L L^T (LAPACK `dpbtrf`) in the natural order; a
    leading minor that is not positive raises SolverFailure.  From L it forms G = (K^-1)_BB, the
    inverse of the boundary Schur complement K_BB - K_BI K_II^-1 K_IB
    (`boundary_inverse`), and the multiplier Schur complement
    T = sum_k S_kB G S_kB^T, as S_B applied to the blocks C G of
    `SaddleLayout.C` = S_B^T, and Cholesky-factors both (`dpotrf`); `G` and
    `T` hold their upper factors.

    Calling the solver with a (dim, 3) load f returns (w (dim, 3),
    multiplier, relative residual, max |S_B w_B|) with S w = 0:
    y = K^-1 f, mu = T^-1 S_B y_B and w = y - K^-1 [0; S_B^T mu], two
    solves (`dpbtrs`) with three columns each, where y_B stacks the
    boundary rows of the three components.  The residual is taken
    against the full saddle operator, applied block by block, and gated
    by `check_residual(..., what)` at SOLVER_RESIDUAL_TOL; its
    constraint rows S_B w_B also give the last entry, the constraint
    residual of w.  `with_interior` adds the zero-trace
    system K_II x_I = r_I as a fourth column; `boundary_solve` and
    `boundary_norm` act on boundary rows with the factors of G and T.
    """

    def __init__(self, K, layout: SaddleLayout, what):
        self.K, self.layout, self.what = K, layout, what
        if K.format != "dia" or not np.array_equal(K.offsets, layout.offsets):
            raise SolverFailure(f"{what}: K is not stored on the diagonals of the space")
        n, kd = K.shape[0], layout.kd
        band = np.zeros(layout.band_size)
        band[(kd + 1) * n :: kd + 1] = 1.0  # the padding is an identity block
        self.band = band[: (kd + 1) * n].reshape(n, kd + 1).T
        self.band[layout.band_rows] = K.data[: len(layout.band_rows)]
        _, info = lapack.dpbtrf(self.band, lower=1, overwrite_ab=1)
        if info != 0:
            raise SolverFailure(
                f"{what}: K is not positive definite "
                f"(its leading minor of order {info} is not positive)"
            )
        G = boundary_inverse(band, layout)
        nB = layout.num_boundary
        SG = (layout.C @ G).reshape(3, nB, nB)  # the blocks S_kB G
        T = layout.S_B @ SG.transpose(0, 2, 1).reshape(3 * nB, nB)
        self.G = _cholesky(G, what, "the boundary block of K^-1")
        self.T = _cholesky(T, what, "multiplier Schur complement")

    def __call__(self, f):
        return self._solve(f)[1]

    def boundary_solve(self, c):
        """Boundary rows w_B (nB, 3) of the saddle solution for the load
        whose only nonzero rows are the boundary rows c (nB, 3): y_B = G c,
        mu = T^-1 S_B vec(G c) and w_B = G (c - S_B^T mu), with G applied
        as R^T (R .) for its upper factor R (`dtrmm` reads only the upper
        triangle).  No band solve; S_B w_B = 0."""
        R, lo = self.G, self.layout

        def apply_G(b):
            return blas.dtrmm(1.0, R, blas.dtrmm(1.0, R, b), trans_a=1)

        mu = _cholesky_solve(self.T, lo.S_B @ apply_G(c).ravel(order="F"))
        return apply_G(c - (lo.C @ mu).reshape(3, -1).T)

    def boundary_norm(self, f):
        """sqrt(sum_k f_k^T G^-1 f_k) = |R^-T f| for boundary values f
        (nB, 3): the K-energy norm of their K-harmonic extension, the
        least of any field with that trace, by one `dtrsm`."""
        z = blas.dtrsm(1.0, self.G, f, trans_a=1)
        return float(np.sqrt(np.sum(z * z)))

    def with_interior(self, r, f, what):
        """Solve K_II x_I = r_I along with the saddle for f, in the same two solves.

        `r` is a full-length vector whose boundary entries are ignored.
        Returns ((x, relative residual), the saddle tuple of a call); x
        has exactly zero boundary entries and its residual is that of the
        rows I of K x, gated by `check_residual(..., what)`.
        """
        x, saddle = self._solve(f, r)
        I = self.layout.interior
        return (x, check_residual((self.K @ x)[I] - r[I], r[I], what)), saddle

    def _band_solve(self, b):
        return lapack.dpbtrs(self.band, b, lower=1, overwrite_b=1)[0]

    def _solve(self, f, r=None):
        """Saddle solve of f; given r, also x = y - K^-1 E_B G^-1 y_B for
        y = K^-1 [r_I; 0], which is x_I = K_II^-1 r_I, x_B = 0.

        The x column (if any) comes first.  Returns (x or None,
        (w, mu, residual)).
        """
        lo = self.layout
        B = lo.boundary
        j = 0 if r is None else 1  # first column of the saddle
        b = np.empty((len(f), j + 3), order="F")
        b[:, j:] = f
        if j:
            b[:, 0] = r
            b[B, 0] = 0.0
        y = self._band_solve(b)
        yB = np.take(y, B, axis=0)
        mu = _cholesky_solve(self.T, lo.S_B @ yB[:, j:].ravel(order="F"))
        St_mu = (lo.C @ mu).reshape(3, -1).T  # rows B of S^T mu
        load = np.zeros(b.shape, order="F")
        load[B, j:] = St_mu
        if j:
            load[B, 0] = _cholesky_solve(self.G, yB[:, 0])
        y -= self._band_solve(load)
        w = np.ascontiguousarray(y[:, j:])
        # one column at a time: bit for bit the product with all three, and faster
        res = np.column_stack([self.K @ col for col in y.T[j:]])
        res[B] += St_mu
        Sw = lo.S_B @ np.take(w, B, axis=0).ravel(order="F")
        res = np.concatenate([(res - f).ravel(), Sw])
        saddle = (w, mu, check_residual(res, f, self.what), float(np.abs(Sw).max()))
        if not j:
            return None, saddle
        x = y[:, 0].copy()
        x[B] = 0.0
        return x, saddle


def assemble_curvature_load(tables, geom, kappa, tail, frob2):
    """Load |A|^2 kappa against the scalar basis, less M tail, (dim,).

    `kappa` and `tail` are planes (m, m) of the curvature and of a field
    whose mass product the load subtracts: the integral of tail * phi
    is M tail, so the tail folds into the density.  `frob2` is
    `weingarten_energy` on the same geometry.
    """
    dens = geom.weight * (frob2 * kappa - tail)
    return tables.integrate(dens[None])[:, 0]


def assemble_normal_load(tables, geom, nu, tail, frob2):
    """Load |A|^2 nu against the vector basis, less M tail, (dim, 3).

    `nu` and `tail` are stacks (3, m, m) of component planes and `frob2`
    is `weingarten_energy` of nu on the same geometry; the tail folds
    into the density as in `assemble_curvature_load`.
    """
    dens = geom.weight * (frob2 * nu - tail)
    return tables.integrate(dens)


def weingarten_energy(geom):
    """|grad_Gamma nu|_F^2 on the grid, (m, m), of the vector field
    whose derivative planes `geom.du`, `geom.dv` (3, m, m) hold.

    With grad_Gamma nu = Jn G^-1 J^T and J^T J = G, this is
    tr(Jn^T Jn G^-1), formed from the dot products of the u- and
    v-columns of Jn and the entries of the symmetric G^-1.
    """
    g, du, dv = geom.metric_inv, geom.du, geom.dv
    return dot(du, du) * g[0] + 2.0 * dot(du, dv) * g[1] + dot(dv, dv) * g[2]


# ---------------------------------------------------------------------------
# boundary assembly


class BoundaryTables(GaussGrid):
    """The four edges of the square on the Gauss grid of the edge rule,
    used along one axis, plus frozen data.

    With open knot vectors the trace of the space on every edge is its
    univariate factor, so the grid's collocation matrices C0 and C1
    (2, m, n) at the m = N n_quad points of the rule serve all four
    edges.  Boundary data live as (4, n, D) coefficients on the trace
    basis of each edge, in `splines.edge_points` order: a tensor-space
    field gives `coeffs[space.edge_indices]`, and per-edge data that are
    discontinuous at the corners, such as the tangent, have their own.
    A trace is C0, or C1 for the derivative along the edge, applied to
    them (`trace`), (D, 4, m) on the edge points.  `rows` (4, n) holds
    the boundary position of each trace basis function, its place in
    `space.boundary_indices`, with the corners shared: the constraint's
    row, and its column per component.

    The boundary of the evolving surface is fixed in time, so `freeze`
    samples the length element, the interpolated tangent (raw and unit)
    and the boundary curvature vector once at the edge quadrature points
    of the initial surface for every later assembly call.
    """

    def __init__(self, space: TensorSplineSpace, n_quad: int):
        super().__init__(space, n_quad)
        self.rows = np.searchsorted(space.boundary_indices, space.edge_indices)
        self.frozen = None

    def trace(self, coeffs, deriv=False):
        """Values (D, 4, m) at the edge points, or edge-parameter
        derivatives, of the (4, n, D) coefficients on the trace basis."""
        return self._to_points_last(np.moveaxis(coeffs, -1, 0), self.c[int(deriv)])

    def freeze(self, x0, tangent, curvature):
        """Sample the time-independent boundary quantities at the edge points.

        `x0` holds the (dim, 3) position coefficients of the initial
        surface; `tangent` and `curvature` the (4, n, 3) per-edge
        coefficients of the interpolated tangent and curvature vector
        (`projections.boundary_quasi_interp`).
        """
        tau = self.trace(tangent)
        x_s = self.trace(x0[self.space.edge_indices], deriv=True)
        self.frozen = {
            "length": np.sqrt(dot(x_s, x_s)),
            "tau": tau,
            "tau_hat": tau / np.sqrt(dot(tau, tau)),
            "kappa": self.trace(curvature),
        }
        return self


def assemble_constraint(btables: BoundaryTables):
    """Tangential-trace constraint C = S_B^T, (3 nB, nB) CSR.

    Requires frozen boundary data; row d nB + b is component d at the
    boundary position b of `btables.rows`, which also numbers columns.
    Edge k and component d give C0^T diag(w |x_s| tau_hat_d) C0, of
    which the entries of basis pairs that share an element are kept
    (`UnivariateSpline.band`): the pattern of C, one slot for each.
    """
    assert btables.frozen is not None, "freeze boundary data first"
    bt, fr = btables, btables.frozen
    space = bt.space
    n, nb = space.factor.dim, len(space.boundary_indices)
    dens = bt.weights_1d * fr["length"] * fr["tau_hat"]  # (3, 4, m)
    c0 = bt.c[0]
    blocks = bt._to_basis(c0, dens.reshape(12, -1, 1) * c0).reshape(3, 4, n, n)
    start, width = space.factor.band
    offset = np.arange(n) - start[:, None]
    i, j = np.nonzero((offset >= 0) & (offset < width[:, None]))
    rows = bt.rows[:, j] + nb * np.arange(3)[:, None, None]
    cols = np.broadcast_to(bt.rows[:, i], rows.shape)
    C = sp.coo_matrix(
        (blocks[:, :, i, j].ravel(), (rows.ravel(), cols.ravel())), shape=(3 * nb, nb)
    )
    return C.tocsr()


def conormal_load(grid: GaussGrid, length, kappa_b, tau, nu):
    """Edge integral of (kappa_b . nu)(nu x tau) against the vector basis, (dim, 3).

    All arguments are sampled at the points of `grid` on each edge: the
    length element (4, m) and the boundary curvature vector, tangent and
    normal (3, 4, m).  C0^T integrates the density against the trace
    basis of each edge, and one scatter adds up the shared corners.
    """
    dens = grid.weights_1d * length * dot(kappa_b, nu)
    local = grid._to_basis_last(dens * cross3(nu, tau), grid.c[0])
    return scatter_vector(grid.space.edge_indices, local, grid.space.dim)


def assemble_boundary_load(btables: BoundaryTables, nu_coeffs):
    """Conormal boundary load for the normal equation, (dim, 3).

    The `conormal_load` of the normal field over the fixed initial
    boundary, with the interpolated tangent kept unnormalized.
    """
    assert btables.frozen is not None
    fr = btables.frozen
    nu = btables.trace(np.take(nu_coeffs, btables.space.edge_indices, axis=0))
    return conormal_load(btables, fr["length"], fr["kappa"], fr["tau"], nu)

