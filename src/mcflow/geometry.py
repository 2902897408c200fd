"""Differential geometry of spline-parameterized surfaces.

A surface is a vector-valued spline field X on the unit square.  All
surface quantities pull back through the chain rule: with the parametric
Jacobian J = dX (3 x 2), first fundamental form G = J^T J and pullback
F = f o X, the surface gradient satisfies

    (grad_Gamma f) o X = J G^{-1} dF.

The pushforward J G^{-1} maps parametric gradients to tangential surface
gradients; the Weingarten map of a (discrete) normal field is the matrix
of component surface gradients and provides mean curvature (trace) and
second-fundamental-form energy (Frobenius norm squared).

Values on points live component first: a vector field at n points is
(3, n), and on a tensor grid (3, m, m), one plane per component; the
derivative along parameter a of a field is its own such stack.  The
quadrature layer of `assembly` keeps its planes so, and the scenarios'
samples and the edge layer keep their values so too; points are
(2, ...) the same way, so a sample at the meshgrid of a tensor grid is
planes.  Only the pointwise `SplineField.eval`, the test oracle, reads
(n, 2) points and returns (n, D), from the factor's `eval_basis` along u
and along v.  `dot` and `cross3` act on that first axis.  `metric_pieces`
is the one place that forms G^{-1} and the area element, the only
metric data the flow reads; G itself lives only as its three entries,
and G^{-1} as the three entries (00, 01, 11) of the symmetric matrix,
from the u- and v-columns of the Jacobians.  `surface_area` reads det G
from the same entries.  Every entry is a handful of elementwise
multiply-adds over whole arrays, not a stack of 2 x 2 and 3 x 2 matrix
products.
"""

from __future__ import annotations

import numpy as np

from .splines import TensorSplineSpace

DEGENERACY_EPS = 1e-14


class DegenerateSurface(Exception):
    """Raised when det(G) drops below the degeneracy threshold."""


class SplineField:
    """Scalar or vector field with spline coefficients.

    `coeffs` has shape (dim,) for scalar fields or (dim, D) for vector
    fields, indexed by the flat tensor basis index.
    """

    def __init__(self, space: TensorSplineSpace, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[0] != space.dim:
            raise ValueError(
                f"coefficient rows {coeffs.shape[0]} != space dim {space.dim}"
            )
        self.space = space
        self.coeffs = coeffs

    def eval(self, points, nderiv: int = 0):
        """Values and parametric derivatives at arbitrary points.

        Returns `values` (n, D), or (values, jac) with `jac` (n, D, 2) if
        nderiv == 1.  Scalar fields keep D = 1.
        """
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("evaluation points must lie in the unit square")
        fu, du = self.space.factor.eval_basis(pts[:, 0])
        fv, dv = self.space.factor.eval_basis(pts[:, 1])
        local = np.arange(self.space.degree + 1)
        ju, jv = fu[:, None] + local, fv[:, None] + local
        flat = self.space.flat_index(ju[:, :, None], jv[:, None, :])
        coeffs = self.coeffs if self.coeffs.ndim == 2 else self.coeffs[:, None]
        loc = coeffs[flat]  # (n, pu+1, pv+1, D)

        def contract(ku, kv):
            return np.einsum("na,nabd,nb->nd", du[:, ku], loc, dv[:, kv])

        values = contract(0, 0)
        if nderiv == 1:
            values = values, np.stack([contract(1, 0), contract(0, 1)], axis=-1)
        if single:
            return values[0] if nderiv == 0 else tuple(a[0] for a in values)
        return values


def cross3(a, b):
    """Cross products over the first axis, of length 3, by components."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.subtract(a[i] * b[j], a[j] * b[i], out=out[k])
    return out


def dot(a, b):
    """Inner products over the first axis, by components."""
    out = a[0] * b[0]
    for k in range(1, len(a)):
        out += a[k] * b[k]
    return out


def _first_form(u, v):
    """The entries E = Ju.Ju, F = Ju.Jv, H = Jv.Jv of G and det G, from
    the u- and v-columns u, v (3, ...) of Jacobians, component first.

    Raises DegenerateSurface when det G drops to DEGENERACY_EPS or below
    anywhere, or is not a number.
    """
    E, F, H = dot(u, u), dot(u, v), dot(v, v)
    det = E * H - F * F
    if not np.all(det > DEGENERACY_EPS):
        raise DegenerateSurface(
            f"metric determinant {det.min():.3e} not above {DEGENERACY_EPS:.1e}"
        )
    return E, F, H, det


def metric_pieces(u, v):
    """Metric data from the u- and v-columns u, v (3, ...) of Jacobians.

    Returns the entries (00, 01, 11) of the inverse G^{-1} of the first
    fundamental form G = J^T J, stacked as (3, ...), and the area
    element sqrt(det G); raises DegenerateSurface when det G drops to
    DEGENERACY_EPS or below anywhere, or is not a number.
    """
    E, F, H, det = _first_form(u, v)
    ginv = np.empty((3,) + det.shape)
    np.divide(H, det, out=ginv[0])
    np.divide(F, det, out=ginv[1])
    np.negative(ginv[1], out=ginv[1])
    np.divide(E, det, out=ginv[2])
    return ginv, np.sqrt(det)


def surface_area(x, tables) -> float:
    """Quadrature area of the surface x (dim, 3) on the grid of an
    `assembly.MeshTables`, from the Jacobian planes of x."""
    _, du, dv = tables.evaluate(np.asarray(x).T, values=slice(0), jac=slice(None))
    det = _first_form(du, dv)[3]
    return float(np.sum(tables.weights * np.sqrt(det)))
