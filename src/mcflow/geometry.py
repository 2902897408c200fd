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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .splines import ParametricMesh, TensorSplineSpace, edge_points

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

    @property
    def ncomp(self):
        return 1 if self.coeffs.ndim == 1 else self.coeffs.shape[1]

    @classmethod
    def zeros(cls, space, ncomp=1):
        shape = (space.dim,) if ncomp == 1 else (space.dim, ncomp)
        return cls(space, np.zeros(shape))

    def copy(self):
        return SplineField(self.space, self.coeffs.copy())

    def eval(self, points, nderiv: int = 0):
        """Values and parametric derivatives at arbitrary points.

        Returns `values` (n, D), plus `jac` (n, D, 2) if nderiv >= 1 and
        `hess` (n, D, 2, 2) if nderiv == 2.  Scalar fields keep D = 1.
        """
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("evaluation points must lie in the unit square")
        space = self.space
        fu, du = space.u.eval_basis(pts[:, 0], nderiv)
        fv, dv = space.v.eval_basis(pts[:, 1], nderiv)
        pu, pv = space.u.degree, space.v.degree
        ju = fu[:, None] + np.arange(pu + 1)[None, :]
        jv = fv[:, None] + np.arange(pv + 1)[None, :]
        flat = ju[:, :, None] * space.v.dim + jv[:, None, :]
        coeffs = self.coeffs if self.coeffs.ndim == 2 else self.coeffs[:, None]
        loc = coeffs[flat]  # (n, pu+1, pv+1, D)

        def contract(ku, kv):
            return np.einsum("na,nabd,nb->nd", du[:, ku], loc, dv[:, kv])

        values = contract(0, 0)
        out = [values]
        if nderiv >= 1:
            jac = np.stack([contract(1, 0), contract(0, 1)], axis=-1)
            out.append(jac)
        if nderiv >= 2:
            hess = np.empty((len(pts), loc.shape[3], 2, 2))
            hess[:, :, 0, 0] = contract(2, 0)
            hess[:, :, 0, 1] = contract(1, 1)
            hess[:, :, 1, 0] = hess[:, :, 0, 1]
            hess[:, :, 1, 1] = contract(0, 2)
            out.append(hess)
        if single:
            out = [a[0] for a in out]
        return out[0] if nderiv == 0 else tuple(out)

    def eval_edge(self, edge: int, s, nderiv: int = 0):
        """Trace values (and edge-parameter derivatives) along an edge."""
        pts = edge_points(edge, np.atleast_1d(s))
        if nderiv == 0:
            return self.eval(pts)
        vals, jac = self.eval(pts, 1)
        run = 0 if edge in (0, 2) else 1  # edges 0,2 run in u; 1,3 in v
        return vals, jac[:, :, run]


@dataclass
class GeometrySample:
    """Pointwise first-order geometry of a surface."""

    param_point: np.ndarray  # (2,)
    position: np.ndarray  # (3,)
    jacobian: np.ndarray  # (3, 2)
    metric: np.ndarray  # (2, 2)
    metric_inv: np.ndarray  # (2, 2)
    area_element: float  # sqrt(det G)
    normal: np.ndarray  # (3,), unit cross product
    pushforward: np.ndarray  # (3, 2), J G^{-1}


@dataclass
class BoundaryFrame:
    """Tangent/conormal/normal frame along a boundary edge point."""

    tangent: np.ndarray  # (3,), unit
    conormal: np.ndarray  # (3,), nu x tau
    normal: np.ndarray  # (3,)
    curvature_vector: np.ndarray  # (3,), derivative of tau by arclength
    length_element: float  # |dX/ds| for the edge parameter s


def _metric_pieces(J):
    """Batched metric data from Jacobians (n, 3, 2)."""
    G = np.einsum("nda,ndb->nab", J, J)
    det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
    if np.any(det <= DEGENERACY_EPS):
        raise DegenerateSurface(
            f"metric determinant {det.min():.3e} at or below {DEGENERACY_EPS:.1e}"
        )
    Ginv = np.empty_like(G)
    Ginv[:, 0, 0] = G[:, 1, 1]
    Ginv[:, 1, 1] = G[:, 0, 0]
    Ginv[:, 0, 1] = -G[:, 0, 1]
    Ginv[:, 1, 0] = -G[:, 1, 0]
    Ginv /= det[:, None, None]
    return G, Ginv, np.sqrt(det)


def geometry_at(X: SplineField, point) -> GeometrySample:
    """First-order geometry of the surface at one parametric point."""
    point = np.asarray(point, dtype=float)
    pos, jac = X.eval(point[None, :], 1)
    J = jac[0]
    G, Ginv, q = _metric_pieces(jac)
    raw = np.cross(J[:, 0], J[:, 1])
    normal = raw / q[0]  # |J_u x J_v| = sqrt(det G)
    return GeometrySample(
        param_point=point,
        position=pos[0],
        jacobian=J,
        metric=G[0],
        metric_inv=Ginv[0],
        area_element=float(q[0]),
        normal=normal,
        pushforward=J @ Ginv[0],
    )


def surface_gradient(f: SplineField, sample: GeometrySample):
    """Surface gradient of a field at a geometry sample.

    Scalar fields give a 3-vector; vector fields give the 3 x 3 matrix
    whose rows are the component surface gradients.
    """
    _, jac = f.eval(sample.param_point[None, :], 1)
    grads = jac[0] @ sample.pushforward.T  # (D, 3)
    return grads[0] if f.ncomp == 1 else grads


def weingarten(nu_field: SplineField, sample: GeometrySample):
    """Weingarten matrix of a normal field with invariants.

    Returns (A, frob_sq, trace): A = grad_Gamma nu (3 x 3 with component
    gradients as rows), |A|^2 and tr A (the discrete mean curvature).
    """
    A = surface_gradient(nu_field, sample)
    return A, float(np.sum(A * A)), float(np.trace(A))


def boundary_frame(X: SplineField, nu_at, edge: int, s: float) -> BoundaryFrame:
    """Frame and curvature vector of a boundary edge at parameter s.

    `nu_at` is the unit normal at the edge point (from the evolved normal
    field or an analytic scenario); the tangent is the normalized edge
    derivative taken in the direction of increasing edge parameter.
    """
    svec = np.array([float(s)])
    pts = edge_points(edge, svec)
    _, jac, hess = X.eval(pts, 2)
    run = 0 if edge in (0, 2) else 1
    c1 = jac[0, :, run]
    c2 = hess[0, :, run, run]
    speed = float(np.linalg.norm(c1))
    tau = c1 / speed
    kappa_b = (c2 - np.dot(c2, tau) * tau) / speed ** 2
    nu = np.asarray(nu_at, dtype=float)
    return BoundaryFrame(
        tangent=tau,
        conormal=np.cross(nu, tau),
        normal=nu,
        curvature_vector=kappa_b,
        length_element=speed,
    )


def surface_area(X: SplineField, mesh: ParametricMesh) -> float:
    """Quadrature area of the surface over the full parametric domain."""
    pts = mesh.all_points()
    _, jac = X.eval(pts, 1)
    _, _, q = _metric_pieces(jac)
    ne = mesh.num_elements_2d
    w = np.tile(mesh.weights_2d, ne)
    return float(np.dot(w, q))
