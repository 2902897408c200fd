"""Initial surfaces for the flow experiments.

A scenario is one callable, the jet of the analytic parameterization X0
of the initial surface over the unit square: its values with first and
second parametric derivatives at a set of points, plus an orientation
sign for the unit normal (applied to the normalized cross product of
the columns of the Jacobian).  Like all values on points (`geometry`),
the jet is component first, points included: at points (2, ...), row 0
u and row 1 v, it returns X (3, ...), J (2, 3, ...) and H (2, 2, 3, ...),
so the meshgrid of a tensor grid gives planes (3, m, m).
`Scenario.sample` wraps one jet evaluation in a `Sample`, which derives
everything else by closed-form differentiation -- normal field and its
Jacobian, mean curvature, and on an edge the speed, the oriented unit
tangent and the curvature vector -- so scenario authors supply one jet
and every reader of a point set shares one evaluation.

Two scenarios are provided, registered by name in ``SCENARIOS`` together
with their config keys.  Each has one defining constant, shipped here as
``PLANE_AMPLITUDE`` and ``SPHERE_EXTENT``; the tests re-derive both from
their area targets and check them:

* ``perturbed_plane``: the square [-1, 1]^2 with a smooth interior bump
  a * (sin(pi u) sin(pi v))^3.  The bump vanishes at the boundary
  together with its gradient and Laplacian, so the boundary edges are
  straight lines, the boundary curvature vector vanishes and the mean
  curvature is zero on the boundary (compatible initial data).  The
  amplitude is calibrated so the interpolated surface at the reference
  mesh (N=20, p=2, C^1) has area 4.0442.

* ``sphere_patch``: a square-parameterized patch of the unit sphere, the
  image of [-c, c]^2 under the exponential map at the north pole after a
  smooth contraction that tempers the corner depth.  The normal is
  oriented inward (nu = -X), which makes the mean curvature exactly -2.
  The half-width c is calibrated so the analytic area is 5.859.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .geometry import DegenerateSurface, cross3, dot, metric_pieces
from .splines import EDGE_FIXED_COORD, EDGE_OUTWARD

# Calibrated constants, re-derived and checked by the tests (tests/calibration.py).
PLANE_AMPLITUDE = 0.16074835298468315
SPHERE_EXTENT = 1.4558001722715517

# Corner tempering of the sphere patch.  The raw geodesic square (temper 0)
# puts its corners a factor sqrt(2) deeper than the edge midpoints; with the
# area pinned near a hemisphere that drives the corner elements past the
# stability range of the linearly implicit reaction treatment at the
# reference step size.  The plane map is contracted by 1/(1 + g*s^2*t^2)
# before the exponential map, which only acts near the corners (s, t both
# of order 1) and leaves the edge midpoints untouched.  The map stays
# injective only for g < 1/3 (the corner Jacobian determinant changes sign
# at g = 1/3), and the flow at the reference step size needs g >= 0.29;
# 0.31 sits midway between the two boundaries.
SPHERE_CORNER_TEMPER = 0.31


@dataclass
class Sample:
    """The jet of X0 at points of trailing shape S: X (3, *S), J[a] = d_a X0
    and H[a, b] = d_a d_b X0.

    Every field, given or derived, is component first and elementwise in
    the points, so it keeps their trailing shape S: (n,) for a point
    list or an edge, (m, m) for planes of a tensor grid.  The metric
    (`geometry.metric_pieces`), the normal and its Jacobian are derived
    on first use and kept; the normal keeps the length of the cross
    product Ju x Jv it normalizes, which its Jacobian reads again.  A
    sample on edge `edge` of the square (`splines.edge_points`) also has
    the edge quantities, by edge parameter.
    """

    X: np.ndarray
    J: np.ndarray
    H: np.ndarray
    normal_sign: float = 1.0
    edge: int | None = None

    @cached_property
    def metric(self):
        """The entries (00, 01, 11) of G^-1, (3, *S), and the area element,
        `geometry.metric_pieces` of the columns of J."""
        return metric_pieces(*self.J)

    @cached_property
    def normal(self):
        """Oriented unit normal, (3, *S)."""
        raw = cross3(*self.J)
        self._normal_length = np.sqrt(dot(raw, raw))  # S
        return self.normal_sign * raw / self._normal_length

    @cached_property
    def normal_jacobian(self):
        """Parametric Jacobian of the oriented unit normal, (2, 3, *S) like J."""
        J, H = self.J, self.H
        nu = self.normal_sign * self.normal  # Ju x Jv / |Ju x Jv|, exactly
        norm = self._normal_length
        out = np.empty_like(J)
        for a in range(2):
            draw = cross3(H[0, a], J[1]) + cross3(J[0], H[1, a])
            # derivative of raw/|raw|: project out the radial part
            proj = draw - nu * dot(nu, draw)
            out[a] = proj / norm
        return self.normal_sign * out

    @property
    def mean_curvature(self):
        """Trace of the Weingarten map for the oriented normal, S."""
        ginv = self.metric[0]
        # tr(Jn Ginv J^T) = sum_ab (Jn_a . J_b) Ginv_ab, Ginv symmetric
        Jn, J = self.normal_jacobian, self.J
        return (
            dot(Jn[0], J[0]) * ginv[0]
            + (dot(Jn[0], J[1]) + dot(Jn[1], J[0])) * ginv[1]
            + dot(Jn[1], J[1]) * ginv[2]
        )

    # -- on an edge ---------------------------------------------------

    @property
    def edge_speed(self):
        """Length of dX0/ds, S."""
        c1 = self.J[1 - EDGE_FIXED_COORD[self.edge]]
        return np.sqrt(dot(c1, c1))

    @property
    def edge_tangent(self):
        """Unit boundary tangent (3, *S), oriented so nu x tau is the outward conormal.

        DegenerateSurface where the edge or the normal degenerates.
        """
        c1 = self.J[1 - EDGE_FIXED_COORD[self.edge]]
        with np.errstate(invalid="ignore"):  # 0/0 at degenerate points
            tau = c1 / np.sqrt(dot(c1, c1))
            nu = self.normal
        out_u, out_v = EDGE_OUTWARD[self.edge]
        leave = out_u * self.J[0] + out_v * self.J[1]
        mu_dir = leave - tau * dot(tau, leave)
        sign = np.sign(dot(cross3(nu, tau), mu_dir))
        bad = np.abs(sign) != 1.0  # zero, or NaN from a vanishing tangent or normal
        if bad.any():
            raise DegenerateSurface(
                f"edge {self.edge}: no oriented tangent at {bad.sum()} of {bad.size}"
            )
        return tau * sign

    @property
    def edge_curvature(self):
        """Curvature vector of the boundary curve (orientation independent), (3, *S)."""
        run = 1 - EDGE_FIXED_COORD[self.edge]
        c1, c2 = self.J[run], self.H[run, run]
        speed2 = dot(c1, c1)
        that = c1 / np.sqrt(speed2)
        return (c2 - that * dot(c2, that)) / speed2


@dataclass
class Scenario:
    """Analytic initial surface: `jet(pts (2, ...))` returns `Sample`'s (X, J, H).

    `normal_sign` orients the normalized cross product of the columns of J.
    """

    jet: Callable
    normal_sign: float = 1.0

    def sample(self, pts, edge: int | None = None) -> Sample:
        """One jet evaluation at `pts`, which lie on `edge` if one is given."""
        return Sample(*self.jet(pts), self.normal_sign, edge)


# ---------------------------------------------------------------------------
# perturbed plane


def _bump(u):
    """g(u) = sin(pi u)^3 with its first two derivatives."""
    s = np.sin(np.pi * u)
    c = np.cos(np.pi * u)
    g = s ** 3
    g1 = 3.0 * np.pi * s ** 2 * c
    g2 = 3.0 * np.pi ** 2 * s * (2.0 * c ** 2 - s ** 2)
    return g, g1, g2


def scenario_perturbed_plane(amplitude: float | None = None) -> Scenario:
    """Square [-1, 1]^2 with a cubed-sine interior bump of given height."""
    a = PLANE_AMPLITUDE if amplitude is None else float(amplitude)

    def jet(pts):
        u, v = pts
        gu, gu1, gu2 = _bump(u)
        gv, gv1, gv2 = _bump(v)
        X = np.stack([2.0 * u - 1.0, 2.0 * v - 1.0, a * gu * gv])
        J = np.zeros((2, 3) + u.shape)
        J[0, 0] = 2.0
        J[1, 1] = 2.0
        J[0, 2] = a * gu1 * gv
        J[1, 2] = a * gu * gv1
        H = np.zeros((2, 2, 3) + u.shape)
        H[0, 0, 2] = a * gu2 * gv
        H[0, 1, 2] = a * gu1 * gv1
        H[1, 0] = H[0, 1]
        H[1, 1, 2] = a * gu * gv2
        return X, J, H

    return Scenario(jet, normal_sign=1.0)  # cross product points upward already


# ---------------------------------------------------------------------------
# sphere patch


def _sinc_family(rho):
    """g = sin(r)/r, h = cos(r) and derivatives w.r.t. rho = r^2.

    Series in rho below 1e-2 keep full accuracy through the removable
    singularity at rho = 0 and the cancellation-prone region of small
    rho; the closed forms serve the other points.  Each branch is
    evaluated on its own points only.
    """
    rho = np.asarray(rho, dtype=float)
    small = rho < 1e-2
    g, g1, g2, h = (np.empty_like(rho) for _ in range(4))
    s = rho[small]
    g[small] = 1.0 - s / 6.0 + s ** 2 / 120.0 - s ** 3 / 5040.0 + s ** 4 / 362880.0
    g1[small] = -1.0 / 6.0 + s / 60.0 - s ** 2 / 1680.0 + s ** 3 / 90720.0
    g2[small] = 1.0 / 60.0 - s / 840.0 + s ** 2 / 30240.0 - s ** 3 / 1995840.0
    h[small] = np.cos(np.sqrt(s))
    big = ~small
    s = rho[big]
    r = np.sqrt(s)
    sin, cos = np.sin(r), np.cos(r)
    g[big] = sin / r
    g1[big] = (r * cos - sin) / (2.0 * r ** 3)
    g2[big] = (3.0 * sin - 3.0 * r * cos - s * sin) / (4.0 * r ** 5)
    h[big] = cos
    return g, g1, g2, h, -0.5 * g, -0.5 * g1


def scenario_sphere_patch(
    extent: float | None = None, temper: float | None = None
) -> Scenario:
    """Square-parameterized patch of the unit sphere with inward normal.

    The unit square maps to the plane square [-c, c]^2, contracted near
    the corners by 1/(1 + g*s^2*t^2), and then onto the sphere by the
    exponential map at the north pole.  With temper g = 0 this is the
    exact geodesic square.

    Its data are incompatible: H = -2 up to the fixed boundary, where the
    flow needs H = 0 for t > 0, since a fixed boundary has zero velocity.
    The scheme gives kappa_0 zero trace, and near the boundary the errors
    converge below the paper's orders.
    """
    c = SPHERE_EXTENT if extent is None else float(extent)
    gam = SPHERE_CORNER_TEMPER if temper is None else float(temper)
    if not 0.0 < c < np.pi / np.sqrt(2.0):
        raise ValueError(f"extent must lie in (0, pi/sqrt(2)), got {c}")
    # at temper = 1/3 the corner Jacobian determinant of the plane map
    # vanishes; beyond it the parameterization folds over itself
    if not 0.0 <= gam < 1.0 / 3.0:
        raise ValueError(f"temper must lie in [0, 1/3), got {gam}")

    def _plane(pts):
        """Tempered plane map (a, b) and derivatives w.r.t. (u, v)."""
        s, t = 2.0 * np.asarray(pts) - 1.0
        q = gam * s * s * t * t
        m = 1.0 / (1.0 + q)
        q_s = 2.0 * gam * s * t * t
        q_t = 2.0 * gam * s * s * t
        m_s = -m * m * q_s
        m_t = -m * m * q_t
        m_ss = 2.0 * m ** 3 * q_s * q_s - m * m * (2.0 * gam * t * t)
        m_st = 2.0 * m ** 3 * q_s * q_t - m * m * (4.0 * gam * s * t)
        m_tt = 2.0 * m ** 3 * q_t * q_t - m * m * (2.0 * gam * s * s)
        a, b = c * s * m, c * t * m
        # chain factors d(s)/du = d(t)/dv = 2
        return {
            "a": a,
            "b": b,
            "a_u": 2.0 * c * (m + s * m_s),
            "a_v": 2.0 * c * s * m_t,
            "b_u": 2.0 * c * t * m_s,
            "b_v": 2.0 * c * (m + t * m_t),
            "a_uu": 4.0 * c * (2.0 * m_s + s * m_ss),
            "a_uv": 4.0 * c * (m_t + s * m_st),
            "a_vv": 4.0 * c * s * m_tt,
            "b_uu": 4.0 * c * t * m_ss,
            "b_uv": 4.0 * c * (m_s + t * m_st),
            "b_vv": 4.0 * c * (2.0 * m_t + t * m_tt),
        }

    def jet(pts):
        p = _plane(pts)
        a, b = p["a"], p["b"]
        rho = a * a + b * b
        g, g1, g2, h, h1, h2 = _sinc_family(rho)
        X = np.stack([a * g, b * g, h])

        # first and second partials of the exponential map w.r.t. (a, b)
        Fa = np.stack([g + 2.0 * a * a * g1, 2.0 * a * b * g1, 2.0 * a * h1])
        Fb = np.stack([2.0 * a * b * g1, g + 2.0 * b * b * g1, 2.0 * b * h1])
        Faa = np.stack(
            [
                6.0 * a * g1 + 4.0 * a ** 3 * g2,
                2.0 * b * g1 + 4.0 * a * a * b * g2,
                2.0 * h1 + 4.0 * a * a * h2,
            ]
        )
        Fab = np.stack(
            [
                2.0 * b * g1 + 4.0 * a * a * b * g2,
                2.0 * a * g1 + 4.0 * a * b * b * g2,
                4.0 * a * b * h2,
            ]
        )
        Fbb = np.stack(
            [
                2.0 * a * g1 + 4.0 * a * b * b * g2,
                6.0 * b * g1 + 4.0 * b ** 3 * g2,
                2.0 * h1 + 4.0 * b * b * h2,
            ]
        )

        a_u, a_v, b_u, b_v = p["a_u"], p["a_v"], p["b_u"], p["b_v"]
        J = np.empty((2, 3) + a.shape)
        J[0] = Fa * a_u + Fb * b_u
        J[1] = Fa * a_v + Fb * b_v
        H = np.empty((2, 2, 3) + a.shape)
        H[0, 0] = (
            Faa * (a_u * a_u)
            + 2.0 * Fab * (a_u * b_u)
            + Fbb * (b_u * b_u)
            + Fa * p["a_uu"]
            + Fb * p["b_uu"]
        )
        H[0, 1] = (
            Faa * (a_u * a_v)
            + Fab * (a_u * b_v + a_v * b_u)
            + Fbb * (b_u * b_v)
            + Fa * p["a_uv"]
            + Fb * p["b_uv"]
        )
        H[1, 0] = H[0, 1]
        H[1, 1] = (
            Faa * (a_v * a_v)
            + 2.0 * Fab * (a_v * b_v)
            + Fbb * (b_v * b_v)
            + Fa * p["a_vv"]
            + Fb * p["b_vv"]
        )
        return X, J, H

    # the cross product is outward; the flow uses the inward normal
    return Scenario(jet, normal_sign=-1.0)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ScenarioEntry:
    """How to build and configure one named scenario."""

    build: Callable  # keyword parameters -> Scenario
    config_keys: dict  # build parameter -> ScenarioConfig field


SCENARIOS = {
    "perturbed_plane": ScenarioEntry(
        scenario_perturbed_plane,
        {"amplitude": "perturbation_amplitude"},
    ),
    "sphere_patch": ScenarioEntry(
        scenario_sphere_patch,
        {"extent": "patch_polar_extent", "temper": "patch_corner_temper"},
    ),
}


def get_scenario(name: str, **params) -> Scenario:
    """Scenario `name` built with keyword parameters (defaults if omitted)."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    return SCENARIOS[name].build(**params)
