"""Shared fixtures: small spaces and cheap scenario discretizations.

The suite runs BLAS on one thread unless the caller sets the thread
count: on a machine with few cores the threads of the dense products
oversubscribe it, which made the suite twice as slow on two cores.
The variables are read when numpy loads, so they are set before it does.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest
import scipy.sparse as sp

from mcflow.geometry import SplineField
from mcflow.projections import boundary_quasi_interp
from mcflow.scenarios import SCENARIOS, Scenario, ScenarioEntry, scenario_perturbed_plane
from mcflow.splines import build_quasi_interpolant, build_space, edge_points, gauss_rule


@pytest.fixture(scope="session")
def space_small():
    """p=2, C^1, 6 elements per side; 64 DOFs."""
    return build_space(2, 1, 6)


@pytest.fixture(scope="session")
def quasi_small(space_small):
    return build_quasi_interpolant(space_small)


@pytest.fixture
def rng():
    """A fresh generator for each test, so its data do not depend on
    which tests drew before it."""
    return np.random.default_rng(20260814)


def interior_grid(n: int = 33, margin: float = 0.1):
    """Uniform sample grid at parametric distance >= margin from the
    boundary, as a component-first point list (2, n * n), u-major."""
    g = np.linspace(margin, 1.0 - margin, n)
    return grid_planes(g).reshape(2, -1)


def grid_planes(points_1d):
    """The tensor grid of a 1-D point set as planes (2, m, m) of u and v,
    indexed [u point, v point]: the points of an `assembly.MeshTables`
    with these `points_1d`, as a scenario samples them."""
    return np.stack(np.meshgrid(points_1d, points_1d, indexing="ij"))


def grid_points(points_1d):
    """The tensor grid of a 1-D point set as a point-major list (m * m, 2),
    u-major, the layout `SplineField.eval` reads."""
    return grid_planes(points_1d).reshape(2, -1).T


def eval_basis(space, point):
    """Flat indices and values of the active tensor basis of `space` at one
    parametric point; ValueError outside the unit square."""
    u, v = float(point[0]), float(point[1])
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError(f"point {(u, v)} outside the unit square")
    (fu,), du = space.factor.eval_basis(u)
    (fv,), dv = space.factor.eval_basis(v)
    local = np.arange(space.degree + 1)
    flat = space.flat_index(fu + local[:, None], fv + local)
    return flat.ravel(), np.outer(du[0, 0], dv[0, 0]).ravel()


def interpolate(quasi, scenario, field="X"):
    """Quasi-interpolant of one field of the scenario's sample on the quasi grid.

    `field` names a `scenarios.Sample` attribute: "X", "normal" or
    "mean_curvature".
    """
    sample = scenario.sample(grid_planes(quasi.grid.points_1d))
    return quasi.apply_to_values(getattr(sample, field))


def boundary_data(quasi, scenario):
    """Per-edge coefficients (4, n, 3) of the interpolated tangent and curvature.

    The data `FlowProblem.initialize` freezes, from one sample per edge.
    """
    edges = [scenario.sample(edge_points(k, quasi.grid.points_1d), k) for k in range(4)]
    return tuple(
        boundary_quasi_interp(quasi, np.stack([getattr(e, k) for e in edges], axis=1))
        for k in ("edge_tangent", "edge_curvature")
    )


def weighted_mass_stiffness(tables, geom, mass, stiffness):
    """mass M + stiffness A on the given geometry, both weights free, on
    the diagonals of the space: `assembly.assemble_mass_stiffness` is the
    case stiffness = 1."""
    wq = geom.weight
    s = stiffness * wq
    g = geom.metric_inv
    return tables.matrix(mass * wq, s * g[0], s * g[1], s * g[2])


def full_constraint(C, space):
    """The constraint S (n_B, 3 dim) as CSR: C = S_B^T, whose rows are
    boundary positions per component, widened to columns over all 3 dim
    vector coefficients stacked component-major, the layout of the dense
    and per-element references."""
    S_B = C.T.tocoo()
    B, dim = space.boundary_indices, space.dim
    cols = (B + dim * np.arange(3)[:, None]).ravel()
    return sp.csr_matrix((S_B.data, (S_B.row, cols[S_B.col])), shape=(len(B), 3 * dim))


def dense_conormal_load(problem, state, nq=24):
    """Edge integral of (kappa_b . nu)(nu x tau) b_i, nq Gauss points per element.

    A reference for `assembly.assemble_boundary_load` that shares none of
    its tables: each edge is evaluated point by point from its own
    univariate basis and from the full surface, with the interpolated
    tangent and curvature taken edge by edge from the per-edge coefficients.
    """
    space = problem.space
    tangent, curvature = boundary_data(problem.quasi, problem.scenario)
    NU = SplineField(space, state.nu)
    X = SplineField(space, state.x)
    uspace = space.factor  # every edge runs along it
    n = uspace.dim
    j = np.arange(n)
    edges = (  # tensor flat index of each trace basis function
        space.flat_index(j, 0),
        space.flat_index(n - 1, j),
        space.flat_index(j, n - 1),
        space.flat_index(0, j),
    )
    xg, wg = gauss_rule(nq)
    out = np.zeros((space.dim, 3))
    for edge, flat in enumerate(edges):
        run = 0 if edge in (0, 2) else 1
        h = uspace.mesh_size
        p1 = uspace.degree + 1
        tau_c, kap_c = tangent[edge], curvature[edge]
        for e in range(uspace.num_elements):
            s = e * h + xg * h
            first, ders = uspace.eval_basis(s)
            idx = first[:, None] + np.arange(p1)[None, :]
            tau = np.einsum("nk,nkd->nd", ders[:, 0, :], tau_c[idx])
            kap = np.einsum("nk,nkd->nd", ders[:, 0, :], kap_c[idx])
            pts = edge_points(edge, s).T
            nuv = NU.eval(pts)
            arc = np.linalg.norm(X.eval(pts, 1)[1][:, :, run], axis=1)
            alpha = np.einsum("nd,nd->n", kap, nuv)
            mu = np.cross(nuv, tau)
            vals = wg * h * arc * alpha
            for q in range(nq):
                rows = flat[first[q] + np.arange(p1)]
                out[rows] += vals[q] * ders[q, 0][:, None] * mu[q][None, :]
    return out


# -- the Enneper patch: a minimal surface with curved edges -------------------


def scenario_enneper(half_width=0.8, bump=0.0):
    """Enneper patch X(a, b) = (a - a^3/3 + ab^2, b - b^3/3 + ba^2, a^2 - b^2),
    plus bump * (sin pi u sin pi v)^3 in z.

    (a, b) = half_width (2u - 1, 2v - 1).  Without the bump the surface
    has H = 0 but |A|^2 != 0 and curved edges, so under the
    fixed-boundary flow it stays put with nu = n[X0]: an exact solution
    that exercises the reaction term, the conormal boundary load, the
    constraint and the Ritz projection.  The bump is the perturbed
    plane's: it vanishes with its first two derivatives on the boundary,
    so the boundary data stay Enneper's, the data are compatible
    (H = 0 on the boundary) and the flow tends to the Enneper patch.
    """
    c = 2.0 * half_width  # d(a)/du = d(b)/dv
    bumped = scenario_perturbed_plane(bump)

    def jet(pts):
        a, b = half_width * (2.0 * np.asarray(pts) - 1.0)
        X = np.stack([a - a**3 / 3 + a * b * b, b - b**3 / 3 + b * a * a, a * a - b * b])
        J = np.empty((2, 3) + a.shape)
        J[0] = c * np.stack([1 - a * a + b * b, 2 * a * b, 2 * a])
        J[1] = c * np.stack([2 * a * b, 1 - b * b + a * a, -2 * b])
        two = np.full_like(a, 2.0)
        H = np.empty((2, 2, 3) + a.shape)
        H[0, 0] = c * c * np.stack([-2 * a, 2 * b, two])
        H[0, 1] = c * c * np.stack([2 * b, 2 * a, 0 * a])
        H[1, 0] = H[0, 1]
        H[1, 1] = c * c * np.stack([2 * a, -2 * b, -two])
        if bump:
            Xb, Jb, Hb = bumped.jet(pts)
            X[2] += Xb[2]
            J[:, 2] += Jb[:, 2]
            H[:, :, 2] += Hb[:, :, 2]
        return X, J, H

    return Scenario(jet)


def _registered(monkeypatch, name, build):
    """Register `build` as scenario `name` for one test."""
    monkeypatch.setitem(SCENARIOS, name, ScenarioEntry(build, {}))
    return name


@pytest.fixture
def enneper(monkeypatch):
    """The Enneper patch of half-width 0.8, registered as a scenario."""
    return _registered(monkeypatch, "enneper", scenario_enneper)


@pytest.fixture
def perturbed_enneper(monkeypatch):
    """The Enneper patch of half-width 0.5 with the bump 0.05 (sin pi u
    sin pi v)^3 in z, registered as a scenario."""
    return _registered(
        monkeypatch, "perturbed_enneper", lambda: scenario_enneper(0.5, 0.05)
    )
