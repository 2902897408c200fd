"""Surface geometry of spline fields: evaluation, metric, area."""

from __future__ import annotations

import numpy as np
import pytest

from mcflow.assembly import BoundaryTables, ElementGeometry, MeshTables, weingarten_energy
from mcflow.geometry import DegenerateSurface, SplineField, metric_pieces, surface_area
from mcflow.scenarios import get_scenario
from mcflow.splines import build_quasi_interpolant, build_space, edge_points
from tests.conftest import grid_planes, interpolate


@pytest.fixture(scope="module")
def sphere_surface():
    """Quasi-interpolated sphere patch, p=2, N=16."""
    space = build_space(2, 1, 16)
    quasi = build_quasi_interpolant(space)
    sc = get_scenario("sphere_patch")
    return sc, SplineField(space, interpolate(quasi, sc))


def test_field_shape_validation(space_small):
    with pytest.raises(ValueError):
        SplineField(space_small, np.zeros(space_small.dim + 1))


def test_eval_derivatives_match_finite_differences(space_small, rng):
    coeffs = rng.normal(size=(space_small.dim, 3))
    fld = SplineField(space_small, coeffs)
    pts = rng.uniform(0.2, 0.8, size=(20, 2))
    vals, jac = fld.eval(pts, 1)
    eps = 1e-6
    for a in range(2):
        d = np.zeros(2)
        d[a] = eps
        vp = fld.eval(pts + d)
        vm = fld.eval(pts - d)
        assert np.abs((vp - vm) / (2 * eps) - jac[:, :, a]).max() < 1e-6


def test_eval_edge_matches_full_eval(space_small, rng):
    """Boundary traces and their running derivatives equal the full field's."""
    coeffs = rng.normal(size=(space_small.dim, 3))
    fld = SplineField(space_small, coeffs)
    bt = BoundaryTables(space_small, 5)
    on_edges = coeffs[space_small.edge_indices]
    vals = bt.trace(on_edges)
    dtang = bt.trace(on_edges, deriv=True)
    for edge in range(4):
        full, jac = fld.eval(edge_points(edge, bt.points_1d).T, 1)
        run = 0 if edge in (0, 2) else 1
        assert np.abs(vals[:, edge] - full.T).max() < 1e-13
        assert np.abs(dtang[:, edge] - jac[:, :, run].T).max() < 1e-12


def test_flat_square_geometry():
    """X(u,v) = (2u-1, 2v-1, 0): inverse metric I/4, area element 4, area 4."""
    space = build_space(2, 1, 4)
    quasi = build_quasi_interpolant(space)
    sc = get_scenario("perturbed_plane", amplitude=0.0)
    x = interpolate(quasi, sc)
    tables = MeshTables(space, 3)
    geom = ElementGeometry(tables, x)
    g00, g01, g11 = geom.metric_inv
    assert np.allclose(g00, 0.25, atol=1e-13) and np.allclose(g11, 0.25, atol=1e-13)
    assert np.allclose(g01, 0.0, atol=1e-13)
    assert np.abs(geom.area_element - 4.0).max() < 1e-12
    assert abs(surface_area(x, tables) - 4.0) < 1e-12


def test_surface_gradient_tangential_and_exact():
    """grad_Gamma of linear ambient functions restricted to the flat square.

    `weingarten_energy` pushes the parametric gradients forward with
    J G^{-1}; for f = (3x - 2y, x + 4y) the surface gradients are the rows
    (3, -2, 0) and (1, 4, 0), so |grad_Gamma f|^2 = 30 at every point.
    """
    space = build_space(2, 1, 5)
    quasi = build_quasi_interpolant(space)
    sc = get_scenario("perturbed_plane", amplitude=0.0)
    x = interpolate(quasi, sc)

    def f(p):
        xs, ys = 2 * p[0] - 1, 2 * p[1] - 1
        return np.stack([3.0 * xs - 2.0 * ys, xs + 4.0 * ys])

    tables = MeshTables(space, 3)
    f_coeffs = quasi.apply_to_values(f(grid_planes(quasi.grid.points_1d)))
    geom = ElementGeometry(tables, x, f_coeffs.T, num_jac=2)
    frob2 = weingarten_energy(geom)
    assert np.abs(frob2 - 30.0).max() < 1e-11


def test_surface_area_converges_to_analytic(sphere_surface):
    from mcflow.scenarios import SPHERE_EXTENT
    from tests.calibration import sphere_patch_area

    sc, _ = sphere_surface
    exact = sphere_patch_area(SPHERE_EXTENT)
    errs = []
    for N in (8, 16, 32):
        space = build_space(2, 1, N)
        quasi = build_quasi_interpolant(space)
        x = interpolate(quasi, sc)
        errs.append(abs(surface_area(x, MeshTables(space, 3)) - exact))
    # area error of the interpolated surface decays at order p + 1
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[2] > 2.0 ** 2.5


def test_degenerate_surface_raises(space_small):
    x = np.zeros((space_small.dim, 3))
    with pytest.raises(DegenerateSurface):
        surface_area(x, MeshTables(space_small, 3))


def test_nan_metric_raises():
    """A Jacobian with a NaN entry has no metric; it must not give NaN areas."""
    J = np.tile(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), (4, 1, 1))
    J[2, 0, 1] = np.nan
    with pytest.raises(DegenerateSurface):
        metric_pieces(J[:, :, 0].T, J[:, :, 1].T)
