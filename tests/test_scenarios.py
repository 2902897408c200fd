"""Analytic initial surfaces: derivatives, invariants, calibration."""

from __future__ import annotations

import numpy as np
import pytest

from mcflow.scenarios import (
    PLANE_AMPLITUDE,
    SCENARIOS,
    SPHERE_EXTENT,
    _sinc_family,
    get_scenario,
    scenario_sphere_patch,
)
from mcflow.splines import EDGE_FIXED_COORD, EDGE_OUTWARD, edge_points
from tests.calibration import (
    PLANE_AREA_TARGET,
    SPHERE_AREA_TARGET,
    calibrate_plane_amplitude,
    calibrate_sphere_extent,
    sphere_patch_area,
)
from tests.conftest import grid_planes, interior_grid, scenario_enneper


@pytest.fixture(scope="module", params=["perturbed_plane", "sphere_patch"])
def scenario(request):
    return get_scenario(request.param)


# -- the jet contract ----------------------------------------------------------

JETS = {name: entry.build for name, entry in SCENARIOS.items()}
JETS["enneper"] = scenario_enneper
JETS["perturbed_enneper"] = lambda: scenario_enneper(0.5, 0.05)


@pytest.mark.parametrize("name", JETS)
def test_jet_is_component_first(name):
    """At points (2, m, m), planes of a tensor grid, the jet is planes too:
    X (3, m, m), J (2, 3, m, m) and H (2, 2, 3, m, m), with a symmetric
    H; at a point list (2, n) it is the same values, (3, n) and so on."""
    planes = grid_planes(np.linspace(0.0, 1.0, 5))
    jet = JETS[name]().jet
    X, J, H = jet(planes)
    assert X.shape == (3, 5, 5)
    assert J.shape == (2, 3, 5, 5)
    assert H.shape == (2, 2, 3, 5, 5)
    assert np.array_equal(H[0, 1], H[1, 0])
    for got, want in zip(jet(planes.reshape(2, -1)), (X, J, H)):
        assert np.array_equal(got, want.reshape(want.shape[:-2] + (-1,)))


# -- derivative consistency --------------------------------------------------


def test_jacobian_matches_finite_differences(scenario):
    pts = interior_grid(9, margin=0.02)
    J = scenario.sample(pts).J
    eps = 1e-6
    for a in range(2):
        d = np.zeros((2, 1))
        d[a] = eps
        fd = (scenario.sample(pts + d).X - scenario.sample(pts - d).X) / (2 * eps)
        assert np.abs(J[a] - fd).max() < 1e-8


def test_hessian_matches_finite_differences(scenario):
    pts = interior_grid(9, margin=0.02)
    H = scenario.sample(pts).H
    eps = 1e-5
    for a in range(2):
        d = np.zeros((2, 1))
        d[a] = eps
        fd = (scenario.sample(pts + d).J - scenario.sample(pts - d).J) / (2 * eps)
        assert np.abs(H[:, a] - fd).max() < 1e-6


def test_sample_normal_and_curvature_match_the_replaced_formulas(scenario):
    """The normal, its Jacobian and the mean curvature, formed by components
    from one cross product, against the `np.cross` and `np.einsum`
    formulas they replaced."""
    sample = scenario.sample(interior_grid(9, margin=0.0))
    J, H = sample.J, sample.H
    raw = np.cross(J[0], J[1], axis=0)
    norm = np.linalg.norm(raw, axis=0)
    nu = raw / norm
    Jn = np.empty_like(J)
    for a in range(2):
        draw = np.cross(H[0, a], J[1], axis=0) + np.cross(J[0], H[1, a], axis=0)
        Jn[a] = (draw - nu * np.sum(nu * draw, axis=0)) / norm
    nu, Jn = sample.normal_sign * nu, sample.normal_sign * Jn
    Ginv = np.linalg.inv(np.einsum("adn,bdn->nab", J, J))
    kappa = np.einsum("adn,nab,bdn->n", Jn, Ginv, J)
    for got, want in (
        (sample.normal, nu),
        (sample.normal_jacobian, Jn),
        (sample.mean_curvature, kappa),
    ):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_normal_jacobian_matches_finite_differences(scenario):
    pts = interior_grid(7, margin=0.05)
    Jn = scenario.sample(pts).normal_jacobian
    eps = 1e-6
    for a in range(2):
        d = np.zeros((2, 1))
        d[a] = eps
        fd = (scenario.sample(pts + d).normal - scenario.sample(pts - d).normal) / (
            2 * eps
        )
        assert np.abs(Jn[a] - fd).max() < 1e-7


def test_boundary_curvature_matches_tangent_derivative(scenario):
    """kappa_b is the arclength derivative of the unit edge tangent.

    The raw (unoriented) tangent is used: the curvature vector does not
    depend on the traversal direction, but differentiating the oriented
    tangent would flip its sign on reversed edges.
    """
    s = np.linspace(0.1, 0.9, 15)
    eps = 1e-6

    def unit_tangent(edge, sv):
        c1 = scenario.sample(edge_points(edge, sv)).J[1 - EDGE_FIXED_COORD[edge]]
        return c1 / np.linalg.norm(c1, axis=0)

    for edge in range(4):
        on_edge = scenario.sample(edge_points(edge, s), edge)
        kap = on_edge.edge_curvature
        speed = on_edge.edge_speed
        fd = (unit_tangent(edge, s + eps) - unit_tangent(edge, s - eps)) / (2 * eps)
        assert np.abs(kap - fd / speed).max() < 1e-7


# -- perturbed plane ---------------------------------------------------------


def test_plane_boundary_is_straight():
    sc = get_scenario("perturbed_plane")
    s = np.linspace(0.0, 1.0, 21)
    for edge in range(4):
        on_edge = sc.sample(edge_points(edge, s), edge)
        assert np.abs(on_edge.edge_curvature).max() < 1e-13
        assert np.abs(on_edge.X[2]).max() < 1e-15


def test_plane_compatible_initial_curvature():
    """Mean curvature vanishes on the boundary (zero-trace compatibility)."""
    sc = get_scenario("perturbed_plane")
    s = np.linspace(0.0, 1.0, 21)
    for edge in range(4):
        assert np.abs(sc.sample(edge_points(edge, s)).mean_curvature).max() < 1e-12
    assert np.abs(sc.sample(interior_grid(7)).mean_curvature).max() > 0.1


def test_plane_amplitude_is_calibrated():
    assert abs(calibrate_plane_amplitude() - PLANE_AMPLITUDE) < 1e-9
    assert PLANE_AREA_TARGET == 4.0442


# -- sphere patch ------------------------------------------------------------


def test_sinc_family_branches_agree_at_the_switch():
    """The series below rho = 1e-2 and the closed forms from there on
    meet to 1e-15, 1e-13 and 1e-9 relative in g, g1 and g2 (g2's closed
    form cancels), and the series is exact at rho = 0."""
    below, at = np.nextafter(1e-2, 0.0), 1e-2
    g, g1, g2, h, h1, h2 = _sinc_family(np.array([below, at]))
    for values, tol in ((g, 1e-15), (g1, 1e-13), (g2, 1e-9), (h, 1e-15)):
        assert abs(values[0] - values[1]) <= tol * abs(values[1])
    assert np.array_equal(h1, -0.5 * g) and np.array_equal(h2, -0.5 * g1)
    g, g1, _, h, _, _ = _sinc_family(np.zeros(1))
    assert g[0] == h[0] == 1.0
    assert g1[0] == -1.0 / 6.0


def test_sphere_patch_lies_on_unit_sphere():
    sc = get_scenario("sphere_patch")
    pts = interior_grid(21, margin=0.0)
    sample = sc.sample(pts)
    X = sample.X
    assert np.abs(np.linalg.norm(X, axis=0) - 1.0).max() < 1e-13
    # inward normal: nu = -X
    assert np.abs(sample.normal + X).max() < 1e-12


def test_sphere_patch_mean_curvature_is_minus_two():
    sc = get_scenario("sphere_patch")
    pts = interior_grid(21, margin=0.0)
    assert np.abs(sc.sample(pts).mean_curvature + 2.0).max() < 1e-11


def test_sphere_patch_second_fundamental_form_energy():
    """|A|^2 = tr(W^2) = 2 for the unit sphere."""
    sc = get_scenario("sphere_patch")
    pts = interior_grid(11, margin=0.0)
    sample = sc.sample(pts)
    J, Jn = sample.J, sample.normal_jacobian
    G = np.einsum("adn,bdn->nab", J, J)
    B = np.einsum("adn,bdn->nab", Jn, J)
    W = np.linalg.solve(G, B)
    frob2 = np.einsum("nab,nba->n", W, W)
    assert np.abs(frob2 - 2.0).max() < 1e-11


def test_sphere_patch_symmetry():
    """The patch is symmetric under the dihedral group of the square."""
    sc = get_scenario("sphere_patch")
    pts = interior_grid(7, margin=0.1)
    X = sc.sample(pts).X
    refl = sc.sample(np.stack([1.0 - pts[0], pts[1]])).X
    assert np.abs(refl[0] + X[0]).max() < 1e-14
    assert np.abs(refl[1:] - X[1:]).max() < 1e-14
    swap = sc.sample(pts[::-1]).X
    assert np.abs(swap - X[[1, 0, 2]]).max() < 1e-14


def test_sphere_extent_is_calibrated():
    assert abs(calibrate_sphere_extent() - SPHERE_EXTENT) < 1e-9
    area = sphere_patch_area(SPHERE_EXTENT)
    assert abs(area - SPHERE_AREA_TARGET) < 1e-10


def test_sphere_patch_parameter_validation():
    with pytest.raises(ValueError):
        scenario_sphere_patch(extent=0.0)
    with pytest.raises(ValueError):
        scenario_sphere_patch(extent=np.pi)
    # at temper = 1/3 the corner Jacobian of the plane map degenerates
    with pytest.raises(ValueError):
        scenario_sphere_patch(temper=1.0 / 3.0)
    with pytest.raises(ValueError):
        scenario_sphere_patch(temper=-0.01)
    scenario_sphere_patch(temper=0.0)  # untempered map is legal


def test_corner_temper_keeps_map_injective():
    """Jacobian determinant of the calibrated map stays positive at the corner."""
    sc = get_scenario("sphere_patch")
    corner = np.array([[1e-9, 1e-9], [0.5, 0.5], [1.0 - 1e-9, 1.0 - 1e-9]]).T
    J = sc.sample(corner).J
    G = np.einsum("adn,bdn->nab", J, J)
    assert np.linalg.det(G).min() > 1e-4


# -- orientation and registry ------------------------------------------------


def test_boundary_tangent_orientation(scenario):
    """nu x tau is the outward conormal: it points out of the surface."""
    s = np.linspace(0.05, 0.95, 9)
    eps = 1e-6

    for edge in range(4):
        pts = edge_points(edge, s)
        on_edge = scenario.sample(pts, edge)
        tau = on_edge.edge_tangent
        assert np.abs(np.linalg.norm(tau, axis=0) - 1.0).max() < 1e-12
        mu = np.cross(on_edge.normal, tau, axis=0)
        # step outward in the parametric domain; X moves along +mu
        step = pts + eps * np.array(EDGE_OUTWARD[edge])[:, None]
        dX = scenario.sample(step).X - on_edge.X
        assert np.einsum("dn,dn->n", mu, dX).min() > 0.0


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        get_scenario("helicoid")
