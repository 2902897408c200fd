"""Re-derivation of the two scenario constants from their area targets.

`scenarios.PLANE_AMPLITUDE` and `scenarios.SPHERE_EXTENT` ship as
numbers.  The functions here re-derive each by bisection on an area:
the bump height whose interpolated plane has area `PLANE_AREA_TARGET`,
and the half-width of the sphere patch whose analytic area is
`SPHERE_AREA_TARGET`.  The calibration tests of `tests/test_scenarios.py`
check the shipped constants against them, and `sphere_patch_area` is
the exact area of the geometry tests.
"""

from __future__ import annotations

import numpy as np

from mcflow.assembly import MeshTables
from mcflow.geometry import cross3, dot, surface_area
from mcflow.scenarios import scenario_perturbed_plane, scenario_sphere_patch
from mcflow.splines import build_quasi_interpolant, build_space, gauss_rule

PLANE_AREA_TARGET = 4.0442
SPHERE_AREA_TARGET = 5.859


def _bisect(f, lo, hi, target):
    """The point of [lo, hi] where increasing f crosses `target`, to 1e-12."""
    assert f(lo) < target < f(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sphere_patch_area(extent: float) -> float:
    """Analytic area of the sphere patch of half-width `extent`, corner
    temper SPHERE_CORNER_TEMPER, by the 60-point Gauss rule squared."""
    sc = scenario_sphere_patch(extent)
    x, w = gauss_rule(60)
    raw = cross3(*sc.jet(np.meshgrid(x, x, indexing="ij"))[1])
    dens = np.sqrt(dot(raw, raw))
    return float(np.sum(np.outer(w, w) * dens))


def calibrate_sphere_extent() -> float:
    """Half-width of the sphere patch whose analytic area is SPHERE_AREA_TARGET."""
    return _bisect(sphere_patch_area, 0.5, 2.0, SPHERE_AREA_TARGET)


def calibrate_plane_amplitude() -> float:
    """Bump height whose interpolated surface has area PLANE_AREA_TARGET.

    The area is measured on the quasi-interpolated surface at the
    reference mesh, N = 20, p = 2, C^1, with the standard assembly
    quadrature, which is what a flow run reports at t = 0.
    """
    space = build_space(2, 1, 20)
    Q = build_quasi_interpolant(space)
    tables = MeshTables(space, 3)
    pts = np.meshgrid(Q.grid.points_1d, Q.grid.points_1d, indexing="ij")

    def area_of(a):
        sc = scenario_perturbed_plane(a)
        return surface_area(Q.apply_to_values(sc.jet(pts)[0]), tables)

    return _bisect(area_of, 0.0, 1.0, PLANE_AREA_TARGET)
