"""Measure self-convergence orders of the flow on nested meshes.

Runs the perturbed-plane relaxation to a short final time on a mesh
hierarchy, compares each level against the finest in the H1 and L2
norms, and prints the fitted orders for the position, the mean
curvature, the normal and the velocity.  With quadratic C^1 splines the
H1 orders sit near 2.
"""

from mcflow.config import ScenarioConfig
from mcflow.convergence import convergence_study

base = ScenarioConfig(
    scenario="perturbed_plane",
    degree=2,
    smoothness=1,
    elements_per_side=4,
    dt=0.0125,
    t_final=0.05,
    output_dir="",
)

report = convergence_study(base, [4, 8, 16, 32], t_final=0.05)

print(f"levels: {report.levels}")
for var in ("position", "kappa", "nu", "velocity"):
    h1 = "  ".join(f"{e:.3e}" for e in report.errors_h1[var])
    print(f"{var:9s} H1 errors: {h1}")
    print(
        f"{var:9s} fitted order: H1 {report.eoc_h1[var]:.3f}, "
        f"L2 {report.eoc_l2[var]:.3f}"
    )
