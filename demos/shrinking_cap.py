"""Shrink a spherical patch toward the minimal surface of its boundary.

The initial surface is a patch of the unit sphere around the north pole
(slightly tempered toward the parameter corners), area 5.859.  Under
mean curvature flow with the boundary curve pinned, the cap flattens
and the area drops toward that of the minimal surface spanning the
fixed boundary.  The surface normal is evolved alongside the position
and its weak tangential trace is monitored as a constraint residual.
"""

from mcflow.config import ScenarioConfig
from mcflow.flow import run

cfg = ScenarioConfig(
    scenario="sphere_patch",
    degree=2,
    smoothness=1,
    elements_per_side=12,
    dt=0.0125,
    t_final=0.6,
    snapshot_stride=8,
    output_dir="out_cap",
)

result = run(cfg)

for d in result.diagnostics[::8]:
    print(
        f"t = {d.time:6.4f}   area = {d.area:.6f}   "
        f"tangential trace = {d.constraint_residual:.2e}"
    )

# the cap passes very close to the minimal surface; at coarse step
# sizes the linearly implicit reaction terms can make the area record
# bounce slightly once it bottoms out (halve dt to suppress this)
areas = [d.area for d in result.diagnostics]
print(f"area: {areas[0]:.6f} initial, {min(areas):.6f} minimum, "
      f"{areas[-1]:.6f} final")
print(f"wrote diagnostics.csv and {len(result.snapshots)} snapshots to {cfg.output_dir}/")
