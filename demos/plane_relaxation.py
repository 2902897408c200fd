"""Relax a bumped square patch back to the flat plane.

The initial surface is a [-1, 1]^2 graph with a smooth interior bump,
calibrated so the surface area is 4.0442.  Mean curvature flow with the
boundary held fixed removes the bump; the area record decreases toward
the flat-square value 4 and the maximal discrete curvature decays.
"""

from pathlib import Path

from mcflow.config import ScenarioConfig
from mcflow.flow import run

cfg = ScenarioConfig(
    scenario="perturbed_plane",
    degree=2,
    smoothness=1,
    elements_per_side=12,
    dt=0.005,
    t_final=0.4,
    snapshot_stride=20,
    output_dir="out_plane",
)

result = run(cfg)

# --- area and curvature record ---
for d in result.diagnostics[::16]:
    print(
        f"t = {d.time:6.3f}   area = {d.area:.8f}   "
        f"max|kappa| = {d.max_abs_kappa:.3e}"
    )
final = result.diagnostics[-1]
print(f"final area {final.area:.8f} (flat square: 4), "
      f"area removed {result.diagnostics[0].area - final.area:.6f}")

# the run wrote the per-step diagnostics and the snapshots at steps
# 0, 20, ..., 80, the first and last of them the surfaces at both ends
names = sorted(p.name for p in Path(cfg.output_dir).iterdir())
print(f"wrote {', '.join(names)} to {cfg.output_dir}/")
