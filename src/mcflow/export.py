"""Diagnostics CSV and VTK surface snapshots.

The CSV uses a fixed header and 17-significant-digit formatting, enough
for float64 round trips, so two identical runs produce byte-identical
files in every column except the wallclock.  VTK snapshots sample the
spline surface on a uniform parametric grid and write an unstructured
quad mesh with point data for curvature, normal and velocity, as
legacy ASCII VTK.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CSV_HEADER = "t,area,max_abs_kappa,constraint_residual,solver_residual,wallclock_s"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_diagnostics_csv(diagnostics, path):
    """Write per-step diagnostics rows; returns the path."""
    path = Path(path)
    lines = [CSV_HEADER]
    for d in diagnostics:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    d.time,
                    d.area,
                    d.max_abs_kappa,
                    d.constraint_residual,
                    d.solver_residual,
                    d.wallclock,
                )
            )
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_diagnostics_csv(path):
    """Rows as a dict of numpy arrays keyed by column name."""
    text = Path(path).read_text().strip().splitlines() or [""]  # empty: no header
    header = text[0].split(",")
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header {text[0]!r}")
    data = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    data = data.reshape(-1, len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _sample_grid(problem, state, resolution: int):
    """Surface fields on a uniform (r*N+1)^2 parametric grid."""
    from .splines import TensorGrid

    n = problem.cfg.elements_per_side * resolution + 1
    g = np.linspace(0.0, 1.0, n)
    fields = np.column_stack([state.x, state.kappa, state.nu, state.v])
    values = TensorGrid(problem.space, g, g).eval(fields)
    pos, kap, nu, vel = values[:, :3], values[:, 3], values[:, 4:7], values[:, 7:]

    quads = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            quads.append((a, a + n, a + n + 1, a + 1))
    return pos, kap, nu, vel, np.array(quads, dtype=int)


def export_vtk(problem, state, path, resolution: int = 2):
    """Write a legacy VTK snapshot of the surface with its field data."""
    pos, kap, nu, vel, quads = _sample_grid(problem, state, resolution)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_legacy_vtk(path, pos, kap, nu, vel, quads)
    return path


def _write_legacy_vtk(path, pos, kap, nu, vel, quads):
    npts = len(pos)
    ncell = len(quads)
    out = [
        "# vtk DataFile Version 3.0",
        "mcflow surface snapshot",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {npts} double",
    ]
    out += [" ".join(_fmt(c) for c in p) for p in pos]
    out.append(f"CELLS {ncell} {5 * ncell}")
    out += ["4 " + " ".join(str(i) for i in q) for q in quads]
    out.append(f"CELL_TYPES {ncell}")
    out += ["9"] * ncell
    out.append(f"POINT_DATA {npts}")
    out.append("SCALARS kappa double 1")
    out.append("LOOKUP_TABLE default")
    out += [_fmt(k) for k in kap]
    out.append("VECTORS nu double")
    out += [" ".join(_fmt(c) for c in p) for p in nu]
    out.append("VECTORS velocity double")
    out += [" ".join(_fmt(c) for c in p) for p in vel]
    Path(path).write_text("\n".join(out) + "\n")
