"""Diagnostics CSV and VTK surface snapshots.

The CSV uses a fixed header and 17-significant-digit formatting, enough
for float64 round trips, so two identical runs produce byte-identical
files in every column except the wallclock.  VTK snapshots sample the
spline surface on a uniform parametric grid of 2N + 1 points per side,
two per element and side plus the last, a `splines.TensorGrid`
whose planes the writer reads as point-major views, and write an
unstructured quad mesh with point data for curvature, normal and
velocity, as legacy ASCII VTK.

Each section (the CSV rows, the POINTS, CELLS, kappa, nu and velocity
blocks) is formatted as one block by `_format_rows`: a single `%` over
a template holding one `%.17g` per value.  For every float64, nan, inf
and -0.0 included, `"%.17g" % v` is `format(v, ".17g")`, so the bytes
are those of formatting value by value, in a fraction of the time.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .splines import TensorGrid

CSV_HEADER = "t,area,max_abs_kappa,constraint_residual,solver_residual,wallclock_s"


def _format_rows(a, fmt="%.17g", sep=" "):
    """The rows of `a` (n[, k]) as n lines of k `fmt` values joined by `sep`.

    One `%` formats the whole block; an empty `a` gives "".
    """
    a = np.asarray(a)
    rows = a if a.ndim == 2 else a[:, None]
    line = sep.join([fmt] * rows.shape[1])
    return "\n".join([line] * len(rows)) % tuple(rows.ravel().tolist())


def _write_lines(path, lines):
    """Write the non-empty `lines`, each ended by a newline."""
    Path(path).write_text("\n".join(filter(None, lines)) + "\n")


def write_diagnostics_csv(diagnostics, path):
    """Write per-step diagnostics rows into an existing directory; returns
    the path."""
    path = Path(path)
    rows = np.array(
        [
            (d.time, d.area, d.max_abs_kappa, d.constraint_residual, d.solver_residual, d.wallclock)
            for d in diagnostics
        ],
        dtype=float,
    ).reshape(-1, 6)
    _write_lines(path, [CSV_HEADER, _format_rows(rows, sep=",")])
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


def _sample_grid(problem, state):
    """Surface fields on a uniform (2N + 1)^2 parametric grid."""
    n = 2 * problem.cfg.elements_per_side + 1
    grid = TensorGrid(problem.space, np.linspace(0.0, 1.0, n))
    rows = np.concatenate([state.x.T, state.kappa[None], state.nu.T, state.v.T])
    planes = grid.evaluate(rows)[0].reshape(len(rows), -1)  # point-major columns
    pos, kap, nu, vel = planes[:3].T, planes[3], planes[4:7].T, planes[7:].T

    # cell (i, j) has corners a, a + n, a + n + 1, a + 1 with a = i n + j
    a = (np.arange(n - 1)[:, None] * n + np.arange(n - 1)).ravel()
    quads = a[:, None] + np.array([0, n, n + 1, 1])
    return pos, kap, nu, vel, quads


def export_vtk(problem, state, path):
    """Write a legacy VTK snapshot of the surface with its field data into
    an existing directory; returns the path."""
    pos, kap, nu, vel, quads = _sample_grid(problem, state)
    path = Path(path)
    _write_legacy_vtk(path, pos, kap, nu, vel, quads)
    return path


def _write_legacy_vtk(path, pos, kap, nu, vel, quads):
    npts = len(pos)
    ncell = len(quads)
    cells = np.column_stack([np.full(ncell, 4), quads])
    _write_lines(
        path,
        [
            "# vtk DataFile Version 3.0",
            "mcflow surface snapshot",
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            f"POINTS {npts} double",
            _format_rows(pos),
            f"CELLS {ncell} {5 * ncell}",
            _format_rows(cells, "%d"),
            f"CELL_TYPES {ncell}",
            "\n".join(["9"] * ncell),
            f"POINT_DATA {npts}",
            "SCALARS kappa double 1",
            "LOOKUP_TABLE default",
            _format_rows(kap),
            "VECTORS nu double",
            _format_rows(nu),
            "VECTORS velocity double",
            _format_rows(vel),
        ],
    )
