"""The block writers of `mcflow.export` give the bytes of value-by-value formatting.

The oracle below is the writer they replaced: every value goes through
its own `format(float(v), ".17g")` call and every cell is built in a
Python loop.  The CSV and the VTK snapshot must equal its bytes on a
real run and on values that stress the formatting (nan, +-inf, -0.0,
the smallest subnormal and numbers near the float64 range).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from mcflow.config import ScenarioConfig
from mcflow.export import (
    CSV_HEADER,
    _sample_grid,
    _write_legacy_vtk,
    export_vtk,
    write_diagnostics_csv,
)
from mcflow.flow import FlowProblem, FlowState, StepDiagnostics

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 1e17, 1 / 3, -2.5e-308]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def oracle_csv(diagnostics, path):
    lines = [CSV_HEADER]
    for d in diagnostics:
        values = (
            d.time,
            d.area,
            d.max_abs_kappa,
            d.constraint_residual,
            d.solver_residual,
            d.wallclock,
        )
        lines.append(",".join(_fmt(v) for v in values))
    Path(path).write_text("\n".join(lines) + "\n")


def oracle_quads(n):
    quads = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            quads.append((a, a + n, a + n + 1, a + 1))
    return np.array(quads, dtype=int)


def oracle_vtk(path, pos, kap, nu, vel, quads):
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


def oracle_export(problem, state, path):
    pos, kap, nu, vel, _ = _sample_grid(problem, state)
    n = problem.cfg.elements_per_side * 2 + 1
    oracle_vtk(path, pos, kap, nu, vel, oracle_quads(n))


@pytest.fixture(scope="module")
def tiny_sphere():
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=4,
        dt=0.01,
        t_final=0.03,
        snapshot_stride=1,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    return prob, prob.run()


def test_vtk_bytes_match_oracle_on_a_run(tiny_sphere, tmp_path):
    prob, res = tiny_sphere
    for k, state in res.snapshots + [(-1, res.final_state)]:
        got = export_vtk(prob, state, tmp_path / f"got_{k}.vtk")
        oracle_export(prob, state, tmp_path / f"want_{k}.vtk")
        assert got.read_bytes() == (tmp_path / f"want_{k}.vtk").read_bytes()


def test_csv_bytes_match_oracle_on_a_run(tiny_sphere, tmp_path):
    _, res = tiny_sphere
    write_diagnostics_csv(res.diagnostics, tmp_path / "got.csv")
    oracle_csv(res.diagnostics, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_bytes_match_oracle_without_rows(tmp_path):
    write_diagnostics_csv([], tmp_path / "got.csv")
    oracle_csv([], tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_vtk_bytes_match_oracle_on_special_values(tmp_path, rng):
    n = 5
    values = np.array(SPECIAL * 20)[: n * n * 10]
    rng.shuffle(values)
    pos, kap, nu, vel = (
        values[: 3 * n * n].reshape(-1, 3),
        values[3 * n * n : 4 * n * n],
        values[4 * n * n : 7 * n * n].reshape(-1, 3),
        values[7 * n * n :].reshape(-1, 3),
    )
    quads = oracle_quads(n)
    _write_legacy_vtk(tmp_path / "got.vtk", pos, kap, nu, vel, quads)
    oracle_vtk(tmp_path / "want.vtk", pos, kap, nu, vel, quads)
    got = (tmp_path / "got.vtk").read_bytes()
    assert got == (tmp_path / "want.vtk").read_bytes()
    tokens = set(got.split())
    for text in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1e+17"):
        assert text.encode() in tokens


def test_vtk_bytes_match_oracle_on_a_special_state(tiny_sphere, tmp_path):
    """A state whose coefficients hold nan, inf and subnormals, through `export_vtk`."""
    prob, res = tiny_sphere
    final = res.final_state
    fields = tuple(a.copy() for a in (final.x, final.kappa, final.nu, final.v))
    state = FlowState(final.time, *fields)
    for field, value in zip(fields, (np.nan, np.inf, 5e-324, -1e300)):
        field.flat[7] = value
    with np.errstate(invalid="ignore"):  # nan and inf spread through the grid products
        got = export_vtk(prob, state, tmp_path / "got.vtk")
        oracle_export(prob, state, tmp_path / "want.vtk")
    assert got.read_bytes() == (tmp_path / "want.vtk").read_bytes()


def test_csv_bytes_match_oracle_on_special_values(tmp_path):
    rows = [
        StepDiagnostics(
            time=SPECIAL[i],
            area=SPECIAL[-1 - i],
            max_abs_kappa=SPECIAL[(3 * i) % len(SPECIAL)],
            constraint_residual=SPECIAL[(5 * i + 1) % len(SPECIAL)],
            solver_residual=SPECIAL[(7 * i + 2) % len(SPECIAL)] if i % 3 else 0.0,
            wallclock=SPECIAL[(i + 4) % len(SPECIAL)],
        )
        for i in range(len(SPECIAL))
    ]
    write_diagnostics_csv(rows, tmp_path / "got.csv")
    oracle_csv(rows, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_vtk_points_read_back_bit_for_bit(tiny_sphere, tmp_path):
    prob, res = tiny_sphere
    path = export_vtk(prob, res.final_state, tmp_path / "s.vtk")
    lines = path.read_text().splitlines()
    start = lines.index("POINTS 81 double") + 1
    points = np.array([[float(c) for c in line.split()] for line in lines[start : start + 81]])
    want = _sample_grid(prob, res.final_state)[0]  # what export_vtk writes
    assert points.shape == want.shape
    assert np.array_equal(points.view(np.int64), want.view(np.int64))
