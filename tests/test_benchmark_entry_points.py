"""The benchmark's workloads still run on this program and pass their checks.

`perfbench/workloads.py` calls the CLI, `flow.run` and
`convergence_study`, and reads what they return (`final_state.x`,
`problem.x0_boundary`, `result.snapshots`, the diagnostics CSV and the
VTK snapshots).  Each workload's `tiny()` variant runs here untraced on
a 4x4 mesh, so a change to any of those reads fails a test instead of
a benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_passes_its_check(name, tmp_path):
    """The tiny run is its own reference, which checks the per-step
    invariants and the fixed boundary; a two-step study on levels 2, 4, 8
    is too coarse for the order gate, so `eoc_h1` is not checked."""
    workload = workloads.WORKLOADS[name].tiny()
    out = workload.execute(tmp_path).output
    problems = workload.check(out, workload.reference_of(out))
    assert [p for p in problems if not p.startswith("eoc_h1")] == []
