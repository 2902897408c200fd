"""Tests of the benchmark itself: span arithmetic, patch restoration, output checks.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import env  # noqa: E402

env.prepare()

import json  # noqa: E402
import random  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _tree():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 3.0, root)
    b = Span("b", 4.0, 6.0, root)
    leaf = Span("leaf", 1.5, 2.5, a)
    return [leaf, a, b, root]


def test_self_time_subtracts_the_direct_children():
    spans = _tree()
    own = tracing.self_times(spans)
    leaf, a, b, root = spans
    assert own[id(root)] == pytest.approx(6.0)
    assert own[id(a)] == pytest.approx(1.0)
    assert own[id(b)] == pytest.approx(2.0)
    assert own[id(leaf)] == pytest.approx(1.0)


def test_error_time_is_the_study_minus_its_flow_runs():
    study = Span("convergence.study", 0.0, 1.0)
    spans = [study]
    for k in range(2):
        t = 0.3 * k
        init = Span("flow.problem_init", t, t + 0.1, study)
        run = Span("flow.run", t + 0.1, t + 0.25, study)
        spans += [init, run, Span("flow.step", t + 0.15, t + 0.2, run, {"dim": 10})]
    spans.append(Span("geometry.eval", 0.7, 0.9, study))
    m = tracing.layer_metrics(spans)
    assert m["convergence.error_ms"] == pytest.approx(1e3 * (1.0 - 2 * 0.25))


def test_layer_metrics_of_a_hand_built_step():
    run = Span("flow.run", 0.0, 0.100)
    spans = []
    for k in range(2):
        t = 0.010 + 0.040 * k
        step = Span("flow.step", t, t + 0.030, run, {"dim": 100})
        spans += [
            Span("assembly.weingarten", t + 0.001, t + 0.002, step),
            Span("assembly.weingarten", t + 0.002, t + 0.003, step),
            Span("flow.splu", t + 0.004, t + 0.006, step, {"n": 64, "nnz": 500}),
            Span("flow.splu", t + 0.010, t + 0.020, step, {"n": 340, "nnz": 9000 + k}),
            step,
        ]
    spans.append(run)
    m = tracing.layer_metrics(spans)
    assert m["assembly.weingarten_calls_per_step"] == 2
    assert m["flow.factorizations_per_step"] == 2
    assert m["flow.kappa_factor_ms"] == pytest.approx(4.0)
    assert m["flow.saddle_factor_ms"] == pytest.approx(20.0)
    assert m["flow.saddle_lu_nnz"] == 9001
    assert m["flow.saddle_lu_bytes"] == 8 * 9001
    assert m["flow.step_self_ms"] == pytest.approx(2 * (30.0 - 14.0))
    assert m["export.snapshot_ms"] == 0
    assert set(m) | {"trace.overhead_ratio"} == set(tracing.LAYER_METRICS)


def _all_bindings():
    found = []
    for _, spec, attr, _, _ in tracing.TARGETS:
        owner = tracing._owner(spec)
        original = vars(owner)[attr]
        for obj, key in tracing._bindings(owner, attr, original):
            found.append((obj, key, original))
    return found


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_restores_every_original(name, tmp_path):
    before = _all_bindings()
    assert len(before) > len(tracing.TARGETS)  # from-imports are wrapped too
    workload = workloads.WORKLOADS[name].tiny()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(obj, key) is not orig for obj, key, orig in before)
        ex = workload.execute(tmp_path)
    for obj, key, orig in before:
        assert getattr(obj, key) is orig, f"{obj!r}.{key} not restored"
    m = tracing.layer_metrics(tracer.spans)
    assert m["flow.factorizations_per_step"] == 2
    assert m["projections.ritz_iterations"] > 0
    if isinstance(workload, workloads.CliSolve):
        assert m["export.snapshot_bytes"] > 0 and m["export.csv_ms"] > 0
    if isinstance(workload, workloads.ConvergenceStudy):
        assert m["convergence.error_ms"] > 0
    # the tiny run is its own reference, which checks the per-step invariants;
    # a two-step study on levels 2,4,8 is too coarse for the order gate
    problems = workload.check(ex.output, workload.reference_of(ex.output))
    assert [p for p in problems if not p.startswith("eoc_h1")] == []


def test_traced_run_ends_when_no_traced_execution_completes(tmp_path, monkeypatch):
    before = _all_bindings()
    workload = workloads.WORKLOADS["plane_p3_n8"].tiny()
    reference = workload.reference_of(workload.execute(tmp_path).output)
    monkeypatch.setattr(workload, "load_reference", lambda: reference)
    gone = ("flow.gone", "mcflow.flow:FlowProblem", "no_such_method", None, None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    rec = run.Recorder(workload, tmp_path)
    with pytest.raises(SystemExit, match="no traced execution"):
        run.measure_traced(rec, 60.0, random.Random(0))
    assert (rec.attempted, rec.failed, len(rec.walls)) == (2, 1, 1)
    for obj, key, orig in before:
        assert getattr(obj, key) is orig, f"{obj!r}.{key} not restored"


def _reference_run(name):
    ref = workloads.WORKLOADS[name].load_reference()
    n = len(ref["area"])
    boundary = np.linspace(0.0, 1.0, 30).reshape(10, 3)
    out = workloads.RunOutput(
        area=np.array(ref["area"]),
        max_abs_kappa=np.array(ref["max_abs_kappa"]),
        constraint_residual=np.full(n, 1e-15),
        solver_residual=np.full(n, 1e-14),
        boundary_start=boundary,
        boundary_end=boundary.copy(),
        snapshots=ref["snapshots"],
    )
    return out, ref


@pytest.mark.parametrize("name", ["sphere_ref", "plane_n40", "plane_p3_n8"])
def test_run_check_accepts_the_reference_and_rejects_perturbations(name):
    out, ref = _reference_run(name)
    assert workloads.check_run(out, ref) == []

    out.area[-1] *= 1.0 + 1e-8
    assert any("area" in p for p in workloads.check_run(out, ref))

    out, ref = _reference_run(name)
    out.boundary_end[4, 2] = np.nextafter(out.boundary_end[4, 2], 2.0)
    assert any("boundary" in p for p in workloads.check_run(out, ref))

    out, ref = _reference_run(name)
    out.constraint_residual[1] = 2e-10
    out.solver_residual[2] = np.nan
    problems = workloads.check_run(out, ref)
    assert any("constraint" in p for p in problems)
    assert any("solver_residual" in p for p in problems)


def test_convergence_check_rejects_moved_errors_and_low_orders():
    ref = workloads.WORKLOADS["converge_p3"].load_reference()

    class Report:
        errors_h1 = json.loads(json.dumps(ref["errors_h1"]))
        eoc_h1 = dict(ref["eoc_h1"])

    assert workloads.check_convergence(Report, ref) == []
    Report.errors_h1["kappa"][0] *= 1.0 + 1e-5
    Report.eoc_h1["nu"] = 1.7
    problems = workloads.check_convergence(Report, ref)
    assert any("errors_h1[kappa]" in p for p in problems)
    assert any("eoc_h1[nu]" in p for p in problems)
