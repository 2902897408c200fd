"""The benchmark's tracer names program functions by string; keep them resolvable.

`perfbench/tracing.py` wraps each (owner, attribute) of its `TARGETS`
by name, so a rename in `mcflow` would otherwise break traced benchmark
runs without failing any test.  The Ritz result hook reads the return
value of `nonlinear_ritz_normal`, so it is fed the one `initialize` gets.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import mcflow.flow
from mcflow.config import ScenarioConfig
from mcflow.flow import FlowProblem
from mcflow.projections import nonlinear_ritz_normal

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    missing = []
    for _, owner, attr, _, _ in tracing.TARGETS:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls, None)
        if obj is None or attr not in vars(obj):
            missing.append(f"{owner}.{attr}")
    assert not missing, f"tracer targets missing: {missing}"


def test_ritz_result_hook_reads_a_real_return_value(monkeypatch):
    """The tracer's Ritz hook reads the shape `nonlinear_ritz_normal` returns."""
    tracing = _load_tracing()
    results = []

    def recorded(*args):
        results.append(nonlinear_ritz_normal(*args))
        return results[-1]

    monkeypatch.setattr(mcflow.flow, "nonlinear_ritz_normal", recorded)
    prob = FlowProblem(ScenarioConfig(elements_per_side=4))  # the plane
    prob.initialize()
    (result,) = results
    assert tracing._ritz_result(result) == {"iterations": prob.ritz_info["iterations"]}
