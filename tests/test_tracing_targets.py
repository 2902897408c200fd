"""The benchmark's tracer names program functions by string; keep them resolvable.

`perfbench/tracing.py` wraps each (owner, attribute) of its `TARGETS`
by name, so a rename in `mcflow` would otherwise break traced benchmark
runs without failing any test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, owner, attr, _, _ in tracing.TARGETS:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls, None)
        if obj is None or attr not in vars(obj):
            missing.append(f"{owner}.{attr}")
    assert not missing, f"tracer targets missing: {missing}"
