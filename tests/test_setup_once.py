"""Set-up builds each table once per problem, and nothing outlives a problem.

A space's univariate factor keeps its Gauss rules and tabulations per
rule, and the space keeps its CSR pattern, so a `FlowProblem` builds
each of them once.  These caches must live on objects the problem owns:
a cache at module level, or keyed on config values, would let a second
problem of the same config skip its set-up.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import mcflow
from mcflow import splines
from mcflow.config import ScenarioConfig
from mcflow.flow import FlowProblem

SOURCES = sorted(Path(mcflow.__file__).parent.glob("*.py"))
FORBIDDEN = {"cache", "lru_cache"}


def test_no_functools_cache_in_the_package():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} if node.value.id == "functools" else set()
            else:
                continue
            found += [(path.name, node.lineno, n) for n in names & FORBIDDEN]
    assert SOURCES and found == []


def _arrays(obj, seen=None):
    """Every numpy array reachable from `obj` through mcflow objects,
    sparse matrices, dicts, lists and tuples."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if scipy.sparse.issparse(obj):
        children = [obj.data, obj.indices, obj.indptr]
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif type(obj).__module__.startswith("mcflow"):
        children = list(vars(obj).values())
    else:
        return []
    return [a for child in children for a in _arrays(child, seen)]


def _initialized(cfg):
    prob = FlowProblem(cfg)
    prob.initialize()
    return prob


@pytest.mark.parametrize("p", [2, 3])
def test_two_problems_of_one_config_share_no_table(p):
    cfg = ScenarioConfig(
        scenario="sphere_patch", degree=p, smoothness=p - 1, elements_per_side=4
    )
    first, second = _initialized(cfg), _initialized(cfg)
    owned = ("space", "quasi", "tables", "btables", "saddle")
    a = _arrays([getattr(first, name) for name in owned])
    b = _arrays([getattr(second, name) for name in owned])
    # the univariate caches and the pattern are reached through the space
    assert any(x is first.space.csr_pattern[0] for x in a)
    assert any(x is first.space.factor.element_rule(p + 1)[0] for x in a)
    assert not [(x.shape, y.shape) for x in a for y in b if np.may_share_memory(x, y)]


@pytest.mark.parametrize("p", [2, 3])
def test_set_up_computes_each_gauss_rule_once(monkeypatch, p):
    calls = Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls[n] += 1
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    _initialized(ScenarioConfig(degree=p, smoothness=p - 1, elements_per_side=4))
    # flow assembly, the quasi-interpolant and Ritz grid, the boundary rule
    assert calls == Counter({p + 1: 1, p + 2: 1, 3 * p: 1})


@pytest.mark.parametrize("p", [2, 3])
def test_set_up_builds_one_dual_weights_and_one_collocation(monkeypatch, p):
    """Both directions share the factor's dual weights and each grid's
    collocation matrices: one collocation per tensor grid, those of the
    flow's rule, of the Ritz projection's rule and of the quasi-interpolant."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(splines, "_dual_weights", counted("dual", splines._dual_weights))
    monkeypatch.setattr(
        splines.UnivariateSpline,
        "collocation",
        counted("collocation", splines.UnivariateSpline.collocation),
    )
    _initialized(ScenarioConfig(degree=p, smoothness=p - 1, elements_per_side=4))
    assert calls == Counter({"dual": 1, "collocation": 3})
