"""Set-up builds each table once per problem, and nothing outlives a problem.

A space keeps its matrix diagonals, each 1-D point set gets one grid,
and each Gauss rule is built for the one grid of its point set, so a
`FlowProblem` builds each of them once.  These caches must live on
objects the problem owns: a cache at module level, or keyed on config
values, would let a second problem of the same config skip its set-up.
"""

from __future__ import annotations

import ast
import sys
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
    # the diagonals are reached through the space
    assert any(x is first.space.diagonals[1] for x in a)
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
    collocation matrices, and the quasi-interpolant, the Ritz interior
    and the Ritz edges share one grid: one collocation per 1-D point
    set, those of the flow's rule, of the (p + 2)-point rule and of the
    edge rule."""
    calls, sizes = Counter(), Counter()
    dual_weights = splines._dual_weights
    collocation = splines.UnivariateSpline.collocation

    def counted_dual(*args):
        calls["dual"] += 1
        return dual_weights(*args)

    def counted_collocation(self, x, *args):
        calls["collocation"] += 1
        sizes[len(x) // self.num_elements] += 1  # points per element
        return collocation(self, x, *args)

    monkeypatch.setattr(splines, "_dual_weights", counted_dual)
    monkeypatch.setattr(splines.UnivariateSpline, "collocation", counted_collocation)
    _initialized(ScenarioConfig(degree=p, smoothness=p - 1, elements_per_side=4))
    assert calls == Counter({"dual": 1, "collocation": 3})
    assert sizes == Counter({p + 1: 1, p + 2: 1, 3 * p: 1})


def test_basis_is_tabulated_only_by_collocation(monkeypatch):
    """Set-up and a step reach `UnivariateSpline.eval_basis` only through
    `collocation`: the grids' collocation matrices are the one
    tabulation of the basis."""
    callers = Counter()
    eval_basis = splines.UnivariateSpline.eval_basis

    def recorded(self, *args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return eval_basis(self, *args)

    monkeypatch.setattr(splines.UnivariateSpline, "eval_basis", recorded)
    cfg = ScenarioConfig(scenario="sphere_patch", elements_per_side=4, dt=0.025)
    prob = FlowProblem(cfg)
    prob.initialize()
    for _ in range(2):
        prob.step()
    assert callers == Counter({"collocation": 3})
