"""The demos import only names that exist and call them with arguments
their signatures take.

Each `demos/*.py` is parsed, not run: every `from mcflow.<mod> import
<name>` must resolve, and every call of such a name must bind its
positional count and keyword names to the callee's signature, so a
rename, a removal or a dropped parameter in `mcflow` cannot leave a demo
broken without failing a test.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _from_mcflow(tree):
    """(module, alias) of every alias of a `from mcflow... import` in a tree."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and (node.module == "mcflow" or node.module.startswith("mcflow."))
        ):
            for alias in node.names:
                yield node.module, alias


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def mcflow_imports(path):
    """(module, name) of every `from mcflow... import name` in a file."""
    return [(module, alias.name) for module, alias in _from_mcflow(_parse(path))]


def mcflow_calls(path):
    """(line, module, name, positional count, keyword names) of every call
    of a name imported from mcflow in a file; a call that unpacks * or **
    arguments cannot be checked by name and is left out."""
    tree = _parse(path)
    bound = {a.asname or a.name: (module, a.name) for module, a in _from_mcflow(tree)}
    return [
        (node.lineno, *bound[node.func.id], len(node.args), [k.arg for k in node.keywords])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in bound
        and not any(isinstance(a, ast.Starred) for a in node.args)
        and all(k.arg for k in node.keywords)
    ]


def unbound_calls(path):
    """A message for each call of `mcflow_calls` whose arguments do not
    bind to the signature of the callable it names."""
    bad = []
    for line, module, name, npos, keywords in mcflow_calls(path):
        target = getattr(importlib.import_module(module), name, None)
        if target is None:
            continue  # a missing name fails test_demo_imports_resolve
        try:
            inspect.signature(target).bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            bad.append(f"line {line}: {name}: {exc}")
    return bad


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = mcflow_imports(path)
    assert imports, f"{path.name} imports nothing from mcflow"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports missing names: {missing}"


def test_checker_flags_a_stale_import(tmp_path):
    stale = tmp_path / "stale.py"
    stale.write_text("from mcflow.config import save_config\n")
    assert mcflow_imports(stale) == [("mcflow.config", "save_config")]
    assert not hasattr(importlib.import_module("mcflow.config"), "save_config")


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind(path):
    assert mcflow_calls(path), f"{path.name} calls nothing from mcflow"
    bad = unbound_calls(path)
    assert not bad, f"{path.name} calls mcflow with arguments it does not take: {bad}"


def test_checker_flags_a_stale_keyword(tmp_path):
    stale = tmp_path / "stale.py"
    stale.write_text("from mcflow.flow import run\n\nrun(cfg, order=2)\nrun(cfg)\n")
    assert mcflow_calls(stale) == [
        (3, "mcflow.flow", "run", 1, ["order"]),
        (4, "mcflow.flow", "run", 1, []),
    ]
    (message,) = unbound_calls(stale)
    assert message.startswith("line 3: run:") and "'order'" in message
