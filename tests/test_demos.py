"""The demos import only names that exist.

Each `demos/*.py` is parsed, not run: every `from mcflow.<mod> import
<name>` must resolve, so a rename or removal in `mcflow` cannot leave a
demo broken without failing a test.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def mcflow_imports(path):
    """(module, name) of every `from mcflow... import name` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module == "mcflow" or node.module.startswith("mcflow."))
        for alias in node.names
    ]


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
