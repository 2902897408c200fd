"""Every function and option of the package is used by a production entry point.

Code used by nothing, or only by its own tests, is removed (ROADMAP aim
2).  These tests run the entry points a user calls, at tiny sizes, once
under `sys.setprofile`: `flow.run` with snapshots, `convergence_study`
with an output directory, and `mcflow solve` and `converge` on both
scenarios.  The module-level
functions and methods of `src/mcflow` (found by an AST walk) that none
of them calls must be exactly `UNREACHED`, and the parameters with a
default that none of them sets to another value (dead parameters) must
be exactly `NEVER_SET`, each kept for its reason.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mcflow
from mcflow.cli import main as cli_main
from mcflow.config import ScenarioConfig, serialize_config
from mcflow.convergence import convergence_study
from mcflow.flow import run

PACKAGE = Path(mcflow.__file__).resolve().parent

UNREACHED = {
    "geometry.SplineField.__init__": "the pointwise test oracle; perfbench traces its eval by name",
    "geometry.SplineField.eval": "the pointwise test oracle; perfbench traces it by name",
    "flow.initialize": "perfbench/run.py builds its problems with it",
    "export.read_diagnostics_csv": "perfbench reads the diagnostics CSV with it",
    "config.serialize_config": "perfbench writes its config files with it",
    "splines.UnivariateSpline.__repr__": "for interactive use and error messages",
    "splines.TensorSplineSpace.__repr__": "for interactive use and error messages",
}

# a config file sets these; the tiny configs of the entry points leave them at their defaults
_USER_INPUT = "a `ScenarioConfig` field: user input"
NEVER_SET = {
    "geometry.SplineField.eval.nderiv": "the pointwise test oracle reads derivatives with it",
    **{
        f"config.ScenarioConfig.__init__.{name}": _USER_INPUT
        for name in (
            "degree",
            "smoothness",
            "perturbation_amplitude",
            "patch_polar_extent",
            "patch_corner_temper",
        )
    },
}


def _definitions():
    """{(file, first line of the code object): qualified name} of every
    module-level function and method of a module-level class."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            owners = [(path.stem, node)]
            if isinstance(node, ast.ClassDef):
                owners = [(f"{path.stem}.{node.name}", f) for f in node.body]
            for owner, f in owners:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # a decorated function's code starts at its first decorator
                    first = min([f.lineno] + [d.lineno for d in f.decorator_list])
                    defs[(str(path), first)] = f"{owner}.{f.name}"
    return defs


def _write_config(path, **overrides):
    path.write_text(serialize_config(ScenarioConfig(**overrides)))
    return str(path)


def _defaulted_parameters():
    """{code object: (qualified name, {parameter: default})} of every
    function and method of the package, the generated `__init__` of its
    dataclasses included, that has a parameter with a default."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"mcflow.{path.stem}")
        owners = [
            v for v in vars(module).values() if getattr(v, "__module__", None) == module.__name__
        ]
        functions = [f for f in owners if inspect.isfunction(f)]
        for cls in (c for c in owners if inspect.isclass(c)):
            functions += [getattr(f, "__func__", f) for f in vars(cls).values()]
        for f in filter(inspect.isfunction, functions):
            defaults = {
                name: p.default
                for name, p in inspect.signature(f).parameters.items()
                if p.default is not p.empty
            }
            if defaults:
                found[f.__code__] = (f"{path.stem}.{f.__qualname__}", defaults)
    return found


def _is_default(value, default):
    """Scalars, None and slices compare by value; an array is never a
    default, and any other object only when it is the default itself."""
    by_value = (bool, int, float, str, slice, type(None), np.generic)
    if isinstance(value, np.ndarray):
        return False
    if isinstance(value, by_value) and isinstance(default, by_value):
        return bool(value == default)
    return value is default


@pytest.fixture(scope="module")
def entry_point_calls(tmp_path_factory):
    """Run every entry point once under `sys.setprofile`.  Returns the
    (file, first line) of every code object called, and the qualified
    names of the defaulted parameters that some call set to another value
    and of all defaulted parameters."""
    tmp_path = tmp_path_factory.mktemp("entry_points")
    tiny = dict(elements_per_side=2, dt=0.02, t_final=0.04)
    configs = {
        name: _write_config(
            tmp_path / f"{name}.cfg", scenario=name, output_dir=str(tmp_path / name), **tiny
        )
        for name in ("perturbed_plane", "sphere_patch")
    }
    defaulted = _defaulted_parameters()
    called, set_params = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))
            if code in defaulted:
                owner, defaults = defaulted[code]
                values = frame.f_locals
                set_params.update(
                    f"{owner}.{name}"
                    for name, default in defaults.items()
                    if not _is_default(values[name], default)
                )

    sys.setprofile(profile)
    try:
        run(ScenarioConfig(snapshot_stride=1, output_dir=str(tmp_path / "run"), **tiny))
        convergence_study(
            ScenarioConfig(output_dir=str(tmp_path / "study"), **tiny), [2, 4, 8], t_final=0.04
        )
        for cfg in configs.values():
            assert cli_main(["solve", "--config", cfg]) == 0
            assert cli_main(["converge", "--config", cfg, "--levels", "2,4,8"]) == 0
    finally:
        sys.setprofile(None)
    all_params = {f"{owner}.{name}" for owner, defaults in defaulted.values() for name in defaults}
    return called, set_params, all_params


def test_every_function_is_reached_by_an_entry_point(entry_point_calls):
    called, _, _ = entry_point_calls
    defs = _definitions()
    unreached = {name for key, name in defs.items() if key not in called}
    assert unreached == set(UNREACHED)


def test_every_defaulted_parameter_is_set_by_an_entry_point(entry_point_calls):
    """A parameter with a default that no entry point sets to anything
    else is a dead option: it goes, or it is allowlisted for its reason."""
    _, set_params, all_params = entry_point_calls
    config = {f"config.ScenarioConfig.__init__.{f.name}" for f in fields(mcflow.ScenarioConfig)}
    assert config <= all_params  # the dataclass's generated __init__ is watched too
    assert all_params - set_params == set(NEVER_SET)
