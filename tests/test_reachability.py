"""Every function of the package is reached by a production entry point.

Code used by nothing, or only by its own tests, is removed (ROADMAP aim
2).  This test runs the entry points a user calls, at tiny sizes, under
`sys.setprofile`: `flow.run` with snapshots and matrix dumps,
`convergence_study` with an output directory, and `mcflow solve`,
`converge` and `calibrate` on both scenarios.  The module-level
functions and methods of `src/mcflow` (found by an AST walk) that none
of them calls must be exactly `UNREACHED`, each kept for its reason.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

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


def test_every_function_is_reached_by_an_entry_point(tmp_path):
    tiny = dict(elements_per_side=2, dt=0.02, t_final=0.04)
    configs = {
        name: _write_config(
            tmp_path / f"{name}.cfg", scenario=name, output_dir=str(tmp_path / name), **tiny
        )
        for name in ("perturbed_plane", "sphere_patch")
    }
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run(
            ScenarioConfig(
                snapshot_stride=1, dump_matrices=True, output_dir=str(tmp_path / "run"), **tiny
            )
        )
        convergence_study(
            ScenarioConfig(output_dir=str(tmp_path / "study"), **tiny), [2, 4, 8], t_final=0.04
        )
        for name, cfg in configs.items():
            assert cli_main(["solve", "--config", cfg]) == 0
            assert cli_main(["converge", "--config", cfg, "--levels", "2,4,8"]) == 0
            assert cli_main(["calibrate", "--scenario", name]) == 0
    finally:
        sys.setprofile(None)

    defs = _definitions()
    unreached = {name for key, name in defs.items() if key not in called}
    assert unreached == set(UNREACHED)
