"""Per-layer tracing of mcflow from outside the program.

`Tracer.installed()` replaces the public functions of each mcflow module
(and `scipy.sparse.linalg.splu`) with wrappers that record one span per
call: name, start, end, parent span and a few attributes.  Module-level
functions are replaced wherever a module of mcflow has bound them, since
`from .assembly import ...` copies the binding.  Every original is put
back when the block exits, so untraced executions run the unmodified
program.  `layer_metrics` turns the spans of one execution into the
per-layer metrics, with self times derived from the span tree.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _step_attrs(args, kwargs):
    return {"dim": args[0].space.dim}


def _splu_attrs(args, kwargs):
    return {"n": args[0].shape[0]}


def _splu_result(result):
    return {"nnz": int(result.nnz)}


def _ritz_result(result):
    return {"iterations": int(result[1]["iterations"])}


def _snapshot_result(result):
    return {"bytes": os.path.getsize(result)}


# (span name, owner, attribute, attrs from the call, attrs from the result);
# an owner is a module name or "module:Class".
TARGETS = (
    ("splines.qi_build", "mcflow.splines:QuasiInterpolant", "__init__", None, None),
    ("splines.qi_apply", "mcflow.splines:QuasiInterpolant", "apply_to_values", None, None),
    ("geometry.eval", "mcflow.geometry:SplineField", "eval", None, None),
    ("geometry.area", "mcflow.geometry", "surface_area", None, None),
    ("assembly.tables", "mcflow.assembly:MeshTables", "__init__", None, None),
    ("assembly.tables", "mcflow.assembly:BoundaryTables", "__init__", None, None),
    ("assembly.element_geometry", "mcflow.assembly:ElementGeometry", "__init__", None, None),
    ("assembly.mass_stiffness", "mcflow.assembly", "assemble_mass_stiffness", None, None),
    ("assembly.loads", "mcflow.assembly", "assemble_curvature_load", None, None),
    ("assembly.loads", "mcflow.assembly", "assemble_normal_load", None, None),
    ("assembly.loads", "mcflow.assembly", "assemble_boundary_load", None, None),
    ("assembly.weingarten", "mcflow.assembly", "weingarten_energy", None, None),
    ("projections.ritz", "mcflow.projections", "nonlinear_ritz_normal", None, _ritz_result),
    ("projections.velocity", "mcflow.projections", "project_velocity", None, None),
    ("flow.problem_init", "mcflow.flow:FlowProblem", "__init__", None, None),
    ("flow.run", "mcflow.flow:FlowProblem", "run", None, None),
    ("flow.step", "mcflow.flow:FlowProblem", "step", _step_attrs, None),
    ("flow.splu", "scipy.sparse.linalg", "splu", _splu_attrs, _splu_result),
    ("convergence.study", "mcflow.convergence", "convergence_study", None, None),
    ("export.snapshot", "mcflow.export", "export_vtk", None, _snapshot_result),
    ("export.csv", "mcflow.export", "write_diagnostics_csv", None, None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=float("nan"), parent=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self):
        return self.end - self.start

    def ancestor(self, name):
        """The nearest enclosing span called `name`, or None."""
        p = self.parent
        while p is not None and p.name != name:
            p = p.parent
        return p


def _owner(spec):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _bindings(owner, attr, original):
    """Every (object, attribute) through which mcflow reaches `original`.

    A class attribute has one binding; a module function also has every
    binding that another mcflow module made with `from ... import`.
    """
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for name, mod in sorted(sys.modules.items()):
        if mod is owner or not (name == "mcflow" or name.startswith("mcflow.")):
            continue
        for key, value in vars(mod).items():
            if value is original:
                found.append((mod, key))
    return found


class Tracer:
    """Records spans of the wrapped calls; one tracer per traced execution."""

    def __init__(self):
        self.spans = []  # in order of completion
        self._stack = []

    def wrap(self, name, fn, call_attrs=None, result_attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), parent=parent)
            if call_attrs is not None:
                span.attrs.update(call_attrs(args, kwargs))
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if result_attrs is not None:
                span.attrs.update(result_attrs(result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, spec, attr, call_attrs, result_attrs in TARGETS:
                owner = _owner(spec)
                original = vars(owner)[attr]
                wrapper = self.wrap(name, original, call_attrs, result_attrs)
                for obj, key in _bindings(owner, attr, original):
                    saved.append((obj, key, original))
                    setattr(obj, key, wrapper)
            yield self
        finally:
            for obj, key, original in reversed(saved):
                setattr(obj, key, original)

    def to_json(self):
        """Spans as plain records, parents by index, for writing out."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": i,
                "parent": index.get(id(s.parent)),
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "attrs": s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]


def self_times(spans):
    """Self time of each span: its duration minus those of its direct children.

    The spans of one execution come from one call stack, so children are
    nested in their parent and siblings do not overlap.  Returns a dict
    keyed by id(span).
    """
    inner = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            inner[id(s.parent)] += s.duration
    return {id(s): s.duration - inner[id(s)] for s in spans}


# Per-layer metrics: name -> unit.  Times are ms summed over one execution
# of the workload; counts are per execution unless named per step.  A layer
# the workload does not run reports 0.
LAYER_METRICS = {
    "splines.qi_apply_ms": "ms",
    "splines.qi_apply_calls": "count",
    "splines.qi_build_ms": "ms",
    "geometry.area_ms": "ms",
    "geometry.eval_ms": "ms",
    "assembly.element_geometry_ms": "ms",
    "assembly.mass_stiffness_ms": "ms",
    "assembly.loads_ms": "ms",
    "assembly.weingarten_calls_per_step": "count",
    "assembly.tables_ms": "ms",
    "projections.ritz_ms": "ms",
    "projections.ritz_iterations": "count",
    "projections.ritz_factorizations": "count",
    "projections.velocity_ms": "ms",
    "flow.kappa_factor_ms": "ms",
    "flow.saddle_factor_ms": "ms",
    "flow.factorizations_per_step": "count",
    "flow.saddle_lu_nnz": "count",
    "flow.saddle_lu_bytes": "bytes",
    "flow.step_self_ms": "ms",
    "convergence.error_ms": "ms",
    "export.snapshot_ms": "ms",
    "export.snapshot_bytes": "bytes",
    "export.csv_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans):
    """Per-layer metrics of one traced execution (all but trace.overhead_ratio)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def ms(group):
        return 1e3 * sum(s.duration for s in group)

    def self_ms(name):
        return 1e3 * sum(own[id(s)] for s in by_name[name])

    n_steps = len(by_name["flow.step"])
    # the saddle system has 3*dim + n_boundary rows, the kappa system fewer than dim
    step_lus = [(s, s.ancestor("flow.step")) for s in by_name["flow.splu"]]
    step_lus = [(s, step) for s, step in step_lus if step is not None]
    saddle = [s for s, step in step_lus if s.attrs["n"] > step.attrs["dim"]]
    kappa = [s for s, step in step_lus if s.attrs["n"] <= step.attrs["dim"]]
    in_steps = sum(1 for s in by_name["assembly.weingarten"] if s.ancestor("flow.step"))
    saddle_nnz = max((s.attrs["nnz"] for s in saddle), default=0)
    # the study's flow runs, each a problem set-up and its run
    study_flows = [
        s
        for s in by_name["flow.problem_init"] + by_name["flow.run"]
        if s.parent is not None and s.parent.name == "convergence.study"
    ]

    def per_step(count):
        return count / n_steps if n_steps else 0.0

    return {
        "splines.qi_apply_ms": ms(by_name["splines.qi_apply"]),
        "splines.qi_apply_calls": len(by_name["splines.qi_apply"]),
        "splines.qi_build_ms": ms(by_name["splines.qi_build"]),
        "geometry.area_ms": ms(by_name["geometry.area"]),
        "geometry.eval_ms": self_ms("geometry.eval"),
        "assembly.element_geometry_ms": ms(by_name["assembly.element_geometry"]),
        "assembly.mass_stiffness_ms": ms(by_name["assembly.mass_stiffness"]),
        "assembly.loads_ms": ms(by_name["assembly.loads"]),
        "assembly.weingarten_calls_per_step": per_step(in_steps),
        "assembly.tables_ms": ms(by_name["assembly.tables"]),
        "projections.ritz_ms": ms(by_name["projections.ritz"]),
        "projections.ritz_iterations": sum(s.attrs["iterations"] for s in by_name["projections.ritz"]),
        "projections.ritz_factorizations": sum(
            1 for s in by_name["flow.splu"] if s.ancestor("projections.ritz")
        ),
        "projections.velocity_ms": self_ms("projections.velocity"),
        "flow.kappa_factor_ms": ms(kappa),
        "flow.saddle_factor_ms": ms(saddle),
        "flow.factorizations_per_step": per_step(len(step_lus)),
        "flow.saddle_lu_nnz": saddle_nnz,
        "flow.saddle_lu_bytes": 8 * saddle_nnz,
        "flow.step_self_ms": self_ms("flow.step"),
        "convergence.error_ms": ms(by_name["convergence.study"]) - ms(study_flows),
        "export.snapshot_ms": ms(by_name["export.snapshot"]),
        "export.snapshot_bytes": sum(s.attrs["bytes"] for s in by_name["export.snapshot"]),
        "export.csv_ms": ms(by_name["export.csv"]),
    }


def median_metrics(per_execution):
    """Median over executions of each metric."""
    return {k: float(np.median([m[k] for m in per_execution])) for k in per_execution[0]}
