"""Outside-in tracer for flatvalley: spans and work counters from the outside.

The tracer never edits the package.  While installed it replaces public
functions with timing wrappers at the place their caller looks them up
(``run_pipeline`` is looked up in ``flatvalley.cli``,
``integrate`` in ``flatvalley.dynamics``, ``foot_point`` in
``flatvalley.geometry``, ``flatvalley.analysis`` and ``flatvalley.cli``),
patches ``MChart.coords_of`` and ``MChart.tube_point`` on the class, and
puts every original back on exit.

Field oracles run hundreds of thousands of times per operation, so they
are counted, not spanned: the wrapped ``gallery_lookup`` hands the pipeline
a ``dataclasses.replace``d potential whose ``f``/``grad``/``f_many`` bump
counters before delegating.

Spans are ``(id, parent, name, start, end)`` tuples kept in memory.  A
span's self time is its duration minus the durations of its direct
children; a layer's time is the sum of self times of its spans.
"""
from __future__ import annotations

import dataclasses
import inspect
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import flatvalley.analysis as fv_analysis
import flatvalley.cli as fv_cli
import flatvalley.contrast as fv_contrast
import flatvalley.dynamics as fv_dynamics
import flatvalley.geometry as fv_geometry
import flatvalley.reporting as fv_reporting
from flatvalley.fields import CompositePotential, PlainPotential

Span = Tuple[int, int, str, float, float]


def _arg(bound: inspect.BoundArguments, name: str):
    bound.apply_defaults()
    return bound.arguments[name]


def _steps(tracer, bound, result):
    tracer.counts["integrators.steps"] += int(_arg(bound, "n_steps"))


def _flow_substeps(tracer, bound, result):
    t = float(_arg(bound, "t"))
    if t != 0.0:
        n = _arg(bound, "n_steps")
        n = fv_geometry.default_flow_steps(t) if n is None else int(n)
        tracer.counts["geometry.flow_substeps"] += 3 * n  # RK4 at n and 2n substeps


def _audit_rows(tracer, bound, result):
    tracer.counts["dynamics.audit_rows"] += len(_arg(bound, "traj").x_int)


def _metric_points(tracer, bound, result):
    tracer.counts["geometry.metric_points"] += result.n_grid ** (result.y_box.size + 1)


def _bytes_written(tracer, bound, result):
    tracer.counts["reporting.bytes_written"] += os.path.getsize(_arg(bound, "path"))


def _bytes_read(tracer, bound, result):
    tracer.counts["reporting.bytes_read"] += os.path.getsize(_arg(bound, "path"))


def _report_read(tracer, bound, result):
    path = os.path.join(_arg(bound, "out_dir"), "report.json")
    tracer.counts["reporting.bytes_read"] += os.path.getsize(path)


def _stages(tracer, bound, result):
    for stage in result.stages:
        tracer.stage_seconds[f"cli.{stage['name']}_s"] = stage["seconds"]


# (owner, attribute, span name, hook run after the call with its arguments)
PATCHES = [
    (fv_cli, "run_pipeline", "cli.run_pipeline", _stages),
    (fv_cli, "coordinate_traces", "analysis.coordinate_traces", None),
    (fv_cli, "extract_limit", "analysis.extract_limit", None),
    (fv_cli, "physical_evidence_runs", "analysis.physical_evidence_runs", None),
    (fv_cli, "certify_instability", "analysis.certify_instability", None),
    (fv_cli, "revalidate_certificate", "analysis.revalidate_certificate", None),
    (fv_cli, "locate_barrier", "contrast.locate_barrier", None),
    (fv_cli, "trapped_motion_check", "contrast.trapped_motion_check", None),
    (fv_cli, "write_trajectory_csv", "reporting.write", _bytes_written),
    (fv_cli, "write_coords_csv", "reporting.write", _bytes_written),
    (fv_cli, "write_limit_csv", "reporting.write", _bytes_written),
    (fv_cli, "write_report_json", "reporting.write", _bytes_written),
    (fv_cli, "line_plot", "svgplot.line_plot", None),
    (fv_cli, "foot_point", "geometry.foot_point", None),
    (fv_reporting, "revalidate_from_dir", "reporting.revalidate", _report_read),
    (fv_reporting, "read_csv_columns", "reporting.read", _bytes_read),
    (fv_dynamics, "integrate", "integrators.integrate", _steps),
    (fv_dynamics, "integrate_rescaled", "dynamics.integrate_rescaled", None),
    (fv_dynamics, "energy_audit", "dynamics.audit", _audit_rows),
    (fv_dynamics, "confinement_check", "dynamics.audit", _audit_rows),
    (fv_analysis, "integrate_newton", "dynamics.integrate_newton", None),
    (fv_contrast, "integrate_newton", "dynamics.integrate_newton", None),
    (fv_analysis, "foot_point", "geometry.foot_point", None),
    (fv_analysis, "pullback_metric_min", "geometry.pullback_metric_min", _metric_points),
    (fv_geometry, "foot_point", "geometry.foot_point", None),
    (fv_geometry, "transversal_flow", "geometry.transversal_flow", _flow_substeps),
    (fv_geometry.MChart, "coords_of", "geometry.coords_of", None),
    (fv_geometry.MChart, "tube_point", "geometry.tube_point", None),
]

#: per-layer time metric -> span names whose self time it sums
TIME_METRICS = {
    "integrators.busy_s": ("integrators.integrate",),
    "dynamics.rescaled_s": ("dynamics.integrate_rescaled",),
    "dynamics.newton_s": ("dynamics.integrate_newton",),
    "dynamics.audit_s": ("dynamics.audit",),
    "geometry.flow_s": ("geometry.transversal_flow",),
    "geometry.foot_s": ("geometry.foot_point",),
    "geometry.coords_s": ("geometry.coords_of",),
    "geometry.tube_s": ("geometry.tube_point",),
    "geometry.metric_s": ("geometry.pullback_metric_min",),
    "analysis.traces_s": ("analysis.coordinate_traces",),
    "analysis.limit_s": ("analysis.extract_limit",),
    "analysis.evidence_s": ("analysis.physical_evidence_runs",),
    "analysis.certify_s": ("analysis.certify_instability", "analysis.revalidate_certificate"),
    "contrast.barrier_s": ("contrast.locate_barrier",),
    "contrast.trap_s": ("contrast.trapped_motion_check",),
    "reporting.write_s": ("reporting.write",),
    "reporting.revalidate_s": ("reporting.revalidate", "reporting.read"),
    "svgplot.plot_s": ("svgplot.line_plot",),
}

#: per-layer call-count metric -> span name it counts
CALL_METRICS = {
    "integrators.calls": "integrators.integrate",
    "geometry.flow_calls": "geometry.transversal_flow",
    "geometry.foot_calls": "geometry.foot_point",
    "geometry.coords_calls": "geometry.coords_of",
    "geometry.tube_calls": "geometry.tube_point",
}

COUNT_METRICS = (
    "fields.f_calls", "fields.grad_calls", "fields.many_rows",
    "integrators.steps", "dynamics.audit_rows",
    "geometry.flow_substeps", "geometry.metric_points",
    "reporting.bytes_written", "reporting.bytes_read",
)

STAGE_METRICS = tuple(f"cli.{s}_s" for s in
                      ("family", "coordinates", "limit", "certificate", "emit"))


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.stage_seconds: Dict[str, float] = {}
        self._stack = [0]
        self._next_id = 1

    def span(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span, a call count and ``hook``."""
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
                self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def counted_potential(self, potential):
        """The same potential with every field-oracle call counted."""
        counts = self.counts

        def count(key, fn):
            def counted(x):
                counts[key] += 1
                return fn(x)
            return counted

        def count_rows(fn):
            def counted(X):
                counts["fields.many_rows"] += len(X)
                return fn(X)
            return counted

        if isinstance(potential, CompositePotential):
            fld = potential.field
            many = None if fld.f_many is None else count_rows(fld.f_many)
            return dataclasses.replace(potential, field=dataclasses.replace(
                fld, f=count("fields.f_calls", fld.f),
                grad=count("fields.grad_calls", fld.grad), f_many=many))
        if isinstance(potential, PlainPotential):
            many = None if potential.u_many is None else count_rows(potential.u_many)
            return dataclasses.replace(
                potential, u=count("fields.f_calls", potential.u),
                grad_u=count("fields.grad_calls", potential.grad_u), u_many=many)
        return potential

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []
        lookup = fv_cli.gallery_lookup
        try:
            for owner, attr, name, hook in PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, hook))
            saved.append((fv_cli, "gallery_lookup", lookup))
            fv_cli.gallery_lookup = lambda *a, **k: self.counted_potential(lookup(*a, **k))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Sum of self time per span name."""
        child = Counter()
        for _, parent, _, start, end in self.spans:
            child[parent] += end - start
        out = Counter()
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start) - child[span_id]
        return dict(out)

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer count and time this tracer can attribute."""
        selfs = self.self_times()
        out = {m: sum(selfs.get(n, 0.0) for n in names) for m, names in TIME_METRICS.items()}
        out.update({m: self.counts[n + ".calls"] for m, n in CALL_METRICS.items()})
        out.update({m: self.counts[m] for m in COUNT_METRICS})
        out.update({m: self.stage_seconds.get(m, 0.0) for m in STAGE_METRICS})
        return out
