"""In-memory spans around capsub's layer boundaries, recorded from outside the package.

``installed`` replaces each traced function by a wrapper in every loaded
``capsub`` module that holds it under some name, so calls made through
``from .x import f`` are traced as well as calls inside the defining module.
Nothing under ``src/`` changes, and the originals are put back on exit.

A span's self time is its duration minus the part of its interval that its
child spans cover, so the self times of one command's spans add up to the
command's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    label: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters of one run; spans nest by call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, label: str | None = None, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id, label)
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result
        return traced


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [span.duration - _union_length(children[i]) for i, span in enumerate(spans)]


def root_of(spans: list[Span]) -> list[int]:
    roots = []
    for i, span in enumerate(spans):
        roots.append(i if span.parent is None else roots[span.parent])
    return roots


# ---------------------------------------------------------------------------
# What is traced, and the counters taken at each boundary
# ---------------------------------------------------------------------------

def _rows_written(counts, args, result):
    counts["ingest.rows_written"] += sum(s.hours_count for s in args["series_list"])


def _rows_parsed(counts, args, result):
    counts["ingest.rows_parsed"] += sum(s.hours_count for s in result)


def _active_hours(counts, args, result):
    counts["activation.active_hours"] += result.count


def _static_candidates(counts, args, result):
    counts["optimizer.static_candidates"] += int(result[0].size)


def _dynamic_candidates(counts, args, result):
    levels = int(result[0].size)
    schedules = args["schedules"]
    active = sum(schedules[sc.series.year_label].count for sc in args["scenario_set"].scenarios)
    counts["optimizer.dynamic_candidates"] += levels
    # the objective evaluates every candidate level against every active hour
    counts["optimizer.dynamic_grid_cells"] += levels * active


def _evaluations(counts, args, result):
    counts["calibration.evaluations"] += result.iterations


def _output_bytes(counts, args, result):
    counts["study.output_bytes"] += sum(Path(p).stat().st_size for p in result)


REPORTING_WRITERS = ("write_fullloadhours_csv", "write_relative_cost_csv",
                     "write_aggregate_revenue_csv", "write_subscription_levels_csv",
                     "write_annual_costs_csv", "write_loadfactor_scatter_csv")

# (module, function, counter); the span is named "<layer>.<function>"
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("ingest", "generate_population", None),
    ("ingest", "write_load_csv", _rows_written),
    ("ingest", "parse_load_csv", _rows_parsed),
    ("ingest", "scenario_sets_from_series", None),
    ("activation", "derive_activations", _active_hours),
    ("activation", "write_schedules_csv", None),
    ("vcl", "stacks_for_scenarios", None),
    ("optimizer", "static_objective_lines", _static_candidates),
    ("optimizer", "dynamic_objective_lines", _dynamic_candidates),
    ("optimizer", "optimize_static", None),
    ("optimizer", "optimize_dynamic", None),
    ("optimizer", "optimize_deterministic", None),
    ("tariff_engine", "expected_cost", None),
    ("tariff_engine", "cost_static_cs", None),
    ("tariff_engine", "cost_dynamic_cs", None),
    ("calibration", "energy_reference_revenue", None),
    ("calibration", "calibrate_capacity_price", _evaluations),
    ("study", "run_study", None),
    ("study", "build_manifest", None),
    ("study", "run_study_from_manifest", None),
    ("study", "write_study_outputs", _output_bytes),
) + tuple(("reporting", name, None) for name in REPORTING_WRITERS)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target in every loaded capsub module for the duration of the block."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "capsub" or name.startswith("capsub."))]
    patched = []
    try:
        for module_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[f"capsub.{module_name}"], func_name)
            wrapper = tracer.wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CALL_COUNTED = ("ingest.parse_load_csv", "optimizer.static_objective_lines",
                "optimizer.dynamic_objective_lines", "tariff_engine.expected_cost",
                "tariff_engine.cost_static_cs", "tariff_engine.cost_dynamic_cs")
SELF_TIMED = ("ingest.generate_population", "ingest.write_load_csv", "ingest.parse_load_csv",
              "ingest.scenario_sets_from_series",
              "activation.derive_activations", "activation.write_schedules_csv",
              "vcl.stacks_for_scenarios", "optimizer.static_objective_lines",
              "optimizer.dynamic_objective_lines", "tariff_engine.expected_cost",
              "tariff_engine.cost_static_cs", "tariff_engine.cost_dynamic_cs",
              "calibration.energy_reference_revenue", "calibration.calibrate_capacity_price",
              "study.build_manifest", "study.run_study_from_manifest",
              "study.write_study_outputs", "cli.main")
COUNTERS = ("ingest.rows_written", "ingest.rows_parsed", "activation.active_hours",
            "optimizer.static_candidates", "optimizer.dynamic_candidates",
            "optimizer.dynamic_grid_cells", "calibration.evaluations", "study.output_bytes")
OPTIMIZE_WRAPPERS = ("optimizer.optimize_static", "optimizer.optimize_dynamic",
                     "optimizer.optimize_deterministic")
SERIAL_STUDY, POOLED_STUDY = "study", "rerun"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times, call counts and counters summed over the traced run.

    ``study.run_study`` is split by command: its self time in the serial
    ``study`` command, and its whole duration in the pooled ``rerun``, where
    the work happens in worker processes whose spans are not visible here.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    roots = root_of(spans)
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    metrics: dict[str, float] = {}
    run_study_self = pool = 0.0
    for i, span in enumerate(spans):
        label = spans[roots[i]].label
        if span.name == "study.run_study":
            if label == SERIAL_STUDY:
                run_study_self += selfs[i]
            elif label == POOLED_STUDY:
                pool += span.duration
            continue
        self_by_name[span.name] += selfs[i]
        calls[span.name] += 1
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = self_by_name[name]
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = calls[name]
    for name in COUNTERS:
        metrics[name] = tracer.counts[name]
    metrics["optimizer.optimize.self_s"] = sum(self_by_name[n] for n in OPTIMIZE_WRAPPERS)
    metrics["reporting.write.self_s"] = sum(self_by_name[f"reporting.{n}"]
                                            for n in REPORTING_WRITERS)
    metrics["study.run_study.self_s"] = run_study_self
    metrics["study.run_study.pool_s"] = pool
    return metrics


def command_balance(tracer: Tracer) -> dict[str, tuple[float, float]]:
    """Per root span: (sum of self times of its tree, its wall time)."""
    spans = tracer.spans
    selfs = self_times(spans)
    sums: Counter = Counter()
    for i, root in enumerate(root_of(spans)):
        sums[root] += selfs[i]
    return {f"{spans[r].label or spans[r].name}#{r}": (sums[r], spans[r].duration)
            for r in sums}
