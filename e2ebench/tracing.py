"""Traced replay: spans around the calls into each lcengine module.

The program carries no spans of its own, so the benchmark wraps the public
functions each module calls in the next one (``lcengine.cli.load_model``,
``lcengine.engine.broadcast_exchange``, ...) for the length of a traced
pass, and restores them after.  A span records its layer, name, start and
end (``time.perf_counter_ns``), parent and counters; spans stay in memory
until the pass ends.  A span's self time is its duration minus that of its
children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

import lcengine
from lcengine import cli as lc_cli
from lcengine import dynamic as lc_dynamic
from lcengine import engine as lc_engine
from lcengine import io as lc_io
from lcengine import kernels

import inputs
import workloads


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "counts")

    def __init__(self, layer: str, name: str, parent: int):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = time.perf_counter_ns()
        self.end = 0
        self.counts: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.api = SimpleNamespace(
            run_matrix=self.wrap(lcengine.run_matrix, "engine", "evaluate", _count_grids),
            run_monte_carlo=self.wrap(lcengine.run_monte_carlo, "engine", "evaluate",
                                      _count_grids),
            run_dynamic=self.wrap(lcengine.run_dynamic, "dynamic", "run"),
            discounted_cost_result=self.wrap(lcengine.discounted_cost_result, "econ",
                                             "indicators", _count_rows),
        )

    @contextmanager
    def span(self, layer: str, name: str):
        s = Span(layer, name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, fn, layer: str, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                count(s, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Route the program's cross-module calls through spans."""
        patches = [
            (lc_cli, "load_model", "io", "load"),
            (lc_cli, "load_background_db", "io", "load"),
            (lc_cli, "load_dcf_tables", "io", "load"),
            (lc_cli, "export_results", "io", "export"),
            (lc_cli, "import_results", "io", "import"),
            (lc_cli, "validate_model", "model", "validate"),
            (lc_io, "validate_model", "model", "validate"),
            (lc_engine, "validate_model", "model", "validate"),
            (lc_cli, "run_matrix", "engine", "evaluate"),
            (lc_cli, "run_monte_carlo", "engine", "evaluate"),
            (lc_cli, "run_static", "engine", "evaluate"),
            (lc_cli, "run_dynamic", "dynamic", "run"),
            (lc_cli, "discounted_cost_result", "econ", "indicators"),
            (lc_dynamic, "compute_inventory", "dynamic", "inventory"),
            (lc_dynamic, "characterize_dynamic", "dynamic", "characterize"),
            (lc_dynamic, "characterize_fixed_horizon", "dynamic", "characterize"),
            (lc_dynamic, "characterize_static_at_emission", "dynamic", "characterize"),
        ]
        counters = {"evaluate": _count_grids, "indicators": _count_rows}
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
        saved.append((lc_engine, "broadcast_exchange", lc_engine.broadcast_exchange))
        try:
            for mod, attr, layer, name in patches:
                setattr(mod, attr, self.wrap(getattr(mod, attr), layer, name, counters.get(name)))
            lc_engine.broadcast_exchange = self._sampling(lc_engine.broadcast_exchange)
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _sampling(self, broadcast):
        """Spans only where broadcast_exchange draws from a distribution."""
        @functools.wraps(broadcast)
        def traced(amount, grid, rng_stream=None):
            if not (isinstance(amount, lcengine.DistributionAmount)
                    and amount.spec.kind != "point"):
                return broadcast(amount, grid, rng_stream)
            with self.span("sampler", "broadcast") as s:
                result = broadcast(amount, grid, rng_stream)
            s.counts["draws"] = grid.n_scenarios
            return result
        return traced


def _count_grids(span: Span, args, result) -> None:
    """Cells evaluated, and result grids that own their memory."""
    unit = getattr(result, "samples", result)
    arrays = [*unit.impacts.values(), unit.cost, *unit.sp_unit_costs.values(),
              *unit.sp_exchange.values(),
              *(g for per_cat in unit.sp_unit_impacts.values() for g in per_cat.values())]
    owned = {id(a): a for a in arrays if a.flags.owndata}
    span.counts["cells"] = unit.grid.n_scenarios * unit.grid.n_timesteps * (
        len(unit.categories) + 1)
    span.counts["grids"] = len(owned)
    span.counts["grid_bytes"] = sum(a.nbytes for a in owned.values())


def _count_rows(span: Span, args, result) -> None:
    span.counts["rows"] = len(result.npv)


# ---------------------------------------------------------------------------
# per-layer metrics

# (layer, span name) -> metric name of its summed self time
_SELF_TIMES = {
    ("io", "load"): "io.load_model_s",
    ("io", "export"): "io.export_s",
    ("io", "import"): "io.import_s",
    ("model", "validate"): "model.validate_s",
    ("sampler", "broadcast"): "sampler.broadcast_s",
    ("engine", "evaluate"): "engine.evaluate_s",
    ("dynamic", "inventory"): "dynamic.inventory_s",
    ("dynamic", "characterize"): "dynamic.characterize_s",
    ("econ", "indicators"): "econ.indicators_s",
}

# which per-layer metrics each workload reports: the layers it calls
LAYER_METRICS = {
    "cli_static": (
        "cli.run_s", "cli.report_s", "cli.self_s", "io.load_model_s", "io.load_model_mb",
        "io.export_s", "io.export_mb", "io.import_s", "io.import_rss_mb",
        "model.validate_s", "model.validate_calls", "engine.evaluate_s",
        "engine.evaluate_calls", "engine.cells_per_s", "engine.grids", "engine.grid_mb",
        "econ.indicators_s", "econ.rows_per_s", "trace.overhead_s"),
    "cli_montecarlo": (
        "cli.run_s", "cli.report_s", "cli.self_s", "io.load_model_s", "io.load_model_mb",
        "io.export_s", "io.export_mb", "io.import_s", "io.import_rss_mb",
        "model.validate_s", "model.validate_calls", "sampler.broadcast_s", "sampler.draws",
        "engine.evaluate_s", "engine.evaluate_calls", "engine.cells_per_s", "engine.grids",
        "engine.grid_mb", "econ.indicators_s", "econ.rows_per_s", "trace.overhead_s"),
    "lib_grid": (
        "model.validate_s", "model.validate_calls", "sampler.broadcast_s", "sampler.draws",
        "engine.evaluate_s", "engine.evaluate_calls", "engine.cells_per_s", "engine.grids",
        "engine.grid_mb", "kernels.add_product_gb_s", "dynamic.inventory_s",
        "dynamic.characterize_s", "econ.indicators_s", "econ.rows_per_s", "trace.overhead_s"),
    "lib_loop": (
        "model.validate_s", "model.validate_calls", "engine.evaluate_s",
        "engine.evaluate_calls", "engine.cells_per_s", "engine.grids", "engine.grid_mb",
        "econ.indicators_s", "econ.rows_per_s", "trace.overhead_s"),
}

def unit_of(metric: str) -> str:
    for suffix, unit in (("cells_per_s", "cells/s"), ("rows_per_s", "rows/s"),
                         ("gb_s", "GB/s"), ("_mb", "MB"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counters of one traced pass."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
    out: dict[str, float] = {m: 0.0 for m in _SELF_TIMES.values()}
    counts: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, children in zip(spans, child_ns):
        self_s = (s.end - s.start - children) / 1e9
        metric = _SELF_TIMES.get((s.layer, s.name))
        if metric:
            out[metric] += self_s
        elif s.layer == "cli":
            out[f"cli.{s.name}_s"] = (s.end - s.start) / 1e9
            out["cli.self_s"] = out.get("cli.self_s", 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    out["model.validate_calls"] = calls.get("validate", 0)
    out["engine.evaluate_calls"] = calls.get("evaluate", 0)
    out["sampler.draws"] = counts.get("draws", 0)
    out["engine.grids"] = counts.get("grids", 0)
    out["engine.grid_mb"] = counts.get("grid_bytes", 0) / 1e6
    if out["engine.evaluate_s"]:
        out["engine.cells_per_s"] = counts.get("cells", 0) / out["engine.evaluate_s"]
    if out["econ.indicators_s"]:
        out["econ.rows_per_s"] = counts.get("rows", 0) / out["econ.indicators_s"]
    return out


def add_product_gb_s(repeats: int = 15) -> float:
    """Computed bytes moved (acc read and written, u and x read) per second
    of kernels.add_product on one lib_grid-sized grid."""
    rng = np.random.default_rng(0)
    shape = (inputs.GRID_SCENARIOS, inputs.GRID_TIMESTEPS)
    acc, u, x = np.zeros(shape), rng.uniform(size=shape), rng.uniform(size=shape)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernels.add_product(acc, u, x)
        times.append(time.perf_counter() - t0)
    return 4 * acc.nbytes / statistics.median(times) / 1e9


def traced_round(wl, src, check: bool) -> tuple[dict[str, float], list[Span]]:
    """One untraced and one traced in-process pass of a workload: its
    per-layer metrics and the traced pass's spans."""
    untraced_s, outputs = wl.inprocess_pass()
    workloads.discard(outputs)
    outputs = None  # the untraced results are freed before the traced pass
    tracer = Tracer()
    with tracer.installed():
        traced_s, outputs = wl.inprocess_pass(tracer)
    metrics = span_metrics(tracer.spans)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if isinstance(wl, workloads.CliWorkload):
        metrics["io.load_model_mb"] = wl.input_bytes() / 1e6
        metrics["io.export_mb"] = outputs.result.stat().st_size / 1e6
        metrics["io.import_rss_mb"] = workloads.import_rss_mb(outputs.result, src)
    if wl.name == "lib_grid":
        metrics["kernels.add_product_gb_s"] = add_product_gb_s()
    try:
        if check:
            wl.check(outputs)
    finally:
        workloads.discard(outputs)
    return {m: metrics[m] for m in LAYER_METRICS[wl.name]}, tracer.spans


def write_spans(path, recorded) -> None:
    """JSON lines, one per span, from (workload, round, spans) triples."""
    with open(path, "w", encoding="utf-8") as fh:
        for workload, round_no, spans in recorded:
            for i, s in enumerate(spans):
                fh.write(json.dumps({
                    "workload": workload, "round": round_no, "id": i, "parent": s.parent,
                    "layer": s.layer, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "counts": s.counts}) + "\n")
