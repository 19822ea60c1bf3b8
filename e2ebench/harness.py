"""Measurement loops: untraced passes of one workload, or traced rounds of all."""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

SETUP_REPEATS = 12
MIN_PASSES = 3


def median(values) -> float:
    return float(statistics.median(values))


def setup_once(wl, src: Path) -> float:
    """Fresh-interpreter import of lcengine, plus building the model objects
    the passes reuse."""
    import_s = workloads.fresh_import_s(src)
    t0 = time.perf_counter()
    wl.construct()
    return import_s + time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float, work: Path, src: Path) -> dict:
    """Untraced passes of one workload for ``seconds``, then its checks.

    Times are the fastest of their repetitions: ``wall_s`` adds up each
    timed call's fastest time in the run, and ``setup_s`` is the fastest of
    SETUP_REPEATS tries spread over the run.  This host's CPU switches
    between a fast state and one up to 1.9x slower for seconds to minutes at
    a time, so a median mostly measures how much of the run fell in the slow
    state, while the fastest repetition of a short call measures the code
    whenever part of the run is fast (see README.md).
    """
    (work / name).mkdir()
    wl = workloads.WORKLOADS[name](seed, work / name, src)
    workloads.fresh_import_s(src)  # not timed: writes bytecode, warms the file cache
    setup = [setup_once(wl, src)]
    problems, passes = [], []
    t0, elapsed = time.perf_counter(), 0.0
    while len(passes) < MIN_PASSES or len(setup) < SETUP_REPEATS or elapsed < seconds:
        if passes:
            passes[-1].outputs = None  # free the last pass's results first
        passes.append(wl.run_pass())
        try:
            wl.after_pass(passes[-1])
        except checks.CheckError as exc:
            problems.append(str(exc))
        elapsed = time.perf_counter() - t0
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_once(wl, src))
    peak_rss_mb = wl.peak_rss_mb(passes)
    try:
        wl.final_check(passes[-1])
    except checks.CheckError as exc:
        problems.append(str(exc))
    timed = [p.walls for p in passes if not p.failed]
    wall_s = sum(min(call) for call in zip(*timed))
    walls = sorted(sum(w) for w in timed)
    for problem in problems:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    print(f"{name}: {len(passes)} passes, wall_s {wall_s:.4f} (pass median {median(walls):.4f}, "
          f"fastest {walls[0]:.4f}, slowest {walls[-1]:.4f}), setup_s {min(setup):.4f} "
          f"(median {median(setup):.4f}), peak_rss_mb {peak_rss_mb:.1f}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": min(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def traced(seed: int, seconds: float, work: Path, src: Path, spans_path: Path) -> dict:
    """Replay every workload, untraced then traced, in rounds for ``seconds``;
    the first round's traced outputs are checked.  The spans of every traced
    pass are written to ``spans_path`` at the end."""
    wls = []
    for name, cls in workloads.WORKLOADS.items():
        (work / name).mkdir()
        wls.append(cls(seed, work / name, src))
    for wl in wls:
        wl.construct()
    workloads.fresh_import_s(src)
    metrics = {"cli.import_s": {
        "value": min(workloads.fresh_import_s(src) for _ in range(SETUP_REPEATS)),
        "unit": "s"}}
    rounds = {wl.name: [] for wl in wls}
    recorded = []
    problems, attempted, failed = [], 0, 0
    t0, first = time.perf_counter(), True
    while first or time.perf_counter() - t0 < seconds:
        for wl in wls:
            attempted += 2 * wl.ops_per_pass
            try:
                per_layer, spans = tracing.traced_round(wl, src, check=first)
                rounds[wl.name].append(per_layer)
                recorded.append((wl.name, len(rounds[wl.name]), spans))
            except Exception as exc:  # a failed replay is counted, the others go on
                traceback.print_exc()
                failed += 2 * wl.ops_per_pass
                problems.append(f"{wl.name}: {exc}")
        first = False
    for name, per_round in rounds.items():
        for metric in tracing.LAYER_METRICS[name]:
            values = [r[metric] for r in per_round]
            if values:
                metrics[f"{name}.{metric}"] = {"value": median(values),
                                               "unit": tracing.unit_of(metric)}
    tracing.write_spans(spans_path, recorded)
    for problem in problems:
        print(f"traced run: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
