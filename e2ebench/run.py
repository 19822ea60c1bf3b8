#!/usr/bin/env python3
"""End-to-end benchmark of lcengine: CLI and library workloads.

    python3 e2ebench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the named workload runs passes of its operations for
``--seconds`` seconds with no tracing, checks its outputs, and reports the
pass time ``wall_s`` (each timed call at its fastest), the set-up time
``setup_s`` and the peak resident set ``peak_rss_mb``.  With ``--trace 1``
every workload is replayed in this process with spans around the calls
into each lcengine module, and the per-layer metrics are reported
instead; the spans go to ``.e2ebench_spans.jsonl`` in the checkout root.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
The program is imported from ``src/`` next to this directory; without it
the benchmark stops with exit code 2.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli_static", "cli_montecarlo", "lib_grid", "lib_loop")
SPANS_FILE = ".e2ebench_spans.jsonl"  # written by the traced run, in the checkout root


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_each(args) -> dict:
    """Every workload in its own process, so that no workload's peak RSS
    includes another's; one JSON line each, then the combined result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        if not proc.stdout.strip():
            raise SystemExit(f"{name}: no result (exit code {proc.returncode})")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **results[name]}))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lcengine" / "__init__.py").is_file():
        print(f"error: {SRC / 'lcengine'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lcengine

    if Path(lcengine.__file__).resolve().parent != (SRC / "lcengine").resolve():
        print(f"error: imported lcengine from {lcengine.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness

    if args.workload == "all" and not args.trace:
        result = run_each(args)
    else:
        work = ROOT / ".e2ebench_work" / str(os.getpid())
        work.mkdir(parents=True)
        try:
            if args.trace:
                result = harness.traced(args.seed, args.seconds, work, SRC, ROOT / SPANS_FILE)
            else:
                result = harness.measure(args.workload, args.seed, args.seconds, work, SRC)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
