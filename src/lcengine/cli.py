"""Command-line front door: validate models, run analyses, report results.

Exit codes: 0 success; 1 usage or validation failure; 2 I/O or parse
failure; 3 numerical failure (non-finite result).  Diagnostics go to
stderr, data and summaries to stdout.  Set
LCENGINE_LOG=debug|info|warning|error|critical for logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .dynamic import DynamicImpactResult, run_dynamic
from .econ import discounted_cost_result
# run_static is not called here; the tracer in e2ebench/tracing.py wraps cli.run_static
from .engine import (MonteCarloResult, UnitResult, _category_names, run_matrix,
                     run_monte_carlo, run_static)
from .errors import InvalidModelError, LcengineError, LoadError
from .io import (
    _STATS,
    _grid_where,
    _payload_grids,
    _write_files,
    export_results,
    import_results,
    load_background_db,
    load_dcf_tables,
    load_model,
    result_set,
    sha256_file,
    write_csv_grid,
)
from .model import ProcessModel, validate_model

log = logging.getLogger("lcengine")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

MODES = ("static", "montecarlo", "dynamic")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _category_list(text: str) -> tuple[str, ...]:
    """``--categories``: the comma-separated names, blanks dropped."""
    return _category_names(c.strip() for c in text.split(",") if c.strip())


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lcengine",
        description="Process-model impact and cost calculations: static, "
        "Monte Carlo, and time-resolved.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="Check a model against a background database.")
    p_val.add_argument("--model", required=True, metavar="FILE")
    p_val.add_argument("--db", required=True, metavar="CSV")

    p_run = sub.add_parser("run", help="Run an analysis and export the results.")
    p_run.add_argument("--model", required=True, metavar="FILE")
    p_run.add_argument("--db", required=True, metavar="CSV")
    # the run options are declared in the order of the result's meta.config
    p_run.add_argument("--mode", required=True, choices=MODES)
    p_run.add_argument("--dcf", default=None, metavar="CSV",
                       help="characterization factor tables (dynamic mode)")
    p_run.add_argument("--n-runs", type=int, default=None, metavar="N")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--rate", type=float, default=None,
                       help="override the model's per-period discount rate")
    p_run.add_argument("--output", default=None, metavar="PATH")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--categories", type=_category_list, default=None,
                       help="comma-separated impact categories to compute")
    p_run.add_argument("--threads", type=_non_negative_int, default=0,
                       help="accepted for compatibility; has no effect")

    p_rep = sub.add_parser("report", help="Summarize a result file; optionally emit plot data.")
    p_rep.add_argument("result", metavar="RESULT", help="result file written by 'run'")
    p_rep.add_argument("--plot-data", default=None, metavar="DIR",
                       help="write tidy CSVs for external plotting into DIR")
    return parser


# ---------------------------------------------------------------------------
# validate

def _load_failure(exc: LoadError) -> int:
    """Report a load error; a model that parsed but fails structural
    validation is invalid (exit 1), anything else is an I/O failure."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_IO if exc.report is None else EXIT_INVALID


def cmd_validate(model_path: str, db_path: str) -> int:
    try:
        model = load_model(model_path)
        db = load_background_db(db_path)
    except LoadError as exc:
        return _load_failure(exc)
    report = validate_model(model, db)
    for finding in report.findings:
        stream = sys.stderr if finding.severity == "error" else sys.stdout
        print(str(finding), file=stream)
    if report.is_valid:
        print("OK")
        return EXIT_OK
    return EXIT_INVALID


# ---------------------------------------------------------------------------
# run

def _usage_problem(args: argparse.Namespace) -> str | None:
    """The mode-specific problem of ``run``'s options, as a usage-error
    message, or None.  The parser's choices already limit ``mode`` and
    ``format``."""
    if args.mode == "dynamic" and not args.dcf:
        return "--mode dynamic requires --dcf"
    if args.mode == "montecarlo":
        if args.n_runs is None:
            return "--mode montecarlo requires --n-runs"
        if args.n_runs < 2:
            return f"--n-runs must be >= 2, got {args.n_runs}"
    if args.rate is not None and not math.isfinite(args.rate):
        return f"--rate must be finite, got {args.rate}"
    if args.rate is not None and args.rate < 0:
        return f"--rate must be >= 0, got {args.rate}"
    return None


class _NumericalFailure(Exception):
    pass


def _number(value, what: str) -> str:
    """A summary number, formatted; a non-finite one is a numerical failure."""
    value = float(value)
    if not np.isfinite(value):
        raise _NumericalFailure(f"{what} is {value}")
    return f"{value:.6g}"


def _sections(unit: UnitResult):
    """(kind, category, grid) of each impact category, then of cost."""
    for cat in unit.categories:
        yield "impact", cat, unit.impacts[cat]
    yield "cost", "", unit.cost


def _label(kind: str, category: str) -> str:
    return f"impact[{category}]" if kind == "impact" else kind


def _run_totals(what: str, grid: np.ndarray) -> np.ndarray:
    """Each scenario's or run's total over time; a non-finite one is a
    numerical failure."""
    totals = grid.sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(totals))
    if bad.size:
        raise _NumericalFailure(
            f"{what} summed over time at scenario={bad[0]} is {totals[bad[0]]}")
    return totals


def _checked_summary(rs) -> list[str]:
    """The printed summary of a result, made once every number of the
    result is checked: ``run`` and ``report`` call it before they print or
    write anything.  Raises _NumericalFailure at the first non-finite output
    cell, else at the first non-finite scenario or run total, else at the
    first non-finite summary number (each can overflow where what it sums
    is finite), else at the first non-finite cell of any grid of the
    result, breakdowns and statistics too, named by its section, name,
    category and cell."""
    payload = rs.payload
    unit = payload.samples if isinstance(payload, MonteCarloResult) else payload
    if isinstance(unit, UnitResult):
        sections = [(_label(kind, cat), cat or kind, grid) for kind, cat, grid in _sections(unit)]
    else:
        sections = [(f"{name}[{cat}]", cat, grid) for name, grids in
                    (("impact", unit.impacts), ("cumulative", unit.cumulative))
                    for cat, grid in grids.items()]
    for what, _, grid in sections:
        bad = np.argwhere(~np.isfinite(grid))
        if bad.size:
            s, t = bad[0]
            raise _NumericalFailure(f"{what} at scenario={s}, timestep={t} is {grid[s, t]}")
    if isinstance(payload, DynamicImpactResult):
        lines = [f"  horizon: {payload.t_out} periods (model window + factor tail)"] + [
            f"  {cat:<20} cumulative (scenario mean): " + _number(
                payload.cumulative[cat][:, -1].mean(), f"cumulative[{cat}] scenario mean")
            for cat in payload.categories]
    else:
        totals = [(what, name, _run_totals(what, grid)) for what, name, grid in sections]
        if isinstance(payload, UnitResult):
            label = "total" if unit.grid.n_scenarios == 1 else "total (scenario mean)"
            lines = [f"  {name:<20} {label}: " + _number(runs.mean(), f"{what} {label}")
                     for what, name, runs in totals]
        else:
            lines = [f"  runs: {payload.n_runs}, seed: {payload.seed}"]
            for what, name, runs in totals:
                lo, mid, hi = np.percentile(runs, [2.5, 50.0, 97.5])
                mean, sd, lo, mid, hi = (
                    _number(value, f"{what} run totals: {stat}") for stat, value in (
                        ("mean", runs.mean()), ("sd", runs.std(ddof=1)),
                        ("p2.5", lo), ("p50", mid), ("p97.5", hi)))
                lines.append(f"  {name:<20} mean: {mean}  sd: {sd}  "
                             f"[p2.5 {lo}, p50 {mid}, p97.5 {hi}]")
    for section, name, category, grid in _payload_grids(rs.payload_type, payload):
        bad = np.argwhere(~np.isfinite(grid))
        if bad.size:
            at = tuple(bad[0])  # (scenario, timestep), or (timestep,) for a statistic
            cell = f"scenario={at[0]}, timestep={at[1]}" if len(at) == 2 else f"timestep={at[0]}"
            raise _NumericalFailure(
                f"{_grid_where(section, name, category)} at {cell} is {grid[at]}")
    return lines


def _indicator_lines(indicators, rate: float) -> list[str]:
    """The printed economic indicators; a non-finite one is a numerical
    failure, since a finite cost grid can still overflow its present value."""
    named = (("present cost", indicators.npv), ("MSP", indicators.msp), ("LCOE", indicators.lcoe))
    if indicators.npv.shape[0] == 1:
        npv, msp, lcoe = (_number(values[0], name) for name, values in named)
        return [f"  economics (rate {rate:g}): present cost {npv}, MSP {msp}, LCOE {lcoe}"]
    lines = []
    for name, values in named:
        lo, hi = np.percentile(values, [2.5, 97.5])
        mean, lo, hi = (_number(value, f"{name} {stat}") for stat, value in (
            ("mean", values.mean()), ("p2.5", lo), ("p97.5", hi)))
        lines.append(f"  {name} (rate {rate:g}): mean {mean} [p2.5 {lo}, p97.5 {hi}]")
    return lines


# run checks its results for non-finite numbers before it prints or writes
# them, so NumPy's floating-point warnings would only announce a failure it reports
@np.errstate(all="ignore")
def cmd_run(args: argparse.Namespace) -> int:
    problem = _usage_problem(args)
    if problem:
        print(f"usage error: {problem}", file=sys.stderr)
        return EXIT_INVALID

    try:
        model = load_model(args.model)
        db = load_background_db(args.db)
        dcfs = load_dcf_tables(args.dcf) if args.dcf else None
    except LoadError as exc:
        return _load_failure(exc)

    if args.rate is not None:
        model = dataclasses.replace(model, discount_rate=args.rate)

    # the grid the engine call validates: Monte Carlo runs one scenario row per run
    grid = (dataclasses.replace(model.grid, n_scenarios=args.n_runs)
            if args.mode == "montecarlo" else model.grid)
    report = validate_model(model, db, grid=grid, require_cost=args.mode != "dynamic")
    if not report.is_valid:
        print(str(report), file=sys.stderr)
        return EXIT_INVALID
    for warning in report.warnings:
        print(str(warning), file=sys.stderr)
    if args.mode != "montecarlo" and report._draws:
        # static and dynamic modes evaluate the model on its own grid, without sampling
        print("usage error: model contains distribution amounts; use --mode montecarlo",
              file=sys.stderr)
        return EXIT_INVALID

    log.info("mode=%s", args.mode)

    try:
        if args.mode == "static":
            payload = run_matrix(model, db, seed=args.seed, categories=args.categories)
        elif args.mode == "montecarlo":
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                payload = run_monte_carlo(
                    model, db, args.n_runs, args.seed, categories=args.categories
                )
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
        else:
            payload = run_dynamic(model, db, dcfs, seed=args.seed, categories=args.categories)
    except LcengineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    meta = {
        "mode": args.mode,
        "model": model.name,
        "seed": args.seed,
        # every run option, in the parser's declaration order
        "config": {key: value for key, value in vars(args).items() if key != "command"},
        "input_sha256": _input_hashes(args, model),
    }
    rs = result_set(payload, meta)
    try:
        summary = _checked_summary(rs)
    except _NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    indicators = []
    if model.production is not None:
        cost_grid = _cost_grid_for_indicators(payload, model, db, args.seed)
        if cost_grid is not None:
            try:
                result = discounted_cost_result(
                    cost_grid, model.production, model.discount_rate
                )
                indicators = _indicator_lines(result, model.discount_rate)
            # ArithmeticError: a division by zero, or a discount factor past the float range
            except (LcengineError, ValueError, ArithmeticError) as exc:
                print(f"error: economic indicators: {exc}", file=sys.stderr)
                return EXIT_INVALID
            except _NumericalFailure as exc:
                print(f"numerical failure: {exc}", file=sys.stderr)
                return EXIT_NUMERIC

    output = args.output or f"{Path(args.model).stem}_{args.mode}.{args.format}"
    try:
        export_results(rs, args.format, output)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"model: {model.name}  mode: {args.mode}  "
          f"grid: {model.grid.n_scenarios}x{model.grid.n_timesteps} ({model.grid.step_label})")
    print("\n".join(summary + indicators))
    print(f"results written to: {output}")
    return EXIT_OK


def _cost_grid_for_indicators(payload, model, db, seed: int) -> np.ndarray | None:
    if isinstance(payload, UnitResult):
        return payload.cost
    if isinstance(payload, MonteCarloResult):
        return payload.samples.cost
    # dynamic payload carries no costs; compute them on the model grid when possible
    try:
        unit = run_matrix(model, db, seed=seed, categories=())
    except InvalidModelError as exc:
        finding = exc.report.errors[0]
        print(f"warning: economic indicators skipped: {finding.location}: {finding.message}",
              file=sys.stderr)
        return None
    return unit.cost


def _input_hashes(args: argparse.Namespace, model: ProcessModel) -> dict:
    hashes = {"model": sha256_file(args.model), "db": sha256_file(args.db)}
    if args.dcf:
        hashes["dcf"] = sha256_file(args.dcf)
    if model.matrix_files:
        hashes["matrix_files"] = {
            written: sha256_file(read) for written, read in model.matrix_files.items()
        }
    return hashes


# ---------------------------------------------------------------------------
# report

def _csv_table(header: str, grids):
    """A plot-data writer: the header line, then each (lead, grid) of ``grids`` in CSV lines."""
    def write(fh) -> None:
        fh.write(header + "\n")
        for lead, grid in grids:
            write_csv_grid(fh, lead, grid)
    return write


def _contributions(unit: UnitResult, mean_over_runs: bool):
    """Each sub-process's term of each category and of cost, or its mean over
    runs, as (row key, term); a non-finite term (a finite breakdown times a
    finite exchange can overflow) is a numerical failure."""
    for sp in unit.sp_unit_costs:
        for kind, cat, _ in _sections(unit):
            term = (unit.contribution_impact(sp, cat) if kind == "impact"
                    else unit.contribution_cost(sp))
            if mean_over_runs:
                term = term.mean(axis=0)
            bad = term[~np.isfinite(term)]
            if bad.size:
                raise _NumericalFailure(
                    f"contribution of sub-process {sp!r} to {_label(kind, cat)} is {bad[0]}")
            yield (kind, cat, sp), term


def _write_histograms(unit: UnitResult, fh) -> None:
    """50-bin histograms of the per-run totals of each category and of cost."""
    fh.write("kind,category,bin_left,bin_right,count\n")
    writer = csv.writer(fh, lineterminator="\n")
    for kind, cat, grid in _sections(unit):
        try:
            counts, edges = np.histogram(grid.sum(axis=1), bins=50)
        except ValueError as exc:  # a range too narrow or too wide for 50 float bins
            raise _NumericalFailure(
                f"histogram of {_label(kind, cat)} run totals: {exc}") from None
        writer.writerows([kind, cat, repr(float(edges[i])), repr(float(edges[i + 1])), int(count)]
                         for i, count in enumerate(counts))


def _plot_files(payload) -> dict:
    """The --plot-data files of a result, name -> writer, in the order written:
    so a failing histogram is reported before a failing contribution."""
    if isinstance(payload, DynamicImpactResult):
        return {
            "impact_over_time.csv": _csv_table("category,scenario,timestep,value", (
                ((cat,), grid) for cat, grid in payload.impacts.items())),
            "cumulative.csv": _csv_table("category,scenario,timestep,value", (
                ((cat,), grid) for cat, grid in payload.cumulative.items())),
            "contributions.csv": _csv_table("substance,category,scenario,timestep,value", (
                ((sub, cat), grid) for sub, per_cat in payload.contributions.items()
                for cat, grid in per_cat.items())),
        }
    if isinstance(payload, MonteCarloResult):
        unit = payload.samples
        stats = {"impact": payload.impact_stats, "cost": {"": payload.cost_stats}}
        return {
            "impact_over_time.csv": _csv_table("kind,category,stat,timestep,value", (
                ((kind, cat, label), getattr(stats[kind][cat], attr))
                for kind, cat, _ in _sections(unit) for label, attr in _STATS)),
            "histograms.csv": lambda fh: _write_histograms(unit, fh),
            "contributions.csv": _csv_table("kind,category,subprocess,timestep,value",
                                            _contributions(unit, True)),
        }
    return {
        "impact_over_time.csv": _csv_table("kind,category,scenario,timestep,value", (
            ((kind, cat), grid) for kind, cat, grid in _sections(payload))),
        "contributions.csv": _csv_table("kind,category,subprocess,scenario,timestep,value",
                                        _contributions(payload, False)),
    }


# like run, report checks each number it prints or writes (see cmd_run)
@np.errstate(all="ignore")
def cmd_report(result_path: str, plot_data: str | None = None) -> int:
    try:
        rs = import_results(result_path)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        summary = _checked_summary(rs)
    except _NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    print(f"result: {result_path}  payload: {rs.payload_type}")
    for key in ("model", "mode", "seed"):
        if key in rs.meta:
            print(f"  {key}: {rs.meta[key]}")
    print("\n".join(summary))

    if plot_data:
        out_dir = Path(plot_data)
        files = _plot_files(rs.payload)
        try:
            _write_files(out_dir, files)
        except _NumericalFailure as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except OSError as exc:
            print(f"error: cannot write plot data to {out_dir}: {exc}", file=sys.stderr)
            return EXIT_IO
        for name in files:
            print(f"plot data written to: {out_dir / name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    level = os.environ.get("LCENGINE_LOG", "warning")
    if not isinstance(logging.getLevelName(level.upper()), int):  # a name logging does not know
        print(f"usage error: LCENGINE_LOG must be one of debug, info, warning, error, "
              f"critical; got {level!r}", file=sys.stderr)
        return EXIT_INVALID
    logging.basicConfig(
        level=level.upper(),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    if args.command == "validate":
        return cmd_validate(args.model, args.db)
    if args.command == "run":
        return cmd_run(args)
    return cmd_report(args.result, args.plot_data)


if __name__ == "__main__":
    sys.exit(main())
