"""File ingestion and result export.

Three input formats, all UTF-8 (a leading byte-order mark is ignored) with
dot decimal separators:

* Model documents: YAML with a required ``schema_version: 1`` header, a
  ``process`` block, a ``grid`` block and a ``subprocesses`` list whose
  entries each carry a ``flows`` list.  Matrix-valued amounts reference a
  sidecar numeric CSV through ``matrix_file`` (scenario rows x time
  columns, resolved relative to the model file) or inline a small
  ``matrix`` list of rows.
* Background database CSV: header ``flow,unit_cost,<category>...`` plus
  optional ``inv:<substance>`` columns.  An empty cell means "no value";
  a category cell holds one value, either a single number or a
  semicolon-separated per-period series (length n_timesteps).  A row keyed
  by a substance name doubles as that substance's static characterization
  factors: its single-number cells.
* Factor tables CSV: header ``substance,category,mode,horizon,tau,factor``.
  annual_step rows enumerate tau = 0,1,2,... per (substance, category);
  fixed_horizon entries are a single row with horizon filled and tau
  empty.

Results export to JSON (full fidelity) or long-format CSV, and both hold the
same grids: ``_payload_grids`` lists them, ``_JSON_KEYS`` places each in the
JSON payload, and both importers end in ``_build_payload``, so the formats
share one reader contract.  Both re-import bit-exactly, and exporting an
imported result reproduces the file byte for byte.  Loaders raise LoadError
with file/line context and never return a partially built object.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import math
import numbers
import os
import re
import shutil
import tempfile
from array import array
from dataclasses import dataclass, field
from json.decoder import scanstring
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .dynamic import ANNUAL_STEP, FIXED_HORIZON, DCFTable, DynamicImpactResult
from .engine import MonteCarloResult, SummaryStats, UnitResult
from .errors import DistributionError, LoadError, ShapeError
from .model import (
    FOREGROUND,
    DistributionAmount,
    ExchangeAmount,
    FlowDefinition,
    FunctionalUnit,
    MatrixAmount,
    ProcessModel,
    ScalarAmount,
    ScenarioGrid,
    SubProcessDefinition,
    _frozen_series,
    validate_model,
)
from .sampler import _PARAM_NAMES, DistributionSpec

RESULT_SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 1

_CSV_HEADER = ["section", "name", "scenario", "timestep", "category", "value"]


# ---------------------------------------------------------------------------
# background database

@dataclass(frozen=True, eq=False)
class BackgroundRow:
    """Unit values of one background flow (or substance, see static_factors);
    an ``impacts`` cell is a float or a per-period series, frozen once here."""

    unit_cost: float | None = None
    impacts: Mapping[str, float | np.ndarray] = field(default_factory=dict)
    inventory: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "impacts", {
            cat: value if isinstance(value, numbers.Real) else _series_cell(cat, value)
            for cat, value in self.impacts.items()
        })


def _series_cell(category: str, value) -> np.ndarray:
    """A per-period impact cell, frozen by the rule of ``model._frozen_series``;
    anything but a flat sequence of numbers is a ValueError naming the category."""
    try:
        arr = np.asarray(value)
    except ValueError:  # sequences of unequal lengths
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "biuf":
        raise ValueError(f"impact cell for category {category!r} is neither a real "
                         f"number nor a sequence of numbers: {value!r}")
    if arr is not value:  # a new array, frozen here rather than copied again
        arr.flags.writeable = False
    return _frozen_series(arr)


@dataclass(frozen=True, eq=False)
class UnitValueTable:
    """Background database: flow name -> unit cost, unit impacts, inventory."""

    rows: Mapping[str, BackgroundRow]

    def static_factors(self, substance: str) -> dict[str, float]:
        """Static characterization factors for a substance: its row's single values."""
        row = self.rows.get(substance)
        cells = row.impacts.items() if row is not None else ()
        return {cat: v for cat, v in cells if not isinstance(v, np.ndarray)}


# ---------------------------------------------------------------------------
# low-level parsing helpers

def _read_text(path) -> str:
    """The text of an input file, decoded as UTF-8, without the byte-order
    mark that spreadsheet programs write at the start of a UTF-8 CSV."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise LoadError(f"cannot read file: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise LoadError(f"file is not valid UTF-8: {exc}", path=str(path)) from exc


def _parse_number(text: str, where: str, path, line: int | None = None) -> float:
    try:
        if "_" in text:  # float() takes digit-group underscores; CSV numbers do not
            raise ValueError
        value = float(text.strip())
    except (ValueError, TypeError):
        raise LoadError(f"{where}: invalid number {text!r}", path=path, line=line) from None
    return value


def _parse_finite(text: str, where: str, path, line: int) -> float:
    value = _parse_number(text, where, path, line)
    if not math.isfinite(value):
        raise LoadError(f"{where}: expected a finite number, got {text.strip()!r}",
                        path=path, line=line)
    return value


def _parse_integer(text: str, where: str, path, line: int) -> int:
    value = _parse_number(text, where, path, line)
    if not value.is_integer():  # also rejects nan and inf
        raise LoadError(f"{where}: expected an integer, got {text.strip()!r}",
                        path=path, line=line)
    return int(value)


def _csv_records(text: str, path) -> list[tuple[int, list[str]]]:
    """The records of a CSV text that hold a non-blank cell, each with the
    line it starts on, so a diagnostic names that line."""
    reader = csv.reader(_io.StringIO(text))
    records, line = [], 1
    try:
        for record in reader:
            if any(cell.strip() for cell in record):
                records.append((line, record))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise LoadError(f"CSV parse error: {exc}", path=str(path),
                        line=reader.line_num) from exc
    return records


def _require_mapping(obj, where: str, path) -> dict:
    if not isinstance(obj, dict):
        raise LoadError(f"{where}: expected a mapping, got {type(obj).__name__}", path=path)
    return obj


def _reject_unknown_keys(mapping: dict, allowed: Sequence[str], where: str, path) -> None:
    unknown = [k for k in mapping if k not in allowed]
    if unknown:
        raise LoadError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}",
            path=path,
        )


_MISSING = object()


def _get(mapping: dict, key: str, where: str, path, default=_MISSING):
    value = mapping.get(key, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise LoadError(f"{where}: missing required key {key!r}", path=path)
        return default
    return value


def _as_number(value, where: str, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LoadError(f"{where}: expected a number, got {value!r}", path=path)
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise LoadError(f"{where}: integer out of the float range", path=path) from None


def _as_int(value, where: str, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise LoadError(f"{where}: expected an integer, got {value!r}", path=path)
    return value


def _as_str(value, where: str, path) -> str:
    if not isinstance(value, str) or not value:
        raise LoadError(f"{where}: expected a non-empty string, got {value!r}", path=path)
    return value


# ---------------------------------------------------------------------------
# model documents

def _parse_distribution(mapping: dict, where: str, path) -> DistributionAmount:
    kind = _as_str(_get(mapping, "dist", where, path), f"{where}: dist", path)
    if kind not in _PARAM_NAMES:
        raise LoadError(
            f"{where}: unknown distribution {kind!r}; "
            f"expected one of {', '.join(_PARAM_NAMES)}",
            path=path,
        )
    names = _PARAM_NAMES[kind]
    _reject_unknown_keys(mapping, ("dist", *names), where, path)
    params = tuple(
        _as_number(_get(mapping, n, where, path), f"{where}: {n}", path) for n in names
    )
    try:
        return DistributionAmount(DistributionSpec(kind, params))
    except DistributionError as exc:
        raise LoadError(f"{where}: {exc}", path=path) from exc


def _numpy_matrix(text: str) -> np.ndarray:
    return np.loadtxt(_io.StringIO(text), dtype=np.float64, delimiter=",",
                      comments=None, ndmin=2)


def load_matrix_csv(path) -> np.ndarray:
    """Numeric CSV, scenario rows by time columns, no header.

    NumPy's reader parses a file of unquoted numbers; wherever it takes a
    cell, it gives the bits of ``float()``.  It rejects a whitespace-only
    line, which the CSV parser skips, so it reads the text without such
    lines, once.  A file it rejects goes to the CSV parser, which reads the
    original text: quoted cells, and the line and column of a bad cell, or
    the line of a row with another number of columns.
    """
    path = str(path)
    text = _read_text(path)
    lines = text.split("\n")
    # NumPy warns on a blank file, and takes a cell longer than csv.reader does
    if text.strip() and max(map(len, lines)) <= csv.field_size_limit():
        try:
            return _numpy_matrix("\n".join(line for line in lines if not line.isspace()))
        except ValueError:
            pass
    records = _csv_records(text, path)
    rows = [[_parse_number(cell, f"column {i + 1}", path, line)
             for i, cell in enumerate(record)]
            for line, record in records]
    if not rows:
        raise LoadError("matrix file is empty", path=path)
    width = len(rows[0])
    for i, (line, record) in enumerate(records):
        if len(record) != width:
            raise LoadError(f"row {i + 1} has {len(record)} columns, expected {width}",
                            path=path, line=line)
    return np.asarray(rows, dtype=np.float64)


def _parse_amount(obj, where: str, path, base_dir: Path, matrix_files: dict) -> ExchangeAmount:
    if isinstance(obj, bool):
        raise LoadError(f"{where}: expected an amount, got a boolean", path=path)
    if isinstance(obj, (int, float)):
        return ScalarAmount(_as_number(obj, where, path))
    if isinstance(obj, dict):
        if "dist" in obj:
            return _parse_distribution(obj, where, path)
        if "matrix_file" in obj:
            _reject_unknown_keys(obj, ("matrix_file",), where, path)
            rel = _as_str(obj["matrix_file"], f"{where}: matrix_file", path)
            matrix_files[rel] = str(base_dir / rel)
            return MatrixAmount(load_matrix_csv(base_dir / rel))
        if "matrix" in obj:
            _reject_unknown_keys(obj, ("matrix",), where, path)
            data = obj["matrix"]
            if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
                raise LoadError(f"{where}: matrix must be a list of rows", path=path)
            values = [
                [_as_number(v, f"{where}: matrix cell", path) for v in row] for row in data
            ]
            if not values or any(len(r) != len(values[0]) for r in values):
                raise LoadError(f"{where}: matrix rows must be non-empty and equal length", path=path)
            return MatrixAmount(np.asarray(values, dtype=np.float64))
    raise LoadError(
        f"{where}: amount must be a number, or a mapping with "
        f"'dist', 'matrix_file' or 'matrix'",
        path=path,
    )


def _parse_flow(obj, where: str, path, base_dir: Path, matrix_files: dict) -> FlowDefinition:
    mapping = _require_mapping(obj, where, path)
    allowed = ("name", "direction", "amount", "background", "unit_impact", "unit_cost", "substance")
    _reject_unknown_keys(mapping, allowed, where, path)
    name = _as_str(_get(mapping, "name", where, path), f"{where}: name", path)
    where = f"{where} {name!r}"
    direction = _as_str(_get(mapping, "direction", where, path), f"{where}: direction", path)
    if direction not in ("inflow", "outflow"):
        raise LoadError(f"{where}: direction must be 'inflow' or 'outflow'", path=path)
    amount = _parse_amount(
        _get(mapping, "amount", where, path), f"{where}: amount", path, base_dir, matrix_files
    )
    background = mapping.get("background")
    if background is not None:
        background = _as_str(background, f"{where}: background", path)
    inline_impact = mapping.get("unit_impact")
    if inline_impact is not None:
        inline_impact = _require_mapping(inline_impact, f"{where}: unit_impact", path)
        inline_impact = {
            _as_str(k, f"{where}: unit_impact key", path): _as_number(
                v, f"{where}: unit_impact[{k!r}]", path
            )
            for k, v in inline_impact.items()
        }
    inline_cost = mapping.get("unit_cost")
    if inline_cost is not None:
        inline_cost = _as_number(inline_cost, f"{where}: unit_cost", path)
    substance = mapping.get("substance")
    if substance is not None:
        substance = _as_str(substance, f"{where}: substance", path)
    return FlowDefinition(
        name=name,
        direction=direction,
        amount=amount,
        background_ref=background if background is not None else FOREGROUND,
        inline_unit_impact=inline_impact,
        inline_unit_cost=inline_cost,
        substance=substance,
    )


def load_model(path) -> ProcessModel:
    """Parse and structurally validate a model document.

    Raises LoadError on parse failures (with line/column when YAML
    reports one) and on schema violations, naming the offending element.
    Resolvability against a background database is checked separately by
    ``validate_model(model, db)``.
    """
    import yaml  # here, so that reading a result never loads it

    path = str(path)
    text = _read_text(path)
    try:
        doc = yaml.safe_load(text)
    except ValueError as exc:  # an integer past int's digit limit
        raise LoadError(f"YAML parse error: {exc}", path=path) from exc
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise LoadError(f"YAML parse error: {exc}", path=path, line=line) from exc
    if doc is None:
        raise LoadError("empty document", path=path)
    doc = _require_mapping(doc, "model document", path)
    _reject_unknown_keys(doc, ("schema_version", "process", "grid", "subprocesses"), "model document", path)
    version = _as_int(_get(doc, "schema_version", "model document", path), "schema_version", path)
    if version != MODEL_SCHEMA_VERSION:
        raise LoadError(
            f"unsupported schema_version {version}, expected {MODEL_SCHEMA_VERSION}",
            path=path,
        )

    proc = _require_mapping(_get(doc, "process", "model document", path), "process block", path)
    _reject_unknown_keys(
        proc,
        ("name", "functional_unit", "reference_amount", "discount_rate", "categories", "production"),
        "process block",
        path,
    )
    name = _as_str(_get(proc, "name", "process block", path), "process: name", path)
    fu_desc = proc.get("functional_unit", "")
    if not isinstance(fu_desc, str):
        raise LoadError("process: functional_unit must be a string", path=path)
    ref_amount = _as_number(proc.get("reference_amount", 1.0), "process: reference_amount", path)
    rate = _as_number(proc.get("discount_rate", 0.0), "process: discount_rate", path)
    categories = _get(proc, "categories", "process block", path)
    if not isinstance(categories, list) or not categories:
        raise LoadError("process: categories must be a non-empty list", path=path)
    categories = tuple(_as_str(c, "process: categories entry", path) for c in categories)

    grid_map = _require_mapping(_get(doc, "grid", "model document", path), "grid block", path)
    _reject_unknown_keys(grid_map, ("scenarios", "timesteps", "step", "origin"), "grid block", path)
    n_s = _as_int(_get(grid_map, "scenarios", "grid block", path), "grid: scenarios", path)
    n_t = _as_int(_get(grid_map, "timesteps", "grid block", path), "grid: timesteps", path)
    step = grid_map.get("step", "year")
    if not isinstance(step, str):
        raise LoadError("grid: step must be a string", path=path)
    origin = _as_int(grid_map.get("origin", 0), "grid: origin", path)
    try:
        grid = ScenarioGrid(n_s, n_t, step, origin)
    except ShapeError as exc:
        raise LoadError(f"grid block: {exc}", path=path) from exc

    production = proc.get("production")
    if production is not None:
        if isinstance(production, (int, float)) and not isinstance(production, bool):
            production = np.full(grid.n_timesteps,
                                 _as_number(production, "process: production", path))
        elif isinstance(production, list):
            production = np.asarray(
                [_as_number(v, "process: production entry", path) for v in production]
            )
        else:
            raise LoadError("process: production must be a number or list", path=path)

    sps_obj = _get(doc, "subprocesses", "model document", path)
    if not isinstance(sps_obj, list) or not sps_obj:
        raise LoadError("subprocesses must be a non-empty list", path=path)
    base_dir = Path(path).parent
    matrix_files: dict[str, str] = {}
    subprocesses = []
    for i, sp_obj in enumerate(sps_obj):
        where = f"subprocess #{i + 1}"
        sp_map = _require_mapping(sp_obj, where, path)
        _reject_unknown_keys(sp_map, ("name", "amount", "flows"), where, path)
        sp_name = _as_str(_get(sp_map, "name", where, path), f"{where}: name", path)
        where = f"subprocess {sp_name!r}"
        amount = _parse_amount(
            _get(sp_map, "amount", where, path), f"{where}: amount", path, base_dir, matrix_files
        )
        flows_obj = _get(sp_map, "flows", where, path)
        if not isinstance(flows_obj, list) or not flows_obj:
            raise LoadError(f"{where}: flows must be a non-empty list", path=path)
        flows = tuple(
            _parse_flow(f_obj, f"{where}, flow", path, base_dir, matrix_files)
            for f_obj in flows_obj
        )
        subprocesses.append(SubProcessDefinition(name=sp_name, amount=amount, flows=flows))

    try:
        model = ProcessModel(
            name=name,
            subprocesses=tuple(subprocesses),
            grid=grid,
            categories=categories,
            discount_rate=rate,
            functional_unit=FunctionalUnit(fu_desc, ref_amount),
            production=production,
            matrix_files=matrix_files,
        )
    except (ValueError, ShapeError) as exc:
        raise LoadError(str(exc), path=path) from exc

    report = validate_model(model, None)
    if not report.is_valid:
        raise LoadError(f"model fails structural validation:\n{report}", path=path,
                        report=report)
    return model


# ---------------------------------------------------------------------------
# background database CSV

def load_background_db(path) -> UnitValueTable:
    """Parse a background database CSV (see module docstring for the schema)."""
    path = str(path)
    text = _read_text(path)
    records = _csv_records(text, path)
    if not records:
        raise LoadError("database file is empty", path=path)
    header = [h.strip() for h in records[0][1]]
    if not header or header[0] != "flow":
        raise LoadError(f"first column must be 'flow', got {header[:1]!r}", path=path)
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise LoadError(f"duplicate column name(s): {', '.join(dupes)}", path=path)
    categories = [
        h for h in header[1:] if h != "unit_cost" and not h.startswith("inv:")
    ]
    for cat in categories:
        if not cat:
            raise LoadError("empty category column name", path=path)
    if "inv:" in header:
        raise LoadError("empty substance in inv: column", path=path)
    inventory_columns = [(col, col[4:]) for col in header[1:] if col.startswith("inv:")]

    rows: dict[str, BackgroundRow] = {}
    for lineno, record in records[1:]:
        if len(record) != len(header):
            raise LoadError(
                f"row has {len(record)} cells, header has {len(header)}",
                path=path,
                line=lineno,
            )
        cells = dict(zip(header, (c.strip() for c in record)))
        flow = cells["flow"]
        if not flow:
            raise LoadError("empty flow name", path=path, line=lineno)
        if flow in rows:
            raise LoadError(f"duplicate flow key {flow!r}", path=path, line=lineno)
        unit_cost = None
        if cells.get("unit_cost"):
            unit_cost = _parse_number(cells["unit_cost"], f"{flow}: unit_cost", path, lineno)
        impacts: dict[str, float | list[float]] = {}
        for cat in categories:
            cell = cells[cat]
            if not cell:
                continue
            if ";" in cell:
                impacts[cat] = [
                    _parse_number(part, f"{flow}: {cat} period value", path, lineno)
                    for part in cell.split(";")
                ]
            else:
                impacts[cat] = _parse_number(cell, f"{flow}: {cat}", path, lineno)
        inventory: dict[str, float] = {}
        for col, substance in inventory_columns:
            cell = cells[col]
            if cell:
                inventory[substance] = _parse_number(
                    cell, f"{flow}: inv:{substance}", path, lineno
                )
        rows[flow] = BackgroundRow(unit_cost=unit_cost, impacts=impacts, inventory=inventory)
    return UnitValueTable(rows=rows)


# ---------------------------------------------------------------------------
# characterization factor tables CSV

_DCF_HEADER = ["substance", "category", "mode", "horizon", "tau", "factor"]


def load_dcf_tables(path) -> list[DCFTable]:
    """Parse characterization factor tables (one per substance and category)."""
    path = str(path)
    text = _read_text(path)
    records = _csv_records(text, path)
    if not records:
        raise LoadError("factor file is empty", path=path)
    header = [h.strip() for h in records[0][1]]
    if header != _DCF_HEADER:
        raise LoadError(
            f"header must be {','.join(_DCF_HEADER)!r}, got {','.join(header)!r}",
            path=path,
        )
    # (substance, category, mode) -> its rows, in the order the keys first appear:
    # tau -> factor for annual_step, horizon -> factor for fixed_horizon
    rows: dict[tuple[str, str, str], dict[int, float]] = {}
    for lineno, record in records[1:]:
        if len(record) != len(header):
            raise LoadError(
                f"row has {len(record)} cells, expected {len(header)}", path=path, line=lineno
            )
        substance, category, mode, horizon, tau, factor = (c.strip() for c in record)
        if not substance or not category:
            raise LoadError("substance and category must be non-empty", path=path, line=lineno)

        def bad_row(problem: str) -> LoadError:
            return LoadError(f"{substance}/{category}: {problem}", path=path, line=lineno)

        key = (substance, category, mode)
        if mode == ANNUAL_STEP:
            if horizon:
                raise bad_row("annual_step rows must leave horizon empty")
            if not tau:
                raise bad_row("annual_step rows need a tau")
            n = _parse_integer(tau, f"{substance}: tau", path, lineno)
            if n in rows.setdefault(key, {}):
                raise bad_row(f"duplicate tau {n}")
        elif mode == FIXED_HORIZON:
            if tau:
                raise bad_row("fixed_horizon rows must leave tau empty")
            if key in rows:
                raise bad_row("duplicate fixed_horizon row")
            if not horizon:
                raise bad_row("fixed_horizon rows need a horizon")
            n = _parse_integer(horizon, f"{substance}: horizon", path, lineno)
            if n < 1:
                raise bad_row(f"horizon must be >= 1, got {n}")
            rows[key] = {}
        else:
            raise bad_row(f"mode must be {ANNUAL_STEP!r} or {FIXED_HORIZON!r}, got {mode!r}")
        rows[key][n] = _parse_finite(factor, f"{substance}: factor", path, lineno)

    tables: list[DCFTable] = []
    for (substance, category, mode), factor_of in rows.items():
        if mode == FIXED_HORIZON:
            [(h, factor)] = factor_of.items()
            tables.append(DCFTable(substance, category, mode, np.asarray([factor]), horizon=h))
            continue
        # n distinct taus are contiguous from 0 when none of 0..n-1 is missing
        missing = [t for t in range(len(factor_of)) if t not in factor_of]
        if missing:
            raise LoadError(
                f"{substance}/{category}: tau values must be contiguous from 0; "
                f"missing tau {missing[0]}",
                path=path,
            )
        factors = np.asarray([factor_of[t] for t in range(len(factor_of))], dtype=np.float64)
        tables.append(DCFTable(substance, category, mode, factors))
    return tables


# ---------------------------------------------------------------------------
# result sets

@dataclass(eq=False)
class ResultSet:
    """One run's payload plus round-trippable metadata (mode, seed, config...)."""

    meta: dict
    payload_type: str  # "unit" | "monte_carlo" | "dynamic"
    payload: UnitResult | MonteCarloResult | DynamicImpactResult


def result_set(payload, meta: dict | None = None) -> ResultSet:
    """Wrap an engine result for export, inferring the payload type."""
    if isinstance(payload, UnitResult):
        kind = "unit"
    elif isinstance(payload, MonteCarloResult):
        kind = "monte_carlo"
    elif isinstance(payload, DynamicImpactResult):
        kind = "dynamic"
    else:
        raise TypeError(f"not an exportable result: {type(payload).__name__}")
    return ResultSet(meta=dict(meta or {}), payload_type=kind, payload=payload)


def sha256_file(path) -> str:
    import hashlib  # here, so that importing lcengine does not load OpenSSL

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _grid_to_dict(grid: ScenarioGrid) -> dict:
    return {
        "scenarios": grid.n_scenarios,
        "timesteps": grid.n_timesteps,
        "step": grid.step_label,
        "origin": grid.step_origin,
    }


def _grid_where(section: str, name: str, category: str) -> str:
    """Where a grid sits in a result, in the CSV's terms, for diagnostics."""
    return f"section {section!r}, name {name!r}, category {category!r}"


# ---------------------------------------------------------------------------
# the result layout: the grids of each payload type, in CSV file order, and
# their places in the JSON payload

# each SummaryStats series: its name in a result file, its attribute
_STATS = (("mean", "mean"), ("sd", "sd"), ("p2.5", "p2_5"), ("p50", "p50"), ("p97.5", "p97_5"))

# each section's place in a JSON payload: the keys down to its grids, where
# "{name}" and "{category}" stand for a grid's name and category
_JSON_KEYS = {
    "unit": {
        "impact": ("impacts", "{category}"),
        "cost": ("cost",),
        "sp_unit_impact": ("sp_unit_impacts", "{name}", "{category}"),
        "sp_unit_cost": ("sp_unit_costs", "{name}"),
        "sp_exchange": ("sp_exchange", "{name}"),
    },
    "dynamic": {
        "dynamic_impact": ("impacts", "{category}"),
        "dynamic_cumulative": ("cumulative", "{category}"),
        "dynamic_contribution": ("contributions", "{name}", "{category}"),
    },
}
# a Monte Carlo payload keeps its unit sections under "samples"
_JSON_KEYS["monte_carlo"] = {
    **{section: ("samples", *keys) for section, keys in _JSON_KEYS["unit"].items()},
    "stat": ("impact_stats", "{category}", "{name}"),
    "stat_cost": ("cost_stats", "{name}"),
}

# each name list of a JSON payload: the section whose grids carry the names,
# and the field of a grid's (section, name, category) key that holds one
_NAME_LISTS = {
    "unit": {"categories": ("impact", 2), "sp_order": ("sp_unit_cost", 1)},
    "monte_carlo": {"categories": ("impact", 2), "sp_order": ("sp_unit_cost", 1)},
    "dynamic": {"categories": ("dynamic_impact", 2), "substances": ("dynamic_contribution", 1)},
}


def _payload_grids(payload_type: str, payload) -> Iterator[tuple[str, str, str, np.ndarray]]:
    """Every grid of a payload as ``(section, name, category, grid)``, in
    CSV file order."""
    if payload_type == "dynamic":
        for section, grids in (("dynamic_impact", payload.impacts),
                               ("dynamic_cumulative", payload.cumulative)):
            for cat in payload.categories:
                yield section, "", cat, grids[cat]
        for sub, per_cat in payload.contributions.items():
            for cat, grid in per_cat.items():
                yield "dynamic_contribution", sub, cat, grid
        return
    unit = payload.samples if payload_type == "monte_carlo" else payload
    for cat in unit.categories:
        yield "impact", "", cat, unit.impacts[cat]
    yield "cost", "", "", unit.cost
    for sp in unit.sp_unit_costs:
        for cat in unit.categories:
            yield "sp_unit_impact", sp, cat, unit.sp_unit_impacts[sp][cat]
        yield "sp_unit_cost", sp, "", unit.sp_unit_costs[sp]
        yield "sp_exchange", sp, "", unit.sp_exchange[sp]
    if payload_type == "monte_carlo":
        stats = [("stat", cat, payload.impact_stats[cat]) for cat in unit.categories]
        for section, cat, series in (*stats, ("stat_cost", "", payload.cost_stats)):
            for name, attr in _STATS:
                yield section, name, cat, getattr(series, attr)


def _json_payload(payload_type: str, payload) -> dict:
    """The JSON payload object: dimensions and name lists, then every grid
    at its ``_JSON_KEYS`` place."""
    unit = payload.samples if payload_type == "monte_carlo" else payload
    if payload_type == "dynamic":
        subs = list(payload.contributions)
        doc = {"grid": _grid_to_dict(payload.grid), "t_out": payload.t_out,
               "categories": list(payload.categories), "impacts": {}, "cumulative": {},
               "substances": subs, "contributions": {sub: {} for sub in subs}}
    else:
        sps = list(unit.sp_unit_costs)
        doc = {"grid": _grid_to_dict(unit.grid), "categories": list(unit.categories),
               "impacts": {}, "cost": None, "sp_order": sps,
               "sp_unit_impacts": {sp: {} for sp in sps}, "sp_unit_costs": {}, "sp_exchange": {}}
    if payload_type == "monte_carlo":
        doc = {"n_runs": payload.n_runs, "seed": payload.seed, "samples": doc,
               "impact_stats": {cat: {} for cat in unit.categories}, "cost_stats": {}}
    for section, name, category, grid in _payload_grids(payload_type, payload):
        *keys, last = (key.format(name=name, category=category)
                       for key in _JSON_KEYS[payload_type][section])
        node = doc
        for key in keys:
            node = node[key]
        node[last] = grid
    return doc


def _json_cells(payload_type: str, payload) -> dict[tuple[str, str, str], object]:
    """The grids of a JSON payload by ``(section, name, category)``, found
    along ``_JSON_KEYS`` in file order; a missing key holds no grids."""
    cells = {}

    def walk(node, section: str, keys: tuple[str, ...], names: dict) -> None:
        if not keys:
            cells[section, names.get("{name}", ""), names.get("{category}", "")] = node
        elif not isinstance(node, dict):
            raise TypeError(f"{section} grids: expected an object, got {type(node).__name__}")
        elif keys[0].startswith("{"):  # one entry per name or category
            for key, value in node.items():
                walk(value, section, keys[1:], {**names, keys[0]: key})
        elif keys[0] in node:
            walk(node[keys[0]], section, keys[1:], names)

    for section, keys in _JSON_KEYS[payload_type].items():
        walk(payload, section, keys, {})
    return cells


def _carried_names(payload_type: str, cells) -> dict[str, list[str]]:
    """Each name list of a payload as its grids carry it, in file order."""
    return {
        key: list(dict.fromkeys(cell[field] for cell in cells if cell[0] == section))
        for key, (section, field) in _NAME_LISTS[payload_type].items()
    }


def _check_name_lists(payload_type: str, doc: dict, cells, path) -> None:
    """A JSON payload's name lists must list the names its grids carry, in
    their order; the error names the grid of the first name that differs."""
    for key, carried in _carried_names(payload_type, cells).items():
        listed = _json_lists(doc.get(key))
        if listed == carried:
            continue
        if not isinstance(listed, list):
            raise TypeError(f"{key}: expected a list, got {type(listed).__name__}")
        name = next(a if a is not _MISSING else b
                    for a, b in itertools.zip_longest(carried, listed, fillvalue=_MISSING)
                    if a != b)
        section, field = _NAME_LISTS[payload_type][key]
        cell = next((cell for cell in cells if cell[0] == section and cell[field] == name),
                    (section, name, "") if field == 1 else (section, "", name))
        raise LoadError(
            f"{_grid_where(*cell)}: payload {key} {listed!r}, its grids carry {carried!r}",
            path=path,
        )


def _build_payload(payload_type: str, dims: Mapping, label: str, cells: dict,
                   to_grid, path):
    """Rebuild a payload, for either format, from its dimensions (``grid``,
    ``n_runs``, ``seed``, ``t_out``; ``label`` names them in diagnostics) and
    ``cells``, what the file gives for each grid by ``(section, name,
    category)``, which ``to_grid(raw, shape, where)`` turns into an array.
    The names are those the grids carry, in file order; every grid the
    layout expects for them must be there, and no other."""
    try:
        d = dims.get("grid")
        grid = ScenarioGrid(d["scenarios"], d["timesteps"], d["step"], d["origin"])
    except (LookupError, TypeError, ShapeError) as exc:
        raise LoadError(f"bad {label}grid: {exc}", path=path) from exc
    for n in grid.shape:
        _as_int(n, f"{label}grid", path)

    def dim(key: str) -> int:
        return _as_int(dims.get(key), f"{label}{key}", path)

    def take(section: str, name: str, category: str, shape) -> np.ndarray:
        where = _grid_where(section, name, category)
        if (section, name, category) not in cells:
            raise LoadError(f"{where}: no rows", path=path)
        return to_grid(cells.pop((section, name, category)), shape, where)

    names = _carried_names(payload_type, cells)
    cats = tuple(names["categories"])
    if payload_type == "dynamic":
        t_out = dim("t_out")
        if t_out < grid.n_timesteps:
            raise LoadError(f"{label}t_out: {t_out} is shorter than the model's "
                            f"{grid.n_timesteps} time steps", path=path)
        shape = (grid.n_scenarios, t_out)
        impacts = {cat: take("dynamic_impact", "", cat, shape) for cat in cats}
        cumulative = {cat: take("dynamic_cumulative", "", cat, shape) for cat in cats}
        contributions: dict[str, dict[str, np.ndarray]] = {}
        for _, sub, cat in [cell for cell in cells
                            if cell[0] == "dynamic_contribution" and cell[2] in cats]:
            contributions.setdefault(sub, {})[cat] = take("dynamic_contribution", sub, cat, shape)
        payload = DynamicImpactResult(grid=grid, t_out=t_out, categories=cats, impacts=impacts,
                                      cumulative=cumulative, contributions=contributions)
    else:
        shape, sps = grid.shape, names["sp_order"]
        payload = unit = UnitResult(
            grid=grid,
            categories=cats,
            impacts={cat: take("impact", "", cat, shape) for cat in cats},
            cost=take("cost", "", "", shape),
            sp_unit_impacts={sp: {cat: take("sp_unit_impact", sp, cat, shape) for cat in cats}
                             for sp in sps},
            sp_unit_costs={sp: take("sp_unit_cost", sp, "", shape) for sp in sps},
            sp_exchange={sp: take("sp_exchange", sp, "", shape) for sp in sps},
        )
        if payload_type == "monte_carlo":
            def stats(section: str, cat: str) -> SummaryStats:
                # a stat series runs over the time steps
                return SummaryStats(**{attr: take(section, name, cat, shape[1:])
                                       for name, attr in _STATS})

            payload = MonteCarloResult(
                n_runs=dim("n_runs"),
                seed=dim("seed"),
                samples=unit,
                impact_stats={cat: stats("stat", cat) for cat in cats},
                cost_stats=stats("stat_cost", ""),
            )
    if cells:
        raise LoadError(
            f"{_grid_where(*next(iter(cells)))}: rows a {payload_type} result does not have",
            path=path,
        )
    return payload


# ---------------------------------------------------------------------------
# grid text: one writer for JSON results, CSV results and plot data
#
# Floats are written as float.__repr__ writes them: the shortest decimal that
# round-trips the exact float64 (at most 17 significant digits).  Each grid
# gets a %-template for one row, built once, and each block of rows becomes
# text in one formatting call, so memory follows a block, not the file.  The
# call's cells are built by slices: the value of a row that holds one value is
# formatted once, and each scenario number once a row.

_BLOCK_CELLS = 8192


def _grid_blocks(grid: np.ndarray, row_fmt: str, scenarios: bool = False,
                 cell=None) -> Iterator[str]:
    """The text of a 2-D grid, a block of rows at a time.

    Each row is ``row_fmt % cells``: the row's values in order, each after
    its scenario number when ``scenarios`` is set.  ``%s`` writes a float as
    ``float.__repr__``; ``cell``, when given, turns each value into its text
    first.
    """
    n_s, n_t = grid.shape
    rows = max(1, min(n_s, _BLOCK_CELLS // max(1, n_t)))
    block_fmt = row_fmt * rows
    text = cell or repr
    # a row's cells: the value after the scenario number, or the value alone
    width = 2 if scenarios else 1
    for start in range(0, n_s, rows):
        block = grid[start:start + rows]
        n = len(block)
        cells = [""] * (width * n * n_t)
        bits = block.view(np.int64) if block.dtype == np.float64 and n_t > 1 else None
        if bits is not None and (bits == bits[:, :1]).all():
            # each row holds one value, bit for bit (so -0.0 and each NaN
            # keep their text): one text a row, repeated along it
            texts = list(map(text, block[:, 0].tolist()))
            for t in range(n_t):
                cells[width * (t + 1) - 1::width * n_t] = texts
        else:
            values = block.ravel().tolist()
            cells[width - 1::width] = values if cell is None else map(cell, values)
        if scenarios:
            numbers = list(map(str, range(start, start + n)))
            for t in range(n_t):
                cells[width * t::width * n_t] = numbers
        yield (block_fmt if n == rows else row_fmt * n) % tuple(cells)


def _csv_fields(fields: Sequence[str]) -> str:
    """``fields`` as ``csv.writer`` quotes them, each followed by a comma."""
    if not fields:
        return ""
    buf = _io.StringIO()
    # the trailing empty field keeps a lone empty field from coming out as ""
    csv.writer(buf, lineterminator="\n").writerow([*fields, ""])
    return buf.getvalue()[:-1]


def write_csv_grid(fh, lead: Sequence[str], grid: np.ndarray, trail: Sequence[str] = ()) -> None:
    """One CSV line per cell: the ``lead`` fields, the scenario (2-D grids
    only), the timestep, the ``trail`` fields and the value, byte for byte
    as ``csv.writer`` writes those rows with ``lineterminator="\\n"``."""
    grid = np.asarray(grid, dtype=np.float64)
    head = _csv_fields(lead).replace("%", "%%")
    tail = _csv_fields(trail).replace("%", "%%")
    scenario = "" if grid.ndim == 1 else "%s,"
    row_fmt = "".join(f"{head}{scenario}{t},{tail}%s\n" for t in range(grid.shape[-1]))
    fh.writelines(_grid_blocks(np.atleast_2d(grid), row_fmt, scenarios=grid.ndim == 2))


def _write_json_array(fh, array: np.ndarray, level: int) -> None:
    """A series or grid as ``json.dump(array.tolist(), indent=2)`` writes it
    at nesting ``level``: a non-finite cell reads NaN, Infinity or
    -Infinity."""
    if array.size == 0:
        _write_json(fh, array.tolist(), level)
        return
    exact = array.dtype == np.float64 and bool(np.isfinite(array).all())
    cell = None if exact else json.dumps
    ind = ["\n" + "  " * (level + k) for k in range(3)]
    if array.ndim == 1:
        row_fmt = "[" + ",".join([ind[1] + "%s"] * array.size) + ind[0] + "]"
        fh.writelines(_grid_blocks(array[None], row_fmt, cell=cell))
        return
    # each row opens with a comma, which the first row drops
    row_fmt = f",{ind[1]}[" + ",".join([ind[2] + "%s"] * array.shape[1]) + f"{ind[1]}]"
    blocks = _grid_blocks(array, row_fmt, cell=cell)
    fh.write("[" + next(blocks)[1:])
    fh.writelines(blocks)
    fh.write(ind[0] + "]")


def _write_json(fh, value, level: int = 0) -> None:
    """``json.dump(value, fh, indent=2)`` at nesting ``level``, with float
    arrays in place of their ``tolist()``."""
    if isinstance(value, np.ndarray):
        _write_json_array(fh, value, level)
    elif isinstance(value, Mapping) and not value:
        fh.write("{}")
    elif isinstance(value, Mapping):
        ind = "\n" + "  " * (level + 1)
        sep = "{"
        for key, item in value.items():
            # the key as json writes it: str, or a number, bool or None as a string
            fh.write(f"{sep}{ind}{json.dumps({key: 0})[1:-4]}: ")
            _write_json(fh, item, level + 1)
            sep = ","
        fh.write("\n" + "  " * level + "}")
    else:
        fh.write(json.dumps(value, indent=2).replace("\n", "\n" + "  " * level))


def _export_csv(rs: ResultSet, fh) -> None:
    unit = rs.payload.samples if rs.payload_type == "monte_carlo" else rs.payload
    meta = [("result_schema", RESULT_SCHEMA_VERSION), ("payload_type", rs.payload_type),
            *rs.meta.items(), ("payload_grid", _grid_to_dict(unit.grid))]
    if rs.payload_type == "monte_carlo":
        meta += [("payload_n_runs", rs.payload.n_runs), ("payload_seed", rs.payload.seed)]
    elif rs.payload_type == "dynamic":
        meta.append(("payload_t_out", rs.payload.t_out))
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows(["meta", key, "", "", "", json.dumps(value)] for key, value in meta)
    for section, name, category, grid in _payload_grids(rs.payload_type, rs.payload):
        # a stat series leaves the scenario empty
        lead = (section, name) if np.ndim(grid) == 2 else (section, name, "")
        write_csv_grid(fh, lead, grid, (category,))


def _grid_from_cells(
    s: np.ndarray, t: np.ndarray, v: np.ndarray, shape: tuple[int, int], where: str, path
) -> np.ndarray:
    """Scatter scenario, timestep and value columns into a grid of ``shape``.

    Every cell of the grid must appear exactly once; the error names the
    first missing or repeated cell.
    """
    n_s, n_t = shape
    if s.min() < 0:
        raise LoadError(f"{where}: empty or negative scenario", path=path)
    if t.min() < 0:
        raise LoadError(f"{where}: negative timestep", path=path)
    span = (int(s.max()) + 1, int(t.max()) + 1)
    if span != (n_s, n_t):
        raise LoadError(
            f"{where}: rows cover {span[0]}x{span[1]} cells, payload_grid gives {n_s}x{n_t}",
            path=path,
        )
    flat = s * n_t + t
    if flat.size != n_s * n_t or np.bincount(flat, minlength=flat.size).max() != 1:
        cell, counts = np.unique(flat, return_counts=True)
        if counts.max() > 1:
            problem, bad = "duplicate", cell[np.argmax(counts > 1)]
        else:
            gaps = np.flatnonzero(cell != np.arange(cell.size))
            problem, bad = "missing", gaps[0] if gaps.size else cell.size
        raise LoadError(
            f"{where}: {problem} cell at scenario {bad // n_t}, timestep {bad % n_t}", path=path
        )
    grid = np.empty(flat.size, dtype=np.float64)
    grid[flat] = v
    return grid.reshape(n_s, n_t)


# A result file in the writer's layout is read a block of about this many
# characters of whole lines at a time.
_IMPORT_BLOCK_CHARS = 1 << 16


def _read_block(fh) -> str:
    """About ``_IMPORT_BLOCK_CHARS`` characters of whole lines of the open
    text file ``fh``; '' at its end."""
    block = fh.read(_IMPORT_BLOCK_CHARS)
    return block + fh.readline() if block and not block.endswith("\n") else block


class _NotWriterLayout(Exception):
    """A result file that is not in the exact layout ``export_results`` writes."""


def _plain_fields(text: str) -> list[list[str]] | None:
    """The six columns of the rows in ``text``, a block of whole lines, or
    None where a row has another number of fields.  A block that holds no
    quote or NUL, whose lines each end in a newline (``\\n`` or ``\\r\\n``,
    and no other carriage return) and fit ``csv.field_size_limit()``, is
    split on its commas alone, and each value text keeps the newline that
    ends its line, which ``float()`` ignores.  A strict ``csv.reader`` reads
    any other block, such as one with a name or category that ``csv.writer``
    quoted for a comma or newline in it, and raises ``csv.Error`` where the
    block ends inside a quoted field."""
    plain = text.replace("\r\n", "\n") if "\r" in text else text
    limit = csv.field_size_limit()
    if ('"' in plain or "\r" in plain or "\0" in plain or not plain.endswith("\n")
            or len(plain) > limit and max(map(len, plain.split("\n"))) > limit):
        records = list(csv.reader(_io.StringIO(text, newline=""), strict=True))
        if {len(record) for record in records} != {6}:
            return None
        return [list(column) for column in zip(*records)]
    n_lines = plain.count("\n")
    if plain.count(",") != 5 * n_lines:
        return None
    # each cell ends at a comma or after a newline; with five commas to a
    # line on average, every newline ends a sixth cell only when every line
    # has five
    cells = plain.replace("\n", "\n,").split(",")
    values = cells[5::6]
    if "".join(values).count("\n") != n_lines:
        return None
    return [*(cells[k:-1:6] for k in range(5)), values]


def _writer_fields(meta: dict, file_bytes: int
                   ) -> tuple[int, dict[str, tuple[list[str], list[str]]]]:
    """The number of time steps, and the scenario and timestep fields
    ``write_csv_grid`` writes for each section's cells, by a result's meta;
    one shape's lists share strings."""
    payload_type, grid = meta.get("payload_type"), meta.get("payload_grid")
    if not (isinstance(payload_type, str) and payload_type in _JSON_KEYS
            and isinstance(grid, dict)):
        raise _NotWriterLayout
    n_s = grid.get("scenarios")
    n_t = meta.get("payload_t_out") if payload_type == "dynamic" else grid.get("timesteps")
    # each cell is a row of five commas, so a file too small for a grid
    # gets no lists of its size
    if not all(type(n) is int and n > 0 for n in (n_s, n_t)) or 5 * n_s * n_t > file_bytes:
        raise _NotWriterLayout
    timesteps = list(map(str, range(n_t)))
    grid_fields = [s for s in map(str, range(n_s)) for _ in timesteps], timesteps * n_s
    # a stat series runs over the time steps and leaves the scenario empty
    series_fields = [""] * n_t, timesteps
    return n_t, {section: series_fields if section in ("stat", "stat_cost") else grid_fields
                 for section in _JSON_KEYS[payload_type]}


def _floats(texts: list[str]) -> array:
    """The float64 values of value texts of a result CSV; a ValueError on
    any that is not a number.  ``float()`` takes digit-group underscores,
    which CSV numbers do not."""
    if "_" in "".join(texts):
        raise ValueError("digit-group underscore")
    return array("d", map(float, texts))


def _run_values(run: list[str], head: int, n_t: int) -> array:
    """The values of ``run``, the value texts of consecutive cells of a grid
    with ``n_t`` cells to a row, whose first ``head`` cells end a row.
    Where every whole row of the run repeats one text, as in a grid that is
    constant along time, each row's text is converted once and its bits
    repeated; the partial rows at the run's edges are converted cell by
    cell.  Equal texts give equal bits, so the values are those of
    converting every cell."""
    whole = max(0, len(run) - head) // n_t * n_t
    rows = run[head:head + whole]
    first = rows[0::n_t]
    if any(rows[t::n_t] != first for t in range(1, n_t)):
        return _floats(run)
    row_values = _floats(first)
    values = _floats(run[:head])
    at = len(values)
    values.extend(row_values * n_t)  # room for the whole rows
    for t in range(n_t):
        values[at + t:at + whole:n_t] = row_values
    values.extend(_floats(run[head + whole:]))
    return values


def _writer_layout_grids(fh) -> tuple[dict, dict[tuple[str, str, str], array]]:
    """The meta and each grid's values of the rest of the open result CSV
    ``fh``, in the exact layout ``_export_csv`` writes: the meta rows, one to
    a line, then blocks of one row to a line in which each grid is contiguous
    and complete, in the writer's cell order.  Each run of a grid's rows in
    a block of text is checked and converted at once (see ``_run_values``).
    Any deviation, a blank line too, raises ``_NotWriterLayout``."""
    try:
        meta: dict = {}
        line = fh.readline()
        while line.startswith("meta,"):
            # strict: a quoted field that runs past the line is an error
            record = next(csv.reader([line], strict=True))
            if len(record) != 6:
                raise _NotWriterLayout
            meta[record[1]] = json.loads(record[5])
            line = fh.readline()
        n_t, fields = _writer_fields(meta, os.fstat(fh.fileno()).st_size)
        grids: dict[tuple[str, str, str], array] = {}
        values, size = array("d"), 0
        text = line + _read_block(fh) if line else ""
        while text:
            columns = _plain_fields(text)
            if columns is None:
                raise _NotWriterLayout
            sections, names, scenarios, timesteps, categories, texts = columns
            i = 0
            while i < len(sections):
                if len(values) == size:  # the grid is complete; the next one starts here
                    key = sections[i], names[i], categories[i]
                    if key in grids or key[0] not in fields:
                        raise _NotWriterLayout
                    cell_scenarios, cell_timesteps = fields[key[0]]
                    values = grids[key] = array("d")
                    size = len(cell_timesteps)
                start = len(values)
                end = min(len(sections), i + size - start)
                count = end - i
                if (sections[i:end].count(key[0]) != count
                        or names[i:end].count(key[1]) != count
                        or categories[i:end].count(key[2]) != count
                        or scenarios[i:end] != cell_scenarios[start:start + count]
                        or timesteps[i:end] != cell_timesteps[start:start + count]):
                    raise _NotWriterLayout
                values.extend(_run_values(texts[i:end], -start % n_t, n_t))
                i = end
            text = _read_block(fh)
        if len(values) != size:
            raise _NotWriterLayout
    # a UnicodeDecodeError is a ValueError; a RecursionError is JSON nested too deeply
    except (ValueError, RecursionError, csv.Error) as exc:
        raise _NotWriterLayout from exc
    return meta, grids


def _row_grids(path: str, lines, skipped: int) -> tuple[dict, dict[tuple[str, str, str], tuple]]:
    """The meta and each grid's rows of a result CSV, ``lines`` from its
    checked header on, which ``skipped`` blank lines precede, read one row
    at a time: the one source of the CSV import's diagnostics.  Blank lines
    after the last row are skipped; a blank line that a row follows is a
    row of 0 cells.  Each grid keeps three typed columns, scenario, timestep
    and value, so memory is about the size of the grids."""
    reader = csv.reader(lines)
    meta: dict = {}
    columns: dict[tuple[str, str, str], tuple[array, array, array]] = {}
    blank = 0  # the line of the first blank line since the last row, if any
    try:
        next(reader)  # the header
        for rec in reader:
            if not rec:  # a blank line, which only blank lines and the end may follow
                blank = blank or skipped + reader.line_num
                continue
            if blank:
                raise LoadError("row has 0 cells, expected 6", path=path, line=blank)
            if len(rec) != 6:
                raise LoadError(f"row has {len(rec)} cells, expected 6",
                                path=path, line=skipped + reader.line_num)
            section, name, scenario, timestep, category, value = rec
            if section == "meta":
                try:
                    meta[name] = json.loads(value)
                # also an integer past int's digit limit, or nesting too deep
                except (ValueError, RecursionError) as exc:
                    raise LoadError(f"bad meta value for {name!r}: {exc}",
                                    path=path, line=skipped + reader.line_num) from exc
                continue
            cells = columns.get((section, name, category))
            if cells is None:
                cells = columns[section, name, category] = (array("q"), array("q"), array("d"))
            try:
                # int() and float() take digit-group underscores
                if "_" in scenario + timestep + value:
                    raise ValueError("digit-group underscore")
                # an empty scenario (the stat rows) is stored as -1
                cells[0].append(int(scenario) if scenario else -1)
                cells[1].append(int(timestep))
                cells[2].append(float(value))
            except (ValueError, OverflowError) as exc:
                raise LoadError(f"bad data row: {exc}", path=path,
                                line=skipped + reader.line_num) from exc
    except csv.Error as exc:
        if blank:  # the blank line before the record comes first
            raise LoadError("row has 0 cells, expected 6", path=path, line=blank) from exc
        raise LoadError(f"CSV parse error: {exc}", path=path,
                        line=skipped + reader.line_num) from exc
    return meta, columns


def _import_csv(path: str, first: str, fh, skipped: int) -> ResultSet:
    """Read a long-format result CSV into a ResultSet: its header line
    ``first``, then the rest of the open file ``fh``.  The ``skipped``
    blank lines before the header count in the line numbers of diagnostics.

    A file in the exact layout ``_export_csv`` writes is read by
    ``_writer_layout_grids``; any other file, or a pipe, which cannot be
    read twice, wholly by ``_row_grids``.  Memory follows the grids.
    """
    reader = csv.reader(itertools.chain([first], fh))
    try:
        if next(reader, None) != _CSV_HEADER:
            raise LoadError("not a result CSV (bad header)", path=path)
    except csv.Error as exc:
        raise LoadError(f"CSV parse error: {exc}", path=path,
                        line=skipped + reader.line_num) from exc
    meta = None
    if fh.seekable():  # a pipe is read once, by the row reader
        body = fh.tell()
        try:
            meta, grids = _writer_layout_grids(fh)
        except _NotWriterLayout:
            fh.seek(body)
    if meta is None:  # read outside the handler, which holds the partial grids
        meta, grids = _row_grids(path, itertools.chain([first], fh), skipped)

    for required in ("result_schema", "payload_type", "payload_grid"):
        if required not in meta:
            raise LoadError(f"missing meta row {required!r}", path=path)
    del meta["result_schema"]
    payload_type = meta.pop("payload_type")
    if not isinstance(payload_type, str) or payload_type not in _JSON_KEYS:
        raise LoadError(f"unknown payload_type {payload_type!r}", path=path)
    # the payload_* rows are the payload's dimensions; the other rows are meta
    dims = {key: meta.pop(f"payload_{key}", None) for key in ("grid", "n_runs", "seed", "t_out")}

    def to_grid(cells, shape, where: str) -> np.ndarray:
        if isinstance(cells, array):  # a grid's values, in the writer's order
            return np.frombuffer(cells, dtype=np.float64).reshape(shape)
        s, t, v = (np.frombuffer(c, dtype=c.typecode) for c in cells)
        if len(shape) == 1:  # a stat series; its rows leave the scenario empty
            if (s != -1).any():
                raise LoadError(f"{where}: scenario {s[s != -1][0]} on a stat row, "
                                f"whose scenario is empty", path=path)
            return _grid_from_cells(np.zeros_like(s), t, v, (1, *shape), where, path)[0]
        return _grid_from_cells(s, t, v, shape, where, path)

    payload = _build_payload(payload_type, dims, "meta payload_", grids, to_grid, path)
    return ResultSet(meta=meta, payload_type=payload_type, payload=payload)


def _export_json(rs: ResultSet, fh) -> None:
    _write_json(fh, {"schema_version": RESULT_SCHEMA_VERSION, "meta": rs.meta,
                     "payload_type": rs.payload_type,
                     "payload": _json_payload(rs.payload_type, rs.payload)})
    fh.write("\n")


def export_results(rs: ResultSet, format: str, path) -> None:
    """Write a result set as JSON (full fidelity) or long-format CSV.

    Both formats re-import bit-exactly; exporting the imported set again
    produces a byte-identical file.  It appears whole or not at all, in
    missing directories too; a symlink at ``path`` is written through.
    """
    exporters = {"json": _export_json, "csv": _export_csv}
    if format not in exporters:
        raise ValueError(f"unknown format {format!r}; use 'json' or 'csv'")
    path = Path(path).resolve()
    _write_files(path.parent, {path.name: lambda fh: exporters[format](rs, fh)})


def _write_files(directory, writers: Mapping[str, Callable]) -> None:
    """Write the files ``name -> writer(fh)`` into ``directory``, all or none.

    The writers fill UTF-8 files, in table order, in a scratch directory
    ``.lcengine-*`` on the same filesystem; only then are the files renamed
    into place, or a missing ``directory`` (ancestors made first) with them.
    """
    directory = Path(directory).resolve()
    new = not directory.is_dir()
    if new:
        directory.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=".lcengine-",
                                    dir=directory.parent if new else directory))
    stage = scratch / "staged"  # mkdir gives the umask's mode; mkdtemp's own is 0700
    try:
        stage.mkdir()
        for name, write in writers.items():
            with open(stage / name, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        if new:
            os.rename(stage, directory)
        else:
            for name in writers:
                os.replace(stage / name, directory / name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _grids_hook(obj: dict) -> dict:
    """``json.loads`` object hook: every value that is a list of equal-length
    lists of floats becomes a float64 grid as soon as its object is parsed,
    so the nested lists of a whole result never exist at once.  Only exact
    floats convert, so ``_json_lists`` can restore any other value."""
    for key, value in obj.items():
        if (type(value) is list and value and all(type(row) is list for row in value)
                and len(set(map(len, value))) == 1
                and {type(v) for row in value for v in row} == {float}):
            obj[key] = np.array(value, dtype=np.float64)
    return obj


def _json_lists(value):
    """``value`` with every grid of ``_grids_hook`` turned back into the lists
    JSON gave, for parts of a result that are not payload grids."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _json_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_lists(v) for v in value]
    return value


def _not_a_float(text: str):
    raise _NotWriterLayout


# decodes a block of grid rows; an integer in it is not the writer's layout,
# whose cells are all floats, NaN and Infinity among them
_GRID_ROWS = json.JSONDecoder(parse_int=_not_a_float)
# the line of the top-level "payload" key, which the writer puts after meta
_PAYLOAD_KEY = re.compile(r'^  "payload": ', re.MULTILINE)


def _writer_layout_doc(fh, head: str) -> dict:
    """The JSON result in the rest of the open file ``fh``, after its first
    characters ``head``, as ``json.loads`` with ``_grids_hook`` gives it,
    when the file is in the layout ``_export_json`` writes: two spaces a
    level, and each grid the value of a key that ends its line, one row
    opening on each next line two spaces deeper, one cell to a line two
    deeper again.  Any deviation raises ``_NotWriterLayout``.

    The file is read about ``_IMPORT_BLOCK_CHARS`` characters of whole
    lines at a time.  Each grid's rows go to the ``json`` decoder a block of
    whole rows at a time, and their cells into float64 storage.  The rest of
    the text, meta, dimensions, name lists and stat series, is one
    ``json.loads`` with ``NaN`` in each grid's place.  The outcome is that
    of the whole text: the text taken for a grid decodes, a block at a time,
    only as rows of floats, with no string in them, so its brackets balance
    and it is the grid's value; the key before it is a whole string that
    starts its line, so that value stands where a value belongs.
    """
    text = head + _read_block(fh)
    if not text.startswith('\n  "', len(head)):  # another indentation, or none
        raise _NotWriterLayout
    skeleton: list[str] = []  # the text between grids
    parts: list[str] = []  # the text since the last grid, a block at a time
    grids: list[np.ndarray] = []
    pos = search = 0  # where the text since the last grid starts; where to look for one
    in_payload = False  # past the "payload" key, so a list in meta is never taken for a grid
    try:
        while True:
            if not in_payload:
                key = _PAYLOAD_KEY.search(text, search)
                in_payload = key is not None
                search = key.end() if in_payload else len(text)
            at = text.find('": [\n', search)  # a key's list value opens
            if at < 0:
                parts.append(text[pos:])
                text = _read_block(fh)
                if not text:
                    break
                pos = search = 0
                continue
            line = text[text.rfind("\n", 0, at) + 1:at + 1]
            k = len(line) - len(line.lstrip(" "))  # the key's indentation
            first_row = "\n" + " " * (k + 2) + "[\n" + " " * (k + 4)
            first_cell = at + 4 + len(first_row)
            if first_cell >= len(text):  # the grid's first cell is in the next block
                block = _read_block(fh)
                if not block:
                    raise _NotWriterLayout
                text += block
                continue
            if (not text.startswith(first_row, at + 4) or text[first_cell] not in "-0123456789NI"
                    or line[k:k + 1] != '"' or scanstring(line, k + 1)[1] != len(line)):
                search = at + 5  # a list of names, a stat series or part of meta
                continue
            parts.append(text[pos:at + 3])
            skeleton.append("".join(parts))
            parts = []
            end, between = "\n" + " " * k + "]", "],\n" + " " * (k + 2) + "["
            start = at + k + 7  # the first row's "["
            values, width = array("d"), None
            while True:
                stop = text.find(end, start)
                # up to the grid's end, or else to the end of the block's last whole row
                cut = stop if stop >= 0 else text.rfind(between, start) + 1
                if cut > 0:
                    rows = text[start:cut]
                    if "true" in rows or "false" in rows:  # which array("d") takes
                        raise _NotWriterLayout
                    rows = _GRID_ROWS.decode(f"[{rows}]")
                    width = width or len(rows[0])
                    if set(map(len, rows)) != {width}:
                        raise _NotWriterLayout
                    # a TypeError on any other cell that is not a float
                    values.extend(itertools.chain.from_iterable(rows))
                    if stop >= 0:
                        break
                    start = cut + len(between) - 2  # the next row's "["
                block = _read_block(fh)
                if not block:
                    raise _NotWriterLayout
                text, start = text[start:] + block, 0
            grids.append(np.frombuffer(values, dtype=np.float64).reshape(-1, width))
            pos = search = stop + len(end)
        if any("NaN" in part or "Infinity" in part for part in skeleton + parts):
            raise _NotWriterLayout  # a non-finite number, or a name that spells one
        grid = iter(grids)
        return json.loads("NaN".join([*skeleton, "".join(parts)]), object_hook=_grids_hook,
                          parse_constant=lambda _: next(grid))
    # a UnicodeDecodeError is a ValueError; a RecursionError is JSON nested too deeply
    except (ValueError, TypeError, RecursionError) as exc:
        raise _NotWriterLayout from exc


class _CountingReader(_io.BufferedReader):
    """A buffered binary file that counts the bytes it has handed out since
    it was last positioned, for the byte offset of a decoding error in a
    file that cannot tell its position, such as a pipe."""

    handed_out = 0

    def read(self, size=-1):
        data = super().read(size)
        self.handed_out += len(data)
        return data

    def read1(self, size=-1):
        data = super().read1(size)
        self.handed_out += len(data)
        return data

    def seek(self, offset, whence=0):
        self.handed_out = super().seek(offset, whence)
        return self.handed_out


def _read_through_blank(fh) -> str:
    """Read up to and including the first non-blank character ('' at end of file)."""
    head = ""
    while True:
        ch = fh.read(1)
        head += ch
        if not ch.isspace():
            return head


def import_results(path) -> ResultSet:
    """Read a result set previously written by ``export_results``.

    A file whose first non-blank character is ``{`` is read as JSON, any
    other as a result CSV; blank lines before the CSV header and after its
    last row are skipped.  Each format has two readers, never mixed.  A
    regular file in the exact layout ``export_results`` writes is read about
    ``_IMPORT_BLOCK_CHARS`` characters of text at a time, into memory about
    the size of its grids; a CSV value text that repeats along a whole row
    is converted once.  Any other file, or a pipe, which cannot be read
    twice, is read by the general reader of its format: a CSV one row at a
    time, a JSON text whole.  The general reader gives every diagnostic.
    """
    path = str(path)
    try:
        with _io.TextIOWrapper(_CountingReader(_io.FileIO(path)), encoding="utf-8",
                               newline="") as fh:
            try:
                head = _read_through_blank(fh)
                if not head.endswith("{"):
                    blank = head[:max(head.rfind("\n"), head.rfind("\r")) + 1]
                    skipped = blank.count("\n") + blank.count("\r") - blank.count("\r\n")
                    return _import_csv(path, head[len(blank):] + fh.readline(), fh, skipped)
                doc = None
                if fh.seekable():  # a pipe is read once, whole
                    try:
                        doc = _writer_layout_doc(fh, head)
                    except _NotWriterLayout:
                        fh.seek(0)
                        head = ""
                if doc is None:  # read outside the handler, which holds the partial grids
                    text = head + fh.read()
            except UnicodeDecodeError as exc:
                # exc.object is the undecoded tail of what was read so far
                offset = fh.buffer.handed_out - len(exc.object) + exc.start
                raise LoadError(
                    f"file is not valid UTF-8: {exc.reason} at byte {offset}", path=path
                ) from exc
    except OSError as exc:
        raise LoadError(f"cannot read file: {exc}", path=path) from exc
    if doc is None:
        try:
            doc = json.loads(text, object_hook=_grids_hook)
        except json.JSONDecodeError as exc:
            raise LoadError(f"JSON parse error: {exc}", path=path, line=exc.lineno) from exc
        except ValueError as exc:  # an integer past int's digit limit
            raise LoadError(f"JSON parse error: {exc}", path=path) from exc
        except RecursionError as exc:
            raise LoadError("JSON parse error: nested too deeply", path=path) from exc
    if not isinstance(doc, dict):
        raise LoadError("result JSON must be an object", path=path)
    for required in ("schema_version", "meta", "payload_type", "payload"):
        if required not in doc:
            raise LoadError(f"missing key {required!r}", path=path)
    payload_type = doc["payload_type"]
    if not isinstance(payload_type, str) or payload_type not in _JSON_KEYS:
        raise LoadError(f"unknown payload_type {payload_type!r}", path=path)

    def to_grid(value, shape, where: str) -> np.ndarray:
        grid = np.asarray(value, dtype=np.float64)
        if grid.shape != shape:
            raise LoadError(
                f"{where}: shape {'x'.join(map(str, grid.shape))}, "
                f"payload grid gives {'x'.join(map(str, shape))}",
                path=path,
            )
        return grid

    try:
        payload = doc["payload"]
        cells = _json_cells(payload_type, payload)
        unit = payload["samples"] if payload_type == "monte_carlo" else payload
        _check_name_lists(payload_type, unit, cells, path)
        # the dimensions: "grid" of the unit payload, the counts beside it
        dims = dict(payload, grid=unit.get("grid"))
        payload = _build_payload(payload_type, dims, "payload ", cells, to_grid, path)
    # a part missing or of the wrong type, or a grid that is not one of numbers
    except (LookupError, TypeError, ValueError, ShapeError) as exc:
        raise LoadError(f"malformed {payload_type} payload: {exc!r}", path=path) from exc
    meta = doc["meta"]
    if not isinstance(meta, dict):
        raise LoadError("meta must be an object", path=path)
    return ResultSet(meta=_json_lists(meta), payload_type=payload_type, payload=payload)
