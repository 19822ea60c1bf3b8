"""File ingestion and result export.

Three input formats, all UTF-8 with dot decimal separators:

* Model documents: YAML with a required ``schema_version: 1`` header, a
  ``process`` block, a ``grid`` block and a ``subprocesses`` list whose
  entries each carry a ``flows`` list.  Matrix-valued amounts reference a
  sidecar numeric CSV through ``matrix_file`` (scenario rows x time
  columns, resolved relative to the model file) or inline a small
  ``matrix`` list of rows.
* Background database CSV: header ``flow,unit_cost,<category>...`` plus
  optional ``inv:<substance>`` columns.  An empty cell means "no value";
  a semicolon-separated cell in a category column is a per-period
  override (length n_timesteps).  A row keyed by a substance name doubles
  as that substance's static characterization factors.
* Factor tables CSV: header ``substance,category,mode,horizon,tau,factor``.
  annual_step rows enumerate tau = 0,1,2,... per (substance, category);
  fixed_horizon entries are a single row with horizon filled and tau
  empty.

Results export to JSON (full fidelity) or long-format CSV; both re-import
bit-exactly, and exporting an imported result reproduces the file byte for
byte.  Loaders raise LoadError with file/line context and never return a
partially built object.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import itertools
import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

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
    validate_model,
)
from .sampler import _PARAM_NAMES, DistributionSpec

RESULT_SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 1

_STAT_NAMES = ("mean", "sd", "p2.5", "p50", "p97.5")
_CSV_HEADER = ["section", "name", "scenario", "timestep", "category", "value"]


# ---------------------------------------------------------------------------
# background database

@dataclass(frozen=True, eq=False)
class BackgroundRow:
    """Unit values of one background flow (or substance, see static_factors)."""

    flow: str
    unit_cost: float | None = None
    impacts: Mapping[str, float] = field(default_factory=dict)
    impact_overrides: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    inventory: Mapping[str, float] = field(default_factory=dict)

    def resolves_impact(self, category: str) -> bool:
        return category in self.impacts or category in self.impact_overrides


@dataclass(frozen=True, eq=False)
class UnitValueTable:
    """Background database: flow name -> unit cost, unit impacts, inventory."""

    rows: Mapping[str, BackgroundRow]
    categories: tuple[str, ...] = ()
    source: str | None = None

    def static_factors(self, substance: str) -> dict[str, float]:
        """Static characterization factors for a substance, if it has a row."""
        row = self.rows.get(substance)
        return dict(row.impacts) if row is not None else {}


# ---------------------------------------------------------------------------
# low-level parsing helpers

def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot read file: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise LoadError(f"file is not valid UTF-8: {exc}", path=str(path)) from exc


def _parse_number(text: str, where: str, path, line: int | None = None) -> float:
    try:
        value = float(text.strip())
    except (ValueError, TypeError):
        raise LoadError(f"{where}: invalid number {text!r}", path=path, line=line) from None
    return value


def _parse_integer(text: str, where: str, path, line: int) -> int:
    value = _parse_number(text, where, path, line)
    if not value.is_integer():  # also rejects nan and inf
        raise LoadError(f"{where}: expected an integer, got {text.strip()!r}",
                        path=path, line=line)
    return int(value)


def _read_csv_records(text: str, path) -> list[list[str]]:
    try:
        return list(csv.reader(_io.StringIO(text)))
    except csv.Error as exc:
        raise LoadError(f"CSV parse error: {exc}", path=str(path)) from exc


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
    return float(value)


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


def load_matrix_csv(path) -> np.ndarray:
    """Numeric CSV, scenario rows by time columns, no header."""
    text = _read_text(path)
    rows: list[list[float]] = []
    for lineno, record in enumerate(_read_csv_records(text, path), start=1):
        if not record or all(not cell.strip() for cell in record):
            continue
        rows.append(
            [_parse_number(cell, f"column {i + 1}", path, lineno) for i, cell in enumerate(record)]
        )
    if not rows:
        raise LoadError("matrix file is empty", path=str(path))
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise LoadError(
                f"row {i + 1} has {len(row)} columns, expected {width}", path=str(path)
            )
    return np.asarray(rows, dtype=np.float64)


def _parse_amount(obj, where: str, path, base_dir: Path, matrix_files: dict) -> ExchangeAmount:
    if isinstance(obj, bool):
        raise LoadError(f"{where}: expected an amount, got a boolean", path=path)
    if isinstance(obj, (int, float)):
        return ScalarAmount(float(obj))
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
    path = str(path)
    text = _read_text(path)
    try:
        doc = yaml.safe_load(text)
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
            production = np.full(grid.n_timesteps, float(production))
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
    records = _read_csv_records(text, path)
    records = [r for r in records if r and any(cell.strip() for cell in r)]
    if not records:
        raise LoadError("database file is empty", path=path)
    header = [h.strip() for h in records[0]]
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

    rows: dict[str, BackgroundRow] = {}
    for lineno, record in enumerate(records[1:], start=2):
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
        impacts: dict[str, float] = {}
        overrides: dict[str, tuple[float, ...]] = {}
        for cat in categories:
            cell = cells[cat]
            if not cell:
                continue
            if ";" in cell:
                overrides[cat] = tuple(
                    _parse_number(part, f"{flow}: {cat} period value", path, lineno)
                    for part in cell.split(";")
                )
            else:
                impacts[cat] = _parse_number(cell, f"{flow}: {cat}", path, lineno)
        inventory: dict[str, float] = {}
        for col in header[1:]:
            if col.startswith("inv:"):
                substance = col[4:]
                if not substance:
                    raise LoadError("empty substance in inv: column", path=path)
                cell = cells[col]
                if cell:
                    inventory[substance] = _parse_number(
                        cell, f"{flow}: inv:{substance}", path, lineno
                    )
        rows[flow] = BackgroundRow(
            flow=flow,
            unit_cost=unit_cost,
            impacts=impacts,
            impact_overrides=overrides,
            inventory=inventory,
        )
    return UnitValueTable(rows=rows, categories=tuple(categories), source=path)


# ---------------------------------------------------------------------------
# characterization factor tables CSV

_DCF_HEADER = ["substance", "category", "mode", "horizon", "tau", "factor"]


def load_dcf_tables(path) -> list[DCFTable]:
    """Parse characterization factor tables (one per substance and category)."""
    path = str(path)
    text = _read_text(path)
    records = _read_csv_records(text, path)
    records = [r for r in records if r and any(cell.strip() for cell in r)]
    if not records:
        raise LoadError("factor file is empty", path=path)
    header = [h.strip() for h in records[0]]
    if header != _DCF_HEADER:
        raise LoadError(
            f"header must be {','.join(_DCF_HEADER)!r}, got {','.join(header)!r}",
            path=path,
        )
    annual: dict[tuple[str, str], dict[int, float]] = {}
    fixed: dict[tuple[str, str], tuple[float, int]] = {}
    order: list[tuple[str, str, str]] = []
    for lineno, record in enumerate(records[1:], start=2):
        if len(record) != len(header):
            raise LoadError(
                f"row has {len(record)} cells, expected {len(header)}", path=path, line=lineno
            )
        substance, category, mode, horizon, tau, factor = (c.strip() for c in record)
        if not substance or not category:
            raise LoadError("substance and category must be non-empty", path=path, line=lineno)
        key = (substance, category)
        if mode == ANNUAL_STEP:
            if horizon:
                raise LoadError(
                    f"{substance}/{category}: annual_step rows must leave horizon empty",
                    path=path,
                    line=lineno,
                )
            if not tau:
                raise LoadError(
                    f"{substance}/{category}: annual_step rows need a tau", path=path, line=lineno
                )
            tau_val = _parse_integer(tau, f"{substance}: tau", path, lineno)
            taus = annual.setdefault(key, {})
            if not taus:
                order.append((substance, category, ANNUAL_STEP))
            if tau_val in taus:
                raise LoadError(
                    f"{substance}/{category}: duplicate tau {tau_val}", path=path, line=lineno
                )
            taus[tau_val] = _parse_number(factor, f"{substance}: factor", path, lineno)
        elif mode == FIXED_HORIZON:
            if tau:
                raise LoadError(
                    f"{substance}/{category}: fixed_horizon rows must leave tau empty",
                    path=path,
                    line=lineno,
                )
            if key in fixed:
                raise LoadError(
                    f"{substance}/{category}: duplicate fixed_horizon row", path=path, line=lineno
                )
            if not horizon:
                raise LoadError(
                    f"{substance}/{category}: fixed_horizon rows need a horizon",
                    path=path,
                    line=lineno,
                )
            h = _parse_integer(horizon, f"{substance}: horizon", path, lineno)
            if h < 1:
                raise LoadError(
                    f"{substance}/{category}: horizon must be >= 1, got {h}",
                    path=path,
                    line=lineno,
                )
            fixed[key] = (_parse_number(factor, f"{substance}: factor", path, lineno), h)
            order.append((substance, category, FIXED_HORIZON))
        else:
            raise LoadError(
                f"{substance}/{category}: mode must be {ANNUAL_STEP!r} or "
                f"{FIXED_HORIZON!r}, got {mode!r}",
                path=path,
                line=lineno,
            )

    tables: list[DCFTable] = []
    for substance, category, mode in order:
        if mode == ANNUAL_STEP:
            taus = annual[(substance, category)]
            expected = range(len(taus))
            missing = [t for t in expected if t not in taus]
            if missing or max(taus) != len(taus) - 1:
                first_missing = missing[0] if missing else len(taus)
                raise LoadError(
                    f"{substance}/{category}: tau values must be contiguous from 0; "
                    f"missing tau {first_missing}",
                    path=path,
                )
            factors = np.asarray([taus[t] for t in expected], dtype=np.float64)
            tables.append(DCFTable(substance, category, ANNUAL_STEP, factors))
        else:
            factor, h = fixed[(substance, category)]
            tables.append(
                DCFTable(substance, category, FIXED_HORIZON, np.asarray([factor]), horizon=h)
            )
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


def _grid_from_dict(d: dict) -> ScenarioGrid:
    return ScenarioGrid(d["scenarios"], d["timesteps"], d["step"], d["origin"])


def _unit_to_dict(u: UnitResult) -> dict:
    return {
        "grid": _grid_to_dict(u.grid),
        "categories": list(u.categories),
        "impacts": {cat: u.impacts[cat].tolist() for cat in u.categories},
        "cost": u.cost.tolist(),
        "sp_order": list(u.sp_unit_costs),
        "sp_unit_impacts": {
            sp: {cat: grids[cat].tolist() for cat in u.categories}
            for sp, grids in u.sp_unit_impacts.items()
        },
        "sp_unit_costs": {sp: g.tolist() for sp, g in u.sp_unit_costs.items()},
        "sp_exchange": {sp: g.tolist() for sp, g in u.sp_exchange.items()},
    }


def _unit_from_dict(d: dict) -> UnitResult:
    cats = tuple(d["categories"])
    arr = lambda x: np.asarray(x, dtype=np.float64)
    return UnitResult(
        grid=_grid_from_dict(d["grid"]),
        categories=cats,
        impacts={cat: arr(d["impacts"][cat]) for cat in cats},
        cost=arr(d["cost"]),
        sp_unit_impacts={
            sp: {cat: arr(d["sp_unit_impacts"][sp][cat]) for cat in cats}
            for sp in d["sp_order"]
        },
        sp_unit_costs={sp: arr(d["sp_unit_costs"][sp]) for sp in d["sp_order"]},
        sp_exchange={sp: arr(d["sp_exchange"][sp]) for sp in d["sp_order"]},
    )


def _stats_to_dict(s: SummaryStats) -> dict:
    return {
        "mean": s.mean.tolist(),
        "sd": s.sd.tolist(),
        "p2.5": s.p2_5.tolist(),
        "p50": s.p50.tolist(),
        "p97.5": s.p97_5.tolist(),
    }


def _stats_from_dict(d: dict) -> SummaryStats:
    arr = lambda x: np.asarray(x, dtype=np.float64)
    return SummaryStats(
        mean=arr(d["mean"]),
        sd=arr(d["sd"]),
        p2_5=arr(d["p2.5"]),
        p50=arr(d["p50"]),
        p97_5=arr(d["p97.5"]),
    )


def _mc_to_dict(m: MonteCarloResult) -> dict:
    return {
        "n_runs": m.n_runs,
        "seed": m.seed,
        "samples": _unit_to_dict(m.samples),
        "impact_stats": {cat: _stats_to_dict(s) for cat, s in m.impact_stats.items()},
        "cost_stats": _stats_to_dict(m.cost_stats),
    }


def _mc_from_dict(d: dict) -> MonteCarloResult:
    return MonteCarloResult(
        n_runs=d["n_runs"],
        seed=d["seed"],
        samples=_unit_from_dict(d["samples"]),
        impact_stats={cat: _stats_from_dict(s) for cat, s in d["impact_stats"].items()},
        cost_stats=_stats_from_dict(d["cost_stats"]),
    )


def _dynamic_to_dict(r: DynamicImpactResult) -> dict:
    return {
        "grid": _grid_to_dict(r.grid),
        "t_out": r.t_out,
        "categories": list(r.categories),
        "impacts": {cat: r.impacts[cat].tolist() for cat in r.categories},
        "cumulative": {cat: r.cumulative[cat].tolist() for cat in r.categories},
        "substances": list(r.contributions),
        "contributions": {
            sub: {cat: grid.tolist() for cat, grid in per_cat.items()}
            for sub, per_cat in r.contributions.items()
        },
    }


def _dynamic_from_dict(d: dict) -> DynamicImpactResult:
    arr = lambda x: np.asarray(x, dtype=np.float64)
    return DynamicImpactResult(
        grid=_grid_from_dict(d["grid"]),
        t_out=d["t_out"],
        categories=tuple(d["categories"]),
        impacts={cat: arr(g) for cat, g in d["impacts"].items()},
        cumulative={cat: arr(g) for cat, g in d["cumulative"].items()},
        contributions={
            sub: {cat: arr(g) for cat, g in d["contributions"][sub].items()}
            for sub in d["substances"]
        },
    )


_TO_DICT = {"unit": _unit_to_dict, "monte_carlo": _mc_to_dict, "dynamic": _dynamic_to_dict}
_FROM_DICT = {"unit": _unit_from_dict, "monte_carlo": _mc_from_dict, "dynamic": _dynamic_from_dict}


def _fmt(v: float) -> str:
    # shortest decimal that round-trips the exact float64 (<= 17 significant digits)
    return repr(float(v))


def _csv_grid_rows(writer, section: str, name: str, grid: np.ndarray, category: str) -> None:
    for s in range(grid.shape[0]):
        for t in range(grid.shape[1]):
            writer.writerow([section, name, s, t, category, _fmt(grid[s, t])])


def _export_csv(rs: ResultSet, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_CSV_HEADER)

    def meta_row(key, value):
        writer.writerow(["meta", key, "", "", "", json.dumps(value)])

    meta_row("result_schema", RESULT_SCHEMA_VERSION)
    meta_row("payload_type", rs.payload_type)
    for key, value in rs.meta.items():
        meta_row(key, value)

    if rs.payload_type in ("unit", "monte_carlo"):
        unit = rs.payload.samples if rs.payload_type == "monte_carlo" else rs.payload
        meta_row("payload_grid", _grid_to_dict(unit.grid))
        if rs.payload_type == "monte_carlo":
            meta_row("payload_n_runs", rs.payload.n_runs)
            meta_row("payload_seed", rs.payload.seed)
        for cat in unit.categories:
            _csv_grid_rows(writer, "impact", "", unit.impacts[cat], cat)
        _csv_grid_rows(writer, "cost", "", unit.cost, "")
        for sp in unit.sp_unit_costs:
            for cat in unit.categories:
                _csv_grid_rows(writer, "sp_unit_impact", sp, unit.sp_unit_impacts[sp][cat], cat)
            _csv_grid_rows(writer, "sp_unit_cost", sp, unit.sp_unit_costs[sp], "")
            _csv_grid_rows(writer, "sp_exchange", sp, unit.sp_exchange[sp], "")
        if rs.payload_type == "monte_carlo":
            mc = rs.payload
            for cat in unit.categories:
                stats = _stats_to_dict(mc.impact_stats[cat])
                for stat_name in _STAT_NAMES:
                    for t, v in enumerate(stats[stat_name]):
                        writer.writerow(["stat", stat_name, "", t, cat, _fmt(v)])
            cost_stats = _stats_to_dict(mc.cost_stats)
            for stat_name in _STAT_NAMES:
                for t, v in enumerate(cost_stats[stat_name]):
                    writer.writerow(["stat_cost", stat_name, "", t, "", _fmt(v)])
    else:
        dyn = rs.payload
        grid_dict = _grid_to_dict(dyn.grid)
        meta_row("payload_grid", grid_dict)
        meta_row("payload_t_out", dyn.t_out)
        for cat in dyn.categories:
            _csv_grid_rows(writer, "dynamic_impact", "", dyn.impacts[cat], cat)
        for cat in dyn.categories:
            _csv_grid_rows(writer, "dynamic_cumulative", "", dyn.cumulative[cat], cat)
        for sub, per_cat in dyn.contributions.items():
            for cat, grid in per_cat.items():
                _csv_grid_rows(writer, "dynamic_contribution", sub, grid, cat)


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


def _import_csv(path: str, lines) -> ResultSet:
    """Stream a long-format result CSV (an iterable of lines) into a ResultSet.

    Each (section, name, category) keeps its rows as three typed columns,
    so memory is about the size of the grids, not a multiple of the file.
    """
    reader = csv.reader(lines)
    meta_pairs: list[tuple[str, object]] = []
    columns: dict[tuple[str, str, str], tuple[array, array, array]] = {}
    try:
        if next(reader, None) != _CSV_HEADER:
            raise LoadError("not a result CSV (bad header)", path=path)
        for rec in reader:
            if len(rec) != 6:
                raise LoadError(
                    f"row has {len(rec)} cells, expected 6", path=path, line=reader.line_num
                )
            section, name, scenario, timestep, category, value = rec
            if section == "meta":
                try:
                    meta_pairs.append((name, json.loads(value)))
                except json.JSONDecodeError as exc:
                    raise LoadError(
                        f"bad meta value for {name!r}: {exc}", path=path, line=reader.line_num
                    ) from exc
                continue
            cells = columns.get((section, name, category))
            if cells is None:
                cells = columns[section, name, category] = (array("q"), array("q"), array("d"))
            try:
                # an empty scenario (the stat rows) is stored as -1
                cells[0].append(int(scenario) if scenario else -1)
                cells[1].append(int(timestep))
                cells[2].append(float(value))
            except (ValueError, OverflowError) as exc:
                raise LoadError(f"bad data row: {exc}", path=path, line=reader.line_num) from exc
    except csv.Error as exc:
        raise LoadError(f"CSV parse error: {exc}", path=path, line=reader.line_num) from exc

    meta_map = dict(meta_pairs)
    for required in ("result_schema", "payload_type", "payload_grid"):
        if required not in meta_map:
            raise LoadError(f"missing meta row {required!r}", path=path)
    payload_type = meta_map["payload_type"]
    if payload_type not in _FROM_DICT:
        raise LoadError(f"unknown payload_type {payload_type!r}", path=path)
    try:
        grid = _grid_from_dict(meta_map["payload_grid"])
    except (KeyError, TypeError, ShapeError) as exc:
        raise LoadError(f"bad payload_grid: {exc}", path=path) from exc
    for n in grid.shape:
        _as_int(n, "meta payload_grid", path)
    reserved = {"result_schema", "payload_type", "payload_grid", "payload_n_runs",
                "payload_seed", "payload_t_out"}
    meta = {k: v for k, v in meta_pairs if k not in reserved}

    def keys(section: str) -> list[tuple[str, str, str]]:
        return [key for key in columns if key[0] == section]

    def take(section: str, name: str, category: str, shape=None) -> np.ndarray:
        """One grid of the payload, or with ``shape`` None the per-time-step
        series of a stat row, which carries no scenario."""
        where = f"section {section!r}, name {name!r}, category {category!r}"
        cells = columns.pop((section, name, category), None)
        if cells is None:
            raise LoadError(f"{where}: no rows", path=path)
        s, t, v = (np.frombuffer(c, dtype=c.typecode) for c in cells)
        if shape is None:
            return _grid_from_cells(np.zeros_like(s), t, v, (1, grid.n_timesteps), where, path)[0]
        return _grid_from_cells(s, t, v, shape, where, path)

    if payload_type in ("unit", "monte_carlo"):
        shape = grid.shape
        cats = tuple(cat for _, _, cat in keys("impact"))
        sp_order = list(dict.fromkeys(sp for _, sp, _ in keys("sp_unit_cost")))
        payload = unit = UnitResult(
            grid=grid,
            categories=cats,
            impacts={cat: take("impact", "", cat, shape) for cat in cats},
            cost=take("cost", "", "", shape),
            sp_unit_impacts={
                sp: {cat: take("sp_unit_impact", sp, cat, shape) for cat in cats}
                for sp in sp_order
            },
            sp_unit_costs={sp: take("sp_unit_cost", sp, "", shape) for sp in sp_order},
            sp_exchange={sp: take("sp_exchange", sp, "", shape) for sp in sp_order},
        )
        if payload_type == "monte_carlo":
            payload = MonteCarloResult(
                n_runs=_as_int(meta_map.get("payload_n_runs"), "meta payload_n_runs", path),
                seed=_as_int(meta_map.get("payload_seed"), "meta payload_seed", path),
                samples=unit,
                impact_stats={
                    cat: _stats_from_dict({s: take("stat", s, cat) for s in _STAT_NAMES})
                    for cat in cats
                },
                cost_stats=_stats_from_dict({s: take("stat_cost", s, "") for s in _STAT_NAMES}),
            )
    else:
        t_out = _as_int(meta_map.get("payload_t_out"), "meta payload_t_out", path)
        shape = (grid.n_scenarios, t_out)
        cats = tuple(cat for _, _, cat in keys("dynamic_impact"))
        impacts = {cat: take("dynamic_impact", "", cat, shape) for cat in cats}
        cumulative = {cat: take("dynamic_cumulative", "", cat, shape) for cat in cats}
        contributions: dict[str, dict[str, np.ndarray]] = {}
        for _, sub, cat in keys("dynamic_contribution"):
            contributions.setdefault(sub, {})[cat] = take("dynamic_contribution", sub, cat, shape)
        payload = DynamicImpactResult(
            grid=grid,
            t_out=t_out,
            categories=cats,
            impacts=impacts,
            cumulative=cumulative,
            contributions=contributions,
        )
    if columns:
        section, name, category = next(iter(columns))
        raise LoadError(
            f"section {section!r}, name {name!r}, category {category!r}: "
            f"rows a {payload_type} result does not have",
            path=path,
        )
    return ResultSet(meta=meta, payload_type=payload_type, payload=payload)


def export_results(rs: ResultSet, format: str, path) -> None:
    """Write a result set as JSON (full fidelity) or long-format CSV.

    Both formats re-import bit-exactly; exporting the imported set again
    produces a byte-identical file.
    """
    if format == "json":
        doc = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "meta": rs.meta,
            "payload_type": rs.payload_type,
            "payload": _TO_DICT[rs.payload_type](rs.payload),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _export_csv(rs, fh)
    else:
        raise ValueError(f"unknown format {format!r}; use 'json' or 'csv'")


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

    A file whose first non-blank character is ``{`` is read as JSON; any
    other is streamed as a result CSV.
    """
    path = str(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            try:
                head = _read_through_blank(fh)
                if not head.endswith("{"):
                    return _import_csv(path, itertools.chain([head + fh.readline()], fh))
                text = head + fh.read()
            except UnicodeDecodeError as exc:
                # exc.object is the undecoded tail of what was read so far
                offset = fh.buffer.tell() - len(exc.object) + exc.start
                raise LoadError(
                    f"file is not valid UTF-8: {exc.reason} at byte {offset}", path=path
                ) from exc
    except OSError as exc:
        raise LoadError(f"cannot read file: {exc}", path=path) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"JSON parse error: {exc}", path=path, line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise LoadError("result JSON must be an object", path=path)
    for required in ("schema_version", "meta", "payload_type", "payload"):
        if required not in doc:
            raise LoadError(f"missing key {required!r}", path=path)
    payload_type = doc["payload_type"]
    if payload_type not in _FROM_DICT:
        raise LoadError(f"unknown payload_type {payload_type!r}", path=path)
    try:
        payload = _FROM_DICT[payload_type](doc["payload"])
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise LoadError(f"malformed {payload_type} payload: {exc!r}", path=path) from exc
    meta = doc["meta"]
    if not isinstance(meta, dict):
        raise LoadError("meta must be an object", path=path)
    return ResultSet(meta=meta, payload_type=payload_type, payload=payload)
