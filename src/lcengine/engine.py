"""Scenario x time aggregation engine.

Computes, per impact category, for cost and per emitted substance, the
unit result of the main process: the sum over sub-processes of
(sub-process unit value x sub-process exchange amount), where each
sub-process unit value is the sum over its flows of (flow unit value x
flow exchange amount).  All products and sums are cell-wise on the
scenario x time grid.

Accumulation order is canonical and fixed: per output grid, the purely
scalar terms are folded into one constant (summed in flow/sub-process
document order) and applied first, then the grid-valued terms are applied
in document order.  Every cell therefore sees one fixed operation
sequence, and results are reproducible to the bit across repeat runs
and block sizes; reordering effects stay within the documented 1e-9
accumulation tolerance.  ``run_matrix``, ``compute_inventory`` and the
public ``subprocess_aggregate``/``main_aggregate`` share that one
accumulation path (``_Accumulator`` and its steps, executed by the NumPy
ops in ``kernels``), so they agree to the bit.

Grids are float64, scenario rows by time columns.  Operands stay as
cheap as their amounts allow: a per-period unit row or a per-scenario
draw is a read-only broadcast view, not a copy.  An evaluation sums only
the main-process totals, once per distinct value: a total whose terms
all repeat along an axis (draw columns along time, per-period rows across
scenarios) is summed over one column or one row, one cache-sized row
block at a time, and then written out in full.  Each sub-process unit
grid is summed per block into scratch space and folded straight into its
total.  The per-sub-process breakdowns
(``sp_unit_impacts``/``sp_unit_costs``) are computed, with the same
steps, the first time they are read.  Evaluation runs on one thread.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import kernels
from .kernels import _cache_blocks
from .errors import InvalidModelError, MissingDataError, ShapeError, StaticModeError
from .model import (
    DistributionAmount,
    MatrixAmount,
    ProcessModel,
    ScalarAmount,
    ScenarioGrid,
    SubProcessDefinition,
    ValidationReport,
    _draws_samples,
    broadcast_exchange,
    validate_model,
)
from .sampler import stream_for_flow, stream_for_subprocess

if TYPE_CHECKING:
    from .io import UnitValueTable

Grid = np.ndarray


@dataclass(eq=False)
class UnitResult:
    """Unit impacts and cost of the main process, with per-sub-process breakdowns.

    From an evaluation, ``sp_unit_impacts`` and ``sp_unit_costs`` are
    read-only mappings that compute each grid the first time it is read.
    """

    grid: ScenarioGrid
    categories: tuple[str, ...]
    impacts: dict[str, Grid]                            # category -> (S, T)
    cost: Grid                                          # (S, T)
    sp_unit_impacts: Mapping[str, Mapping[str, Grid]]   # subprocess -> category -> (S, T)
    sp_unit_costs: Mapping[str, Grid]
    sp_exchange: dict[str, Grid]

    @property
    def subprocess_names(self) -> tuple[str, ...]:
        return tuple(self.sp_unit_costs)

    def contribution_impact(self, sp_name: str, category: str) -> Grid:
        """This sub-process's term of the main-process sum for one category."""
        return self.sp_unit_impacts[sp_name][category] * self.sp_exchange[sp_name]

    def contribution_cost(self, sp_name: str) -> Grid:
        return self.sp_unit_costs[sp_name] * self.sp_exchange[sp_name]


@dataclass(eq=False)
class InventoryResult:
    """Per-substance emission grids aggregated over all sub-processes and flows."""

    grid: ScenarioGrid
    emissions: dict[str, Grid]  # substance -> (S, T)


@dataclass(eq=False)
class SummaryStats:
    """Per-time-step statistics across Monte Carlo runs."""

    mean: np.ndarray
    sd: np.ndarray
    p2_5: np.ndarray
    p50: np.ndarray
    p97_5: np.ndarray


@dataclass(eq=False)
class MonteCarloResult:
    """Per-run sample grids plus summary statistics per category and for cost."""

    n_runs: int
    seed: int
    samples: UnitResult
    impact_stats: dict[str, SummaryStats]
    cost_stats: SummaryStats


# ---------------------------------------------------------------------------
# core aggregation

def _aggregate(unit_values, exchange_values, what: str) -> Grid:
    """One output grid from scalar or conforming 2-D operands, summed by the
    accumulator steps of ``_fold``, so the public aggregators give its bits."""
    if len(unit_values) != len(exchange_values):
        raise ShapeError(
            f"{what}: {len(unit_values)} unit values vs "
            f"{len(exchange_values)} exchange grids"
        )
    shape = None
    for arr in (*unit_values, *exchange_values):
        if isinstance(arr, np.ndarray):
            if arr.ndim != 2:
                raise ShapeError(f"{what}: grids must be 2-D, got ndim={arr.ndim}")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ShapeError(f"{what}: mixed grid shapes {shape} and {arr.shape}")
    if shape is None:
        raise ShapeError(
            f"{what}: all operands are scalars; pass at least one grid to fix the output shape"
        )
    acc = _Accumulator(shape)
    for unit, exch in zip(unit_values, exchange_values):
        acc.add(unit, exch)
    return acc.grid()


def subprocess_aggregate(
    sp: SubProcessDefinition,
    unit_values: Sequence[np.ndarray],
    exchange_grids: Sequence[np.ndarray],
) -> Grid:
    """Sum over the sub-process's flows of (unit value x exchange), cell-wise.

    The same formula serves impacts (per category) and costs.  Operands may
    be scalars or conforming 2-D grids; at least one grid must be present
    to fix the output shape.  Terms are added in ``run_matrix``'s order
    (scalar terms folded first), so with the same operands the result is
    bit-identical to its ``sp_unit_impacts``/``sp_unit_costs``.
    """
    return _aggregate(unit_values, exchange_grids, f"subprocess {sp.name!r}")


def main_aggregate(
    unit_sp_grids: Sequence[np.ndarray],
    sp_exchange_grids: Sequence[np.ndarray],
) -> Grid:
    """Sum over sub-processes of (sub-process unit value x exchange), cell-wise.

    Same term order as ``subprocess_aggregate``; with the same operands the
    result is bit-identical to ``run_matrix``'s ``impacts``/``cost``.
    """
    if not len(unit_sp_grids):
        raise ShapeError("main_aggregate: no sub-process grids")
    return _aggregate(unit_sp_grids, sp_exchange_grids, "main process")


def _exchange_operand(amount, grid: ScenarioGrid, stream):
    """Scalar amounts and point masses stay scalar; everything else becomes a grid."""
    if isinstance(amount, ScalarAmount):
        return amount.value
    if isinstance(amount, DistributionAmount) and not _draws_samples(amount):
        return amount.spec.parameters[0]
    return broadcast_exchange(amount, grid, stream)


def _unit_operand(value, shape: tuple[int, int]):
    """Per-period unit rows become read-only grid views; scalars stay scalar."""
    if isinstance(value, np.ndarray):
        return np.broadcast_to(value, shape)
    return value


def _constant_grid(value, shape: tuple[int, int]) -> Grid:
    """A read-only grid whose every cell is ``value``: the zero-stride view
    ``np.broadcast_to`` makes of a scalar, built without its overhead."""
    return np.ndarray(shape, np.float64, np.float64(value), 0, (0, 0))


# ---------------------------------------------------------------------------
# evaluation driver

class _Accumulator:
    """One output grid as a sum of terms, with scalar terms folded.

    Scalar x scalar terms collapse into one constant (summed in document
    order); grid-valued terms keep document order.  A grid-valued operand
    is an array or another accumulator (a sub-process unit value feeding a
    main-process total), which is summed block by block into scratch
    space and never stored whole.  The constant is applied first, then
    the grid terms, so the per-cell operation sequence is fixed and
    identical across block sizes.

    Each grid term is kept as ``(scale, grid, other)``: ``scale`` times
    ``grid`` when one operand is a scalar, else ``grid`` times ``other``
    (``scale`` None), so summing it takes one dispatch.

    ``compact_shape`` is the extent of the distinct values: per axis, 1
    when every term repeats along it (a scalar, a length-1 axis or a
    stride-0 axis, as in a draw column or a per-period row), else the axis
    length.  The grid is summed over that shape only, so each distinct
    cell value is computed once.  An accumulator that never receives a
    grid term stays virtual: its grid is a constant view of ``const`` and
    costs no memory or passes.
    """

    __slots__ = ("shape", "compact_shape", "const", "grid_terms")

    def __init__(self, shape: tuple[int, int]):
        self.shape = shape
        self.compact_shape = (1, 1)
        self.const = 0.0
        self.grid_terms: list[tuple[float | None, object, object]] = []

    def add(self, unit, exch) -> None:
        if isinstance(unit, _GRID_OPERANDS):
            term = ((None, unit, exch) if isinstance(exch, _GRID_OPERANDS)
                    else (float(exch), unit, None))
        elif isinstance(exch, _GRID_OPERANDS):
            term = (float(unit), exch, None)
        else:
            self.const += float(unit) * float(exch)
            return
        self.grid_terms.append(term)
        rows, cols = self.compact_shape
        for operand in term[1:]:
            if isinstance(operand, _Accumulator):
                op_rows, op_cols = operand.compact_shape
            elif operand is None:
                continue
            else:  # an array of self.shape
                row_step, col_step = operand.strides
                op_rows = self.shape[0] if row_step else 1
                op_cols = self.shape[1] if col_step else 1
            if op_rows > rows:
                rows = op_rows
            if op_cols > cols:
                cols = op_cols
        self.compact_shape = (rows, cols)

    def fill(self, out: Grid, rows: slice, scratch: Grid | None) -> None:
        """Write this grid's ``rows`` into ``out``, a block of that height
        whose width is at least this grid's compact width.

        An accumulator operand is first summed into ``scratch``, a flat
        buffer at least as large as ``out``.  Such operands nest one level
        deep (a unit value inside a total), so they get no scratch of their
        own.
        """
        # The bits of a zeroed cell plus the constant: a sum started at 0.0
        # is never -0.0, the one value that adding to 0.0 would change.
        out.fill(self.const)
        for scale, grid, other in self.grid_terms:
            grid = _operand_rows(grid, rows, out.shape, scratch)
            if scale is None:
                kernels.add_product(out, grid, _operand_rows(other, rows, out.shape, scratch))
            else:
                kernels.add_scaled(out, scale, grid)

    def compact(self) -> Grid:
        """The distinct values: a new ``compact_shape`` array summed one row
        block at a time, or a constant 1 x 1 view when virtual."""
        if not self.grid_terms:
            return _constant_grid(self.const, (1, 1))
        out = np.empty(self.compact_shape, dtype=np.float64)
        blocks = _cache_blocks(*self.compact_shape)
        scratch = np.empty(blocks[0].stop * self.compact_shape[1], dtype=np.float64)
        for rows in blocks:
            self.fill(out[rows], rows, scratch)
        return out

    def spread(self, compact: Grid) -> Grid:
        """``compact`` written out over the whole shape: a new writable
        C-contiguous grid, or a constant view when virtual."""
        if not self.grid_terms:
            return _constant_grid(self.const, self.shape)
        if compact.shape == self.shape:
            return compact
        out = np.empty(self.shape, dtype=np.float64)
        out[...] = compact
        return out

    def grid(self) -> Grid:
        """The whole grid, summed once per distinct value."""
        return self.spread(self.compact())


_GRID_OPERANDS = (np.ndarray, _Accumulator)


def _operand_rows(operand, rows: slice, shape: tuple[int, int], scratch: Grid) -> Grid:
    """The grid operand's ``rows`` of a compact grid, as a ``shape`` block."""
    if isinstance(operand, _Accumulator):
        n_rows, n_cols = operand.compact_shape
        if n_rows == 1:
            rows = slice(0, 1)
        block = scratch[: (rows.stop - rows.start) * n_cols].reshape(-1, n_cols)
        operand.fill(block, rows, None)
        return block if block.shape == shape else np.broadcast_to(block, shape)
    return operand if operand.shape == shape else operand[rows, : shape[1]]


class _LazyGrids(Mapping):
    """Read-only mapping whose accumulator values become grids on first read.

    Each grid is summed by the accumulator's own steps, so it has the bits
    an eager evaluation would give, and replaces its accumulator once read.
    Other values (nested mappings) pass through.
    """

    __slots__ = ("_values",)

    def __init__(self, values: dict):
        self._values = values

    def __getitem__(self, key):
        value = self._values[key]
        if isinstance(value, _Accumulator):
            value = self._values[key] = value.grid()
        return value

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


def _fold(model: ProcessModel, report: ValidationReport, grid: ScenarioGrid,
          seed: int | None, kinds: tuple, flow_pairs):
    """The one accumulation path: ``flow_pairs`` maps a flow's record in
    ``report._resolved`` to its ``(kind, unit value)`` pairs.
    Each flow's exchange operand is resolved once and feeds a unit
    accumulator per pair; each unit accumulator is folded into its kind's
    total times the sub-process exchange.  Every sub-process has
    ``kinds``; other kinds join in first-seen order.  A flow with no pairs
    draws nothing; all sampling happens here, in document order.
    ``report`` is the model's validation report.
    """
    if None in report._resolved:  # a background flow, validated without a database
        flow = [f for sp in model.subprocesses for f in sp.flows][report._resolved.index(None)]
        raise MissingDataError(f"flow {flow.name!r}: no database to resolve it from")
    if seed is None and report._draws:
        raise ValueError("model has distribution amounts; pass seed=")
    shape = grid.shape
    totals = {kind: _Accumulator(shape) for kind in kinds}
    sp_units: dict[str, dict[object, _Accumulator]] = {}
    sp_exchange: dict[str, Grid] = {}
    records = iter(report._resolved)
    for sp in model.subprocesses:
        units = sp_units[sp.name] = {kind: _Accumulator(shape) for kind in kinds}
        for flow in sp.flows:
            x = None
            for kind, unit in flow_pairs(next(records)):
                if x is None:  # the flow's first unit value: draw its exchange
                    stream = None if seed is None else stream_for_flow(seed, sp.name, flow.name)
                    x = _exchange_operand(flow.amount, grid, stream)
                acc = units.get(kind)
                if acc is None:
                    acc = units[kind] = _Accumulator(shape)
                acc.add(_unit_operand(unit, shape), x)
        sp_stream = None if seed is None else stream_for_subprocess(seed, sp.name)
        sp_x = _exchange_operand(sp.amount, grid, sp_stream)
        sp_exchange[sp.name] = (
            sp_x if isinstance(sp_x, np.ndarray) else _constant_grid(sp_x, shape)
        )
        for kind, unit_acc in units.items():
            total = totals.get(kind)
            if total is None:
                total = totals[kind] = _Accumulator(shape)
            total.add(unit_acc if unit_acc.grid_terms else unit_acc.const, sp_x)
    return totals, sp_units, sp_exchange


def _evaluate(
    model: ProcessModel,
    report: ValidationReport,
    grid: ScenarioGrid,
    seed: int | None,
    categories: tuple[str, ...],
) -> tuple[UnitResult, dict]:
    """The unit result, and each total's compact grid keyed by kind
    (a category, or None for cost)."""
    kinds = (*categories, None)  # per category, then cost (kind None)
    columns = [*map(model.categories.index, categories)]
    totals, sp_units, sp_exchange = _fold(
        model, report, grid, seed, kinds,
        lambda units: zip(kinds, [*map(units.impacts.__getitem__, columns), units.cost]))
    # Only the totals are summed here; each sub-process unit grid is
    # computed per row block inside them, and whole only when first read.
    compact = {kind: totals[kind].compact() for kind in kinds}
    unit = UnitResult(
        grid=grid,
        categories=categories,
        impacts={cat: totals[cat].spread(compact[cat]) for cat in categories},
        cost=totals[None].spread(compact[None]),
        sp_unit_impacts=_LazyGrids({
            name: _LazyGrids({cat: units[cat] for cat in categories})
            for name, units in sp_units.items()
        }),
        sp_unit_costs=_LazyGrids({name: units[None] for name, units in sp_units.items()}),
        sp_exchange=sp_exchange,
    )
    return unit, compact


def _select_categories(model: ProcessModel, categories) -> tuple[str, ...]:
    if categories is None:
        return model.categories
    categories = tuple(dict.fromkeys(categories))  # each name once, in first-seen order
    missing = [c for c in categories if c not in model.categories]
    if missing:
        raise MissingDataError(f"categories not declared by the model: {missing}")
    return categories


def _require_valid(model: ProcessModel, db, grid=None, require_cost=True) -> ValidationReport:
    report = validate_model(model, db, grid=grid, require_cost=require_cost)
    if not report.is_valid:
        raise InvalidModelError(
            f"model {model.name!r} fails validation:\n{report}", report=report
        )
    return report


def run_static(model: ProcessModel, db, *, categories=None) -> UnitResult:
    """Deterministic single-value calculation on a 1x1 grid.

    Requires scalar inputs (point-mass distributions count as scalars;
    matrices only when the model grid is itself 1x1).  Cell for cell, the
    result is bit-identical to ``run_matrix`` on an all-scalar model.
    """
    cats = _select_categories(model, categories)
    one = ScenarioGrid(1, 1, model.grid.step_label, model.grid.step_origin)
    for sp in model.subprocesses:
        for name, amount in [(f.name, f.amount) for f in sp.flows] + [(sp.name, sp.amount)]:
            if _draws_samples(amount):
                raise StaticModeError(
                    f"{name!r} has a {amount.spec.kind} distribution; "
                    "use run_monte_carlo or run_matrix"
                )
            if isinstance(amount, MatrixAmount) and model.grid.shape != (1, 1):
                raise StaticModeError(
                    f"{name!r} is a matrix amount on a "
                    f"{model.grid.n_scenarios}x{model.grid.n_timesteps} grid; "
                    "use run_matrix"
                )
    report = _require_valid(model, db, grid=one if model.grid.shape != (1, 1) else None)
    return _evaluate(model, report, one, None, cats)[0]


def run_matrix(
    model: ProcessModel,
    db,
    *,
    seed: int | None = None,
    categories=None,
) -> UnitResult:
    """Full scenario x time calculation (the hot path).

    ``seed`` is required when the model carries non-degenerate
    distribution amounts; with all-scalar inputs the result is cell-wise
    constant and equals ``run_static``.
    """
    cats = _select_categories(model, categories)
    return _evaluate(model, _require_valid(model, db), model.grid, seed, cats)[0]


def run_monte_carlo(
    model: ProcessModel,
    db,
    n_runs: int,
    seed: int,
    *,
    categories=None,
) -> MonteCarloResult:
    """Sample the model's distributions and evaluate one run per scenario row.

    The scenario axis becomes the run axis (n_runs rows); every
    distribution draws once per run and holds across time.  Summary
    statistics (mean, sd, and the 2.5/50/97.5 percentiles with linear
    interpolation) are computed across runs, per time step.  A model
    without distributions gives a warning once it has passed validation.
    """
    if n_runs < 2:
        raise ValueError(f"n_runs must be >= 2, got {n_runs}")
    cats = _select_categories(model, categories)
    mc_grid = ScenarioGrid(n_runs, model.grid.n_timesteps,
                           model.grid.step_label, model.grid.step_origin)
    report = _require_valid(model, db, grid=mc_grid)
    if not report._draws:
        warnings.warn(
            "model has no distribution amounts; Monte Carlo is degenerate",
            stacklevel=2,
        )
    unit, compact = _evaluate(model, report, mc_grid, seed, cats)
    impact_stats = {cat: _summary_stats(unit.impacts[cat], compact[cat]) for cat in cats}
    return MonteCarloResult(
        n_runs=n_runs,
        seed=seed,
        samples=unit,
        impact_stats=impact_stats,
        cost_stats=_summary_stats(unit.cost, compact[None]),
    )


def _summary_stats(samples: Grid, compact: Grid) -> SummaryStats:
    """Statistics over the runs (rows) of ``samples``, per time step.

    A total that repeats along time has the same order statistics in
    every column, so the percentiles come from ``compact``'s columns
    over all runs.  Mean and sd are taken from ``samples``: NumPy sums a
    whole grid's columns sequentially, a single column pairwise.
    """
    runs = np.broadcast_to(compact, (samples.shape[0], compact.shape[1]))
    pcts = np.empty((3, samples.shape[1]), dtype=np.float64)
    pcts[...] = np.percentile(runs, [2.5, 50.0, 97.5], axis=0, method="linear")
    return SummaryStats(
        mean=samples.mean(axis=0),
        sd=samples.std(axis=0, ddof=1),
        p2_5=pcts[0],
        p50=pcts[1],
        p97_5=pcts[2],
    )


def compute_inventory(
    model: ProcessModel,
    db,
    *,
    seed: int | None = None,
) -> InventoryResult:
    """Aggregate per-substance emission grids from flow amounts.

    Each flow contributes (sub-process exchange x flow exchange x per-unit
    emission) for every substance in its background inventory; a flow
    tagged with ``substance`` additionally emits one unit of that
    substance per unit of flow.  Flows without inventory data simply
    contribute nothing.  The terms are folded like ``run_matrix``'s, so a
    substance whose per-unit emissions equal a category's unit impacts
    gets that category's bits; a substance emitted only through scalar
    terms gets a read-only constant view.
    """
    report = _require_valid(model, db, require_cost=False)
    totals, _, _ = _fold(model, report, model.grid, seed, (),
                         lambda units: units.emissions.items())
    return InventoryResult(
        grid=model.grid, emissions={substance: acc.grid() for substance, acc in totals.items()}
    )
