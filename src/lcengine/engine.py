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
accumulation tolerance.

Each call builds one evaluation plan (``_plan``) in one walk over the
model and the unit values its validation resolved: per kind (a category,
cost, or a substance), each sub-process sum and each main-process total
becomes plain data, a float constant folded as above plus a finished list
of grid terms whose compact shape is computed once (``_Sum``).  One fold
(``_sums``) makes every sum, and nothing is kept between calls.
``run_static``, ``run_matrix``, ``run_monte_carlo`` and
``compute_inventory`` (and so ``run_dynamic``) build and run a plan; the
public ``subprocess_aggregate``/``main_aggregate`` fold and sum their
operands with the same steps (``_fill``'s ``out += a * b``), so they all
agree to the bit.

Grids are float64, scenario rows by time columns.  Operands stay as
cheap as their amounts allow: a per-period unit row is kept as one row and
a per-scenario draw as one column, not copied out.  An evaluation sums
only the main-process totals, once per distinct value: a total whose terms
all repeat along an axis (draw columns along time, per-period rows across
scenarios) is summed over one column or one row, one cache-sized row block
at a time, and then written out in full.  Each sub-process unit grid is
summed per block into a block of its own and folded straight into its
total.
The per-sub-process breakdowns (``sp_unit_impacts``/``sp_unit_costs``)
are computed from their sums, with the same steps, the first time they
are read.  Evaluation runs on one thread.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

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
    """One output grid from scalar or conforming float64 2-D operands,
    folded and summed as a plan's sums are, so the public aggregators give
    their bits."""
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
            if arr.dtype != np.float64:
                raise ShapeError(f"{what}: grids must be float64, got {arr.dtype}")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ShapeError(f"{what}: mixed grid shapes {shape} and {arr.shape}")
    if shape is None:
        raise ShapeError(
            f"{what}: all operands are scalars; pass at least one grid to fix the output shape"
        )

    def operand(value):
        return _compact_operand(value) if isinstance(value, np.ndarray) else float(value)

    return _grid(_sums(1, [((operand(u),), operand(x))
                           for u, x in zip(unit_values, exchange_values)])[0], shape)


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


def _constant_grid(value, shape: tuple[int, int]) -> Grid:
    """A read-only grid whose every cell is ``value``: the zero-stride view
    ``np.broadcast_to`` makes of a scalar, built without its overhead."""
    return np.ndarray(shape, np.float64, np.float64(value), 0, (0, 0))


# ---------------------------------------------------------------------------
# evaluation plan

class _Sum(NamedTuple):
    """One output grid as plain data: ``const`` plus the products of ``terms``.

    ``const`` holds the scalar x scalar terms, folded in document order.
    Each term ``(a, b)`` adds ``a * b``, in document order: ``a`` is a grid
    operand, ``b`` a grid operand or a float.  A grid operand is a
    sub-process ``_Sum`` (inside a main-process total only) or an array in
    compact form, of length 1 along each axis its values repeat along: a
    per-period unit row is one row, a draw one column, a matrix whole.
    ``shape`` is the compact shape, per axis the longest extent of any
    operand, so the sum is computed once per distinct value.  A sum
    without terms is kept as its constant, a float: its grid is a constant
    view and costs no memory or passes.
    """

    const: float
    terms: list
    shape: tuple[int, int]



def _sums(n: int, rows) -> list:
    """Per kind ``i < n``, the sum over ``rows`` of ``units[i] * x``, in
    order, as plain data: a float, a ``_Sum``, or None for a kind that no
    row has a value of (``units[i]`` is None).

    Each row is ``(units, x)``: the unit values of one flow or sub-process,
    one per kind, and its exchange, a float or a grid operand.  A grid
    operand is an array in compact form or a ``_Sum``; a unit value is a
    number, a grid operand or a per-period row, a 1-D array taken as one
    (1, T) row.
    """
    consts = [0.0] * n
    terms = [None] * n  # per kind: its grid terms, once it has one
    seen = [False] * n
    for units, x in rows:
        scalar = type(x) is float
        for i, unit in enumerate(units):
            if type(unit) is not float:
                if unit is None:
                    continue
                if type(unit) is not _Sum:
                    if not isinstance(unit, np.ndarray):
                        unit = float(unit)
                    elif unit.ndim == 1:  # a per-period row
                        unit = unit[np.newaxis]
            seen[i] = True
            if type(unit) is float:
                if scalar:
                    consts[i] += unit * x
                    continue
                term = (x, unit)
            else:
                term = (unit, x)
            if terms[i] is None:
                terms[i] = [term]
            else:
                terms[i].append(term)
    sums = []
    for const, kind_terms, present in zip(consts, terms, seen):
        if kind_terms is None:
            sums.append(const if present else None)
            continue
        n_rows = n_cols = 1  # per axis, the longest extent of any operand
        for a, b in kind_terms:
            a_rows, a_cols = a.shape
            b_rows, b_cols = (1, 1) if type(b) is float else b.shape
            if a_rows > n_rows or b_rows > n_rows:
                n_rows = a_rows if a_rows > b_rows else b_rows
            if a_cols > n_cols or b_cols > n_cols:
                n_cols = a_cols if a_cols > b_cols else b_cols
        sums.append(_Sum(const, kind_terms, (n_rows, n_cols)))
    return sums


def _compact_operand(grid: Grid) -> Grid:
    """A grid operand in compact form: a view of length 1 along each axis
    of stride 0 (time for a draw, scenarios for a per-period row)."""
    row_step, col_step = grid.strides
    if row_step and col_step:
        return grid
    return grid[: None if row_step else 1, : None if col_step else 1]


def _fill(out: Grid, total: _Sum, rows: slice) -> None:
    """Write ``total``'s compact ``rows`` into ``out``, a block of that
    height and of the compact width.

    An operand taller than the block is cut to its ``rows``.  A ``_Sum``
    operand (a sub-process unit value inside a total) is first summed into
    a block of its own.
    """
    # The bits of a zeroed cell plus the constant: a sum started at 0.0
    # is never -0.0, the one value that adding to 0.0 would change.
    out.fill(total.const)
    height = out.shape[0]
    for a, b in total.terms:
        if type(a) is _Sum:
            block = np.empty((height if a.shape[0] > 1 else 1, a.shape[1]))
            _fill(block, a, rows)
            a = block
        elif a.shape[0] > height:
            a = a[rows]
        if type(b) is not float and b.shape[0] > height:
            b = b[rows]
        out += a * b


def _compact(total: _Sum | float) -> Grid:
    """The distinct values of ``total``: a new array of its compact shape,
    summed one row block at a time, or a constant 1 x 1 view."""
    if type(total) is float:
        return _constant_grid(total, (1, 1))
    out = np.empty(total.shape)
    for rows in _cache_blocks(*total.shape):
        _fill(out[rows], total, rows)
    return out


def _spread(total: _Sum | float, compact: Grid, shape: tuple[int, int]) -> Grid:
    """``compact`` written out over ``shape``: a new writable C-contiguous
    grid, or a constant view when ``total`` is a constant."""
    if type(total) is float:
        return _constant_grid(total, shape)
    if compact.shape == shape:
        return compact
    out = np.empty(shape)
    out[...] = compact
    return out


def _grid(total: _Sum | float, shape: tuple[int, int]) -> Grid:
    """The whole grid of ``total``, summed once per distinct value."""
    return _spread(total, _compact(total), shape)


def _plan(model: ProcessModel, report: ValidationReport, grid: ScenarioGrid,
          seed: int | None, kinds: tuple, values) -> tuple[list, dict, dict]:
    """One evaluation as plain data, built in one walk over the model and
    its validation report's resolved unit values; nothing outlives the call
    that builds it but the sums its lazy breakdowns hold.

    A kind is a category, None for cost, or a substance.  ``values`` maps a
    flow's record in ``report._resolved`` to its unit values, one per kind
    of ``kinds`` (None where the flow has none), or to None when it has
    none at all.  A kind belongs to a sub-process when one of its flows has
    a value of it; in a valid model every flow has every category and cost.
    Each sum is a float or a ``_Sum`` (see there).  Returns, aligned with
    ``kinds``:

    - ``totals``: each kind's sum over sub-processes of (unit value x
      sub-process exchange), a sub-process ``_Sum`` being a grid operand;
    - ``sp_sums``: per sub-process name, each kind's sum over the flows'
      (unit value x exchange) terms, or None for a kind it lacks;

    and ``sp_exchange``, each sub-process exchange grid.  Each flow's
    exchange is resolved once, and a flow without values draws nothing.
    All sampling happens here, in document order.
    """
    if None in report._resolved:  # a background flow, validated without a database
        flow = [f for sp in model.subprocesses for f in sp.flows][report._resolved.index(None)]
        raise MissingDataError(f"flow {flow.name!r}: no database to resolve it from")
    if seed is None and report._draws:
        raise ValueError("model has distribution amounts; pass seed=")
    n = len(kinds)
    sp_rows = []  # per sub-process: its sums and exchange
    sp_sums: dict[str, list] = {}
    sp_exchange: dict[str, Grid] = {}
    records = iter(report._resolved)
    for sp in model.subprocesses:
        rows = []
        for flow in sp.flows:
            units = values(next(records))
            if units is None:  # draws nothing
                continue
            stream = None if seed is None else stream_for_flow(seed, sp.name, flow.name)
            x = _exchange_operand(flow.amount, grid, stream)
            rows.append((units, _compact_operand(x) if isinstance(x, np.ndarray) else x))
        sp_stream = None if seed is None else stream_for_subprocess(seed, sp.name)
        sp_x = _exchange_operand(sp.amount, grid, sp_stream)
        if isinstance(sp_x, np.ndarray):
            sp_exchange[sp.name] = sp_x
            sp_x = _compact_operand(sp_x)
        else:
            sp_exchange[sp.name] = _constant_grid(sp_x, grid.shape)
        sums = sp_sums[sp.name] = _sums(n, rows)
        sp_rows.append((sums, sp_x))
    # every kind is some sub-process's: validation rejects a model without
    # sub-processes or flows, and a substance is one that a flow emits
    return _sums(n, sp_rows), sp_sums, sp_exchange


class _LazyGrids(Mapping):
    """Read-only mapping whose values are made on first read, by ``read``
    from the plan sums in ``values``: a grid, summed by the plan's own
    steps so it has the bits an eager evaluation would give, or a mapping
    of such grids.  Each is made once and kept.
    """

    __slots__ = ("_values", "_read", "_made")

    def __init__(self, values: dict, read):
        self._values = values
        self._read = read
        self._made = {}

    def __getitem__(self, key):
        made = self._made
        if key not in made:
            made[key] = self._read(self._values[key])
        return made[key]

    def __contains__(self, key) -> bool:  # without making the value
        return key in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


def _evaluate(
    model: ProcessModel,
    report: ValidationReport,
    grid: ScenarioGrid,
    seed: int | None,
    categories: tuple[str, ...],
) -> tuple[UnitResult, list]:
    """The unit result, and each total's compact grid: per category of
    ``categories``, then cost."""
    # The plan's kinds are every category of the model, then cost (kind
    # None); the selected categories are picked from its sums.
    totals, sp_sums, sp_exchange = _plan(model, report, grid, seed, (*model.categories, None),
                                         lambda units: (*units.impacts, units.cost))
    columns = [*map(model.categories.index, categories)]
    totals = [*map(totals.__getitem__, columns), totals[-1]]
    # Only the totals are summed here; each sub-process unit grid is
    # computed per row block inside them, and whole only when first read.
    shape = grid.shape
    compact = [*map(_compact, totals)]
    grids = [_spread(total, distinct, shape) for total, distinct in zip(totals, compact)]
    unit = UnitResult(
        grid=grid,
        categories=categories,
        impacts=dict(zip(categories, grids)),
        cost=grids[-1],
        sp_unit_impacts=_LazyGrids(sp_sums, lambda sums: _LazyGrids(
            dict(zip(categories, map(sums.__getitem__, columns))),
            lambda total: _grid(total, shape))),
        sp_unit_costs=_LazyGrids(sp_sums, lambda sums: _grid(sums[-1], shape)),
        sp_exchange=sp_exchange,
    )
    return unit, compact


def _category_names(categories) -> tuple[str, ...]:
    """The names of an iterable of category names, each once, in first-seen
    order.  A str, an iterable of one-letter names, is a TypeError."""
    if isinstance(categories, str):
        raise TypeError(f"categories must be a sequence of category names, "
                        f"not the str {categories!r}")
    return tuple(dict.fromkeys(categories))


def _select_categories(model: ProcessModel, categories) -> tuple[str, ...]:
    if categories is None:
        return model.categories
    categories = _category_names(categories)
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
    one = replace(model.grid, n_scenarios=1, n_timesteps=1)
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
    report = _require_valid(model, db, grid=one)
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
    mc_grid = replace(model.grid, n_scenarios=n_runs)
    report = _require_valid(model, db, grid=mc_grid)
    if not report._draws:
        warnings.warn(
            "model has no distribution amounts; Monte Carlo is degenerate",
            stacklevel=2,
        )
    unit, compact = _evaluate(model, report, mc_grid, seed, cats)
    impact_stats = {cat: _summary_stats(unit.impacts[cat], distinct)
                    for cat, distinct in zip(cats, compact)}
    return MonteCarloResult(
        n_runs=n_runs,
        seed=seed,
        samples=unit,
        impact_stats=impact_stats,
        cost_stats=_summary_stats(unit.cost, compact[-1]),
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
    substances = report._substances
    totals = _plan(model, report, model.grid, seed, substances,
                   lambda units: [*map(units.emissions.get, substances)] if units.emissions
                   else None)[0]
    shape = model.grid.shape
    return InventoryResult(
        grid=model.grid,
        emissions={substance: _grid(total, shape)
                   for substance, total in zip(substances, totals)},
    )
