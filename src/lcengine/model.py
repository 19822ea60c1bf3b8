"""Two-level process hierarchy and the scenario/time grid it is computed on.

A ProcessModel is a main process made of sub-processes; each sub-process
carries a list of flows (its inflows and outflows).  Every quantity in the
model is an exchange amount: a scalar, a scenario x time matrix, or a
distribution to be sampled once per scenario.  All definition types are
frozen and safe to share between concurrent evaluations.  The arrays they
hold are read-only, and this module alone decides how a value object takes
one (``dynamic`` and ``econ`` use the same two rules): a grid that owns its
data is frozen in place (``_frozen_grid``), a series is kept only when it
is already read-only (``_read_only_float64``), and anything else is copied
once.  So only the owner of a frozen array, by setting its writeable flag
back, or a view of it made before, can still write it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import ShapeError
from .sampler import DistributionSpec, SamplerStream, sample

if TYPE_CHECKING:
    from .io import UnitValueTable

FOREGROUND = "foreground"


@dataclass(frozen=True)
class ScenarioGrid:
    """Shape of one model run: scenario rows by time-step columns.

    ``step_label`` is free text ("year", "minute", ...); the engine never
    interprets it.  ``step_origin`` is the index of the first period, so a
    grid starting in 2025 with annual steps uses step_origin=2025.
    """

    n_scenarios: int
    n_timesteps: int
    step_label: str = "year"
    step_origin: int = 0

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ShapeError(f"n_scenarios must be >= 1, got {self.n_scenarios}")
        if self.n_timesteps < 1:
            raise ShapeError(f"n_timesteps must be >= 1, got {self.n_timesteps}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_scenarios, self.n_timesteps)


@dataclass(frozen=True)
class ScalarAmount:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


class _ValueChecks(NamedTuple):
    """What validation needs to know of a matrix amount's values."""

    finite: bool  # every value is finite
    negative: bool  # some value is negative


def _value_checks(values: np.ndarray) -> _ValueChecks:
    """Check ``values`` in two reductions: NaN propagates through min and
    max, so the element-wise scan for negatives runs only when one of them
    is not finite."""
    lo, hi = (values.min(), values.max()) if values.size else (0.0, 0.0)
    finite = math.isfinite(lo) and math.isfinite(hi)
    return _ValueChecks(finite, bool(lo < 0 if finite else np.any(values < 0)))


def _owned(values) -> bool:
    """Whether ``values`` is a C-contiguous float64 ndarray that owns its data."""
    return (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.c_contiguous and values.flags.owndata)


def _frozen_grid(values, what: str) -> np.ndarray:
    """``values`` as a read-only C-contiguous float64 2-D array: kept, and
    its writeable flag cleared in place, when it is such an array that owns
    its data (``_owned``); else copied once into one."""
    arr = values if _owned(values) else np.array(values, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ShapeError(f"{what} must be 2-D, got ndim={arr.ndim}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MatrixAmount:
    """Explicit scenario x time grid; must match the run grid exactly.

    ``values`` is kept only when it is a C-contiguous float64 ndarray that
    owns its data; its writeable flag is then cleared in place.  Anything
    else (a view, a read-only view of a writable base, another dtype or
    layout, a list) is copied once into such an array, which is frozen.
    So a later write through the caller's view or base array changes no
    amount, and validation checks the values once per amount (``_checks``).
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_grid(self.values, "matrix amount"))

    @cached_property
    def _checks(self) -> _ValueChecks:
        """The checks of ``values``, made on the first validation; the values
        cannot change, so they hold for every later one."""
        return _value_checks(self.values)


@dataclass(frozen=True)
class DistributionAmount:
    spec: DistributionSpec


ExchangeAmount = Union[ScalarAmount, MatrixAmount, DistributionAmount]


def as_amount(value) -> ExchangeAmount:
    """Coerce a number, 2-D array, DistributionSpec or amount to an amount."""
    if isinstance(value, (ScalarAmount, MatrixAmount, DistributionAmount)):
        return value
    if isinstance(value, DistributionSpec):
        return DistributionAmount(value)
    if isinstance(value, numbers.Real):  # int, float, bool and NumPy's scalars
        return ScalarAmount(float(value))
    return MatrixAmount(np.asarray(value))


@dataclass(frozen=True)
class FlowDefinition:
    """An inflow or outflow of a sub-process.

    Unit values resolve either through ``background_ref`` (a key into the
    background database) or inline via ``inline_unit_impact`` /
    ``inline_unit_cost`` with ``background_ref=FOREGROUND``; exactly one
    source may be resolvable per category.  Revenues are negative unit
    costs on outflows.  ``substance`` marks the flow itself as an emission
    of that substance (1 unit of flow = 1 unit of substance) for
    time-resolved impact assessment.
    """

    name: str
    direction: str  # "inflow" | "outflow"
    amount: ExchangeAmount
    background_ref: str = FOREGROUND
    inline_unit_impact: Mapping[str, float] | None = None
    inline_unit_cost: float | None = None
    substance: str | None = None

    def __post_init__(self):
        if self.direction not in ("inflow", "outflow"):
            raise ValueError(f"flow {self.name!r}: direction must be 'inflow' or 'outflow'")
        if self.inline_unit_impact is not None:
            object.__setattr__(
                self,
                "inline_unit_impact",
                {str(k): float(v) for k, v in self.inline_unit_impact.items()},
            )


@dataclass(frozen=True)
class SubProcessDefinition:
    """A sub-process: its amount per unit of main process, plus its flows."""

    name: str
    amount: ExchangeAmount
    flows: tuple[FlowDefinition, ...]

    def __post_init__(self):
        object.__setattr__(self, "flows", tuple(self.flows))


@dataclass(frozen=True)
class FunctionalUnit:
    """Reference quantity the results are expressed against (metadata only)."""

    description: str = ""
    reference_amount: float = 1.0


@dataclass(frozen=True, eq=False)
class ProcessModel:
    """The main process: named sub-processes evaluated on one grid.

    ``production`` is an optional per-period series of delivered product
    (or energy) used by the economic indicators; length n_timesteps.
    ``discount_rate`` is per grid period, not per year.  ``matrix_files``
    maps each ``matrix_file`` path, as written in the model document, to
    the file ``load_model`` read it from.
    """

    name: str
    subprocesses: tuple[SubProcessDefinition, ...]
    grid: ScenarioGrid
    categories: tuple[str, ...]
    discount_rate: float = 0.0
    functional_unit: FunctionalUnit = field(default_factory=FunctionalUnit)
    production: np.ndarray | None = None
    matrix_files: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "subprocesses", tuple(self.subprocesses))
        object.__setattr__(self, "categories", tuple(map(str, self.categories)))
        if self.production is not None:
            object.__setattr__(self, "production", _read_only_float64(self.production))


def _read_only_float64(values) -> np.ndarray:
    """``values`` as a read-only C-contiguous float64 array.  Such an array
    that owns its data is kept as it is; anything else is copied, a writable
    array or a read-only view too, so the result never shares memory with
    an array its caller can still write."""
    if _owned(values) and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=np.float64, order="C")
    arr.flags.writeable = False
    return arr


def _frozen_series(values) -> np.ndarray:
    """``values`` as a read-only float64 1-D array, raveled, by the rule of
    ``_read_only_float64``."""
    arr = _read_only_float64(values)
    return arr if arr.ndim == 1 else arr.ravel()


def _draws_samples(amount: ExchangeAmount) -> bool:
    """Whether evaluating this amount draws from a sampler stream."""
    return isinstance(amount, DistributionAmount) and amount.spec.kind != "point"


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ValidationFinding:
    severity: str  # "error" | "warning"
    location: str
    message: str

    def __str__(self):
        return f"{self.severity}: {self.location}: {self.message}"


class _UnitValues(NamedTuple):
    """The unit values validation resolved for one flow."""
    impacts: tuple  # per category of the model: a float, or a per-period row
    cost: float | None
    emissions: Mapping[str, float]  # per unit of flow, by substance


@dataclass
class ValidationReport:
    findings: list[ValidationFinding] = field(default_factory=list)
    # per flow in document order, its _UnitValues, or None for a background
    # flow validated without a database (see _check_flow_resolution)
    _resolved: list = field(default_factory=list, init=False, repr=False, compare=False)
    # whether some amount draws samples (see _check_amount)
    _draws: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def errors(self) -> list[ValidationFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[ValidationFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def is_valid(self) -> bool:
        return not self.errors

    def add_error(self, location: str, message: str) -> None:
        self.findings.append(ValidationFinding("error", location, message))

    def add_warning(self, location: str, message: str) -> None:
        self.findings.append(ValidationFinding("warning", location, message))

    def __str__(self):
        if not self.findings:
            return "OK"
        return "\n".join(str(f) for f in self.findings)


def _location(sp: SubProcessDefinition, flow: FlowDefinition | None = None) -> str:
    """A finding's location: a sub-process, or one of its flows."""
    where = f"subprocess {sp.name!r}"
    return where if flow is None else f"{where}, flow {flow.name!r}"


def _check_amount(
    report: ValidationReport,
    amount: ExchangeAmount,
    grid: ScenarioGrid,
    sp: SubProcessDefinition,
    flow: FlowDefinition | None = None,
) -> None:
    """Check the amount of ``sp``, or of its ``flow``, and note in
    ``report._draws`` whether it draws samples."""
    if isinstance(amount, ScalarAmount):
        if not math.isfinite(amount.value):
            report.add_error(_location(sp, flow), f"amount {amount.value} is not finite")
        elif amount.value < 0:
            report.add_warning(_location(sp, flow), "negative exchange amount (avoided flow?)")
    elif isinstance(amount, MatrixAmount):
        values, checked = amount.values, amount._checks
        if values.shape != grid.shape:
            report.add_error(
                _location(sp, flow),
                f"matrix shape {values.shape[0]}x{values.shape[1]} "
                f"does not match grid, expected "
                f"{grid.n_scenarios}x{grid.n_timesteps}",
            )
        elif checked.negative:
            report.add_warning(_location(sp, flow), "negative exchange amounts (avoided flow?)")
        if not checked.finite:
            report.add_error(_location(sp, flow), "matrix contains non-finite values")
    elif _draws_samples(amount):
        report._draws = True


_EMPTY: Mapping = {}  # the unit values of a flow without them; never mutated


def _check_flow_resolution(
    report: ValidationReport,
    sp: SubProcessDefinition,
    flow: FlowDefinition,
    categories: Sequence[str],
    db: "UnitValueTable | None",
    n_timesteps: int,
    require_cost: bool,
) -> None:
    """Resolve the unit values of ``sp``'s ``flow``, report each that is
    missing, defined twice or not finite, and append their record to
    ``report._resolved``: a unit impact per category (inline, else the
    row's per-period override, else its value), the unit cost (inline,
    else the row's, else None) and the per-unit emissions (the row's
    inventory plus one unit of ``substance``).  None when no database
    row resolves."""
    row = None
    if flow.background_ref != FOREGROUND:
        row = db.rows.get(flow.background_ref) if db is not None else None
        if row is None:
            if db is not None:  # else a structural pass, resolvability checked with a db
                report.add_error(
                    _location(sp, flow),
                    f"background key {flow.background_ref!r} not found in database",
                )
            report._resolved.append(None)
            return
    impacts = []
    inline = flow.inline_unit_impact or _EMPTY
    overrides = row.impact_overrides if row is not None else _EMPTY
    for cat in categories:
        in_db = row is not None and row.resolves_impact(cat)
        value = inline.get(cat)
        if in_db and value is not None:
            report.add_error(
                _location(sp, flow),
                f"unit impact for category {cat!r} is defined both inline and "
                f"in database row {flow.background_ref!r}",
            )
        elif not in_db and value is None:
            report.add_error(_location(sp, flow),
                             f"no unit impact resolvable for category {cat!r}")
        override = overrides.get(cat)
        if override is not None and len(override) != n_timesteps:
            report.add_error(
                _location(sp, flow),
                f"per-period unit impacts for {cat!r} have length "
                f"{len(override)}, expected {n_timesteps}",
            )
        elif value is None and override is not None:
            value = np.asarray(override, dtype=np.float64)
        elif value is None and in_db:
            value = row.impacts[cat]
        if isinstance(value, np.ndarray):
            bad = np.flatnonzero(~np.isfinite(value))
            if bad.size:
                report.add_error(
                    _location(sp, flow),
                    f"per-period unit impact {value[bad[0]]} for category {cat!r} "
                    f"at period {bad[0]} is not finite",
                )
        elif value is not None and not math.isfinite(value):
            report.add_error(_location(sp, flow),
                             f"unit impact {value} for category {cat!r} is not finite")
        impacts.append(value)

    cost_in_db = row is not None and row.unit_cost is not None
    cost = flow.inline_unit_cost
    if require_cost:
        if cost_in_db and cost is not None:
            report.add_error(_location(sp, flow),
                             "unit cost is defined both inline and in database")
        elif not cost_in_db and cost is None:
            report.add_error(_location(sp, flow), "no unit cost resolvable")
    if cost is None and cost_in_db:
        cost = row.unit_cost
    if cost is not None and not math.isfinite(cost):
        report.add_error(_location(sp, flow), f"unit cost {cost} is not finite")

    emissions = row.inventory if row is not None else _EMPTY
    if flow.substance is not None:
        emissions = {**emissions, flow.substance: emissions.get(flow.substance, 0.0) + 1.0}
    for substance, value in emissions.items():
        if not math.isfinite(value):
            report.add_error(
                _location(sp, flow),
                f"emission {value} of substance {substance!r} per unit is not finite",
            )
    report._resolved.append(_UnitValues(tuple(impacts), cost, emissions))


def _production_problem(production: np.ndarray) -> str | None:
    """Why the economic indicators cannot divide by this series, if so.

    Two reductions, because validation runs on every evaluation and NaN
    propagates through min and max.
    """
    lo, hi = production.min(), production.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return "has non-finite values"
    if lo < 0:
        return "has negative values"
    if hi == 0:
        return "is all zeros"
    return None


def validate_model(
    model: ProcessModel,
    db: "UnitValueTable | None" = None,
    *,
    grid: ScenarioGrid | None = None,
    require_cost: bool = True,
) -> ValidationReport:
    """Collect every problem in the model; never raises.

    With ``db=None`` only structural checks run (names, shapes, rates);
    pass the background database to also check that unit values resolve
    and that the ``production`` series can price the output (finite,
    non-negative, not all zeros).
    ``grid`` overrides the model grid for shape conformance, which the
    Monte Carlo driver uses after swapping the scenario count for n_runs.
    Negative amounts are warnings only: avoided burdens are legitimate.
    """
    report = ValidationReport()
    grid = grid or model.grid

    if not model.subprocesses:
        report.add_error(f"model {model.name!r}", "model has no sub-processes")
    if not math.isfinite(model.discount_rate):
        report.add_error(
            f"model {model.name!r}",
            f"discount_rate must be finite, got {model.discount_rate}",
        )
    elif model.discount_rate < 0:
        report.add_error(
            f"model {model.name!r}",
            f"discount_rate must be >= 0, got {model.discount_rate}",
        )
    if model.production is not None:
        if model.production.shape != (model.grid.n_timesteps,):
            report.add_error(
                f"model {model.name!r}",
                f"production series length {model.production.shape[0]} "
                f"does not match {model.grid.n_timesteps} time steps",
            )
        elif db is not None:
            problem = _production_problem(model.production)
            if problem:
                report.add_error(f"model {model.name!r}", f"production series {problem}")

    seen_sp: set[str] = set()
    for sp in model.subprocesses:
        if sp.name in seen_sp:
            report.add_error(_location(sp), "duplicate sub-process name")
        seen_sp.add(sp.name)
        if not sp.flows:
            report.add_error(_location(sp), "sub-process has no flows")
        _check_amount(report, sp.amount, grid, sp)
        seen_flows: set[str] = set()
        for flow in sp.flows:
            if flow.name in seen_flows:
                report.add_error(_location(sp, flow), "duplicate flow name within sub-process")
            seen_flows.add(flow.name)
            _check_amount(report, flow.amount, grid, sp, flow)
            _check_flow_resolution(
                report, sp, flow, model.categories, db, grid.n_timesteps, require_cost
            )
    if db is not None:
        _check_static_factors(report, db)
    return report


def _check_static_factors(report: ValidationReport, db: "UnitValueTable") -> None:
    """Report each non-finite static factor: an impact in the database row
    named after a substance that some flow emits, as the ``emissions`` of
    its record in ``report._resolved`` say."""
    substances = dict.fromkeys(s for units in report._resolved if units for s in units.emissions)
    for substance in substances:
        for cat, factor in db.static_factors(substance).items():
            if not math.isfinite(factor):
                report.add_error(
                    f"substance {substance!r}",
                    f"static factor {factor} for category {cat!r} is not finite",
                )


# ---------------------------------------------------------------------------
# broadcasting

def broadcast_exchange(
    amount: ExchangeAmount,
    grid: ScenarioGrid,
    rng_stream: SamplerStream | None = None,
) -> np.ndarray:
    """Extend an exchange amount to a full scenario x time grid.

    Scalars fill the grid; matrices pass through after a shape check
    (idempotent, no copy); distributions draw once per scenario and hold
    that value across time, so each scenario row is one realization.  A
    distribution's grid is a read-only broadcast view of its draws, so
    it costs one value per scenario, not per cell.
    """
    if isinstance(amount, ScalarAmount):
        return np.full(grid.shape, amount.value, dtype=np.float64)
    if isinstance(amount, MatrixAmount):
        if amount.values.shape != grid.shape:
            raise ShapeError(
                f"matrix amount has shape {amount.values.shape}, "
                f"grid expects {grid.shape}"
            )
        return amount.values
    if isinstance(amount, DistributionAmount):
        if amount.spec.kind == "point":
            return np.full(grid.shape, amount.spec.parameters[0], dtype=np.float64)
        if rng_stream is None:
            raise ValueError("distribution amounts require a sampler stream")
        draws = sample(amount.spec, grid.n_scenarios, rng_stream)
        return np.broadcast_to(draws[:, np.newaxis], grid.shape)
    raise TypeError(f"not an exchange amount: {amount!r}")
