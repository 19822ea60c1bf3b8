"""Discounted economic indicators on top of cost results.

Conventions: end-of-period discounting with period 0 undiscounted, i.e.
PV = sum of values[t] / (1 + rate)^t.  The discount rate is per grid
period, not per year; convert before calling when the grid step is
sub-annual.  The minimum selling price discounts the production series
with the same rate as the costs, and the levelized cost of electricity is
the same function applied to delivered energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .model import _frozen_series


@dataclass(frozen=True, eq=False)
class CashFlowSeries:
    """Per-period net cash flow (sign convention is the caller's) plus rate."""

    values: np.ndarray
    rate: float = 0.0

    def __post_init__(self):
        arr = _frozen_series(self.values)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "rate", float(self.rate))
        if not np.isfinite(arr).all():
            raise ValueError("cash flow values must be finite")
        if not math.isfinite(self.rate) or self.rate <= -1.0:
            raise ValueError(f"discount rate must be finite and > -1, got {self.rate}")


def _production_values(values) -> np.ndarray:
    """``values`` as a frozen series, after checking that every value is
    finite and non-negative."""
    arr = _frozen_series(values)
    # two reductions: NaN propagates through min and max
    lo, hi = (arr.min(), arr.max()) if arr.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("production values must be finite")
    if lo < 0:
        raise ValueError("production values must be non-negative")
    return arr


@dataclass(frozen=True, eq=False)
class ProductionSeries:
    """Per-period units sold, or energy delivered for LCOE; non-negative."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _production_values(self.values))


def _discounted_sum(values: np.ndarray, rate: float) -> float | np.ndarray:
    # sequential accumulation: at rate 0 this equals the plain sum exactly;
    # over the columns of a grid (its ``.T``) it gives every row's sum
    total = 0.0
    base = 1.0 + rate
    for t, v in enumerate(values):
        total += v / base**t
    return total


def npv(cf: CashFlowSeries) -> float:
    """Net present value: sum of values[t] / (1 + rate)^t from t = 0."""
    return _discounted_sum(cf.values, cf.rate)


def _discounted_ratio(costs: CashFlowSeries, quantity: ProductionSeries, what: str) -> float:
    if costs.values.shape != quantity.values.shape:
        raise ShapeError(
            f"{what}: {costs.values.shape[0]} cost periods vs "
            f"{quantity.values.shape[0]} production periods"
        )
    denom = _discounted_sum(quantity.values, costs.rate)
    if denom <= 0.0:
        raise ZeroDivisionError(f"{what}: discounted production is {denom}, must be > 0")
    return _discounted_sum(costs.values, costs.rate) / denom


def minimum_selling_price(costs: CashFlowSeries, production: ProductionSeries) -> float:
    """Price at which discounted revenues exactly cover the discounted costs.

    Closed form: PV(costs) / PV(production).  This is the root of
    npv(p x production - costs) = 0, which price_by_bisection also finds
    numerically for cross-checks and future nonlinear revenue models.
    """
    return _discounted_ratio(costs, production, "minimum_selling_price")


def lcoe(costs: CashFlowSeries, energy: ProductionSeries) -> float:
    """Levelized cost of electricity: PV(costs) / PV(energy delivered).

    Identical function to ``minimum_selling_price``; both names are kept
    because both indicators are conventional.
    """
    return _discounted_ratio(costs, energy, "lcoe")


def price_by_bisection(
    costs: CashFlowSeries,
    production: ProductionSeries,
    *,
    lo: float = 0.0,
    hi: float | None = None,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve npv(p x production - costs) = 0 for p by bisection.

    General fallback for revenue models where the price does not enter the
    NPV linearly; for the linear case it converges to the closed form.
    """
    if costs.values.shape != production.values.shape:
        raise ShapeError("price_by_bisection: cost and production lengths differ")

    def residual(price: float) -> float:
        return npv(CashFlowSeries(price * production.values - costs.values, costs.rate))

    if hi is None:
        hi = max(1.0, abs(lo) * 2.0)
        for _ in range(200):
            if residual(hi) >= 0.0:
                break
            hi *= 2.0
        else:
            raise ValueError("price_by_bisection: could not bracket a root")
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError(f"price_by_bisection: no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        if f_mid == 0.0 or (hi - lo) <= tol * max(1.0, abs(mid)):
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@dataclass(eq=False)
class ScenarioIndicators:
    """Row-wise indicators over a scenario x time cost grid.

    ``npv`` here is the present value of the cost rows as given; a model
    that nets revenues into its costs (revenues as negative unit costs)
    gets the present net cost, so negate for a revenues-positive project
    NPV.
    """

    npv: np.ndarray
    msp: np.ndarray
    lcoe: np.ndarray


def discounted_cost_result(
    unit_cost_grid: np.ndarray,
    production: ProductionSeries | Sequence[float],
    rate: float,
) -> ScenarioIndicators:
    """Apply npv/msp/lcoe to every scenario row of a cost grid.

    Under Monte Carlo the rows are runs, so the returned arrays are the
    indicator distributions.  The grid is discounted one time column at a
    time in ``npv``'s order, so every row equals the scalar
    ``npv``/``minimum_selling_price`` of that row to the bit.
    """
    grid = np.asarray(unit_cost_grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ShapeError(f"cost grid must be 2-D, got ndim={grid.ndim}")
    quantity = (production.values if isinstance(production, ProductionSeries)
                else _production_values(production))
    if quantity.shape[0] != grid.shape[1]:
        raise ShapeError(
            f"production has {quantity.shape[0]} periods, "
            f"cost grid has {grid.shape[1]} columns"
        )
    n_s = grid.shape[0]
    if n_s == 0:
        return ScenarioIndicators(npv=np.empty(0), msp=np.empty(0), lcoe=np.empty(0))
    # the checks CashFlowSeries and minimum_selling_price make on each row
    if not np.isfinite(grid).all():
        raise ValueError("cash flow values must be finite")
    rate = float(rate)
    if not math.isfinite(rate) or rate <= -1.0:
        raise ValueError(f"discount rate must be finite and > -1, got {rate}")
    denom = _discounted_sum(quantity.tolist(), rate)  # Python floats: the same bits
    if denom <= 0.0:
        raise ZeroDivisionError(
            f"minimum_selling_price: discounted production is {denom}, must be > 0"
        )
    out_npv = _discounted_sum(grid.T, rate)
    out_msp = out_npv / denom
    return ScenarioIndicators(npv=out_npv, msp=out_msp, lcoe=out_msp.copy())
