"""Time-resolved impact assessment of emission inventories.

Substances with an annual-step factor table are characterized by discrete
convolution: an emission pulse at period t contributes factor[tau] x pulse
at period t + tau, for every listed age tau.  Substances with a
fixed-horizon factor, and substances carrying only a static factor, are
booked entirely at the period of emission.  The factor time step must
equal the model grid step; there is no resampling.

Because convolution tails extend past the modeling window, outputs run to
T_out = n_timesteps + max(factor ages) periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernels
from .engine import _category_names, compute_inventory
from .errors import MissingDataError, ShapeError
from .model import ProcessModel, ScenarioGrid, _frozen_grid, _frozen_series

ANNUAL_STEP = "annual_step"
FIXED_HORIZON = "fixed_horizon"


@dataclass(frozen=True, eq=False)
class DCFTable:
    """Characterization factors for one substance and category over emission age.

    mode "annual_step": ``factors[tau]`` applies to an emission aged tau
    periods; ages past the end of the list contribute zero.  mode
    "fixed_horizon": a single factor integrated over a declared horizon of
    ``horizon`` periods; the horizon is metadata, the whole impact is
    booked at the emission period.  Factors must be finite; they are
    copied unless already read-only and owned (``model._frozen_series``),
    so a caller's later write to its array changes no table.
    """

    substance: str
    category: str
    mode: str
    factors: np.ndarray
    horizon: int | None = None

    def __post_init__(self):
        arr = _frozen_series(self.factors)
        object.__setattr__(self, "factors", arr)
        if not np.isfinite(arr).all():
            raise ValueError(f"{self.substance}/{self.category}: factors must be finite")
        if self.mode == ANNUAL_STEP:
            if arr.size < 1:
                raise ShapeError(f"{self.substance}/{self.category}: empty factor list")
        elif self.mode == FIXED_HORIZON:
            if arr.size != 1:
                raise ShapeError(
                    f"{self.substance}/{self.category}: fixed-horizon tables take "
                    f"exactly one factor, got {arr.size}"
                )
            if self.horizon is None or self.horizon < 1:
                raise ShapeError(
                    f"{self.substance}/{self.category}: fixed-horizon tables need "
                    f"horizon >= 1"
                )
        else:
            raise ShapeError(
                f"{self.substance}/{self.category}: unknown mode {self.mode!r}"
            )


@dataclass(frozen=True, eq=False)
class EmissionSeries:
    """Per-period emission grid of one substance.

    ``values`` is kept and frozen in place, or copied, as a
    ``MatrixAmount``'s are (``model._frozen_grid``).
    """

    substance: str
    values: np.ndarray  # (S, T)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_grid(self.values, "emission series"))


@dataclass(eq=False)
class DynamicImpactResult:
    """Impact-over-time grids, their running totals, and per-substance terms.

    All grids share shape (n_scenarios, t_out); ``cumulative`` is the
    prefix sum of ``impacts`` along time.
    """

    grid: ScenarioGrid
    t_out: int
    categories: tuple[str, ...]
    impacts: dict[str, np.ndarray]
    cumulative: dict[str, np.ndarray]
    contributions: dict[str, dict[str, np.ndarray]]  # substance -> category -> grid


def characterize_dynamic(em: EmissionSeries, dcf: DCFTable) -> np.ndarray:
    """Convolve each scenario row of emissions with the annual-step factors.

    Output has n_timesteps + len(factors) - 1 columns: trailing impacts of
    late pulses are kept, not truncated.
    """
    if dcf.mode != ANNUAL_STEP:
        raise ShapeError(f"{dcf.substance}: characterize_dynamic needs an annual_step table")
    if dcf.substance != em.substance:
        raise ShapeError(
            f"substance mismatch: emissions are {em.substance!r}, "
            f"factors are for {dcf.substance!r}"
        )
    n_s, n_t = em.values.shape
    out = np.zeros((n_s, n_t + dcf.factors.shape[0] - 1), dtype=np.float64)
    kernels.convolve_rows_into(out, em.values, dcf.factors)
    return out


def characterize_static_at_emission(em: EmissionSeries, factor: float) -> np.ndarray:
    """Book ``factor x emission`` at the period of emission, no spreading."""
    factor = float(factor)
    if not np.isfinite(factor):
        raise ValueError(f"static factor must be finite, got {factor}")
    return factor * em.values


def characterize_fixed_horizon(em: EmissionSeries, dcf: DCFTable) -> np.ndarray:
    """Apply a fixed-horizon factor; equivalent to static-at-emission.

    The declared horizon records the factor's integration window and does
    not spread the impact over time.
    """
    if dcf.mode != FIXED_HORIZON:
        raise ShapeError(f"{dcf.substance}: characterize_fixed_horizon needs a fixed_horizon table")
    if dcf.substance != em.substance:
        raise ShapeError(
            f"substance mismatch: emissions are {em.substance!r}, "
            f"factors are for {dcf.substance!r}"
        )
    return characterize_static_at_emission(em, float(dcf.factors[0]))


def _pad_to(grid: np.ndarray, t_out: int) -> np.ndarray:
    if grid.shape[1] == t_out:
        return grid
    padded = np.zeros((grid.shape[0], t_out), dtype=np.float64)
    padded[:, : grid.shape[1]] = grid
    return padded


def run_dynamic(
    model: ProcessModel,
    db,
    dcfs: Iterable[DCFTable],
    *,
    seed: int | None = None,
    categories=None,
) -> DynamicImpactResult:
    """Characterize the model's emission inventory over time.

    Per substance and category the richest available data wins: an
    annual-step table, convolved over emission age; else a fixed-horizon
    factor, else a static factor from the background database row named
    after the substance, both booked at the period of emission.  Without a
    database (``db=None``, an all-inline model) no substance has a static
    factor.  ``dcfs`` and ``categories`` may be any iterables, read once;
    a category named twice counts once.  Of two tables in ``dcfs`` with the
    same substance, category and mode, the last wins.  A substance with
    none of the three is an error, and so is a requested category that no
    emitted substance has a factor for.
    """
    if categories is not None:
        categories = _category_names(categories)
    tables = list(dcfs)
    inventory = compute_inventory(model, db, seed=seed)

    # (substance, category) -> annual-step table or single factor, richest first
    factors: dict[tuple[str, str], DCFTable | float] = {}
    for table in tables:
        if table.mode == ANNUAL_STEP:
            factors[table.substance, table.category] = table
    for table in tables:
        key = (table.substance, table.category)
        if table.mode == FIXED_HORIZON and not isinstance(factors.get(key), DCFTable):
            factors[key] = float(table.factors[0])
    tabled = {substance for substance, _ in factors}  # substances with a table
    for substance in inventory.emissions:
        static = {} if db is None else db.static_factors(substance)
        if substance not in tabled and not static:
            raise MissingDataError(
                f"substance {substance!r} has no dynamic factors, and no database "
                f"to take a static factor from" if db is None else
                f"substance {substance!r} has no dynamic factors, and its database row "
                f"{substance!r} has no single-value cell (per-period cells are not "
                f"static factors)" if substance in db.rows else
                f"substance {substance!r} has neither dynamic factors nor a "
                f"static factor row in the database"
            )
        for cat, factor in static.items():
            factors.setdefault((substance, cat), factor)

    # (substance, category) terms, in the inventory's substance order
    rank = {substance: i for i, substance in enumerate(inventory.emissions)}
    jobs = sorted((key for key in factors if key[0] in rank), key=lambda key: rank[key[0]])
    if categories is not None:
        found = {cat for _, cat in jobs}
        missing = [c for c in categories if c not in found]
        if missing:
            raise MissingDataError(
                f"categories with no factor for any emitted substance: {missing}")
        wanted = set(categories)
        jobs = [job for job in jobs if job[1] in wanted]

    t_out = inventory.grid.n_timesteps - 1 + max(
        (factors[job].factors.shape[0] for job in jobs if isinstance(factors[job], DCFTable)),
        default=1)

    impacts: dict[str, np.ndarray] = {}
    contributions: dict[str, dict[str, np.ndarray]] = {}
    em = None
    for substance, cat in jobs:
        if em is None or em.substance != substance:
            em = EmissionSeries(substance, inventory.emissions[substance])
        factor = factors[substance, cat]
        if isinstance(factor, DCFTable):  # spread over emission age
            term = characterize_dynamic(em, factor)
        else:  # booked at the period of emission
            term = characterize_static_at_emission(em, factor)
        term = _pad_to(term, t_out)
        if cat in impacts:
            impacts[cat] += term
        else:
            # a zeroed grid plus the term, in one pass and a new array:
            # term + 0.0 turns -0.0 into 0.0 as 0.0 + term does
            impacts[cat] = term + 0.0
        contributions.setdefault(substance, {})[cat] = term

    cumulative = {cat: np.cumsum(grid, axis=1) for cat, grid in impacts.items()}
    return DynamicImpactResult(
        grid=inventory.grid,
        t_out=t_out,
        categories=tuple(impacts),
        impacts=impacts,
        cumulative=cumulative,
        contributions=contributions,
    )
