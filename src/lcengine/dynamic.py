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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import kernels
from .engine import compute_inventory
from .errors import MissingDataError, ShapeError
from .model import ProcessModel, ScenarioGrid, _frozen_grid, _frozen_series

if TYPE_CHECKING:
    from .io import UnitValueTable

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
    dcfs: Sequence[DCFTable],
    *,
    seed: int | None = None,
    categories=None,
) -> DynamicImpactResult:
    """Characterize the model's emission inventory over time.

    Per substance and category the richest available data wins:
    annual-step factors first, then fixed-horizon factors, then a static
    factor looked up from the background database row named after the
    substance.  A substance with none of the three is an error, and so is
    a requested category that no emitted substance has a factor for.
    """
    inventory = compute_inventory(model, db, seed=seed)

    # mode -> (substance, category) -> table; annual-step tables come first
    tables: dict[str, dict[tuple[str, str], DCFTable]] = {ANNUAL_STEP: {}, FIXED_HORIZON: {}}
    for table in dcfs:
        tables[table.mode][table.substance, table.category] = table

    # (substance, category, source) dispatch in deterministic document order
    jobs: list[tuple[str, str, str, object]] = []
    for substance in inventory.emissions:
        sources: dict[str, tuple[str, object]] = {}  # category -> richest source
        for mode, by_key in tables.items():
            for (sub, cat), table in by_key.items():
                if sub == substance:
                    sources.setdefault(cat, (mode, table))
        for cat, factor in db.static_factors(substance).items():
            sources.setdefault(cat, ("static", factor))
        if not sources:
            raise MissingDataError(
                f"substance {substance!r} has neither dynamic factors nor a "
                f"static factor row in the database"
            )
        jobs += [(substance, cat, mode, data) for cat, (mode, data) in sources.items()]

    if categories is not None:
        found = {cat for _, cat, _, _ in jobs}
        missing = [c for c in categories if c not in found]
        if missing:
            raise MissingDataError(
                f"categories with no factor for any emitted substance: {missing}")
        wanted = set(categories)
        jobs = [j for j in jobs if j[1] in wanted]

    n_t = inventory.grid.n_timesteps
    max_len = max(
        (t.factors.shape[0] for _, _, mode, t in jobs if mode == ANNUAL_STEP),
        default=1,
    )
    t_out = n_t + max_len - 1

    cats: list[str] = []
    impacts: dict[str, np.ndarray] = {}
    contributions: dict[str, dict[str, np.ndarray]] = {}
    for substance, cat, mode, data in jobs:
        em = EmissionSeries(substance, inventory.emissions[substance])
        if mode == ANNUAL_STEP:
            term = characterize_dynamic(em, data)
        elif mode == FIXED_HORIZON:
            term = characterize_fixed_horizon(em, data)
        else:
            term = characterize_static_at_emission(em, data)
        term = _pad_to(term, t_out)
        if cat in impacts:
            impacts[cat] += term
        else:
            # a zeroed grid plus the term, in one pass and a new array:
            # term + 0.0 turns -0.0 into 0.0 as 0.0 + term does
            cats.append(cat)
            impacts[cat] = term + 0.0
        contributions.setdefault(substance, {})[cat] = term

    cumulative = {cat: np.cumsum(grid, axis=1) for cat, grid in impacts.items()}
    return DynamicImpactResult(
        grid=inventory.grid,
        t_out=t_out,
        categories=tuple(cats),
        impacts=impacts,
        cumulative=cumulative,
        contributions=contributions,
    )
