"""Checks of the program's outputs, computed apart from the program.

Nothing here imports lcengine: result files are read with the standard
library, references are summed with plain NumPy from the generated
inputs, and statistics are recomputed in plain Python.  Every check raises
``CheckError`` naming the first value that disagrees.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the README's accumulation tolerance
RTOL = 1e-9
# analytic means must lie within this many standard errors
MEAN_SE = 5.0


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(actual, expected, what: str, rtol: float = RTOL) -> None:
    """Element-wise |actual - expected| <= rtol * |expected|, shapes equal."""
    actual = np.atleast_1d(np.asarray(actual, dtype=np.float64))
    expected = np.atleast_1d(np.asarray(expected, dtype=np.float64))
    require(actual.shape == expected.shape,
            f"{what}: shape {actual.shape}, expected {expected.shape}")
    bad = np.argwhere(~(np.abs(actual - expected) <= rtol * np.abs(expected)))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise CheckError(f"{what}{list(idx)}: {actual[idx]!r}, expected {expected[idx]!r} "
                         f"({len(bad)} cells off by more than {rtol:g} relative)")


def close_printed(printed: str, value: float, what: str) -> None:
    """A 6-significant-digit printout agrees with ``value`` to its last digit."""
    shown = float(printed)
    scale = max(abs(shown), abs(value))
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(scale)) - 5) if scale else 0.0
    require(abs(shown - value) <= half_digit * (1 + 1e-6) + RTOL * scale,
            f"{what}: printed {printed}, expected {value:.9g}")


def linear_percentile(sorted_values: list[float], q: float) -> float:
    """Percentile with linear interpolation between closest ranks."""
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def present_value(values, rate: float) -> float:
    return sum(v / (1.0 + rate) ** t for t, v in enumerate(values))


# ---------------------------------------------------------------------------
# cli_static

def static_reference(si) -> dict[str, np.ndarray]:
    """Impact and cost grids of the cli_static model, summed from its inputs."""
    first = next(a for a, _, _ in si.subprocesses[0][1] if isinstance(a, np.ndarray))
    kinds = (*si.categories, "cost")
    totals = {k: np.zeros(first.shape) for k in kinds}
    for sp_amount, flows in si.subprocesses:
        for amount, units, cost in flows:
            for cat in si.categories:
                totals[cat] += sp_amount * (np.asarray(units[cat]) * amount)
            totals["cost"] += sp_amount * (cost * amount)
    return totals


def unit_totals(reference: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-kind totals as ``lcengine run`` prints them: row sums, scenario mean."""
    return {k: float(np.mean(grid.sum(axis=1))) for k, grid in reference.items()}


def indicator_figures(cost_grid: np.ndarray, production, rate: float) -> dict[str, float]:
    """Mean and 2.5/97.5 percentiles over rows of present cost, MSP and LCOE."""
    pv_production = present_value(list(production), rate)
    npvs = [present_value(row, rate) for row in cost_grid.tolist()]
    msps = [v / pv_production for v in npvs]
    figures = {}
    for name, values in (("present cost", npvs), ("MSP", msps), ("LCOE", msps)):
        ordered = sorted(values)
        figures[f"{name} mean"] = math.fsum(values) / len(values)
        figures[f"{name} p2.5"] = linear_percentile(ordered, 2.5)
        figures[f"{name} p97.5"] = linear_percentile(ordered, 97.5)
    return figures


_TOTAL = re.compile(r"^\s+(\S+)\s+total \(scenario mean\): (\S+)$", re.M)
_INDICATOR = re.compile(
    r"^\s+(present cost|MSP|LCOE) \(rate \S+\): mean (\S+) \[p2\.5 (\S+), p97\.5 (\S+)\]$", re.M)


def check_indicator_lines(run_out: str, figures: dict[str, float]) -> None:
    indicators = _INDICATOR.findall(run_out)
    require(len(indicators) == 3, f"run printed {len(indicators)} indicator lines, expected 3")
    for name, mean, lo, hi in indicators:
        close_printed(mean, figures[f"{name} mean"], f"printed {name} mean")
        close_printed(lo, figures[f"{name} p2.5"], f"printed {name} p2.5")
        close_printed(hi, figures[f"{name} p97.5"], f"printed {name} p97.5")


def check_static_stdout(run_out: str, report_out: str, totals: dict[str, float],
                        indicators: dict[str, float]) -> None:
    printed = dict(_TOTAL.findall(run_out))
    require(set(printed) == set(totals), f"run printed totals for {sorted(printed)}")
    for name, text in printed.items():
        close_printed(text, totals[name], f"printed total {name}")
    check_indicator_lines(run_out, indicators)
    require(dict(_TOTAL.findall(report_out)) == printed,
            "report totals differ from the totals run printed")


def check_static_result(path: Path, reference: dict[str, np.ndarray]) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    require(doc.get("payload_type") == "unit", f"payload_type {doc.get('payload_type')!r}")
    payload = doc["payload"]
    for kind, grid in reference.items():
        actual = payload["cost"] if kind == "cost" else payload["impacts"][kind]
        close(actual, grid, f"result {kind}")


# ---------------------------------------------------------------------------
# Monte Carlo samples (cli_montecarlo, lib_grid)

@dataclass
class Samples:
    """Per-run grids and per-time-step statistics of one Monte Carlo result.

    ``stats`` maps a category, or "cost", to {"mean", "sd", "p2.5", "p50",
    "p97.5"} -> one value per time step.
    """

    impacts: dict[str, np.ndarray]
    cost: np.ndarray
    sp_unit_impacts: dict[str, dict[str, np.ndarray]]
    sp_unit_costs: dict[str, np.ndarray]
    sp_exchange: dict[str, np.ndarray]
    stats: dict[str, dict[str, list[float]]]

    @property
    def n_runs(self) -> int:
        return self.cost.shape[0]


STAT_NAMES = ("mean", "sd", "p2.5", "p50", "p97.5")


def read_mc_csv(path: Path) -> Samples:
    """Parse a Monte Carlo result CSV (section,name,scenario,timestep,category,value)."""
    cells: dict[tuple[str, str, str], list[tuple[int, int, float]]] = {}
    stats: dict[str, dict[str, dict[int, float]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        require(next(reader) == ["section", "name", "scenario", "timestep", "category", "value"],
                "result CSV header")
        for section, name, scenario, timestep, category, value in reader:
            if section == "meta":
                continue
            if section in ("stat", "stat_cost"):
                kind = category if section == "stat" else "cost"
                stats.setdefault(kind, {}).setdefault(name, {})[int(timestep)] = float(value)
            else:
                cells.setdefault((section, name, category), []).append(
                    (int(scenario), int(timestep), float(value)))

    def grid(key):
        rows = cells[key]
        out = np.full((max(r[0] for r in rows) + 1, max(r[1] for r in rows) + 1), np.nan)
        for s, t, v in rows:
            out[s, t] = v
        return out

    cats = [c for (sec, _, c) in cells if sec == "impact"]
    sps = list(dict.fromkeys(n for (sec, n, _) in cells if sec == "sp_unit_cost"))
    return Samples(
        impacts={c: grid(("impact", "", c)) for c in cats},
        cost=grid(("cost", "", "")),
        sp_unit_impacts={sp: {c: grid(("sp_unit_impact", sp, c)) for c in cats} for sp in sps},
        sp_unit_costs={sp: grid(("sp_unit_cost", sp, "")) for sp in sps},
        sp_exchange={sp: grid(("sp_exchange", sp, "")) for sp in sps},
        stats={k: {n: [v[t] for t in sorted(v)] for n, v in per.items()}
               for k, per in stats.items()},
    )


def check_totals_are_sums(samples: Samples) -> None:
    """Each run's totals equal the sum of its sub-process contributions."""
    for kind in (*samples.impacts, "cost"):
        total = samples.cost if kind == "cost" else samples.impacts[kind]
        parts = sum(
            (samples.sp_unit_costs[sp] if kind == "cost" else samples.sp_unit_impacts[sp][kind])
            * samples.sp_exchange[sp]
            for sp in samples.sp_exchange
        )
        close(total, parts, f"{kind} total vs sub-process contributions")


def analytic_moments(kind: str, p: tuple[float, ...]) -> tuple[float, float, float, float]:
    """(mean, sd, support low, support high) of one distribution family."""
    if kind == "uniform":
        a, b = p
        return (a + b) / 2, (b - a) / math.sqrt(12), a, b
    if kind == "triangular":
        a, c, b = p
        var = (a * a + b * b + c * c - a * b - a * c - b * c) / 18
        return (a + b + c) / 3, math.sqrt(var), a, b
    if kind == "normal":
        return p[0], p[1], -math.inf, math.inf
    if kind == "lognormal":
        mu, sigma = p
        var = (math.exp(sigma**2) - 1) * math.exp(2 * mu + sigma**2)
        return math.exp(mu + sigma**2 / 2), math.sqrt(var), 0.0, math.inf
    raise ValueError(kind)


def check_draws(implied: np.ndarray, kind: str, params: tuple[float, ...], what: str) -> None:
    """Draws backed out of a run grid: held across time, in the support,
    and with a sample mean within MEAN_SE standard errors of the analytic mean."""
    draws = implied[:, 0]
    close(implied, np.repeat(draws[:, None], implied.shape[1], axis=1),
          f"{what} draw held across time")
    mean, sd, low, high = analytic_moments(kind, params)
    slack = 1e-9 * max(abs(mean), sd)
    require(bool(np.all(np.isfinite(draws))), f"{what}: non-finite draw")
    require(float(draws.min()) >= low - slack and float(draws.max()) <= high + slack,
            f"{what}: draws [{draws.min()!r}, {draws.max()!r}] leave the {kind} "
            f"support [{low}, {high}]")
    se = sd / math.sqrt(len(draws))
    sample_mean = math.fsum(draws.tolist()) / len(draws)
    require(abs(sample_mean - mean) <= MEAN_SE * se,
            f"{what}: sample mean {sample_mean!r} is {abs(sample_mean - mean) / se:.1f} "
            f"standard errors from the {kind} mean {mean!r}")


def check_stats(samples: Samples) -> None:
    """Mean, sd and percentiles per time step, recomputed in plain Python."""
    for kind in (*samples.impacts, "cost"):
        grid = samples.cost if kind == "cost" else samples.impacts[kind]
        stats = samples.stats[kind]
        for t, column in enumerate(grid.T.tolist()):
            n = len(column)
            mean = math.fsum(column) / n
            expected = {
                "mean": mean,
                "sd": math.sqrt(math.fsum((v - mean) ** 2 for v in column) / (n - 1)),
            }
            ordered = sorted(column)
            for name, q in (("p2.5", 2.5), ("p50", 50.0), ("p97.5", 97.5)):
                expected[name] = linear_percentile(ordered, q)
            for name in STAT_NAMES:
                close(stats[name][t], expected[name], f"{kind} {name} at t={t}")


def check_histograms(path: Path, samples: Samples) -> None:
    """Histogram bins of run totals cover every run exactly once."""
    counts: dict[tuple[str, str], list[tuple[float, float, int]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        require(next(reader) == ["kind", "category", "bin_left", "bin_right", "count"],
                "histogram header")
        for kind, cat, left, right, count in reader:
            counts.setdefault((kind, cat), []).append((float(left), float(right), int(count)))
    expected = {("impact", c) for c in samples.impacts} | {("cost", "")}
    require(set(counts) == expected, f"histograms for {sorted(counts)}")
    for (kind, cat), bins in counts.items():
        grid = samples.cost if kind == "cost" else samples.impacts[cat]
        totals = grid.sum(axis=1)
        total = sum(c for _, _, c in bins)
        require(total == samples.n_runs,
                f"{kind} {cat} histogram counts sum to {total}, expected {samples.n_runs}")
        require(all(c >= 0 for _, _, c in bins), f"{kind} {cat}: negative bin count")
        close([bins[0][0], bins[-1][1]], [totals.min(), totals.max()],
              f"{kind} {cat} histogram range")


_RUNS = re.compile(r"^\s+runs: (\d+), seed: (-?\d+)$", re.M)
_MC_MEAN = re.compile(r"^\s+(\S+)\s+mean: (\S+)\s+sd: (\S+)", re.M)


def check_mc_stdout(run_out: str, report_out: str, samples: Samples, seed: int,
                    indicators: dict[str, float]) -> None:
    check_indicator_lines(run_out, indicators)
    for label, text in (("run", run_out), ("report", report_out)):
        require(_RUNS.findall(text) == [(str(samples.n_runs), str(seed))],
                f"{label} printed runs/seed {_RUNS.findall(text)}")
        means = dict((k, (m, s)) for k, m, s in _MC_MEAN.findall(text))
        require(set(means) == {*samples.impacts, "cost"}, f"{label} printed {sorted(means)}")
        for kind, (mean, sd) in means.items():
            totals = (samples.cost if kind == "cost" else samples.impacts[kind]).sum(axis=1)
            values = totals.tolist()
            m = math.fsum(values) / len(values)
            close_printed(mean, m, f"{label} {kind} run-total mean")
            close_printed(sd, math.sqrt(math.fsum((v - m) ** 2 for v in values)
                                        / (len(values) - 1)), f"{label} {kind} run-total sd")


def heatplant_draws(samples: Samples, db: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Back the sampled amounts of heatplant_uncertain out of its sub-process grids."""
    gas_cost, truck_cost = db["natural_gas"][0], db["truck_km"][0]
    elec_cost, elec_gwp = db["electricity"][0], db["electricity"][1]
    maint_cost, maint_gwp = db["maintenance_service"][0], db["maintenance_service"][1]
    gas = (samples.sp_unit_costs["fuel_supply"] - 180.0 * truck_cost) / gas_cost
    elec = (samples.sp_unit_costs["boiler_operation"] - 4.5 * maint_cost) / elec_cost
    co2 = (samples.sp_unit_impacts["boiler_operation"]["GWP100"]
           - elec * elec_gwp - 4.5 * maint_gwp)
    return {"natural_gas": gas, "electricity": elec, "co2_stack": co2}


def check_montecarlo(samples: Samples, implied: dict[str, np.ndarray],
                     distributions: dict[str, tuple[str, tuple]]) -> None:
    check_totals_are_sums(samples)
    for name, (kind, params) in distributions.items():
        check_draws(implied[name], kind, params, name)
    check_stats(samples)


# ---------------------------------------------------------------------------
# lib_grid

def grid_reference(ga, categories: tuple[str, ...], matrix_flows: int) -> dict[str, np.ndarray]:
    """Main-process grids of the lib_grid model from its arrays."""
    kinds = (*categories, "cost")
    totals = {k: np.zeros(ga.matrices[0][0].shape) for k in kinds}
    for i, sp_amount in enumerate(ga.sp_amounts.tolist()):
        for k, kind in enumerate(kinds):
            units = ga.unit_costs[i] if kind == "cost" else ga.unit_impacts[i, :, k]
            unit = sum(float(units[j]) * ga.matrices[i][j] for j in range(matrix_flows))
            unit = unit + float(np.dot(units[matrix_flows:], ga.scalars[i, matrix_flows:]))
            totals[kind] += sp_amount * unit
    return totals


def grid_draws(samples: Samples, ga, categories, matrix_flows: int) -> dict[str, np.ndarray]:
    """Back the per-run draws of each distribution flow out of the sub-process grids.

    Each sub-process grid is linear in its distribution draws, so the draws
    solve a small least-squares system over the categories and cost.
    """
    implied = {}
    kinds = (*categories, "cost")
    for i, sp in enumerate(samples.sp_unit_costs):
        coef = np.array([[ga.unit_costs[i, j] if kind == "cost" else ga.unit_impacts[i, j, k]
                          for j in range(matrix_flows)] for k, kind in enumerate(kinds)])
        rhs = []
        for k, kind in enumerate(kinds):
            units = ga.unit_costs[i] if kind == "cost" else ga.unit_impacts[i, :, k]
            const = float(np.dot(units[matrix_flows:], ga.scalars[i, matrix_flows:]))
            grid = samples.sp_unit_costs[sp] if kind == "cost" else samples.sp_unit_impacts[sp][kind]
            rhs.append((grid - const).ravel())
        solved = np.linalg.pinv(coef) @ np.array(rhs)
        for j in range(matrix_flows):
            implied[f"f{i}_{j}"] = solved[j].reshape(samples.cost.shape)
    return implied


def check_grid_unit(unit, reference: dict[str, np.ndarray]) -> None:
    for kind, grid in reference.items():
        actual = unit.cost if kind == "cost" else unit.impacts[kind]
        close(actual, grid, f"run_matrix {kind}")


def sample_rows(n_rows: int, count: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed % (1 << 64), 99])
    return sorted({0, n_rows - 1, *rng.choice(n_rows, size=count, replace=False).tolist()})


def check_indicators(indicators, cost_grid: np.ndarray, production, rate: float,
                     rows: list[int]) -> None:
    """Sampled indicator rows against a plain-Python present-value loop."""
    n = cost_grid.shape[0]
    for name in ("npv", "msp", "lcoe"):
        require(len(getattr(indicators, name)) == n, f"{name} has {len(getattr(indicators, name))} rows")
    pv_production = present_value(list(production), rate)
    for s in rows:
        pv = present_value(cost_grid[s].tolist(), rate)
        close(indicators.npv[s], pv, f"npv row {s}")
        close(indicators.msp[s], pv / pv_production, f"msp row {s}")
        close(indicators.lcoe[s], pv / pv_production, f"lcoe row {s}")


def check_dynamic(dyn, emissions: np.ndarray, taps: np.ndarray, category: str,
                  rows: list[int]) -> None:
    """Sampled impact rows against np.convolve; last cumulative column = row sums."""
    impacts = dyn.impacts[category]
    require(impacts.shape == (emissions.shape[0], emissions.shape[1] + len(taps) - 1),
            f"dynamic {category} shape {impacts.shape}")
    for s in rows:
        close(impacts[s], np.convolve(emissions[s], taps), f"dynamic {category} row {s}")
    close(dyn.cumulative[category][:, -1], [math.fsum(r) for r in impacts.tolist()],
          f"cumulative {category} last column")


# ---------------------------------------------------------------------------
# lib_loop

def loop_closed_form(db: dict[str, tuple], flows, production, gas: float,
                     rate: float) -> tuple[float, float]:
    """(present cost, MSP) of one heatplant evaluation.

    Every heatplant cost is constant over time (the stack flow is free), so
    the cost row is one number c and PV(cost) = c * sum 1/(1+r)^t.
    """
    c = 0.0
    for _, name, amount, row in flows:
        c += (gas if name == "natural_gas" else amount) * db[row][0]
    annuity = math.fsum(1.0 / (1.0 + rate) ** t for t in range(len(production)))
    pv_production = math.fsum(p / (1.0 + rate) ** t for t, p in enumerate(production))
    return c * annuity, c * annuity / pv_production


def check_loop(results, loop_inputs, db, flows, production) -> None:
    require(len(results) == len(loop_inputs.rates), f"{len(results)} loop results")
    for i, ((npvs, msps), rate, gas) in enumerate(
            zip(results, loop_inputs.rates, loop_inputs.gas_amounts)):
        npv, msp = loop_closed_form(db, flows, production, gas, rate)
        close(npvs, [npv] * len(npvs), f"iteration {i} present cost")
        close(msps, [msp] * len(msps), f"iteration {i} MSP")
