"""Independent brute-force reference implementations.

Everything here is deliberately naive: plain Python loops over plain data
structures, no numpy vectorization, no shared code with the package.  The
engine and dynamic modules are checked cell by cell against these.

Model data for the oracle is a dict:

    {"grid": (S, T),
     "subprocesses": [
         {"amount": <operand>,
          "flows": [{"amount": <operand>,
                     "unit_impact": {category: <operand>},
                     "unit_cost": <operand>}, ...]},
         ...]}

where an <operand> is a scalar, a per-period list (length T), or a nested
list of rows (S x T).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np


def cell_value(operand, s: int, t: int) -> float:
    """Evaluate a scalar / per-period list / S x T nested list at one cell."""
    if isinstance(operand, (int, float)):
        return float(operand)
    first = operand[0]
    if isinstance(first, (int, float)):  # per-period list
        return float(operand[t])
    return float(operand[s][t])


def oracle_unit_result(model_data: dict, categories) -> dict:
    """Cell-wise double summation: flows within sub-process, then sub-processes.

    Returns {"impacts": {cat: S x T nested lists}, "cost": S x T nested lists}.
    """
    n_s, n_t = model_data["grid"]
    impacts = {cat: [[0.0] * n_t for _ in range(n_s)] for cat in categories}
    cost = [[0.0] * n_t for _ in range(n_s)]
    for s in range(n_s):
        for t in range(n_t):
            for sp in model_data["subprocesses"]:
                sp_amount = cell_value(sp["amount"], s, t)
                sp_cost = 0.0
                sp_impact = {cat: 0.0 for cat in categories}
                for flow in sp["flows"]:
                    amount = cell_value(flow["amount"], s, t)
                    for cat in categories:
                        sp_impact[cat] += cell_value(flow["unit_impact"][cat], s, t) * amount
                    sp_cost += cell_value(flow["unit_cost"], s, t) * amount
                for cat in categories:
                    impacts[cat][s][t] += sp_impact[cat] * sp_amount
                cost[s][t] += sp_cost * sp_amount
    return {"impacts": impacts, "cost": cost}


def oracle_inventory(model_data: dict) -> dict:
    """{substance: S x T nested lists}; flows carry an "inventory" mapping."""
    n_s, n_t = model_data["grid"]
    out: dict = {}
    for s in range(n_s):
        for t in range(n_t):
            for sp in model_data["subprocesses"]:
                sp_amount = cell_value(sp["amount"], s, t)
                for flow in sp["flows"]:
                    amount = cell_value(flow["amount"], s, t)
                    for substance, per_unit in flow.get("inventory", {}).items():
                        grid = out.setdefault(
                            substance, [[0.0] * n_t for _ in range(n_s)]
                        )
                        grid[s][t] += per_unit * amount * sp_amount
    return out


def oracle_convolve(row, taps) -> list[float]:
    """Direct O(T*K) convolution of one emission row with a factor list."""
    n_t, n_k = len(row), len(taps)
    out = [0.0] * (n_t + n_k - 1)
    for t in range(n_t):
        for k in range(n_k):
            out[t + k] += row[t] * taps[k]
    return out


def oracle_convolve_rows_into(out, em, kern) -> None:
    """The whole-grid tap loop that ``kernels.convolve_rows_into`` replaced,
    frozen as its bit reference: per tap k, in ascending order,
    ``out[:, k:k+T] += kern[k] * em``."""
    n_t = em.shape[1]
    for k in range(kern.shape[0]):
        target = out[:, k : k + n_t]
        np.add(target, kern[k] * em, out=target)


def oracle_npv(values, rate: float) -> float:
    total = 0.0
    for t, v in enumerate(values):
        total += v / (1.0 + rate) ** t
    return total


def oracle_mean(values) -> float:
    return math.fsum(values) / len(values)


def oracle_sd(values) -> float:
    """Sample standard deviation (ddof=1)."""
    m = oracle_mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / (len(values) - 1))


def oracle_percentile(values, q: float) -> float:
    """Linear interpolation between order statistics, the 'linear' method."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


# ---------------------------------------------------------------------------
# result text: the per-cell emitters the grid-row writer replaced, frozen as
# byte references.  A result set is read through its public attributes only.

_ORACLE_STATS = (("mean", "mean"), ("sd", "sd"), ("p2.5", "p2_5"), ("p50", "p50"),
                 ("p97.5", "p97_5"))


def _oracle_grid_dict(grid) -> dict:
    return {"scenarios": grid.n_scenarios, "timesteps": grid.n_timesteps,
            "step": grid.step_label, "origin": grid.step_origin}


def _oracle_unit_dict(u) -> dict:
    return {
        "grid": _oracle_grid_dict(u.grid),
        "categories": list(u.categories),
        "impacts": {cat: u.impacts[cat].tolist() for cat in u.categories},
        "cost": u.cost.tolist(),
        "sp_order": list(u.sp_unit_costs),
        "sp_unit_impacts": {sp: {cat: grids[cat].tolist() for cat in u.categories}
                            for sp, grids in u.sp_unit_impacts.items()},
        "sp_unit_costs": {sp: g.tolist() for sp, g in u.sp_unit_costs.items()},
        "sp_exchange": {sp: g.tolist() for sp, g in u.sp_exchange.items()},
    }


def _oracle_stats_dict(s) -> dict:
    return {label: getattr(s, attr).tolist() for label, attr in _ORACLE_STATS}


def _oracle_payload_dict(kind: str, p) -> dict:
    if kind == "unit":
        return _oracle_unit_dict(p)
    if kind == "monte_carlo":
        return {"n_runs": p.n_runs, "seed": p.seed, "samples": _oracle_unit_dict(p.samples),
                "impact_stats": {c: _oracle_stats_dict(s) for c, s in p.impact_stats.items()},
                "cost_stats": _oracle_stats_dict(p.cost_stats)}
    return {
        "grid": _oracle_grid_dict(p.grid),
        "t_out": p.t_out,
        "categories": list(p.categories),
        "impacts": {cat: p.impacts[cat].tolist() for cat in p.categories},
        "cumulative": {cat: p.cumulative[cat].tolist() for cat in p.categories},
        "substances": list(p.contributions),
        "contributions": {sub: {cat: g.tolist() for cat, g in per_cat.items()}
                          for sub, per_cat in p.contributions.items()},
    }


def oracle_result_json(rs) -> str:
    """``json.dump(indent=2)`` of the result's ``tolist()`` document, plus a newline."""
    doc = {"schema_version": 1, "meta": rs.meta, "payload_type": rs.payload_type,
           "payload": _oracle_payload_dict(rs.payload_type, rs.payload)}
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _cell_rows(lead, grid, trail=()):
    """One row per cell, ``float`` repr by repr, scenario by scenario."""
    for s in range(grid.shape[0]):
        for t in range(grid.shape[1]):
            yield [*lead, s, t, *trail, repr(float(grid[s, t]))]


def oracle_result_csv(rs) -> str:
    """The long-format result CSV, one ``csv.writer`` row per cell."""
    rows = [["section", "name", "scenario", "timestep", "category", "value"]]
    meta = lambda key, value: rows.append(["meta", key, "", "", "", json.dumps(value)])
    meta("result_schema", 1)
    meta("payload_type", rs.payload_type)
    for key, value in rs.meta.items():
        meta(key, value)
    p = rs.payload
    if rs.payload_type == "dynamic":
        meta("payload_grid", _oracle_grid_dict(p.grid))
        meta("payload_t_out", p.t_out)
        for section, grids in (("dynamic_impact", p.impacts),
                               ("dynamic_cumulative", p.cumulative)):
            for cat in p.categories:
                rows += _cell_rows((section, ""), grids[cat], (cat,))
        for sub, per_cat in p.contributions.items():
            for cat, grid in per_cat.items():
                rows += _cell_rows(("dynamic_contribution", sub), grid, (cat,))
        return _csv_text(rows)
    unit = p.samples if rs.payload_type == "monte_carlo" else p
    meta("payload_grid", _oracle_grid_dict(unit.grid))
    if rs.payload_type == "monte_carlo":
        meta("payload_n_runs", p.n_runs)
        meta("payload_seed", p.seed)
    for cat in unit.categories:
        rows += _cell_rows(("impact", ""), unit.impacts[cat], (cat,))
    rows += _cell_rows(("cost", ""), unit.cost, ("",))
    for sp in unit.sp_unit_costs:
        for cat in unit.categories:
            rows += _cell_rows(("sp_unit_impact", sp), unit.sp_unit_impacts[sp][cat], (cat,))
        rows += _cell_rows(("sp_unit_cost", sp), unit.sp_unit_costs[sp], ("",))
        rows += _cell_rows(("sp_exchange", sp), unit.sp_exchange[sp], ("",))
    if rs.payload_type == "monte_carlo":
        stats = [("stat", cat, p.impact_stats[cat]) for cat in unit.categories]
        for section, cat, s in (*stats, ("stat_cost", "", p.cost_stats)):
            for label, attr in _ORACLE_STATS:
                for t, v in enumerate(getattr(s, attr).tolist()):
                    rows.append([section, label, "", t, cat, repr(float(v))])
    return _csv_text(rows)


def oracle_plot_data(kind: str, p) -> dict:
    """``report --plot-data`` files of a payload: file name -> text."""
    if kind == "unit":
        impact = [["kind", "category", "scenario", "timestep", "value"]]
        for cat in p.categories:
            impact += _cell_rows(("impact", cat), p.impacts[cat])
        impact += _cell_rows(("cost", ""), p.cost)
        contrib = [["kind", "category", "subprocess", "scenario", "timestep", "value"]]
        for sp in p.sp_unit_costs:
            for cat in p.categories:
                contrib += _cell_rows(("impact", cat, sp), p.contribution_impact(sp, cat))
            contrib += _cell_rows(("cost", "", sp), p.contribution_cost(sp))
        return {"impact_over_time.csv": _csv_text(impact),
                "contributions.csv": _csv_text(contrib)}
    if kind == "monte_carlo":
        impact = [["kind", "category", "stat", "timestep", "value"]]
        stats = [("impact", cat, p.impact_stats[cat]) for cat in p.samples.categories]
        for kind_, cat, s in (*stats, ("cost", "", p.cost_stats)):
            for label, attr in _ORACLE_STATS:
                for t, v in enumerate(getattr(s, attr)):
                    impact.append([kind_, cat, label, t, repr(float(v))])
        hist = [["kind", "category", "bin_left", "bin_right", "count"]]
        totals = [("impact", c, p.samples.impacts[c]) for c in p.samples.categories]
        for kind_, cat, grid in (*totals, ("cost", "", p.samples.cost)):
            counts, edges = np.histogram(grid.sum(axis=1), bins=50)
            for i, count in enumerate(counts):
                hist.append([kind_, cat, repr(float(edges[i])), repr(float(edges[i + 1])),
                             int(count)])
        contrib = [["kind", "category", "subprocess", "timestep", "value"]]
        for sp in p.samples.sp_unit_costs:
            for cat in p.samples.categories:
                for t, v in enumerate(p.samples.contribution_impact(sp, cat).mean(axis=0)):
                    contrib.append(["impact", cat, sp, t, repr(float(v))])
            for t, v in enumerate(p.samples.contribution_cost(sp).mean(axis=0)):
                contrib.append(["cost", "", sp, t, repr(float(v))])
        return {"impact_over_time.csv": _csv_text(impact), "histograms.csv": _csv_text(hist),
                "contributions.csv": _csv_text(contrib)}
    files = {}
    for name, grids in (("impact_over_time.csv", p.impacts), ("cumulative.csv", p.cumulative)):
        rows = [["category", "scenario", "timestep", "value"]]
        for cat, grid in grids.items():
            rows += _cell_rows((cat,), grid)
        files[name] = _csv_text(rows)
    rows = [["substance", "category", "scenario", "timestep", "value"]]
    for sub, per_cat in p.contributions.items():
        for cat, grid in per_cat.items():
            rows += _cell_rows((sub, cat), grid)
    files["contributions.csv"] = _csv_text(rows)
    return files
