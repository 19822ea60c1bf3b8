"""Seeded inputs for the end-to-end benchmark.

Every generator is a pure function of its seed: the same seed writes
byte-identical files and builds equal arrays.  The program under test only
ever sees what these functions produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# cli_static: a matrix-file model, an eighth of the 2000 x 50 model the
# project baseline describes, so that each call takes about a second.
STATIC_SCENARIOS = 500
STATIC_TIMESTEPS = 25
STATIC_SUBPROCESSES = 5
STATIC_CATEGORIES = ("GWP100", "AP", "WATER")

# cli_montecarlo: the heatplant_uncertain shape at this many runs.
MC_RUNS = 4000

# lib_grid: the acceptance-criterion-6 model at a quarter of its scenarios.
GRID_SCENARIOS = 2500
GRID_TIMESTEPS = 100
GRID_SUBPROCESSES = 10
GRID_FLOWS = 10
GRID_MATRIX_FLOWS = 2
GRID_CATEGORIES = ("gwp", "ap", "water")
GRID_TAPS = 100

# lib_loop: evaluations of the heatplant model per pass (a run makes hundreds).
LOOP_ITERATIONS = 200

# The shipped heatplant background database; the benchmark keeps its own
# copy so the workload does not move when the samples are edited.
HEATPLANT_DB = {
    # flow: (unit_cost, GWP100, AP)
    "natural_gas": (28.0, 0.23, 0.0004),
    "truck_km": (1.1, 0.12, 0.0005),
    "electricity": (95.0, 0.42, 0.0008),
    "maintenance_service": (120.0, 0.05, 0.0001),
}
HEATPLANT_CO2 = ((81000.0,) * 5, (81000.0, 79000.0, 77000.0, 75000.0, 73000.0))
HEATPLANT_PRODUCTION = (450.0,) * 5
HEATPLANT_RATE = 0.05
# (sub-process, flow, amount, background row); co2_stack is the matrix flow
HEATPLANT_FLOWS = (
    ("fuel_supply", "natural_gas", 1755.0, "natural_gas"),
    ("fuel_supply", "gas_transport", 180.0, "truck_km"),
    ("boiler_operation", "electricity", 27.0, "electricity"),
    ("boiler_operation", "maintenance", 4.5, "maintenance_service"),
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    """One independent stream per workload; any integer seed is accepted."""
    return np.random.default_rng([seed % (1 << 64), stream])


def _num(v: float) -> str:
    return repr(float(v))


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _matrix_csv(values: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())


def _background_csv(rows: dict[str, tuple], categories: tuple[str, ...],
                    overrides: dict[tuple[str, str], np.ndarray] | None = None) -> str:
    overrides = overrides or {}
    lines = ["flow,unit_cost," + ",".join(categories)]
    for flow, (cost, *impacts) in rows.items():
        cells = [flow, _num(cost)]
        for cat, value in zip(categories, impacts):
            series = overrides.get((flow, cat))
            cells.append(_num(value) if series is None else ";".join(map(_num, series)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cli_static

@dataclass
class StaticInputs:
    """Files of the cli_static model plus the arrays they encode."""

    model_path: Path
    db_path: Path
    input_paths: list[Path]
    categories: tuple[str, ...]
    rate: float
    production: np.ndarray
    # per sub-process: amount, then flows as (amount, unit impacts per
    # category, unit cost); an amount is a float or an (S, T) array, a unit
    # impact a float or a (T,) per-period row
    subprocesses: list[tuple[float, list[tuple[object, dict, float]]]]


def write_static(seed: int, out_dir: Path) -> StaticInputs:
    rng = _rng(seed, 1)
    s_n, t_n, cats = STATIC_SCENARIOS, STATIC_TIMESTEPS, STATIC_CATEGORIES
    rate = round(float(rng.uniform(0.02, 0.08)), 4)
    production = rng.uniform(400.0, 500.0, size=t_n)

    db_rows = {}
    for k in range(STATIC_SUBPROCESSES):
        db_rows[f"bg_{k}"] = (rng.uniform(1.0, 50.0), *rng.uniform(0.01, 2.0, size=len(cats)))
    water_path = rng.uniform(0.5, 1.5, size=t_n)  # prospective per-period row
    overrides = {("bg_0", cats[-1]): water_path}

    lines = [
        "# generated by e2ebench/inputs.py",
        "schema_version: 1",
        "process:",
        "  name: bench_static",
        "  functional_unit: \"benchmark product system\"",
        f"  discount_rate: {_num(rate)}",
        f"  categories: [{', '.join(cats)}]",
        f"  production: [{', '.join(map(_num, production))}]",
        "grid:",
        f"  scenarios: {s_n}",
        f"  timesteps: {t_n}",
        "  step: year",
        "  origin: 2025",
        "subprocesses:",
    ]
    inputs = []
    subprocesses = []
    for i in range(STATIC_SUBPROCESSES):
        sp_amount = float(rng.uniform(0.5, 2.0))
        lines += [f"  - name: sp{i}", f"    amount: {_num(sp_amount)}", "    flows:"]
        flows = []
        for j in range(4):
            bg = f"bg_{(i + j) % STATIC_SUBPROCESSES}"
            if j < 2:
                values = rng.uniform(0.5, 2.0, size=(s_n, t_n))
                path = out_dir / f"sp{i}_m{j}.csv"
                _write(path, _matrix_csv(values))
                inputs.append(path)
                amount, amount_text = values, f"{{matrix_file: {path.name}}}"
            else:
                amount = float(rng.uniform(1.0, 10.0))
                amount_text = _num(amount)
            lines += [f"      - name: f{i}_{j}",
                      f"        direction: {'inflow' if j != 1 else 'outflow'}",
                      f"        amount: {amount_text}"]
            if j % 2 == 0:  # background-resolved flow
                cost, *impacts = db_rows[bg]
                units = {}
                for cat, value in zip(cats, impacts):
                    series = overrides.get((bg, cat))
                    units[cat] = float(value) if series is None else series
                lines.append(f"        background: {bg}")
            else:  # inline unit values
                cost = float(rng.uniform(0.1, 5.0))
                units = {cat: float(rng.uniform(0.01, 2.0)) for cat in cats}
                inline = ", ".join(f"{c}: {_num(v)}" for c, v in units.items())
                lines += [f"        unit_impact: {{{inline}}}", f"        unit_cost: {_num(cost)}"]
            flows.append((amount, units, float(cost)))
        subprocesses.append((sp_amount, flows))

    model_path = out_dir / "bench_static.model"
    db_path = out_dir / "bench_static_db.csv"
    _write(model_path, "\n".join(lines) + "\n")
    _write(db_path, _background_csv(db_rows, cats, overrides))
    return StaticInputs(model_path, db_path, [model_path, db_path, *inputs], cats,
                        rate, production, subprocesses)


# ---------------------------------------------------------------------------
# heatplant shapes (cli_montecarlo, lib_loop)

@dataclass
class McInputs:
    model_path: Path
    db_path: Path
    n_runs: int
    mc_seed: int
    # flow name -> (kind, parameters) of its distribution
    distributions: dict[str, tuple[str, tuple[float, ...]]]


def _heatplant_db_csv() -> str:
    return _background_csv(HEATPLANT_DB, ("GWP100", "AP"))


def write_montecarlo(seed: int, out_dir: Path) -> McInputs:
    """heatplant_uncertain with seeded distribution parameters."""
    rng = _rng(seed, 2)
    scale = rng.uniform(0.95, 1.05, size=3)
    tri = (1600.0 * scale[0], 1755.0 * scale[0], 2000.0 * scale[0])
    uni = (24.0 * scale[1], 30.0 * scale[1])
    nor = (81000.0 * scale[2], 2500.0 * scale[2])
    dists = {"natural_gas": ("triangular", tri), "electricity": ("uniform", uni),
             "co2_stack": ("normal", nor)}
    text = f"""# generated by e2ebench/inputs.py
schema_version: 1
process:
  name: heatplant_uncertain
  functional_unit: "district heat delivered over the 5-year window"
  discount_rate: {_num(HEATPLANT_RATE)}
  categories: [GWP100, AP]
  production: [{', '.join(map(_num, HEATPLANT_PRODUCTION))}]
grid:
  scenarios: 1
  timesteps: 5
  step: year
  origin: 0
subprocesses:
  - name: fuel_supply
    amount: 1.0
    flows:
      - name: natural_gas
        direction: inflow
        amount: {{dist: triangular, low: {_num(tri[0])}, mode: {_num(tri[1])}, high: {_num(tri[2])}}}
        background: natural_gas
      - name: gas_transport
        direction: inflow
        amount: 180.0
        background: truck_km
  - name: boiler_operation
    amount: 1.0
    flows:
      - name: electricity
        direction: inflow
        amount: {{dist: uniform, low: {_num(uni[0])}, high: {_num(uni[1])}}}
        background: electricity
      - name: maintenance
        direction: inflow
        amount: 4.5
        background: maintenance_service
      - name: co2_stack
        direction: outflow
        amount: {{dist: normal, mean: {_num(nor[0])}, sd: {_num(nor[1])}}}
        substance: CO2
        unit_impact: {{GWP100: 1.0, AP: 0.0}}
        unit_cost: 0.0
"""
    model_path = out_dir / "heatplant_uncertain.model"
    db_path = out_dir / "heatplant_db.csv"
    _write(model_path, text)
    _write(db_path, _heatplant_db_csv())
    mc_seed = int(rng.integers(1, 2**31 - 1))
    return McInputs(model_path, db_path, MC_RUNS, mc_seed, dists)


@dataclass
class LoopInputs:
    model_path: Path
    db_path: Path
    rates: list[float]
    gas_amounts: list[float]


def write_loop(seed: int, out_dir: Path) -> LoopInputs:
    """The shipped heatplant model plus one (rate, gas amount) per evaluation."""
    rng = _rng(seed, 3)
    flows = []
    for sp in ("fuel_supply", "boiler_operation"):
        flows.append(f"  - name: {sp}\n    amount: 1.0\n    flows:")
        for sp_name, name, amount, bg in HEATPLANT_FLOWS:
            if sp_name == sp:
                flows.append(f"      - name: {name}\n        direction: inflow\n"
                             f"        amount: {_num(amount)}\n        background: {bg}")
    flows.append("""      - name: co2_stack
        direction: outflow
        amount: {matrix_file: co2_stack.csv}
        substance: CO2
        unit_impact: {GWP100: 1.0, AP: 0.0}
        unit_cost: 0.0""")
    text = f"""# generated by e2ebench/inputs.py
schema_version: 1
process:
  name: heatplant
  functional_unit: "district heat delivered over the 5-year window"
  reference_amount: 1.0
  discount_rate: {_num(HEATPLANT_RATE)}
  categories: [GWP100, AP]
  production: [{', '.join(map(_num, HEATPLANT_PRODUCTION))}]
grid:
  scenarios: 2
  timesteps: 5
  step: year
  origin: 0
subprocesses:
""" + "\n".join(flows) + "\n"
    model_path = out_dir / "heatplant.model"
    db_path = out_dir / "heatplant_db.csv"
    _write(model_path, text)
    _write(out_dir / "co2_stack.csv", _matrix_csv(np.asarray(HEATPLANT_CO2)))
    _write(db_path, _heatplant_db_csv())
    rates = [round(float(r), 6) for r in rng.uniform(0.01, 0.10, size=LOOP_ITERATIONS)]
    gas = [round(float(a), 3) for a in rng.uniform(1500.0, 2000.0, size=LOOP_ITERATIONS)]
    return LoopInputs(model_path, db_path, rates, gas)


# ---------------------------------------------------------------------------
# lib_grid (in memory, no files)

# distribution families of the Monte Carlo variant, cycled over sub-processes;
# every draw stays positive so relative tolerances hold in the checks
GRID_DISTRIBUTIONS = (
    ("uniform", (0.5, 2.0)),
    ("triangular", (0.5, 1.2, 2.0)),
    ("normal", (1.25, 0.2)),
    ("lognormal", (0.2, 0.15)),
)


@dataclass
class GridArrays:
    """Plain arrays behind the lib_grid models."""

    sp_amounts: np.ndarray        # (n_sp,)
    matrices: list[list[np.ndarray]]  # [sp][j] (S, T) for j < GRID_MATRIX_FLOWS
    scalars: np.ndarray           # (n_sp, n_flows) scalar amounts (matrix slots unused)
    unit_impacts: np.ndarray      # (n_sp, n_flows, n_categories)
    unit_costs: np.ndarray        # (n_sp, n_flows)
    production: np.ndarray        # (T,)
    rate: float
    taps: np.ndarray              # (GRID_TAPS,) annual-step factors of CO2
    mc_seed: int


def grid_arrays(seed: int) -> GridArrays:
    rng = _rng(seed, 4)
    n_sp, n_f, n_c = GRID_SUBPROCESSES, GRID_FLOWS, len(GRID_CATEGORIES)
    shape = (GRID_SCENARIOS, GRID_TIMESTEPS)
    return GridArrays(
        sp_amounts=rng.uniform(0.5, 2.0, size=n_sp),
        matrices=[[rng.uniform(0.5, 2.0, size=shape) for _ in range(GRID_MATRIX_FLOWS)]
                  for _ in range(n_sp)],
        scalars=rng.uniform(0.5, 2.0, size=(n_sp, n_f)),
        unit_impacts=rng.uniform(0.1, 3.0, size=(n_sp, n_f, n_c)),
        unit_costs=rng.uniform(0.1, 3.0, size=(n_sp, n_f)),
        production=rng.uniform(400.0, 500.0, size=GRID_TIMESTEPS),
        rate=round(float(rng.uniform(0.02, 0.08)), 4),
        taps=np.sort(rng.uniform(0.2, 1.0, size=GRID_TAPS))[::-1].copy(),
        mc_seed=int(rng.integers(1, 2**31 - 1)),
    )
