"""Tests of the benchmark's input generator and of its checks.

Each check must pass on the program's real output and reject a result that
is wrong by one cell at 1e-6 relative, two swapped scenario rows, or a
histogram count off by one.  Run from the repository root:

    python -m pytest e2ebench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import lcengine  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "STATIC_SCENARIOS": 12, "STATIC_TIMESTEPS": 6, "MC_RUNS": 400, "GRID_SCENARIOS": 300,
    "GRID_TIMESTEPS": 12, "GRID_TAPS": 8, "LOOP_ITERATIONS": 20,
}
OFF = 1 + 1e-6


@pytest.fixture(autouse=True)
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(inputs, name, value)


def file_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("write", [inputs.write_static, inputs.write_montecarlo,
                                   inputs.write_loop])
def test_generator_same_seed_same_bytes(tmp_path, write):
    dirs = [tmp_path / name for name in ("a", "b", "other")]
    for d in dirs:
        d.mkdir()
    first, again, other = write(7, dirs[0]), write(7, dirs[1]), write(8, dirs[2])
    assert file_bytes(dirs[0]) == file_bytes(dirs[1])
    if isinstance(first, inputs.LoopInputs):  # the files are the fixed heatplant model
        assert (first.rates, first.gas_amounts) == (again.rates, again.gas_amounts)
        assert first.rates != other.rates
    else:
        assert file_bytes(dirs[0]) != file_bytes(dirs[2])


def test_grid_arrays_same_seed_same_values():
    a, b, c = inputs.grid_arrays(7), inputs.grid_arrays(7), inputs.grid_arrays(8)
    for field in dataclasses.fields(a):
        assert np.array_equal(np.asarray(getattr(a, field.name)),
                              np.asarray(getattr(b, field.name)))
    assert not np.array_equal(a.sp_amounts, c.sp_amounts)


# ---------------------------------------------------------------------------
# CLI workloads: a real in-process pass, then its result file corrupted


def cli_pass(cls, tmp_path):
    wl = cls(3, tmp_path, SRC)
    _, out = wl.inprocess_pass()
    wl.check(out)
    return wl, out


def edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    path.write_text(json.dumps(doc, indent=2) + "\n")


def test_static_check_rejects_one_cell_off(tmp_path):
    wl, out = cli_pass(workloads.CliStatic, tmp_path)

    def nudge(payload):
        payload["impacts"]["AP"][4][2] *= OFF

    edit_json(out.result, nudge)
    with pytest.raises(checks.CheckError, match="result AP"):
        wl.check(out)


def test_static_check_rejects_swapped_rows(tmp_path):
    wl, out = cli_pass(workloads.CliStatic, tmp_path)

    def swap(payload):
        rows = payload["cost"]
        rows[0], rows[1] = rows[1], rows[0]

    edit_json(out.result, swap)
    with pytest.raises(checks.CheckError, match="result cost"):
        wl.check(out)


def test_static_check_rejects_a_misprinted_total(tmp_path):
    wl, out = cli_pass(workloads.CliStatic, tmp_path)
    line = next(x for x in out.run_out.splitlines() if x.strip().startswith("GWP100"))
    value = line.split()[-1]
    out.run_out = out.run_out.replace(line, line.replace(value, f"{float(value) * 1.00001:.6g}"))
    with pytest.raises(checks.CheckError, match="printed total GWP100"):
        wl.check(out)


def edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def test_montecarlo_check_rejects_one_stat_off(tmp_path):
    wl, out = cli_pass(workloads.CliMonteCarlo, tmp_path)

    def nudge(lines):
        i = next(i for i, x in enumerate(lines) if x.startswith("stat,p50,,2,GWP100,"))
        head, value = lines[i].rsplit(",", 1)
        lines[i] = f"{head},{float(value) * OFF!r}"

    edit_csv(out.result, nudge)
    with pytest.raises(checks.CheckError, match="GWP100 p50 at t=2"):
        wl.check(out)


def test_montecarlo_check_rejects_swapped_runs(tmp_path):
    wl, out = cli_pass(workloads.CliMonteCarlo, tmp_path)

    def swap(lines):
        for t in range(5):
            a = lines.index(next(x for x in lines if x.startswith(f"impact,,0,{t},GWP100,")))
            b = lines.index(next(x for x in lines if x.startswith(f"impact,,1,{t},GWP100,")))
            va, vb = lines[a].rsplit(",", 1)[1], lines[b].rsplit(",", 1)[1]
            lines[a] = lines[a].rsplit(",", 1)[0] + "," + vb
            lines[b] = lines[b].rsplit(",", 1)[0] + "," + va

    edit_csv(out.result, swap)
    with pytest.raises(checks.CheckError, match="GWP100 total vs sub-process contributions"):
        wl.check(out)


def test_montecarlo_check_rejects_a_histogram_count_off_by_one(tmp_path):
    wl, out = cli_pass(workloads.CliMonteCarlo, tmp_path)

    def bump(lines):
        head, count = lines[5].rsplit(",", 1)
        lines[5] = f"{head},{int(count) + 1}"

    edit_csv(out.dir / "plots" / "histograms.csv", bump)
    with pytest.raises(checks.CheckError, match="histogram counts sum to 401"):
        wl.check(out)


# ---------------------------------------------------------------------------
# library workloads: real outputs, then one array corrupted


@pytest.fixture
def grid(tmp_path):
    wl = workloads.LibGrid(3, tmp_path, SRC)
    wl.construct()
    outputs = wl.run_ops(lcengine, [])
    wl.check(outputs)
    return wl, outputs


def test_grid_check_rejects_one_cell_off(grid):
    wl, (unit, *_) = grid
    unit.impacts["water"][17, 5] *= OFF
    with pytest.raises(checks.CheckError, match="run_matrix water"):
        wl.check(grid[1])


def test_grid_check_rejects_swapped_rows(grid):
    wl, (unit, *_) = grid
    unit.cost[[3, 4]] = unit.cost[[4, 3]]
    with pytest.raises(checks.CheckError, match="run_matrix cost"):
        wl.check(grid[1])


def test_grid_check_rejects_an_indicator_off(grid):
    wl, (_, indicators, _, _) = grid
    indicators.msp[0] *= OFF
    with pytest.raises(checks.CheckError, match="msp row 0"):
        wl.check(grid[1])


def test_grid_check_rejects_a_dynamic_cell_off(grid):
    wl, (*_, dyn) = grid
    dyn.impacts["gwp"][0, 7] *= OFF
    with pytest.raises(checks.CheckError, match="dynamic gwp row 0"):
        wl.check(grid[1])


def test_grid_check_rejects_a_monte_carlo_stat_off(grid):
    wl, (_, _, mc, _) = grid
    mc.impact_stats["ap"].p97_5[3] *= OFF
    with pytest.raises(checks.CheckError, match="ap p97.5 at t=3"):
        wl.check(grid[1])


def test_grid_check_rejects_swapped_monte_carlo_runs(grid):
    wl, (_, _, mc, _) = grid
    mc.samples.impacts["gwp"][[0, 1]] = mc.samples.impacts["gwp"][[1, 0]]
    with pytest.raises(checks.CheckError, match="gwp total vs sub-process contributions"):
        wl.check(grid[1])


def test_loop_check_rejects_one_msp_off(tmp_path):
    wl = workloads.LibLoop(3, tmp_path, SRC)
    wl.construct()
    results = wl.run_ops(lcengine, [])
    wl.check(results)
    results[3][1][0] *= OFF
    with pytest.raises(checks.CheckError, match="iteration 3 MSP"):
        wl.check(results)


def test_draws_outside_the_support_are_rejected():
    draws = np.repeat(np.linspace(0.5, 2.0, 200)[:, None], 3, axis=1)
    checks.check_draws(draws, "uniform", (0.5, 2.0), "f")
    draws[7] = 2.0 * OFF
    with pytest.raises(checks.CheckError, match="leave the uniform support"):
        checks.check_draws(draws, "uniform", (0.5, 2.0), "f")


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "lib_loop",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
