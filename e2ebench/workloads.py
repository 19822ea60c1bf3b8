"""The four benchmark workloads.

Each workload writes or builds its inputs from the seed, runs passes of the
same program operations, and checks outputs with ``checks``.  CLI
workloads start a fresh interpreter for each ``lcengine`` call, as a user
would (``child.py``); library workloads call lcengine in this process.  ``inprocess_pass`` runs
the same operations in this process for the traced run, through ``api``
(the lcengine module, or traced stand-ins for its entry points).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lcengine
from lcengine import cli as lc_cli

import checks
import inputs
from child import vm_hwm_mb


@dataclass
class PassResult:
    walls: tuple[float, ...]  # seconds of each timed call, in pass order
    attempted: int
    failed: int
    peak_rss_mb: float | None  # of the child processes; None in process
    outputs: object


def child_env(src_dir: Path) -> dict:
    """The environment of every program call.  Bytecode is cached, as it is
    for an installed package, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    env["PYTHONHASHSEED"] = "0"
    for name in ("LCENGINE_LOG", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


CHILD = Path(__file__).resolve().parent / "child.py"


def run_child(args: list[str], cwd: Path, env: dict) -> tuple[float, int, float, str]:
    """One ``lcengine ARGS`` call; (wall s, exit code, peak RSS MB, stdout)."""
    out_path, err_path, peak_path = cwd / ".stdout", cwd / ".stderr", cwd / ".peak"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        rc = subprocess.run([sys.executable, str(CHILD), str(peak_path), "cli", *args],
                            cwd=cwd, env=env, stdout=out, stderr=err).returncode
        wall = time.perf_counter() - t0
    if rc:
        sys.stderr.write(f"lcengine {' '.join(args)} exited {rc}:\n"
                         + err_path.read_text(errors="replace"))
    return wall, rc, float(peak_path.read_text()), out_path.read_text()


def import_rss_mb(result: Path, src: Path) -> float:
    """Peak-RSS growth across one import_results call in a fresh process."""
    peak_path = result.parent / ".import_peak"
    subprocess.run([sys.executable, str(CHILD), str(peak_path), "import", str(result)],
                   env=child_env(src), check=True)
    return float(peak_path.read_text())


def fresh_import_s(src_dir: Path) -> float:
    """Seconds a fresh interpreter spends in ``import lcengine``."""
    code = ("import time; t = time.perf_counter(); import lcengine; "
            "print(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(src_dir),
                         capture_output=True, text=True, check=True).stdout
    return float(out)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def discard(outputs) -> None:
    """Remove the result files of a pass, if it wrote any."""
    if isinstance(outputs, CliOutputs):
        shutil.rmtree(outputs.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# CLI workloads

@dataclass
class CliOutputs:
    dir: Path
    result: Path
    run_out: str
    report_out: str
    digest: str | None = None


class CliWorkload:
    """``lcengine run`` then ``lcengine report`` on its result, per pass."""

    ops_per_pass = 2
    result_name = ""

    def __init__(self, seed: int, work: Path, src: Path):
        self.seed = seed
        self.work = work
        self.env = child_env(src)
        self.first: CliOutputs | None = None

    def construct(self) -> None:
        """CLI workloads reuse no model objects between passes."""

    def run_args(self, output: str) -> list[str]:
        raise NotImplementedError

    def report_args(self, result: str, pass_dir: Path) -> list[str]:
        return ["report", result]

    def check(self, out: CliOutputs) -> None:
        raise NotImplementedError

    def _fresh_dir(self) -> Path:
        d = self.work / "pass"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def run_pass(self) -> PassResult:
        d = self._fresh_dir()
        wall, rc, rss, run_out = run_child(self.run_args(self.result_name), d, self.env)
        out = CliOutputs(d, d / self.result_name, run_out, "")
        if rc:
            return PassResult((wall,), 2, 2, rss, out)
        wall2, rc2, rss2, out.report_out = run_child(
            self.report_args(self.result_name, d), d, self.env)
        if not rc2:
            out.digest = sha256(out.result)
        return PassResult((wall, wall2), 2, 1 if rc2 else 0, max(rss, rss2), out)

    def after_pass(self, p: PassResult) -> None:
        """Check the first pass in full; later ones must repeat it byte for byte."""
        out = p.outputs
        try:
            if p.failed:
                return
            if self.first is None:
                self.first = out
                self.check(out)
            else:
                checks.require(out.digest == self.first.digest,
                               "result file differs from the first pass's")
                checks.require((out.run_out, out.report_out)
                               == (self.first.run_out, self.first.report_out),
                               "printed output differs from the first pass's")
        finally:
            discard(out)

    def peak_rss_mb(self, passes: list[PassResult]) -> float:
        return float(np.median([p.peak_rss_mb for p in passes]))

    def final_check(self, last: PassResult) -> None:
        checks.require(self.first is not None, "no pass completed")

    def inprocess_pass(self, tracer=None) -> tuple[float, CliOutputs]:
        """Both calls through ``lcengine.cli.main`` in this process."""
        d = self._fresh_dir()
        result = str(d / self.result_name)
        streams = []
        t0 = time.perf_counter()
        for name, argv in (("run", self.run_args(result)),
                           ("report", self.report_args(result, d))):
            buf = io.StringIO()
            with redirect_stdout(buf):
                if tracer is None:
                    rc = lc_cli.main(argv)
                else:
                    with tracer.span("cli", name):
                        rc = lc_cli.main(argv)
            checks.require(rc == 0, f"in-process {name} exited {rc}")
            streams.append(buf.getvalue())
        wall = time.perf_counter() - t0
        return wall, CliOutputs(d, Path(result), streams[0], streams[1])

    def input_bytes(self) -> int:
        raise NotImplementedError


class CliStatic(CliWorkload):
    name = "cli_static"
    result_name = "result.json"

    def __init__(self, seed: int, work: Path, src: Path):
        super().__init__(seed, work, src)
        self.inputs = inputs.write_static(seed, work)

    def run_args(self, output: str) -> list[str]:
        return ["run", "--model", str(self.inputs.model_path), "--db", str(self.inputs.db_path),
                "--mode", "static", "--format", "json", "--threads", "1", "--output", output]

    def check(self, out: CliOutputs) -> None:
        reference = checks.static_reference(self.inputs)
        checks.check_static_result(out.result, reference)
        checks.check_static_stdout(
            out.run_out, out.report_out, checks.unit_totals(reference),
            checks.indicator_figures(reference["cost"], self.inputs.production,
                                     self.inputs.rate))

    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.inputs.input_paths)


class CliMonteCarlo(CliWorkload):
    name = "cli_montecarlo"
    result_name = "result.csv"

    def __init__(self, seed: int, work: Path, src: Path):
        super().__init__(seed, work, src)
        self.inputs = inputs.write_montecarlo(seed, work)

    def run_args(self, output: str) -> list[str]:
        mc = self.inputs
        return ["run", "--model", str(mc.model_path), "--db", str(mc.db_path),
                "--mode", "montecarlo", "--n-runs", str(mc.n_runs), "--seed", str(mc.mc_seed),
                "--format", "csv", "--threads", "1", "--output", output]

    def report_args(self, result: str, pass_dir: Path) -> list[str]:
        return ["report", result, "--plot-data", str(pass_dir / "plots")]

    def check(self, out: CliOutputs) -> None:
        samples = checks.read_mc_csv(out.result)
        checks.require(samples.n_runs == self.inputs.n_runs, f"{samples.n_runs} runs in the file")
        checks.check_montecarlo(samples, checks.heatplant_draws(samples, inputs.HEATPLANT_DB),
                                self.inputs.distributions)
        checks.check_histograms(out.dir / "plots" / "histograms.csv", samples)
        checks.check_mc_stdout(
            out.run_out, out.report_out, samples, self.inputs.mc_seed,
            checks.indicator_figures(samples.cost, inputs.HEATPLANT_PRODUCTION,
                                     inputs.HEATPLANT_RATE))

    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.inputs.model_path, self.inputs.db_path))


# ---------------------------------------------------------------------------
# library workloads

def timed(times: list[float], fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    times.append(time.perf_counter() - t0)
    return result


class LibWorkload:
    """Library calls in this process; the last pass's outputs are checked
    after the peak RSS has been read."""

    ops_per_pass = 1

    def __init__(self, seed: int, work: Path, src: Path):
        self.seed = seed

    def construct(self) -> None:
        raise NotImplementedError

    def run_ops(self, api, times: list[float]):
        """One pass through ``api``; appends the seconds of each timed call."""
        raise NotImplementedError

    def check(self, outputs) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        times = []
        try:
            outputs, failed = self.run_ops(lcengine, times), 0
        except Exception:  # counted as failed operations; the run goes on
            traceback.print_exc()
            outputs, failed = None, self.ops_per_pass
        return PassResult(tuple(times), self.ops_per_pass, failed, None, outputs)

    def after_pass(self, p: PassResult) -> None:
        """Outputs stay alive until the next pass starts, nothing else."""

    def peak_rss_mb(self, passes: list[PassResult]) -> float:
        return vm_hwm_mb()

    def final_check(self, last: PassResult) -> None:
        checks.require(last.outputs is not None, "the last pass failed")
        self.check(last.outputs)

    def inprocess_pass(self, tracer=None) -> tuple[float, object]:
        api = lcengine if tracer is None else tracer.api
        t0 = time.perf_counter()
        outputs = self.run_ops(api, [])
        return time.perf_counter() - t0, outputs


class LibGrid(LibWorkload):
    """run_matrix, indicators on its cost grid, run_monte_carlo and run_dynamic."""

    name = "lib_grid"
    ops_per_pass = 4

    def __init__(self, seed: int, work: Path, src: Path):
        super().__init__(seed, work, src)
        self.arrays = inputs.grid_arrays(seed)
        self.distributions = {}
        for i in range(inputs.GRID_SUBPROCESSES):
            for j in range(inputs.GRID_MATRIX_FLOWS):
                kinds = inputs.GRID_DISTRIBUTIONS
                self.distributions[f"f{i}_{j}"] = kinds[(i * inputs.GRID_MATRIX_FLOWS + j)
                                                        % len(kinds)]

    def construct(self) -> None:
        ga, cats = self.arrays, inputs.GRID_CATEGORIES
        n_sp, n_f, n_m = inputs.GRID_SUBPROCESSES, inputs.GRID_FLOWS, inputs.GRID_MATRIX_FLOWS
        grid_sps, mc_sps = [], []
        for i in range(n_sp):
            grid_flows, mc_flows = [], []
            for j in range(n_f):
                units = {c: float(ga.unit_impacts[i, j, k]) for k, c in enumerate(cats)}
                flow = lcengine.FlowDefinition(
                    f"f{i}_{j}", "inflow", lcengine.ScalarAmount(float(ga.scalars[i, j])),
                    inline_unit_impact=units, inline_unit_cost=float(ga.unit_costs[i, j]))
                if j < n_m:
                    kind, params = self.distributions[f"f{i}_{j}"]
                    mc_flows.append(dataclasses.replace(flow, amount=lcengine.DistributionAmount(
                        lcengine.DistributionSpec(kind, params))))
                    flow = dataclasses.replace(
                        flow, amount=lcengine.MatrixAmount(ga.matrices[i][j]), substance="CO2")
                else:
                    mc_flows.append(flow)
                grid_flows.append(flow)
            amount = lcengine.ScalarAmount(float(ga.sp_amounts[i]))
            grid_sps.append(lcengine.SubProcessDefinition(f"sp{i}", amount, tuple(grid_flows)))
            mc_sps.append(lcengine.SubProcessDefinition(f"sp{i}", amount, tuple(mc_flows)))
        shape = (inputs.GRID_SCENARIOS, inputs.GRID_TIMESTEPS)
        self.model = lcengine.ProcessModel(
            "lib_grid", tuple(grid_sps), lcengine.ScenarioGrid(*shape), cats,
            discount_rate=ga.rate, production=ga.production)
        self.mc_model = lcengine.ProcessModel(
            "lib_grid_mc", tuple(mc_sps), lcengine.ScenarioGrid(1, shape[1]), cats,
            discount_rate=ga.rate, production=ga.production)
        self.db = lcengine.UnitValueTable(rows={})
        self.dcfs = (lcengine.DCFTable("CO2", "gwp", "annual_step", ga.taps),)

    def run_ops(self, api, times: list[float]):
        unit = timed(times, api.run_matrix, self.model, self.db)
        indicators = timed(times, api.discounted_cost_result, unit.cost,
                           self.model.production, self.model.discount_rate)
        mc = timed(times, api.run_monte_carlo, self.mc_model, self.db, inputs.GRID_SCENARIOS,
                   self.arrays.mc_seed)
        dyn = timed(times, api.run_dynamic, self.model, self.db, self.dcfs)
        return unit, indicators, mc, dyn

    def check(self, outputs) -> None:
        unit, indicators, mc, dyn = outputs
        ga, cats, n_m = self.arrays, inputs.GRID_CATEGORIES, inputs.GRID_MATRIX_FLOWS
        checks.check_grid_unit(unit, checks.grid_reference(ga, cats, n_m))
        rows = checks.sample_rows(inputs.GRID_SCENARIOS, 200, self.seed)
        checks.check_indicators(indicators, unit.cost, ga.production, ga.rate, rows)
        checks.require(mc.n_runs == inputs.GRID_SCENARIOS, f"{mc.n_runs} Monte Carlo runs")
        samples = mc_samples(mc)
        checks.check_montecarlo(samples, checks.grid_draws(samples, ga, cats, n_m),
                                self.distributions)
        emissions = sum(float(a) * m for a, ms in zip(ga.sp_amounts, ga.matrices)
                        for m in ms[:n_m])
        checks.check_dynamic(dyn, emissions, ga.taps, "gwp", rows)


def mc_samples(mc) -> checks.Samples:
    """The grids and statistics of a MonteCarloResult, for the checks."""
    s = mc.samples

    def stats(st):
        return {"mean": st.mean, "sd": st.sd, "p2.5": st.p2_5, "p50": st.p50, "p97.5": st.p97_5}

    return checks.Samples(
        impacts=s.impacts, cost=s.cost, sp_unit_impacts=s.sp_unit_impacts,
        sp_unit_costs=s.sp_unit_costs, sp_exchange=s.sp_exchange,
        stats={**{c: stats(mc.impact_stats[c]) for c in s.categories},
               "cost": stats(mc.cost_stats)})


class LibLoop(LibWorkload):
    """heatplant evaluations with a new discount rate and gas amount each,
    as an optimiser or sensitivity sampler makes them."""

    name = "lib_loop"
    ops_per_pass = inputs.LOOP_ITERATIONS

    def __init__(self, seed: int, work: Path, src: Path):
        super().__init__(seed, work, src)
        self.inputs = inputs.write_loop(seed, work)

    def construct(self) -> None:
        self.model = lcengine.load_model(self.inputs.model_path)
        self.db = lcengine.load_background_db(self.inputs.db_path)
        fuel = self.model.subprocesses[0]
        checks.require((fuel.name, fuel.flows[0].name) == ("fuel_supply", "natural_gas"),
                       "heatplant layout: fuel_supply/natural_gas must come first")

    def run_ops(self, api, times: list[float]):
        t0 = time.perf_counter()
        base = self.model
        fuel, rest = base.subprocesses[0], base.subprocesses[1:]
        gas = fuel.flows[0]
        results = []
        for rate, amount in zip(self.inputs.rates, self.inputs.gas_amounts):
            flow = dataclasses.replace(gas, amount=lcengine.ScalarAmount(amount))
            sp = dataclasses.replace(fuel, flows=(flow, *fuel.flows[1:]))
            model = dataclasses.replace(base, discount_rate=rate, subprocesses=(sp, *rest))
            unit = api.run_matrix(model, self.db)
            indicators = api.discounted_cost_result(unit.cost, model.production, rate)
            results.append((indicators.npv, indicators.msp))
        times.append(time.perf_counter() - t0)
        return results

    def check(self, outputs) -> None:
        checks.check_loop(outputs, self.inputs, inputs.HEATPLANT_DB, inputs.HEATPLANT_FLOWS,
                          inputs.HEATPLANT_PRODUCTION)


WORKLOADS = {w.name: w for w in (CliStatic, CliMonteCarlo, LibGrid, LibLoop)}
