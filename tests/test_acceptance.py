"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test prints its line only after every assertion has held.
"""

import csv
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lcengine import (
    CashFlowSeries,
    DistributionAmount,
    DistributionSpec,
    LoadError,
    ProductionSeries,
    export_results,
    import_results,
    lcoe,
    load_background_db,
    load_dcf_tables,
    load_matrix_csv,
    load_model,
    minimum_selling_price,
    npv,
    result_set,
    run_dynamic,
    run_matrix,
    run_monte_carlo,
    run_static,
)
from lcengine.dynamic import DCFTable, EmissionSeries, characterize_dynamic

from conftest import empty_db, simple_model
from modelgen import random_model
from oracles import oracle_convolve, oracle_unit_result

SAMPLES = Path(__file__).parent.parent / "sample_models"
SRC = Path(__file__).parent.parent / "src"


def report(line: str) -> None:
    print(f"[acceptance] {line}: PASS")


def test_criterion_1_oracle_equivalence_200_models():
    rng = random.Random(20240)
    t0 = time.perf_counter()
    for _ in range(200):
        model, db, data = random_model(rng)
        unit = run_matrix(model, db)
        expected = oracle_unit_result(data, model.categories)
        for cat in model.categories:
            want = np.asarray(expected["impacts"][cat])
            scale = np.abs(want).max() + 1.0
            np.testing.assert_allclose(
                unit.impacts[cat], want, rtol=1e-9, atol=1e-9 * scale
            )
        want_cost = np.asarray(expected["cost"])
        scale = np.abs(want_cost).max() + 1.0
        np.testing.assert_allclose(unit.cost, want_cost, rtol=1e-9, atol=1e-9 * scale)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"200-model oracle sweep took {elapsed:.1f}s"
    report(f"criterion 1, oracle equivalence on 200 random models in {elapsed:.1f}s")


def test_criterion_2_broadcast_consistency_bit_exact():
    rng = random.Random(777)
    for _ in range(50):
        model, db, _ = random_model(rng, p_matrix=0.0, with_series=False,
                                    max_s=6, max_t=6)
        static = run_static(model, db)
        matrix = run_matrix(model, db)
        for cat in model.categories:
            cell = static.impacts[cat][0, 0]
            assert np.all(matrix.impacts[cat] == cell), "per-cell bit mismatch"
        assert np.all(matrix.cost == static.cost[0, 0])
    report("criterion 2, all-scalar run_matrix == run_static to the last bit (50 fixtures)")


def test_criterion_3_dynamic_reductions(heatplant, background_db):
    # (a) length-1 impulse kernels reproduce static per-period impacts
    from lcengine import compute_inventory

    tables = [
        DCFTable("CO2", "GWP100", "annual_step", [1.0]),
        DCFTable("CH4", "GWP100", "annual_step", [28.0]),
        DCFTable("NOx", "AP", "annual_step", [0.9]),
    ]
    dynamic = run_dynamic(heatplant, background_db, tables)
    inv = compute_inventory(heatplant, background_db)
    static_expect = {
        "GWP100": 1.0 * inv.emissions["CO2"] + 28.0 * inv.emissions["CH4"],
        "AP": 0.9 * inv.emissions["NOx"],
    }
    for cat, want in static_expect.items():
        np.testing.assert_allclose(dynamic.impacts[cat], want, rtol=1e-12)

    # (b) mass balance on 100 random series
    rng = np.random.default_rng(42)
    for _ in range(100):
        series = rng.uniform(0.0, 10.0, size=(int(rng.integers(1, 4)), int(rng.integers(1, 10))))
        taps = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 12)))
        em = EmissionSeries("X", series)
        out = characterize_dynamic(em, DCFTable("X", "c", "annual_step", taps))
        np.testing.assert_allclose(
            out.sum(axis=1), series.sum(axis=1) * taps.sum(), rtol=1e-9
        )

    # (c) the hand-computed convolution, exactly
    out = characterize_dynamic(
        EmissionSeries("X", [[1.0, 1.0]]), DCFTable("X", "c", "annual_step", [1.0, 0.5])
    )
    assert out.tolist() == [[1.0, 1.5, 0.5]]
    assert oracle_convolve([1.0, 1.0], [1.0, 0.5]) == [1.0, 1.5, 0.5]
    report("criterion 3, dynamic reductions (impulse, mass balance x100, hand convolution)")


def test_criterion_4_economics():
    assert npv(CashFlowSeries([-100.0, 60.0, 60.0], 0.1)) == pytest.approx(
        4.132231404958677, abs=1e-9
    )
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        costs = CashFlowSeries(rng.uniform(0.0, 500.0, n), float(rng.uniform(0.0, 0.3)))
        production = ProductionSeries(rng.uniform(0.1, 50.0, n))
        price = minimum_selling_price(costs, production)
        residual = npv(CashFlowSeries(price * production.values - costs.values, costs.rate))
        assert abs(residual) <= 1e-9 * np.abs(costs.values).sum() + 1e-12
        assert lcoe(costs, production) == price  # identical functions
    values = [12.5, -3.25, 8.0, 0.5]
    assert npv(CashFlowSeries(values, 0.0)) == sum(values)  # zero-rate exact
    assert minimum_selling_price(
        CashFlowSeries([100.0, 0.0], 0.0), ProductionSeries([0.0, 10.0])
    ) == 10.0
    report("criterion 4, economics (npv value, 100 substitution checks, lcoe==msp, zero rate)")


def test_criterion_5_monte_carlo(tmp_path):
    # degenerate distributions reproduce the static result with sd = 0
    model = simple_model(
        flow_amount=DistributionAmount(DistributionSpec("point", (3.0,))),
        unit_impact=2.0, unit_cost=1.0, n_timesteps=3,
    )
    static = run_static(model, empty_db())
    with pytest.warns(UserWarning):
        mc = run_monte_carlo(model, empty_db(), n_runs=100, seed=1)
    assert np.all(mc.samples.impacts["GWP100"] == static.impacts["GWP100"][0, 0])
    assert np.all(mc.impact_stats["GWP100"].sd == 0.0)

    # uniform(0, 2) single-flow model: mean within 1.0 +/- 0.05 at n = 10^4
    model = simple_model(
        flow_amount=DistributionAmount(DistributionSpec("uniform", (0.0, 2.0))),
        unit_impact=1.0,
    )
    mc = run_monte_carlo(model, empty_db(), n_runs=10_000, seed=123)
    assert abs(mc.impact_stats["GWP100"].mean[0] - 1.0) < 0.05

    # fixed seed: byte-identical exports
    files = []
    for attempt in range(2):
        mc = run_monte_carlo(model, empty_db(), n_runs=500, seed=9)
        path = tmp_path / f"mc_{attempt}.json"
        export_results(result_set(mc, {"mode": "montecarlo", "seed": 9}), "json", path)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    report("criterion 5, Monte Carlo (degenerate, uniform mean, byte-identical seeded exports)")


def test_criterion_6_performance_contract():
    rng = np.random.default_rng(0)
    from lcengine import (
        FlowDefinition, MatrixAmount, ProcessModel, ScalarAmount, ScenarioGrid,
        SubProcessDefinition, UnitValueTable,
    )

    n_s, n_t = 10_000, 100
    cats = ("gwp", "ap", "water")
    sps = []
    for i in range(10):
        flows = []
        for j in range(10):
            if j < 2:  # keep the 2-D path honestly exercised
                amount = MatrixAmount(rng.uniform(0.5, 2.0, size=(n_s, n_t)))
            else:
                amount = ScalarAmount(float(rng.uniform(0.5, 2.0)))
            flows.append(FlowDefinition(
                f"f{i}_{j}", "inflow", amount,
                inline_unit_impact={c: float(rng.uniform(0.1, 3.0)) for c in cats},
                inline_unit_cost=float(rng.uniform(0.1, 3.0)),
            ))
        sps.append(SubProcessDefinition(f"sp{i}", ScalarAmount(1.0), tuple(flows)))
    model = ProcessModel("perf", tuple(sps), ScenarioGrid(n_s, n_t), cats)

    t0 = time.perf_counter()
    unit = run_matrix(model, UnitValueTable(rows={}))
    elapsed = time.perf_counter() - t0
    assert unit.impacts["gwp"].shape == (n_s, n_t)
    assert elapsed < 5.0, f"10000x100x10x10x3 run took {elapsed:.2f}s"
    report(f"criterion 6, performance contract: 10000x100x10x10x3 in {elapsed:.2f}s (< 5s)")


def _malformed_corpus(tmp_path) -> list[tuple[str, Path]]:
    """Deterministic corpus of broken inputs; every file must diagnose cleanly."""
    model_text = (SAMPLES / "heatplant.model").read_text()
    db_text = (SAMPLES / "background.csv").read_text()
    dcf_text = (SAMPLES / "dcf.csv").read_text()
    cases: list[tuple[str, str | bytes]] = []

    # models: parse failures, schema violations, type breakage
    cases += [("model", m) for m in (
        "", "{", "[1, 2", "process: 1\n", "schema_version: 2\n" + model_text[17:],
        "schema_version: 1\nprocess: {name: m}\n",  # no categories / grid
        model_text.replace("schema_version: 1", "schema_version: one"),
        model_text.replace("scenarios: 2", "scenarios: 0"),
        model_text.replace("scenarios: 2", "scenarios: [2]"),
        model_text.replace("timesteps: 5", "timesteps: -3"),
        model_text.replace("direction: inflow", "direction: sideways", 1),
        model_text.replace("amount: 1755.0", "amount: {dist: gamma, k: 2}", 1),
        model_text.replace("amount: 1755.0", "amount: {dist: uniform, low: 2, high: 1}", 1),
        model_text.replace("amount: 1755.0", "amount: [1755]", 1),
        model_text.replace("matrix_file: co2_stack.csv", "matrix_file: missing.csv"),
        model_text.replace("name: fuel_supply", "name: boiler_operation", 1),
        model_text.replace("name: natural_gas\n", "name: gas_transport\n", 1),
        model_text.replace("categories: [GWP100, AP]", "categories: []"),
        model_text.replace("production: [450, 450, 450, 450, 450]",
                           "production: [450, 450]"),
        model_text.replace("unit_impact: {GWP100: 1.0, AP: 0.0}",
                           "unit_impact: {GWP100: one, AP: 0.0}"),
        model_text + "\nsubprocesses: []\n",  # duplicate key -> yaml error
        model_text.replace("flows:", "flows: {}", 1),
        "schema_version: 1\nprocess:\n  name: m\n  categories: [c]\n"
        "grid: {scenarios: 1, timesteps: 1}\nsubprocesses:\n  - name: s\n"
        "    amount: 1.0\n    flows: []\n",
        model_text.replace("amount: 1.0\n", "amount: true\n", 1),
    )]
    cases.append(("model", b"\x00\x01\x02\xff binary soup \xfe"))

    # background databases
    cases += [("db", d) for d in (
        "", "unit_cost,flow\nx,1\n", "flow,unit_cost,GWP100,GWP100\na,1,2,3\n",
        "flow,unit_cost\na,1\na,2\n", "flow,unit_cost\na\n",
        "flow,unit_cost\na,1,5\n", "flow,unit_cost\na,abc\n",
        "flow,unit_cost,GWP100\na,1,0.5;;0.3\n",
        "flow,unit_cost,GWP100\na,1,0,5\n",
        "flow,unit_cost,\na,1,2\n",
        "flow,unit_cost,inv:\na,1,2\n",
        db_text.replace("flow,", "id,"),
        db_text.replace("natural_gas,28.0", "natural_gas,28,0"),
        db_text + "natural_gas,1,1,1,1,1,1\n",
    )]
    cases.append(("db", b"\xff\xfe garbage"))

    # factor tables
    cases += [("dcf", d) for d in (
        "", "substance,mode\nCO2,annual_step\n",
        "substance,category,mode,horizon,tau,factor\nCO2,GWP100,annual_step,,1,1.0\n",
        "substance,category,mode,horizon,tau,factor\nCO2,GWP100,annual_step,,0,1.0\n"
        "CO2,GWP100,annual_step,,2,0.5\n",
        "substance,category,mode,horizon,tau,factor\nCO2,GWP100,annual_step,,0,1.0\n"
        "CO2,GWP100,annual_step,,0,0.5\n",
        "substance,category,mode,horizon,tau,factor\nCO2,GWP100,sliding,,0,1.0\n",
        "substance,category,mode,horizon,tau,factor\nCO2,GWP100,fixed_horizon,,,28.0\n",
        "substance,category,mode,horizon,tau,factor\nCO2,GWP100,fixed_horizon,0,,28.0\n",
        "substance,category,mode,horizon,tau,factor\nCO2,GWP100,fixed_horizon,100,5,28.0\n",
        "substance,category,mode,horizon,tau,factor\nCO2,GWP100,annual_step,,0,abc\n",
        "substance,category,mode,horizon,tau,factor\n,GWP100,annual_step,,0,1.0\n",
        dcf_text.replace("CO2,GWP100,annual_step,,3,0.70\n", ""),
        "substance,category,mode,horizon,tau,factor\nCO2,GWP100,annual_step,100,0,1.0\n",
    )]
    cases.append(("dcf", b"\x00\x00\x00"))

    # matrices and result files
    cases += [("matrix", m) for m in ("", "1,2\n3\n", "a,b\n", '"1,5"\n')]
    cases += [("result", r) for r in (
        "{not json", '{"schema_version": 1}',
        '{"schema_version": 1, "meta": {}, "payload_type": "wat", "payload": {}}',
        '{"schema_version": 1, "meta": {}, "payload_type": "unit", "payload": {}}',
        '{"schema_version": 1, "meta": [], "payload_type": "unit", "payload": {}}',
        "section,name\nmeta,x\n",
        "section,name,scenario,timestep,category,value\nmeta,payload_type,,,,\"unit\"\n",
        "section,name,scenario,timestep,category,value\nimpact,,0,0,c,notanumber\n",
    )]
    cases.append(("result", b"\x89PNG\r\n\x1a\n"))

    corpus = []
    for i, (kind, content) in enumerate(cases):
        path = tmp_path / f"fuzz_{i:03d}.{kind}"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        corpus.append((kind, path))
    return corpus


def test_criterion_7_io_round_trips_and_fuzz(tmp_path, heatplant, heatplant_uncertain,
                                             background_db, dcf_tables):
    # byte-identical export -> import -> export for all three result types
    payloads = [
        ("unit", run_matrix(heatplant, background_db)),
        ("monte_carlo", run_monte_carlo(heatplant_uncertain, background_db,
                                        n_runs=25, seed=4)),
        ("dynamic", run_dynamic(heatplant, background_db, dcf_tables)),
    ]
    for fmt in ("json", "csv"):
        for kind, payload in payloads:
            rs = result_set(payload, {"mode": kind, "model": "heatplant", "seed": 4})
            first = tmp_path / f"{kind}_1.{fmt}"
            second = tmp_path / f"{kind}_2.{fmt}"
            export_results(rs, fmt, first)
            export_results(import_results(first), fmt, second)
            assert first.read_bytes() == second.read_bytes(), (kind, fmt)

    # fuzz corpus: diagnostics, never crashes or partial objects
    loaders = {
        "model": load_model,
        "db": load_background_db,
        "dcf": load_dcf_tables,
        "matrix": load_matrix_csv,
        "result": import_results,
    }
    corpus = _malformed_corpus(tmp_path)
    assert len(corpus) >= 50
    for kind, path in corpus:
        with pytest.raises(LoadError) as exc_info:
            loaders[kind](path)
        assert str(exc_info.value).strip(), f"empty diagnostic for {path.name}"
    report(
        f"criterion 7, I/O round-trips byte-identical (3 payloads x 2 formats) and "
        f"{len(corpus)} malformed files all diagnosed"
    )


def _python(*argv, cwd):
    # the repo's src goes first on an absolute PYTHONPATH, so the child imports
    # the same lcengine as this process from any cwd, installed or not
    pythonpath = [str(SRC.resolve())]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=cwd, env=env)


def _cli(*argv, cwd):
    return _python("-m", "lcengine", *argv, cwd=cwd)


def test_importing_the_cli_loads_no_hashlib(tmp_path):
    """hashlib, and OpenSSL with it, loads only when a hash is taken, so a
    ``report`` process never loads it."""
    child = _python("-c", "import sys, lcengine.cli; "
                    "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))", cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def test_criterion_8_cli_end_to_end(tmp_path):
    model = str(SAMPLES / "heatplant.model")
    db = str(SAMPLES / "background.csv")
    dcf = str(SAMPLES / "dcf.csv")

    proc = _cli("validate", "--model", model, "--db", db, cwd=tmp_path)
    assert proc.returncode == 0 and "OK" in proc.stdout

    # three modes on the shipped model, each twice: exit 0 and deterministic bytes
    mode_args = {
        "static": (),
        "montecarlo": ("--n-runs", "2", "--seed", "7"),  # matrix fixes runs at 2 rows
        "dynamic": ("--dcf", dcf),
    }
    for mode, extra in mode_args.items():
        out = tmp_path / f"{mode}.json"
        blobs = []
        for _ in range(2):
            proc = _cli("run", "--model", model, "--db", db, "--mode", mode,
                        "--output", str(out), *extra, cwd=tmp_path)
            assert proc.returncode == 0, (mode, proc.stderr)
            assert "results written to" in proc.stdout
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{mode} runs are not deterministic"
        proc = _cli("report", str(out), cwd=tmp_path)
        assert proc.returncode == 0

    # a real sampled Monte Carlo end to end as well, fixed seed
    out = tmp_path / "mc_sampled.json"
    for _ in range(2):
        proc = _cli("run", "--model", str(SAMPLES / "heatplant_uncertain.model"),
                    "--db", db, "--mode", "montecarlo", "--n-runs", "200",
                    "--seed", "11", "--output", str(out), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    # exit-code contract
    assert _cli("run", "--model", model, "--db", db, "--mode", "dynamic",
                cwd=tmp_path).returncode == 1
    assert _cli("run", "--model", "/absent.model", "--db", db, "--mode", "static",
                cwd=tmp_path).returncode == 2
    assert _cli("validate", "--model", model, "--db", "/absent.csv",
                cwd=tmp_path).returncode == 2
    overflow = tmp_path / "overflow.model"
    overflow.write_text(
        "schema_version: 1\n"
        "process: {name: overflow, categories: [c]}\n"
        "grid: {scenarios: 1, timesteps: 1}\n"
        "subprocesses:\n"
        "  - name: s\n"
        "    amount: 1.0e+308\n"
        "    flows: [{name: f, direction: inflow, amount: 1.0e+308,"
        " unit_impact: {c: 1.0}, unit_cost: 0.0}]\n"
    )
    proc = _cli("run", "--model", str(overflow), "--db", db, "--mode", "static",
                cwd=tmp_path)
    assert proc.returncode == 3 and "scenario=0" in proc.stderr
    report("criterion 8, CLI end-to-end: three modes deterministic, exit codes 0/1/2/3")
