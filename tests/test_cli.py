import csv
import errno
import hashlib
import itertools
import json
import os
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest

from lcengine import export_results, import_results
from lcengine.cli import main

SAMPLES = Path(__file__).parent.parent / "sample_models"
MODEL = str(SAMPLES / "heatplant.model")
MODEL_MC = str(SAMPLES / "heatplant_uncertain.model")
DB = str(SAMPLES / "background.csv")
DCF = str(SAMPLES / "dcf.csv")


def run_cli(*argv):
    return main(list(argv))


# (text in heatplant.model, replacement, diagnostic): models that parse but
# fail structural validation
STRUCTURAL_ERRORS = [
    pytest.param("discount_rate: 0.05", "discount_rate: -0.05",
                 "discount_rate must be >= 0", id="negative_rate"),
    pytest.param("discount_rate: 0.05", "discount_rate: .nan",
                 "discount_rate must be finite, got nan", id="nan_rate"),
    pytest.param("discount_rate: 0.05", "discount_rate: .inf",
                 "discount_rate must be finite, got inf", id="infinite_rate"),
    pytest.param("name: boiler_operation", "name: fuel_supply",
                 "duplicate sub-process name", id="duplicate_subprocess"),
    pytest.param("categories: [GWP100, AP]", "categories: [GWP100, AP, GWP100]",
                 "model 'heatplant': duplicate category 'GWP100'", id="duplicate_category"),
    pytest.param("production: [450, 450, 450, 450, 450]", "production: [450, 450]",
                 "production series length 2 does not match 5 time steps",
                 id="production_length"),
]


def _heatplant_copy(tmp_path, old, new):
    """heatplant.model with one text replacement, beside its matrix CSV."""
    model = tmp_path / "heatplant.model"
    text = (SAMPLES / "heatplant.model").read_text()
    assert text.count(old) == 1
    model.write_text(text.replace(old, new))
    (tmp_path / "co2_stack.csv").write_bytes((SAMPLES / "co2_stack.csv").read_bytes())
    return model


# (input, text in it, replacement, diagnostic): non-finite unit values, which
# fail validation in every command; "model" stands for both sample models
NON_FINITE_UNIT_VALUES = [
    pytest.param("background.csv", "truck_km,1.1,", "truck_km,nan,",
                 "flow 'gas_transport': unit cost nan is not finite", id="db_unit_cost"),
    pytest.param("background.csv", "truck_km,1.1,0.12,", "truck_km,1.1,inf,",
                 "flow 'gas_transport': unit impact inf for category 'GWP100' is not finite",
                 id="db_unit_impact"),
    pytest.param("background.csv", "truck_km,1.1,0.12,", "truck_km,1.1,0.12;0.12;inf;0.12;0.12,",
                 "flow 'gas_transport': per-period unit impact inf for category 'GWP100' "
                 "at period 2 is not finite", id="db_per_period_unit_impact"),
    pytest.param("background.csv", "natural_gas,28.0,0.23,0.0004,36.0,",
                 "natural_gas,28.0,0.23,0.0004,nan,",
                 "flow 'natural_gas': emission nan of substance 'CO2' per unit is not finite",
                 id="db_inventory"),
    pytest.param("model", "unit_impact: {GWP100: 1.0, AP: 0.0}",
                 "unit_impact: {GWP100: .nan, AP: 0.0}",
                 "flow 'co2_stack': unit impact nan for category 'GWP100' is not finite",
                 id="inline_unit_impact"),
    pytest.param("background.csv", "NOx,,,0.9,,,", "NOx,,,nan,,,",
                 "substance 'NOx': static factor nan for category 'AP' is not finite",
                 id="db_static_factor"),
]

# each command on the sample inputs, as (arguments, model file)
COMMANDS = [
    pytest.param(("validate",), "heatplant.model", id="validate"),
    pytest.param(("run", "--mode", "static"), "heatplant.model", id="static"),
    pytest.param(("run", "--mode", "montecarlo", "--n-runs", "20"), "heatplant_uncertain.model",
                 id="montecarlo"),
    pytest.param(("run", "--mode", "dynamic", "--dcf", DCF), "heatplant.model", id="dynamic"),
]


def _inputs_copy(tmp_path, target, old, new):
    """The sample inputs in ``tmp_path``, with one text replacement in
    ``target`` or, for "model", in both models."""
    for path in SAMPLES.iterdir():
        text = path.read_text()
        if target in (path.name, "model" if path.suffix == ".model" else None):
            assert text.count(old) == 1
            text = text.replace(old, new)
        (tmp_path / path.name).write_text(text)
    return tmp_path


class TestValidateCommand:
    def test_valid_fixture(self, capsys):
        assert run_cli("validate", "--model", MODEL, "--db", DB) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_db_key_exits_1(self, tmp_path, capsys):
        doc = """
schema_version: 1
process: {name: m, categories: [GWP100]}
grid: {scenarios: 1, timesteps: 1}
subprocesses:
  - name: s
    amount: 1.0
    flows: [{name: f, direction: inflow, amount: 1.0, background: missing_key}]
"""
        path = tmp_path / "bad_ref.model"
        path.write_text(doc)
        assert run_cli("validate", "--model", str(path), "--db", DB) == 1
        assert "missing_key" in capsys.readouterr().err

    def test_nonexistent_path_exits_2(self, capsys):
        assert run_cli("validate", "--model", "/nonexistent.model", "--db", DB) == 2

    @pytest.mark.parametrize("value, problem", [(".nan", "has non-finite values"),
                                                ("-450", "has negative values"),
                                                ("0", "is all zeros"),
                                                ("-0.0", "is all zeros")])
    def test_bad_production_exits_1(self, tmp_path, capsys, value, problem):
        series = ", ".join([value] * 5)
        model = _heatplant_copy(tmp_path, "production: [450, 450, 450, 450, 450]",
                                f"production: [{series}]")
        assert run_cli("validate", "--model", str(model), "--db", DB) == 1
        assert f"production series {problem}" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("old, new, problem", STRUCTURAL_ERRORS)
    def test_structural_error_exits_1(self, tmp_path, capsys, command, old, new, problem):
        model = _heatplant_copy(tmp_path, old, new)
        out = tmp_path / "r.json"
        extra = ("--mode", "static", "--output", str(out)) if command == "run" else ()
        assert run_cli(command, "--model", str(model), "--db", DB, *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: model fails structural validation")
        assert problem in err
        assert not out.exists()


class TestRunCommand:
    def test_static_summary_matches_export(self, tmp_path, capsys):
        out = tmp_path / "static.csv"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                     "--output", str(out), "--format", "csv")
        assert rc == 0
        summary = capsys.readouterr().out
        # cross-check: per-category totals recomputed from the exported rows
        rows = list(csv.reader(out.open()))
        for cat in ("GWP100", "AP"):
            values = [float(r[5]) for r in rows if r[0] == "impact" and r[4] == cat]
            n_scenarios = len({r[2] for r in rows if r[0] == "impact" and r[4] == cat})
            total = sum(values) / n_scenarios
            printed = [line for line in summary.splitlines() if cat in line][0]
            shown = float(printed.split(":")[-1])
            assert shown == pytest.approx(total, rel=1e-4)

    def test_montecarlo_fixed_seed_byte_identical(self, tmp_path):
        out = tmp_path / "mc.json"
        argv = ("run", "--model", MODEL_MC, "--db", DB, "--mode", "montecarlo",
                "--n-runs", "100", "--seed", "7", "--output", str(out))
        assert run_cli(*argv) == 0
        first = out.read_bytes()
        assert run_cli(*argv) == 0
        assert out.read_bytes() == first

    def test_dynamic_without_dcf_is_usage_error(self, capsys):
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "dynamic")
        assert rc == 1
        assert "--dcf" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["static"], ["dynamic", "--dcf", DCF]],
                             ids=["static", "dynamic"])
    def test_static_mode_rejects_a_sampling_model_before_writing(self, mode, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL_MC, "--db", DB, "--mode", *mode,
                     "--output", str(out))
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "usage error: model contains distribution amounts; use --mode montecarlo\n")

    @pytest.mark.parametrize("n_runs, problem", [
        ((), "--mode montecarlo requires --n-runs"),
        (("--n-runs", "1"), "--n-runs must be >= 2, got 1"),
    ], ids=["missing", "one"])
    def test_montecarlo_needs_n_runs(self, tmp_path, capsys, n_runs, problem):
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL_MC, "--db", DB, "--mode", "montecarlo", *n_runs,
                     "--output", str(out))
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == f"usage error: {problem}\n"

    def test_negative_amount_warns_and_runs(self, tmp_path, capsys):
        model = _heatplant_copy(tmp_path, "amount: 4.5", "amount: -4.5")
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", str(model), "--db", DB, "--mode", "static",
                     "--output", str(out))
        assert rc == 0 and out.exists()
        assert capsys.readouterr().err == (
            "warning: subprocess 'boiler_operation', flow 'maintenance': "
            "negative exchange amount (avoided flow?)\n")

    def test_missing_input_exits_2(self):
        assert run_cli("run", "--model", "/nope.model", "--db", DB, "--mode", "static") == 2

    def test_nonfinite_result_exits_3(self, tmp_path, capsys):
        doc = """
schema_version: 1
process: {name: overflow, categories: [c]}
grid: {scenarios: 1, timesteps: 1}
subprocesses:
  - name: s
    amount: 1.0e+308
    flows: [{name: f, direction: inflow, amount: 1.0e+308, unit_impact: {c: 1.0}, unit_cost: 0.0}]
"""
        path = tmp_path / "overflow.model"
        path.write_text(doc)
        rc = run_cli("run", "--model", str(path), "--db", DB, "--mode", "static",
                     "--output", str(tmp_path / "x.json"))
        assert rc == 3
        err = capsys.readouterr().err
        assert "scenario=0" in err and "timestep=0" in err

    def test_overflowing_scenario_total_exits_3_before_writing(self, tmp_path, capsys):
        # each cell is finite, their sum over the two time steps is not
        doc = """
schema_version: 1
process: {name: overflow, categories: [c]}
grid: {scenarios: 1, timesteps: 2}
subprocesses:
  - name: s
    amount: 1.0
    flows: [{name: f, direction: inflow, amount: 1.0e+308, unit_impact: {c: 1.0}, unit_cost: 0.0}]
"""
        path = tmp_path / "overflow.model"
        path.write_text(doc)
        output = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("run", "--model", str(path), "--db", DB, "--mode", "static",
                         "--output", str(output))
        assert rc == 3 and not output.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: impact[c] summed over time at scenario=0 is inf\n"

    def test_static_mode_rejects_distributions(self, capsys):
        rc = run_cli("run", "--model", MODEL_MC, "--db", DB, "--mode", "static")
        assert rc == 1
        assert "montecarlo" in capsys.readouterr().err

    def test_categories_filter(self, tmp_path):
        out = tmp_path / "gwp_only.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                     "--categories", "GWP100", "--output", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert list(doc["payload"]["impacts"].keys()) == ["GWP100"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("flag, recorded", [
        ((), None), (("--categories", ","), []), (("--categories", "AP"), ["AP"]),
        (("--categories", ""), []), (("--categories", "GWP100,GWP100"), ["GWP100"]),
        (("--categories", "AP, GWP100,AP"), ["AP", "GWP100"]),
    ], ids=["absent", "none", "one", "empty", "repeated", "repeated_keeps_first_order"])
    def test_meta_records_the_categories_computed(self, tmp_path, capsys, fmt, flag, recorded):
        out = tmp_path / f"r.{fmt}"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static", *flag,
                     "--format", fmt, "--output", str(out))
        assert rc == 0
        result = import_results(out)
        assert result.meta["config"]["categories"] == recorded
        assert list(result.payload.categories) == (
            ["GWP100", "AP"] if recorded is None else recorded)
        capsys.readouterr()
        assert run_cli("report", str(out)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_meta_config_records_every_option_in_declaration_order(self, tmp_path, capsys,
                                                                   fmt):
        # the flags in another order than the parser declares them
        out = tmp_path / f"r.{fmt}"
        rc = run_cli("run", "--threads", "2", "--categories", "AP, GWP100,AP",
                     "--format", fmt, "--output", str(out), "--rate", "0.07", "--seed", "5",
                     "--n-runs", "3", "--dcf", DCF, "--mode", "montecarlo", "--db", DB,
                     "--model", MODEL_MC)
        assert rc == 0
        capsys.readouterr()
        assert list(import_results(out).meta["config"].items()) == [
            ("model", MODEL_MC), ("db", DB), ("mode", "montecarlo"), ("dcf", DCF),
            ("n_runs", 3), ("seed", 5), ("rate", 0.07), ("output", str(out)),
            ("format", fmt), ("categories", ["AP", "GWP100"]), ("threads", 2)]

    @pytest.mark.parametrize("cells", ["0.9;0.9;0.9;0.9;0.9", ""], ids=["per_period", "empty"])
    def test_dynamic_names_a_substance_row_without_a_static_factor(self, tmp_path, capsys,
                                                                    cells):
        inputs = _inputs_copy(tmp_path, "background.csv", "NOx,,,0.9,", f"NOx,,,{cells},")
        model, db = str(inputs / "heatplant.model"), str(inputs / "background.csv")
        assert run_cli("validate", "--model", model, "--db", db) == 0
        assert capsys.readouterr().out == "OK\n"
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", model, "--db", db, "--mode", "dynamic", "--dcf", DCF,
                     "--output", str(out))
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "error: substance 'NOx' has no dynamic factors, and its database row 'NOx' has no "
            "single-value cell (per-period cells are not static factors)\n")

    def test_rate_override_embedded_in_meta(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                     "--rate", "0.12", "--output", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["config"]["rate"] == 0.12
        assert set(doc["meta"]["input_sha256"]) == {"model", "db", "matrix_files"}

    def test_matrix_file_hashes_follow_their_content(self, tmp_path):
        model = tmp_path / "heatplant.model"
        model.write_text((SAMPLES / "heatplant.model").read_text())
        stack = tmp_path / "co2_stack.csv"
        stack.write_bytes((SAMPLES / "co2_stack.csv").read_bytes())
        hashes = []
        for _ in range(2):
            out = tmp_path / "r.json"
            assert run_cli("run", "--model", str(model), "--db", DB, "--mode", "static",
                           "--output", str(out)) == 0
            hashes.append(json.loads(out.read_text())["meta"]["input_sha256"]["matrix_files"])
            stack.write_text(stack.read_text().replace("81000", "80000", 1))
        first, second = hashes
        assert list(first) == ["co2_stack.csv"]
        assert first["co2_stack.csv"] == hashlib.sha256(
            (SAMPLES / "co2_stack.csv").read_bytes()).hexdigest()
        assert second["co2_stack.csv"] != first["co2_stack.csv"]

    def test_static_all_scalar_model_runs_on_its_grid(self, tmp_path, capsys):
        # all-scalar amounts on a 2x5 grid with a 5-period production series
        model = tmp_path / "scalar.model"
        model.write_text((SAMPLES / "heatplant.model").read_text().replace(
            "{matrix_file: co2_stack.csv}", "81000.0"))
        out = tmp_path / "scalar.json"
        rc = run_cli("run", "--model", str(model), "--db", DB, "--mode", "static",
                     "--output", str(out))
        assert rc == 0
        text = capsys.readouterr().out
        assert "present cost" in text and "MSP" in text and "LCOE" in text
        assert text.index("LCOE") < text.index("results written to")
        doc = json.loads(out.read_text())
        assert np.asarray(doc["payload"]["cost"]).shape == (2, 5)

    def test_single_scenario_prints_one_economics_line(self, tmp_path, capsys):
        model = tmp_path / "one.model"
        model.write_text((SAMPLES / "heatplant.model").read_text().replace(
            "{matrix_file: co2_stack.csv}", "81000.0").replace("scenarios: 2", "scenarios: 1"))
        out = tmp_path / "one.json"
        assert run_cli("run", "--model", str(model), "--db", DB, "--mode", "static",
                       "--output", str(out)) == 0
        [cost] = json.loads(out.read_text())["payload"]["cost"]
        present = sum(c / 1.05 ** t for t, c in enumerate(cost))
        msp = present / sum(450.0 / 1.05 ** t for t in range(5))
        text = capsys.readouterr().out
        assert (f"\n  economics (rate 0.05): present cost {present:.6g}, MSP {msp:.6g}, "
                f"LCOE {msp:.6g}\n") in text
        assert "mean" not in text

    def test_dynamic_run_without_unit_costs_skips_the_indicators(self, tmp_path, capsys):
        model = tmp_path / "nocost.model"
        model.write_text("""
schema_version: 1
process: {name: nocost, categories: [GWP100], production: [450, 450, 450, 450, 450]}
grid: {scenarios: 1, timesteps: 5}
subprocesses:
  - name: stack
    amount: 1.0
    flows: [{name: co2, direction: outflow, amount: 100.0, background: flue_gas,
             substance: CO2}]
""")
        db = tmp_path / "nocost.csv"
        db.write_text("flow,unit_cost,GWP100\nflue_gas,,1.0\n")
        out = tmp_path / "nocost.json"
        assert run_cli("run", "--model", str(model), "--db", str(db), "--mode", "dynamic",
                       "--dcf", DCF, "--output", str(out)) == 0
        assert json.loads(out.read_text())["payload_type"] == "dynamic"
        captured = capsys.readouterr()
        assert captured.out.endswith(f"results written to: {out}\n")
        assert "economics" not in captured.out and "present cost" not in captured.out
        assert captured.err == ("warning: economic indicators skipped: subprocess 'stack', "
                                "flow 'co2': no unit cost resolvable\n")

    def test_dynamic_run_names_a_cost_conflict_it_skips(self, tmp_path, capsys):
        model = _heatplant_copy(tmp_path, "background: truck_km",
                                "background: truck_km\n        unit_cost: 2.0")
        conflict = ("subprocess 'fuel_supply', flow 'gas_transport': "
                    "unit cost is defined both inline and in database")
        assert run_cli("run", "--model", str(model), "--db", DB, "--mode", "static",
                       "--output", str(tmp_path / "static.json")) == 1
        assert conflict in capsys.readouterr().err
        out = tmp_path / "dynamic.json"
        assert run_cli("run", "--model", str(model), "--db", DB, "--mode", "dynamic",
                       "--dcf", DCF, "--output", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith(f"results written to: {out}\n")
        assert "economics" not in captured.out
        assert captured.err == f"warning: economic indicators skipped: {conflict}\n"

    @pytest.mark.parametrize("value", [".nan", "-450", "0", "-0.0"])
    def test_bad_production_exits_1_before_writing(self, tmp_path, capsys, value):
        series = ", ".join([value] * 5)
        model = _heatplant_copy(tmp_path, "production: [450, 450, 450, 450, 450]",
                                f"production: [{series}]")
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", str(model), "--db", DB, "--mode", "static",
                     "--output", str(out))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: model 'heatplant': production series")
        assert not out.exists()

    def test_rate_past_the_float_range_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static", "--rate", "1e308",
                     "--output", str(out))
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err.startswith("error: economic indicators: ")

    @pytest.mark.parametrize("rate, problem", [
        ("nan", "--rate must be finite, got nan"),
        ("inf", "--rate must be finite, got inf"),
        ("-0.5", "--rate must be >= 0, got -0.5"),
    ])
    def test_bad_rate_is_usage_error_before_writing(self, tmp_path, capsys, rate, problem):
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static", "--rate", rate,
                     "--output", str(out))
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == f"usage error: {problem}\n"

    def test_dynamic_category_without_factors_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "dynamic", "--dcf", DCF,
                     "--categories", "NOPE", "--output", str(out))
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "error: categories with no factor for any emitted substance: ['NOPE']\n")

    def test_negative_threads_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                     "--threads", "-5", "--output", str(out))
        assert rc == 1
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_statistic_exits_3_before_writing(self, tmp_path, capsys, fmt):
        # each run's total over time is finite; the sd of a time step is not
        inputs = _inputs_copy(tmp_path, "background.csv", "natural_gas,28.0,0.23,",
                              "natural_gas,28.0,1e160;-1e160;1e160;-1e160;0,")
        out = tmp_path / f"mc.{fmt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("run", "--model", str(inputs / "heatplant_uncertain.model"),
                         "--db", str(inputs / "background.csv"), "--mode", "montecarlo",
                         "--n-runs", "200", "--seed", "7", "--format", fmt, "--output", str(out))
        assert rc == 3 and not out.exists()
        assert capsys.readouterr() == ("", "numerical failure: section 'stat', name 'sd', "
                                           "category 'GWP100' at timestep=0 is inf\n")

    def test_montecarlo_validates_the_grid_of_its_runs(self, tmp_path, capsys):
        # heatplant's 2x5 matrix amount does not fit one row per run
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "montecarlo",
                     "--n-runs", "100", "--seed", "1", "--output", str(out))
        assert rc == 1 and not out.exists()
        assert capsys.readouterr() == ("", "error: subprocess 'boiler_operation', flow "
                                           "'co2_stack': matrix shape 2x5 does not match grid, "
                                           "expected 100x5\n")

    def test_inputs_with_a_byte_order_mark_run_as_without(self, tmp_path, capsys, monkeypatch):
        """A spreadsheet's "CSV UTF-8" copy of the database, the factor
        tables and a matrix CSV starts with a byte-order mark."""
        outcomes = []
        for mark in (b"", b"\xef\xbb\xbf"):
            inputs = tmp_path / ("bom" if mark else "plain")
            inputs.mkdir()
            for path in SAMPLES.iterdir():
                lead = mark if path.suffix == ".csv" else b""
                (inputs / path.name).write_bytes(lead + path.read_bytes())
            monkeypatch.chdir(inputs)
            codes = [run_cli("validate", "--model", "heatplant.model", "--db", "background.csv"),
                     run_cli("run", "--model", "heatplant.model", "--db", "background.csv",
                             "--mode", "dynamic", "--dcf", "dcf.csv", "--output", "r.json")]
            doc = json.loads(Path("r.json").read_text())
            hashes = doc["meta"].pop("input_sha256")
            outcomes.append((codes, capsys.readouterr(), doc, hashes["model"]))
        assert outcomes[0][0] == [0, 0]
        assert outcomes[1] == outcomes[0]

    def test_invalid_degenerate_montecarlo_prints_no_warning(self, tmp_path, capsys):
        # heatplant has no distributions, and its 2x5 matrix amount does not fit 2000 runs
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "montecarlo",
                         "--n-runs", "2000", "--output", str(out))
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert "degenerate" not in err and "Warning" not in err
        assert not out.exists()

    def test_degenerate_montecarlo_warns_on_a_plain_line(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "montecarlo",
                     "--n-runs", "2", "--output", str(out))
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: model has no distribution amounts; Monte Carlo is degenerate\n")

    @pytest.mark.parametrize("tau", ["nan", "0.7"])
    def test_non_integer_dcf_tau_exits_2(self, tmp_path, capsys, tau):
        dcf = tmp_path / "dcf.csv"
        dcf.write_text(Path(DCF).read_text().replace(
            "CO2,GWP100,annual_step,,1,0.86", f"CO2,GWP100,annual_step,,{tau},0.86"))
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--dcf", str(dcf),
                     "--mode", "dynamic", "--output", str(out))
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {dcf}:3: CO2: tau: expected an integer")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, line", [
        ("CO2,GWP100,annual_step,,1,0.86", "CO2,GWP100,annual_step,,1,nan", 3),
        ("CO2,GWP100,annual_step,,1,0.86", "CO2,GWP100,annual_step,,1,inf", 3),
        ("CH4,GWP100,fixed_horizon,100,,28.0", "CH4,GWP100,fixed_horizon,100,,-inf", 12),
    ], ids=["annual_nan", "annual_inf", "fixed_horizon_-inf"])
    def test_non_finite_dcf_factor_exits_2(self, tmp_path, capsys, old, new, line):
        dcf = tmp_path / "dcf.csv"
        dcf.write_text(Path(DCF).read_text().replace(old, new))
        out = tmp_path / "r.json"
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--dcf", str(dcf),
                     "--mode", "dynamic", "--output", str(out))
        assert rc == 2
        substance = old.split(",")[0]
        assert capsys.readouterr().err.startswith(
            f"error: {dcf}:{line}: {substance}: factor: expected a finite number")
        assert not out.exists()

    @pytest.mark.parametrize("command, model", COMMANDS)
    @pytest.mark.parametrize("target, old, new, problem", NON_FINITE_UNIT_VALUES)
    def test_non_finite_unit_value_exits_1_before_writing(self, tmp_path, capsys, command,
                                                           model, target, old, new, problem):
        inputs = _inputs_copy(tmp_path, target, old, new)
        out = tmp_path / "r.json"
        extra = ("--output", str(out)) if command[0] == "run" else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(command[0], "--model", str(inputs / model),
                         "--db", str(inputs / "background.csv"), *command[1:], *extra)
        assert rc == 1
        out_text, err = capsys.readouterr()
        assert problem in err and "OK" not in out_text
        assert not out.exists()

    @pytest.mark.parametrize("target, old, new, code, diagnostic", [
        ("co2_stack.csv", "81000,81000,81000,81000,81000", "1e308,81000,81000,81000,81000", 3,
         "numerical failure: cumulative[GWP100] at scenario=0, timestep=1 is inf"),
        # the cost grid of the indicators overflows
        ("model", "unit_cost: 0.0", "unit_cost: 1.0e+308", 1,
         "error: economic indicators: cash flow values must be finite"),
        # its cells are finite, their present value is not
        ("model", "amount: 180.0", "amount: 1.0e+308", 3,
         "numerical failure: present cost mean is inf"),
    ], ids=["emissions", "cost", "present_cost"])
    def test_overflowing_dynamic_run_prints_no_numpy_warning(self, tmp_path, capsys, target,
                                                             old, new, code, diagnostic):
        inputs = _inputs_copy(tmp_path, target, old, new)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NumPy's overflow warning fails the test
            rc = run_cli("run", "--model", str(inputs / "heatplant.model"), "--db", DB,
                         "--mode", "dynamic", "--dcf", DCF, "--output", str(out))
        assert rc == code and not out.exists()
        out_text, err = capsys.readouterr()
        assert out_text == "" and err == diagnostic + "\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("run", "--frobnicate") == 1

    # missing inputs: a usage error, not an I/O failure, shows that nothing was read
    @pytest.mark.parametrize("argv", [
        ("validate", "--model", "/nonexistent.model", "--db", DB),
        ("run", "--model", "/nonexistent.model", "--db", DB, "--mode", "static"),
        ("report", "/nonexistent.json"),
    ], ids=["validate", "run", "report"])
    @pytest.mark.parametrize("level", ["foo", "", "10"])
    def test_unknown_log_level_is_usage_error_before_reading(self, monkeypatch, capsys, argv,
                                                              level):
        monkeypatch.setenv("LCENGINE_LOG", level)
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            "usage error: LCENGINE_LOG must be one of debug, info, warning, error, critical; "
            f"got {level!r}\n")

    @pytest.mark.parametrize("level", ["debug", "Info", "WARNING", "error", "critical"])
    def test_known_log_level_runs(self, monkeypatch, capsys, level):
        monkeypatch.setenv("LCENGINE_LOG", level)
        assert run_cli("validate", "--model", MODEL, "--db", DB) == 0
        assert capsys.readouterr().out == "OK\n"


def _mc_result_with(tmp_path, fmt, cells) -> Path:
    """A 20-run Monte Carlo result file whose GWP100 samples hold ``cells``,
    {(run, timestep): value}."""
    path = tmp_path / f"mc.{fmt}"
    assert run_cli("run", "--model", MODEL_MC, "--db", DB, "--mode", "montecarlo",
                   "--n-runs", "20", "--seed", "3", "--format", fmt, "--output", str(path)) == 0
    if fmt == "json":
        doc = json.loads(path.read_text())
        grid = doc["payload"]["samples"]["impacts"]["GWP100"]
        for (s, t), value in cells.items():
            grid[s][t] = value
        path.write_text(json.dumps(doc, indent=2))
    else:
        rows = list(csv.reader(path.open(newline="")))
        for row in rows:
            if row[0] == "impact" and row[4] == "GWP100" and (int(row[2]), int(row[3])) in cells:
                row[5] = repr(cells[int(row[2]), int(row[3])])
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _csv_result_with(tmp_path, mode, cells) -> Path:
    """A CSV result of the heatplant model (static or dynamic) or of a
    20-run Monte Carlo run, with ``cells`` replaced, {(section, name,
    category, scenario, timestep): value}."""
    path = tmp_path / f"{mode}.csv"
    model, extra = {"static": (MODEL, ()), "dynamic": (MODEL, ("--dcf", DCF)),
                    "montecarlo": (MODEL_MC, ("--n-runs", "20"))}[mode]
    assert run_cli("run", "--model", model, "--db", DB, "--mode", mode, *extra,
                   "--format", "csv", "--output", str(path)) == 0
    cells = {(*key[:3], str(key[3]), str(key[4])): value for key, value in cells.items()}
    rows = list(csv.reader(path.open(newline="")))
    for row in rows:
        key = (row[0], row[1], row[4], row[2], row[3])
        if key in cells:
            row[5] = repr(cells.pop(key))
    assert not cells  # every cell was found
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


class TestReportCommand:
    def _run_to(self, tmp_path, mode, *extra):
        out = tmp_path / f"{mode}.json"
        argv = ["run", "--model", MODEL, "--db", DB, "--mode", mode,
                "--output", str(out)]
        rc = run_cli(*argv, *extra)
        assert rc == 0
        return out

    def test_unreadable_result_exits_2(self):
        assert run_cli("report", "/no/such/file.json") == 2

    def test_static_contributions_sum_to_totals(self, tmp_path, capsys):
        out = self._run_to(tmp_path, "static")
        plots = tmp_path / "plots"
        assert run_cli("report", str(out), "--plot-data", str(plots)) == 0
        contrib = list(csv.reader((plots / "contributions.csv").open()))[1:]
        totals = list(csv.reader((plots / "impact_over_time.csv").open()))[1:]
        for cat in ("GWP100", "AP"):
            for s in ("0", "1"):
                for t in (str(i) for i in range(5)):
                    parts = [float(r[5]) for r in contrib
                             if r[0] == "impact" and r[1] == cat and r[3] == s and r[4] == t]
                    total = [float(r[4]) for r in totals
                             if r[0] == "impact" and r[1] == cat and r[2] == s and r[3] == t]
                    assert sum(parts) == pytest.approx(total[0], rel=1e-9)

    def test_dynamic_cumulative_is_prefix_sum(self, tmp_path, capsys):
        out = self._run_to(tmp_path, "dynamic", "--dcf", DCF)
        plots = tmp_path / "plots_dyn"
        assert run_cli("report", str(out), "--plot-data", str(plots)) == 0
        impact = list(csv.reader((plots / "impact_over_time.csv").open()))[1:]
        cumulative = list(csv.reader((plots / "cumulative.csv").open()))[1:]

        def series(rows, cat, scenario):
            pairs = [(int(r[2]), float(r[3])) for r in rows
                     if r[0] == cat and r[1] == scenario]
            return [v for _, v in sorted(pairs)]

        for cat in ("GWP100", "AP"):
            for s in ("0", "1"):
                inc = series(impact, cat, s)
                cum = series(cumulative, cat, s)
                assert cum == pytest.approx(np.cumsum(inc).tolist(), rel=1e-12)

    def test_mc_histogram_counts_conserve_samples(self, tmp_path):
        out = tmp_path / "mc.json"
        rc = run_cli("run", "--model", MODEL_MC, "--db", DB, "--mode", "montecarlo",
                     "--n-runs", "100", "--seed", "3", "--output", str(out))
        assert rc == 0
        plots = tmp_path / "plots_mc"
        assert run_cli("report", str(out), "--plot-data", str(plots)) == 0
        rows = list(csv.reader((plots / "histograms.csv").open()))[1:]
        for cat in ("GWP100", "AP"):
            counts = [int(r[4]) for r in rows if r[0] == "impact" and r[1] == cat]
            assert len(counts) == 50
            assert sum(counts) == 100
        cost_counts = [int(r[4]) for r in rows if r[0] == "cost"]
        assert sum(cost_counts) == 100

    def test_report_summary_prints_metadata(self, tmp_path, capsys):
        out = self._run_to(tmp_path, "static")
        capsys.readouterr()
        assert run_cli("report", str(out)) == 0
        text = capsys.readouterr().out
        assert "heatplant" in text and "static" in text

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("cells, problem", [
        ({(3, 2): float("inf")}, "impact[GWP100] at scenario=3, timestep=2 is inf"),
        ({(3, 1): 1e308, (3, 2): 1e308}, "impact[GWP100] summed over time at scenario=3 is inf"),
    ], ids=["inf_cell", "overflowing_run_total"])
    def test_nonfinite_result_exits_3_before_any_output(self, tmp_path, capsys, fmt, cells,
                                                        problem):
        path = _mc_result_with(tmp_path, fmt, cells)
        if fmt == "json" and float("inf") in cells.values():
            assert "Infinity" in path.read_text()
        plots = tmp_path / "plots"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the test
            assert run_cli("report", str(path), "--plot-data", str(plots)) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"numerical failure: {problem}\n"
        assert not plots.exists()

    # every cell and scenario or run total is finite; a number of the summary is not
    @pytest.mark.parametrize("mode, cells, problem", [
        ("static", {("impact", "", "GWP100", 0, 1): 1e308, ("impact", "", "GWP100", 1, 3): 1e308},
         "impact[GWP100] total (scenario mean) is inf"),
        ("montecarlo", {("impact", "", "GWP100", 0, 1): 1e308,
                        ("impact", "", "GWP100", 5, 2): 1e308},
         "impact[GWP100] run totals: mean is inf"),
        ("montecarlo", {("cost", "", "", 0, 1): 1e308, ("cost", "", "", 5, 2): -1e308},
         "cost run totals: sd is inf"),
    ], ids=["scenario_mean", "run_mean", "run_sd"])
    def test_overflowing_summary_exits_3_before_any_output(self, tmp_path, capsys, mode, cells,
                                                           problem):
        path = _csv_result_with(tmp_path, mode, cells)
        plots = tmp_path / "plots"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the test
            assert run_cli("report", str(path), "--plot-data", str(plots)) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"numerical failure: {problem}\n"
        assert not plots.exists()

    @pytest.mark.parametrize("mode", ["static", "montecarlo"])
    def test_overflowing_contribution_exits_3_without_plot_data(self, tmp_path, capsys, mode):
        # a finite breakdown cell times its finite sub-process exchange
        path = _csv_result_with(tmp_path, mode, {
            ("sp_unit_impact", "fuel_supply", "GWP100", 0, 2): 1e308,
            ("sp_exchange", "fuel_supply", "", 0, 2): 2.0,
        })
        plots = tmp_path / "plots"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("report", str(path), "--plot-data", str(plots)) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: contribution of sub-process 'fuel_supply' "
                       "to impact[GWP100] is inf\n")
        assert not plots.exists()

    # a non-finite cell in a grid the summary does not read
    @pytest.mark.parametrize("mode, cell, value, problem", [
        ("dynamic", ("dynamic_contribution", "CO2", "GWP100", 0, 3), float("inf"),
         "section 'dynamic_contribution', name 'CO2', category 'GWP100' "
         "at scenario=0, timestep=3 is inf"),
        ("montecarlo", ("stat", "p50", "GWP100", "", 3), float("nan"),
         "section 'stat', name 'p50', category 'GWP100' at timestep=3 is nan"),
        ("static", ("sp_exchange", "boiler_operation", "", 1, 4), float("-inf"),
         "section 'sp_exchange', name 'boiler_operation', category '' "
         "at scenario=1, timestep=4 is -inf"),
    ], ids=["dynamic_contribution", "stat", "sp_exchange"])
    def test_nonfinite_cell_of_any_grid_exits_3_without_plot_data(self, tmp_path, capsys, mode,
                                                                  cell, value, problem):
        path = _csv_result_with(tmp_path, mode, {cell: value})
        plots = tmp_path / "plots"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("report", str(path), "--plot-data", str(plots)) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"numerical failure: {problem}\n"
        assert not plots.exists()

    def test_nonfinite_dynamic_cumulative_exits_3(self, tmp_path, capsys, sample_results):
        from lcengine import export_results, import_results

        path = tmp_path / "dyn.json"
        export_results(sample_results["dynamic"], "json", path)
        doc = json.loads(path.read_text())
        doc["payload"]["cumulative"]["AP"][1][3] = float("-inf")
        path.write_text(json.dumps(doc, indent=2))
        capsys.readouterr()
        assert run_cli("report", str(path)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: cumulative[AP] at scenario=1, timestep=3 is -inf\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_run_totals_too_close_for_50_bins_exit_3_without_plot_data(self, tmp_path, capsys,
                                                                        fmt):
        # every run totals 5e17, and 5e17 +- 0.5 rounds back to 5e17
        path = _mc_result_with(tmp_path, fmt, {(s, t): 1e17 for s in range(20) for t in range(5)})
        plots = tmp_path / "plots"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("report", str(path), "--plot-data", str(plots)) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: histogram of impact[GWP100] run totals: ")
        assert not plots.exists()

    def test_plot_data_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = self._run_to(tmp_path, "static")
        blocker = tmp_path / "plots"
        blocker.write_text("not a directory")
        assert run_cli("report", str(out), "--plot-data", str(blocker)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write plot data") and "Traceback" not in err


def _scratch_entries(*dirs):
    return [p for d in dirs for p in Path(d).rglob(".lcengine-*")]


@pytest.fixture
def enospc(monkeypatch):
    """``enospc(n)``: the n-th grid written from now on (counting from 0)
    fails with ENOSPC after earlier grids have reached the file."""
    import lcengine.io

    def fail_at(n):
        real = lcengine.io._grid_blocks
        calls = itertools.count()

        def blocks(*args, **kwargs):
            if next(calls) == n:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            yield from real(*args, **kwargs)

        monkeypatch.setattr(lcengine.io, "_grid_blocks", blocks)
    return fail_at


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


class TestOutputFiles:
    """Result and plot files appear complete or not at all."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_write_error_keeps_the_previous_result(self, tmp_path, capsys, enospc, fmt):
        out = tmp_path / f"r.{fmt}"
        out.write_bytes(b"the previous result\n")
        enospc(2)
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                     "--format", fmt, "--output", str(out))
        assert rc == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith(f"error: cannot write {out}: [Errno {errno.ENOSPC}] ")
        assert out.read_bytes() == b"the previous result\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [out.name]

    @pytest.mark.parametrize("kind, fail_at", [("unit", 4), ("monte_carlo", 16), ("dynamic", 5)])
    def test_write_error_leaves_no_plot_directory(self, tmp_path, capsys, sample_results,
                                                  enospc, kind, fail_at):
        path = tmp_path / "r.json"
        export_results(sample_results[kind], "json", path)
        plots = tmp_path / "plots"
        enospc(fail_at)
        assert run_cli("report", str(path), "--plot-data", str(plots)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write plot data to {plots}: [Errno {errno.ENOSPC}]")
        assert not plots.exists()
        assert not _scratch_entries(tmp_path)

    @pytest.mark.parametrize("kind", ["unit", "monte_carlo", "dynamic"])
    def test_write_error_keeps_an_existing_plot_directory(self, tmp_path, capsys,
                                                          sample_results, enospc, kind):
        path = tmp_path / "r.json"
        export_results(sample_results[kind], "json", path)
        plots = tmp_path / "plots"
        plots.mkdir()
        (plots / "impact_over_time.csv").write_text("an earlier plot\n")
        (plots / "notes.txt").write_text("kept\n")
        enospc(3)
        assert run_cli("report", str(path), "--plot-data", str(plots)) == 2
        assert {p.name: p.read_text() for p in plots.iterdir()} == {
            "impact_over_time.csv": "an earlier plot\n", "notes.txt": "kept\n"}
        assert not _scratch_entries(tmp_path)

    def test_existing_plot_directory_gets_new_files_beside_its_own(self, tmp_path,
                                                                   sample_results):
        path = tmp_path / "r.json"
        export_results(sample_results["unit"], "json", path)
        plots = tmp_path / "plots"
        assert run_cli("report", str(path), "--plot-data", str(plots)) == 0
        fresh = {p.name: p.read_bytes() for p in plots.iterdir()}
        (plots / "impact_over_time.csv").write_text("an earlier plot\n")
        (plots / "notes.txt").write_text("kept\n")
        assert run_cli("report", str(path), "--plot-data", str(plots)) == 0
        assert {p.name: p.read_bytes() for p in plots.iterdir()} == {**fresh, "notes.txt": b"kept\n"}
        assert not _scratch_entries(tmp_path)

    def test_numerical_failure_keeps_an_existing_plot_directory(self, tmp_path, capsys):
        path = _csv_result_with(tmp_path, "montecarlo", {
            ("sp_unit_impact", "fuel_supply", "GWP100", 0, 2): 1e308,
            ("sp_exchange", "fuel_supply", "", 0, 2): 2.0,
        })
        plots = tmp_path / "plots"
        plots.mkdir()
        (plots / "histograms.csv").write_text("an earlier plot\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("report", str(path), "--plot-data", str(plots)) == 3
        assert capsys.readouterr().err.startswith("numerical failure: contribution of ")
        assert [(p.name, p.read_text()) for p in plots.iterdir()] == [
            ("histograms.csv", "an earlier plot\n")]
        assert not _scratch_entries(tmp_path)

    def test_missing_directories_are_created_with_umask_modes(self, tmp_path, umask_022):
        out = tmp_path / "new" / "deeper" / "r.json"
        assert run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                       "--output", str(out)) == 0
        plots = tmp_path / "more" / "plots"
        assert run_cli("report", str(out), "--plot-data", str(plots)) == 0
        modes = {p.relative_to(tmp_path).as_posix(): stat.S_IMODE(p.stat().st_mode)
                 for p in tmp_path.rglob("*")}
        assert modes == {
            "new": 0o755, "new/deeper": 0o755, "new/deeper/r.json": 0o644,
            "more": 0o755, "more/plots": 0o755,
            "more/plots/impact_over_time.csv": 0o644, "more/plots/contributions.csv": 0o644,
        }

    def test_replaced_result_is_a_new_file_with_umask_mode(self, tmp_path, umask_022):
        out = tmp_path / "r.json"
        out.write_text("old")
        out.chmod(0o600)
        assert run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                       "--output", str(out)) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert out.read_text().startswith("{")

    def test_symlinked_result_is_written_through(self, tmp_path):
        target = tmp_path / "store" / "r.json"
        target.parent.mkdir()
        target.write_text("old")
        link = tmp_path / "r.json"
        link.symlink_to(target)
        assert run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                       "--output", str(link)) == 0
        assert link.is_symlink() and target.read_text().startswith("{")
        assert not _scratch_entries(tmp_path)

    def test_output_that_is_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        rc = run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                     "--output", str(out))
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert list(out.iterdir()) == [] and not _scratch_entries(tmp_path)

    def test_plot_directory_under_a_file_exits_2_and_creates_nothing(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("run", "--model", MODEL, "--db", DB, "--mode", "static",
                       "--output", str(out)) == 0
        capsys.readouterr()
        assert run_cli("report", str(out), "--plot-data", str(out / "plots")) == 2
        assert capsys.readouterr().err.startswith("error: cannot write plot data to ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
