import csv
import json
import math
import os
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from lcengine import (
    DistributionAmount,
    LoadError,
    MatrixAmount,
    ScalarAmount,
    ScenarioGrid,
    UnitResult,
    export_results,
    import_results,
    load_background_db,
    load_dcf_tables,
    load_matrix_csv,
    load_model,
    result_set,
    run_dynamic,
    run_matrix,
    run_monte_carlo,
    run_static,
    validate_model,
)

from lcengine import io as lc_io

from conftest import empty_db, import_outcome, simple_model
from oracles import oracle_mean, oracle_percentile, oracle_sd
from test_result_text import JSON_CONTRACT


def _matrix_model(tmp_path, amount: str):
    """A one-flow model on a 2 x 3 grid whose flow amount is ``amount``."""
    path = tmp_path / "matrix.model"
    path.write_text(f"""
schema_version: 1
process: {{name: m, categories: [c]}}
grid: {{scenarios: 2, timesteps: 3}}
subprocesses:
  - name: s
    amount: 1.0
    flows: [{{name: f, direction: inflow, amount: {amount}, unit_impact: {{c: 1.0}},
             unit_cost: 0.0}}]
""")
    return load_model(path)


class TestLoadModel:
    def test_heatplant_shape(self, heatplant):
        assert heatplant.name == "heatplant"
        assert len(heatplant.subprocesses) == 2
        assert sum(len(sp.flows) for sp in heatplant.subprocesses) == 5
        assert heatplant.grid.shape == (2, 5)
        assert heatplant.categories == ("GWP100", "AP")
        assert heatplant.discount_rate == 0.05
        assert heatplant.production.tolist() == [450.0] * 5

    def test_amount_variants_parsed(self, heatplant, heatplant_uncertain):
        co2 = heatplant.subprocesses[1].flows[2]
        assert isinstance(co2.amount, MatrixAmount)
        assert co2.amount.values.shape == (2, 5)
        assert co2.substance == "CO2"
        gas = heatplant_uncertain.subprocesses[0].flows[0]
        assert isinstance(gas.amount, DistributionAmount)
        assert gas.amount.spec.kind == "triangular"
        assert isinstance(heatplant.subprocesses[0].flows[0].amount, ScalarAmount)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.model"
        path.write_text("")
        with pytest.raises(LoadError, match="empty"):
            load_model(path)

    def test_duplicate_subprocess_names(self, tmp_path):
        doc = """
schema_version: 1
process: {name: m, categories: [c]}
grid: {scenarios: 1, timesteps: 1}
subprocesses:
  - name: twice
    amount: 1.0
    flows: [{name: f, direction: inflow, amount: 1.0, unit_impact: {c: 1.0}, unit_cost: 0.0}]
  - name: twice
    amount: 1.0
    flows: [{name: f, direction: inflow, amount: 1.0, unit_impact: {c: 1.0}, unit_cost: 0.0}]
"""
        path = tmp_path / "dup.model"
        path.write_text(doc)
        with pytest.raises(LoadError, match="twice"):
            load_model(path)

    @pytest.mark.parametrize("digits", [400, 5000])  # past float's range; past int's digit limit
    @pytest.mark.parametrize("key", ["amount", "production"])
    def test_huge_integer_is_a_load_error(self, tmp_path, samples_dir, digits, key):
        old = {"amount": "amount: 180.0", "production": "production: [450, 450, 450, 450, 450]"}[key]
        text = (samples_dir / "heatplant.model").read_text()
        path = tmp_path / "heatplant.model"
        path.write_text(text.replace(old, f"{key}: {'1' * digits}"))
        with pytest.raises(LoadError):
            load_model(path)

    def test_yaml_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("schema_version: 1\nprocess: [unclosed\n")
        with pytest.raises(LoadError) as exc_info:
            load_model(path)
        assert exc_info.value.line is not None

    def test_unknown_key_rejected(self, tmp_path):
        doc = """
schema_version: 1
process: {name: m, categories: [c], colour: blue}
grid: {scenarios: 1, timesteps: 1}
subprocesses:
  - name: s
    amount: 1.0
    flows: [{name: f, direction: inflow, amount: 1.0, unit_impact: {c: 1.0}, unit_cost: 0.0}]
"""
        path = tmp_path / "unknown.model"
        path.write_text(doc)
        with pytest.raises(LoadError, match="colour"):
            load_model(path)

    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "nover.model"
        path.write_text("process: {name: m, categories: [c]}\n"
                        "grid: {scenarios: 1, timesteps: 1}\n"
                        "subprocesses: []\n")
        with pytest.raises(LoadError, match="schema_version"):
            load_model(path)

    def test_matrix_file_relative_resolution(self, tmp_path):
        (tmp_path / "grids").mkdir()
        (tmp_path / "grids" / "m.csv").write_text("1.5,2.5\n")
        doc = """
schema_version: 1
process: {name: m, categories: [c]}
grid: {scenarios: 1, timesteps: 2}
subprocesses:
  - name: s
    amount: 1.0
    flows:
      - {name: f, direction: inflow, amount: {matrix_file: grids/m.csv},
         unit_impact: {c: 1.0}, unit_cost: 0.0}
"""
        path = tmp_path / "rel.model"
        path.write_text(doc)
        model = load_model(path)
        assert model.subprocesses[0].flows[0].amount.values.tolist() == [[1.5, 2.5]]

    def test_inline_matrix_has_the_bits_of_its_matrix_file(self, tmp_path):
        cells = [["0.1", "-2.5", "1.0e+3"], ["123456789.125", "7", "-0.0"]]
        (tmp_path / "m.csv").write_text("".join(",".join(row) + "\n" for row in cells))
        inline = "[" + ", ".join("[" + ", ".join(row) + "]" for row in cells) + "]"
        from_file, from_inline = (
            _matrix_model(tmp_path, amount).subprocesses[0].flows[0].amount.values
            for amount in ("{matrix_file: m.csv}", "{matrix: %s}" % inline))
        assert from_file.shape == from_inline.shape == (2, 3)
        assert from_file.tobytes() == from_inline.tobytes()

    @pytest.mark.parametrize("matrix, problem", [
        ("5", "matrix must be a list of rows"),
        ("[1.0, 2.0]", "matrix must be a list of rows"),
        ("[[1.0, 2.0], [3.0]]", "matrix rows must be non-empty and equal length"),
        ("[]", "matrix rows must be non-empty and equal length"),
        ("[[true, 1.0]]", "matrix cell: expected a number, got True"),
        ("[['1.5', 1.0]]", "matrix cell: expected a number, got '1.5'"),
    ], ids=["not_a_list", "not_rows", "ragged", "empty", "bool_cell", "string_cell"])
    def test_bad_inline_matrix_fails_naming_the_amount(self, tmp_path, matrix, problem):
        with pytest.raises(LoadError, match=re.escape(
                f"subprocess 's', flow 'f': amount: {problem}")):
            _matrix_model(tmp_path, "{matrix: %s}" % matrix)

    def test_matrix_csv_errors(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2\n3\n")
        with pytest.raises(LoadError, match="columns"):
            load_matrix_csv(ragged)
        localized = tmp_path / "localized.csv"
        localized.write_text('"1,5";"2,5"\n')
        with pytest.raises(LoadError, match="invalid number"):
            load_matrix_csv(localized)


class TestLoadBackgroundDb:
    def test_row_parsing(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("flow,unit_cost,GWP100\nelectricity,0.12,0.45\n")
        db = load_background_db(path)
        row = db.rows["electricity"]
        assert row.unit_cost == 0.12
        assert row.impacts["GWP100"] == 0.45

    def test_a_bad_byte_after_a_byte_order_mark_names_its_file_offset(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_bytes(b"\xef\xbb\xbfflow,unit_cost\n\xff\n")
        with pytest.raises(LoadError, match="byte 0xff in position 18: invalid start byte"):
            load_background_db(path)

    def test_duplicate_flow_key(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("flow,unit_cost,GWP100\na,1,2\na,3,4\n")
        with pytest.raises(LoadError, match="duplicate flow"):
            load_background_db(path)

    def test_missing_cost_column_defers_to_validation(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("flow,GWP100\nelectricity,0.45\n")
        db = load_background_db(path)  # load succeeds
        assert db.rows["electricity"].unit_cost is None
        from lcengine import FlowDefinition, ProcessModel, ScenarioGrid, SubProcessDefinition

        flow = FlowDefinition("electricity", "inflow", ScalarAmount(1.0),
                              background_ref="electricity")
        model = ProcessModel(
            "m",
            (SubProcessDefinition("s", ScalarAmount(1.0), (flow,)),),
            ScenarioGrid(1, 1),
            ("GWP100",),
        )
        report = validate_model(model, db)  # cost-mode validation fails later
        assert any("unit cost" in f.message for f in report.errors)

    def test_per_period_cells(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("flow,unit_cost,GWP100,AP\ngrid_mix,0.1,0.5;0.4;0.3,0.2\n")
        db = load_background_db(path)
        cell = db.rows["grid_mix"].impacts["GWP100"]
        assert cell.dtype == np.float64 and cell.tolist() == [0.5, 0.4, 0.3]
        assert not cell.flags.writeable
        assert db.rows["grid_mix"].impacts["AP"] == 0.2
        assert db.static_factors("grid_mix") == {"AP": 0.2}

    def test_inventory_columns(self, background_db):
        assert background_db.rows["natural_gas"].inventory == {"CO2": 36.0, "CH4": 0.15}
        assert background_db.rows["electricity"].inventory == {"CO2": 380.0, "NOx": 0.45}

    def test_static_factor_lookup(self, background_db):
        assert background_db.static_factors("CO2") == {"GWP100": 1.0}
        assert background_db.static_factors("unknown") == {}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("name,unit_cost\nx,1\n")
        with pytest.raises(LoadError, match="first column"):
            load_background_db(path)

    @pytest.mark.parametrize("rows", ["", "a,1,2,3\n"], ids=["no_rows", "one_row"])
    def test_empty_inventory_substance_fails_with_or_without_rows(self, tmp_path, rows):
        # the header is classified once, before any row is read
        path = tmp_path / "db.csv"
        path.write_text("flow,unit_cost,GWP100,inv:\n" + rows)
        with pytest.raises(LoadError, match="empty substance in inv: column") as info:
            load_background_db(path)
        assert info.value.line is None


class TestLoadDcfTables:
    def test_long_annual_table(self, tmp_path):
        lines = ["substance,category,mode,horizon,tau,factor"]
        lines += [f"CH4,GWP100,annual_step,,{tau},{1.0 / (tau + 1)}" for tau in range(101)]
        path = tmp_path / "dcf.csv"
        path.write_text("\n".join(lines) + "\n")
        tables = load_dcf_tables(path)
        assert len(tables) == 1
        assert tables[0].mode == "annual_step"
        assert len(tables[0].factors) == 101

    def test_single_fixed_horizon_row(self, tmp_path):
        path = tmp_path / "dcf.csv"
        path.write_text("substance,category,mode,horizon,tau,factor\n"
                        "CH4,GWP100,fixed_horizon,100,,28.0\n")
        tables = load_dcf_tables(path)
        assert tables[0].mode == "fixed_horizon"
        assert tables[0].horizon == 100
        assert tables[0].factors.tolist() == [28.0]

    def test_tau_gap_names_substance_and_missing(self, tmp_path):
        path = tmp_path / "dcf.csv"
        path.write_text("substance,category,mode,horizon,tau,factor\n"
                        "CO2,GWP100,annual_step,,0,1.0\n"
                        "CO2,GWP100,annual_step,,1,0.9\n"
                        "CO2,GWP100,annual_step,,3,0.8\n")
        with pytest.raises(LoadError) as exc_info:
            load_dcf_tables(path)
        assert "CO2" in str(exc_info.value) and "2" in str(exc_info.value)

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "dcf.csv"
        path.write_text("substance,category,mode,horizon,tau,factor\n"
                        "CO2,GWP100,sliding,,0,1.0\n")
        with pytest.raises(LoadError, match="mode"):
            load_dcf_tables(path)

    @pytest.mark.parametrize("tau", ["nan", "inf", "0.7"])
    def test_non_integer_tau_names_its_line(self, tmp_path, tau):
        path = tmp_path / "dcf.csv"
        path.write_text("substance,category,mode,horizon,tau,factor\n"
                        "CO2,GWP100,annual_step,,0,1.0\n"
                        f"CO2,GWP100,annual_step,,{tau},0.9\n")
        with pytest.raises(LoadError, match="tau: expected an integer") as exc_info:
            load_dcf_tables(path)
        assert exc_info.value.line == 3

    @pytest.mark.parametrize("horizon", ["inf", "1.5"])
    def test_non_integer_horizon_names_its_line(self, tmp_path, horizon):
        path = tmp_path / "dcf.csv"
        path.write_text("substance,category,mode,horizon,tau,factor\n"
                        f"CH4,GWP100,fixed_horizon,{horizon},,28.0\n")
        with pytest.raises(LoadError, match="horizon: expected an integer") as exc_info:
            load_dcf_tables(path)
        assert exc_info.value.line == 2

    @pytest.mark.parametrize("line", ["CO2,GWP100,annual_step,,1,nan",
                                      "CH4,GWP100,fixed_horizon,100,,inf"])
    def test_non_finite_factor_names_its_line(self, tmp_path, line):
        path = tmp_path / "dcf.csv"
        path.write_text("substance,category,mode,horizon,tau,factor\n"
                        "CO2,GWP100,annual_step,,0,1.0\n"
                        f"{line}\n")
        with pytest.raises(LoadError, match="factor: expected a finite number") as exc_info:
            load_dcf_tables(path)
        assert exc_info.value.line == 3

    def test_integral_float_tau_and_horizon_accepted(self, tmp_path):
        path = tmp_path / "dcf.csv"
        path.write_text("substance,category,mode,horizon,tau,factor\n"
                        "CO2,GWP100,annual_step,,0.0,1.0\n"
                        "CO2,GWP100,annual_step,,1e0,0.9\n"
                        "CH4,GWP100,fixed_horizon,100.0,,28.0\n")
        annual, fixed = load_dcf_tables(path)
        assert annual.factors.tolist() == [1.0, 0.9]
        assert fixed.horizon == 100


# blank lines, or a quoted field over two lines, before a bad record: the
# diagnostic names the line the bad record starts on
@pytest.mark.parametrize("load, text, message, line", [
    (load_background_db, "flow,unit_cost,GWP100\n\nsteel,1.0,2.0\n\nbad,abc,1.0\n",
     "bad: unit_cost: invalid number 'abc'", 5),
    (load_background_db, 'flow,unit_cost,GWP100\n"steel\nmill",1.0,2.0\n\n"bad,1.0,1.0\n',
     "row has 1 cells, header has 3", 5),
    (load_dcf_tables, "substance,category,mode,horizon,tau,factor\n\n"
                      "CO2,GWP100,annual_step,,0,1.0\n\nCO2,GWP100,annual_step,,1,abc\n",
     "CO2: factor: invalid number 'abc'", 5),
    (load_dcf_tables, 'substance,category,mode,horizon,tau,factor\n\n\n"CO2,GWP100\n',
     "row has 1 cells, expected 6", 4),
    (load_background_db, 'flow,unit_cost\n\na,1\n"' + "x" * 200_000 + '",1\n',
     "CSV parse error: field larger than field limit", 4),
    (load_matrix_csv, '"1\n",2\n\n5,x\n', "column 2: invalid number 'x'", 4),
    (load_matrix_csv, "1,2\n\n3\n", "row 2 has 1 columns, expected 2", 3),
], ids=["db_blank_lines", "db_unterminated_quote", "dcf_blank_lines",
        "dcf_unterminated_quote", "db_field_too_large", "matrix_quoted_newline",
        "matrix_short_row"])
def test_input_diagnostics_name_the_line_a_record_starts_on(tmp_path, load, text, message,
                                                            line):
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(LoadError, match=re.escape(message)) as exc_info:
        load(path)
    assert exc_info.value.line == line


def _payloads(heatplant, heatplant_uncertain, background_db, dcf_tables):
    unit = run_matrix(heatplant, background_db)
    mc = run_monte_carlo(heatplant_uncertain, background_db, n_runs=40, seed=7)
    dyn = run_dynamic(heatplant, background_db, dcf_tables)
    meta = {"mode": "test", "model": heatplant.name, "seed": 7,
            "config": {"note": "fixture, with commas", "threads": 2}}
    return [result_set(p, meta) for p in (unit, mc, dyn)]


def assert_result_sets_equal(a, b):
    assert a.payload_type == b.payload_type
    assert a.meta == b.meta
    pa, pb = a.payload, b.payload
    if a.payload_type == "monte_carlo":
        assert pa.n_runs == pb.n_runs and pa.seed == pb.seed
        for cat in pa.samples.categories:
            s1, s2 = pa.impact_stats[cat], pb.impact_stats[cat]
            for attr in ("mean", "sd", "p2_5", "p50", "p97_5"):
                assert np.array_equal(getattr(s1, attr), getattr(s2, attr))
        pa, pb = pa.samples, pb.samples
    if a.payload_type in ("unit", "monte_carlo"):
        assert pa.grid == pb.grid
        assert pa.categories == pb.categories
        for cat in pa.categories:
            assert np.array_equal(pa.impacts[cat], pb.impacts[cat])
        assert np.array_equal(pa.cost, pb.cost)
        assert list(pa.sp_unit_costs) == list(pb.sp_unit_costs)
        for sp in pa.sp_unit_costs:
            for cat in pa.categories:
                assert np.array_equal(pa.sp_unit_impacts[sp][cat], pb.sp_unit_impacts[sp][cat])
            assert np.array_equal(pa.sp_unit_costs[sp], pb.sp_unit_costs[sp])
            assert np.array_equal(pa.sp_exchange[sp], pb.sp_exchange[sp])
    else:
        assert pa.t_out == pb.t_out
        assert pa.categories == pb.categories
        for cat in pa.categories:
            assert np.array_equal(pa.impacts[cat], pb.impacts[cat])
            assert np.array_equal(pa.cumulative[cat], pb.cumulative[cat])
        assert list(pa.contributions) == list(pb.contributions)
        for sub in pa.contributions:
            for cat in pa.contributions[sub]:
                assert np.array_equal(pa.contributions[sub][cat], pb.contributions[sub][cat])


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_export_import_export_byte_identical(self, fmt, tmp_path, heatplant,
                                                 heatplant_uncertain, background_db,
                                                 dcf_tables):
        for i, rs in enumerate(_payloads(heatplant, heatplant_uncertain,
                                         background_db, dcf_tables)):
            first = tmp_path / f"{i}_first.{fmt}"
            second = tmp_path / f"{i}_second.{fmt}"
            export_results(rs, fmt, first)
            loaded = import_results(first)
            export_results(loaded, fmt, second)
            assert first.read_bytes() == second.read_bytes()
            assert_result_sets_equal(rs, loaded)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("mode", ["matrix", "monte_carlo", "dynamic"])
    def test_repeated_categories_are_computed_once(self, fmt, mode, tmp_path, heatplant,
                                                   heatplant_uncertain, background_db,
                                                   dcf_tables):
        cats = ["AP", "GWP100", "AP"]
        payload = {
            "matrix": lambda: run_matrix(heatplant, background_db, categories=cats),
            "monte_carlo": lambda: run_monte_carlo(heatplant_uncertain, background_db, 20, 7,
                                                   categories=cats),
            "dynamic": lambda: run_dynamic(heatplant, background_db, dcf_tables,
                                           categories=cats),
        }[mode]()
        unit = payload.samples if mode == "monte_carlo" else payload
        assert sorted(unit.categories) == ["AP", "GWP100"]
        rs = result_set(payload, {})
        path = tmp_path / f"r.{fmt}"
        export_results(rs, fmt, path)
        assert_result_sets_equal(rs, import_results(path))

    def test_static_csv_has_one_row_per_category_plus_cost(self, tmp_path):
        unit = run_static(simple_model(unit_impact=7.0, unit_cost=2.0), empty_db())
        path = tmp_path / "static.csv"
        export_results(result_set(unit, {}), "csv", path)
        import csv as csv_mod

        rows = list(csv_mod.reader(path.open()))
        impact_rows = [r for r in rows if r[0] == "impact"]
        cost_rows = [r for r in rows if r[0] == "cost"]
        assert len(impact_rows) == 1  # one category on a 1x1 grid
        assert len(cost_rows) == 1
        assert float(impact_rows[0][5]) == 7.0

    def test_mc_csv_stat_rows_match_recomputed_stats(self, tmp_path, heatplant_uncertain,
                                                     background_db):
        mc = run_monte_carlo(heatplant_uncertain, background_db, n_runs=33, seed=5)
        path = tmp_path / "mc.csv"
        export_results(result_set(mc, {}), "csv", path)
        import csv as csv_mod

        rows = list(csv_mod.reader(path.open()))
        samples = {}
        for r in rows:
            if r[0] == "impact" and r[4] == "GWP100" and r[3] == "0":
                samples[int(r[2])] = float(r[5])
        values = [samples[i] for i in range(33)]
        stats = {r[1]: float(r[5]) for r in rows
                 if r[0] == "stat" and r[4] == "GWP100" and r[3] == "0"}
        assert stats["mean"] == pytest.approx(oracle_mean(values), rel=1e-12)
        assert stats["sd"] == pytest.approx(oracle_sd(values), rel=1e-12)
        assert stats["p2.5"] == pytest.approx(oracle_percentile(values, 2.5), rel=1e-12)
        assert stats["p50"] == pytest.approx(oracle_percentile(values, 50), rel=1e-12)
        assert stats["p97.5"] == pytest.approx(oracle_percentile(values, 97.5), rel=1e-12)

    def test_json_meta_round_trip_lossless(self, tmp_path):
        unit = run_static(simple_model(), empty_db())
        meta = {"mode": "static", "seed": 0, "nested": {"a": [1, 2.5, "x"], "b": None}}
        path = tmp_path / "meta.json"
        export_results(result_set(unit, meta), "json", path)
        assert import_results(path).meta == meta

    def test_import_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(LoadError):
            import_results(path)
        path2 = tmp_path / "junk.csv"
        path2.write_text("hello\nworld\n")
        with pytest.raises(LoadError):
            import_results(path2)


@pytest.fixture(scope="module")
def mc_csv(tmp_path_factory, heatplant_uncertain, background_db):
    """A 2000-run Monte Carlo result CSV, about 110k data rows, and its result set."""
    rs = result_set(run_monte_carlo(heatplant_uncertain, background_db, n_runs=2000, seed=11),
                    {"mode": "montecarlo", "seed": 11})
    path = tmp_path_factory.mktemp("mc") / "mc.csv"
    export_results(rs, "csv", path)
    return path, rs


def _data_line(lines: list[bytes], prefix: bytes) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _corrupt(lines: list[bytes], case: str) -> list[bytes]:
    lines = list(lines)
    mid = _data_line(lines, b"sp_unit_cost,boiler_operation,1000,2,,")
    if case == "utf8_deep":
        i = 100_000 + _data_line(lines, b"impact,")
        lines[i] = lines[i].replace(b",", b",\xff", 1)
    elif case == "broken_quote":
        lines[mid] = lines[mid].replace(b"boiler_operation", b'"boiler_operation', 1)
    elif case == "truncated_last_row":
        lines[-1] = b",".join(lines[-1].split(b",")[:3])
    elif case == "missing_cell":
        del lines[mid]
    elif case == "duplicate_cell":
        lines.insert(mid, lines[mid])
    elif case == "empty_scenario":
        lines[mid] = lines[mid].replace(b",1000,", b",,", 1)
    elif case == "shape_mismatch":
        i = _data_line(lines, b"meta,payload_grid,")
        lines[i] = lines[i].replace(b'""scenarios"": 2000', b'""scenarios"": 2001', 1)
    return lines


def _edit_csv_grid(path, source, target=None):
    """Copy the rows of one grid of a result CSV, keyed by (section, name,
    category), to the ``target`` grid; without a target, drop them."""
    rows = list(csv.reader(path.open(newline="")))
    grid = [r for r in rows if (r[0], r[1], r[4]) == source]
    assert grid
    if target is None:
        rows = [r for r in rows if (r[0], r[1], r[4]) != source]
    else:
        rows += [[target[0], target[1], r[2], r[3], target[2], r[5]] for r in grid]
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


KINDS = ("unit", "monte_carlo", "dynamic")
NOT_HELD = r"rows a \w+ result does not have"

# (payload types, id, grid whose rows are copied, the copy's grid or None to
# drop them, the grid the error names, the problem)
CSV_CONTRACT = [
    (("unit", "monte_carlo"), "extra_category", ("impact", "", "GWP100"),
     ("impact", "", "EXTRA"), ("sp_unit_impact", "fuel_supply", "EXTRA"), "no rows"),
    (("unit", "monte_carlo"), "ghost_breakdown", ("sp_unit_impact", "fuel_supply", "GWP100"),
     ("sp_unit_impact", "ghost", "GWP100"), ("sp_unit_impact", "ghost", "GWP100"), NOT_HELD),
    (("unit", "monte_carlo"), "dropped_grid", ("sp_exchange", "boiler_operation", ""), None,
     ("sp_exchange", "boiler_operation", ""), "no rows"),
    (("monte_carlo",), "dropped_stat", ("stat", "p50", "AP"), None, ("stat", "p50", "AP"),
     "no rows"),
    (("dynamic",), "extra_category", ("dynamic_impact", "", "GWP100"),
     ("dynamic_impact", "", "EXTRA"), ("dynamic_cumulative", "", "EXTRA"), "no rows"),
    (("dynamic",), "extra_substance", ("dynamic_contribution", "CO2", "GWP100"),
     ("dynamic_contribution", "N2O", "EXTRA"), ("dynamic_contribution", "N2O", "EXTRA"),
     NOT_HELD),
    (("dynamic",), "dropped_grid", ("dynamic_cumulative", "", "AP"), None,
     ("dynamic_cumulative", "", "AP"), "no rows"),
]


class TestStreamedCsvImport:
    def test_mc_round_trip_2000_runs(self, mc_csv, tmp_path):
        path, rs = mc_csv
        loaded = import_results(path)
        assert_result_sets_equal(rs, loaded)
        again = tmp_path / "again.csv"
        export_results(loaded, "csv", again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("case, message", [
        ("utf8_deep", "not valid UTF-8: invalid start byte at byte"),
        ("broken_quote", "CSV parse error|row has"),
        ("truncated_last_row", "row has 3 cells"),
        ("missing_cell", "section 'sp_unit_cost', name 'boiler_operation', category '': "
                         "missing cell at scenario 1000, timestep 2"),
        ("duplicate_cell", "section 'sp_unit_cost', name 'boiler_operation', category '': "
                           "duplicate cell at scenario 1000, timestep 2"),
        ("empty_scenario", "section 'sp_unit_cost', name 'boiler_operation', category '': "
                           "empty or negative scenario"),
        ("shape_mismatch", "section 'impact', name '', category 'GWP100': rows cover 2000x5 "
                           "cells, payload_grid gives 2001x5"),
    ])
    def test_bad_csv_is_load_error_and_report_exit_2(self, mc_csv, tmp_path, capsys,
                                                     case, message):
        from lcengine.cli import main

        path = tmp_path / f"{case}.csv"
        data = b"".join(_corrupt(mc_csv[0].read_bytes().splitlines(True), case))
        path.write_bytes(data)
        if case == "utf8_deep":
            message += " %d$" % data.index(b"\xff")
        with pytest.raises(LoadError, match=message):
            import_results(path)
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and "Traceback" not in err

    def test_bad_row_diagnostic_names_its_line(self, mc_csv, tmp_path):
        lines = mc_csv[0].read_bytes().splitlines(True)
        i = _data_line(lines, b"cost,,7,3,,")
        lines[i] = lines[i].replace(b",7,3,", b",7,x,")
        path = tmp_path / "bad_row.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(LoadError, match="bad data row") as exc_info:
            import_results(path)
        assert exc_info.value.line == i + 1

    @pytest.mark.parametrize("row", [b"cost,,7,3,,1_0.5\n", b"cost,,7,0_3,,1.0\n"])
    def test_digit_group_underscores_are_bad_data_rows(self, mc_csv, tmp_path, row):
        lines = mc_csv[0].read_bytes().splitlines(True)
        i = _data_line(lines, b"cost,,7,3,,")
        lines[i] = row
        path = tmp_path / "underscore.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(LoadError, match="bad data row: digit-group underscore") as exc_info:
            import_results(path)
        assert exc_info.value.line == i + 1

    @pytest.mark.parametrize("scenario", ["7", "0", "-3", "99999"])
    def test_stat_row_with_a_scenario_is_load_error_and_report_exit_2(
            self, tmp_path, sample_results, capsys, scenario):
        from lcengine.cli import main

        path = tmp_path / "result.csv"
        export_results(sample_results["monte_carlo"], "csv", path)
        path.write_text(path.read_text().replace("stat,mean,,0,GWP100,",
                                                 f"stat,mean,{scenario},0,GWP100,"))
        where = "section 'stat', name 'mean', category 'GWP100': "
        with pytest.raises(LoadError, match=re.escape(f"{where}scenario {scenario} on a stat")):
            import_results(path)
        assert main(["report", str(path)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ("impact,,-1,0,GWP100,1.0\n", "empty or negative scenario"),
        ("impact,,0,-2,GWP100,1.0\n", "negative timestep"),
        ("stat,mean,,0,GWP100,1.0\n", "rows a unit result does not have"),
    ])
    def test_unit_csv_rejects_foreign_rows(self, tmp_path, extra, message):
        path = tmp_path / "unit.csv"
        export_results(result_set(run_static(simple_model(), empty_db()), {}), "csv", path)
        path.write_text(path.read_text() + extra)
        with pytest.raises(LoadError, match=message):
            import_results(path)

    @pytest.mark.parametrize("kind, source, target, grid, problem", [
        pytest.param(kind, *args, id=f"{kind}-{case_id}")
        for kinds, case_id, *args in CSV_CONTRACT for kind in kinds
    ])
    def test_layout_contract(self, tmp_path, sample_results, capsys, kind, source, target,
                             grid, problem):
        from lcengine.cli import main

        path = tmp_path / "result.csv"
        export_results(sample_results[kind], "csv", path)
        _edit_csv_grid(path, source, target)
        where = f"section {grid[0]!r}, name {grid[1]!r}, category {grid[2]!r}: "
        with pytest.raises(LoadError, match=re.escape(where) + problem):
            import_results(path)
        plots = tmp_path / "plots"
        assert main(["report", str(path), "--plot-data", str(plots)]) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert not plots.exists()


# ---------------------------------------------------------------------------
# the block path gives the per-row path's grids and meta, or its error


def _rearranged(data: bytes, arrange) -> bytes:
    """A result CSV with the lines after its header in the order
    ``arrange(meta lines, data lines)`` gives."""
    header, *lines = data.splitlines(True)
    meta = [line for line in lines if line.startswith(b"meta,")]
    rows = [line for line in lines if not line.startswith(b"meta,")]
    return b"".join([header, *arrange(meta, rows)])


def _split_grid(meta: list[bytes], rows: list[bytes]) -> list[bytes]:
    """The GWP100 impact grid's rows after its tenth moved to the end."""
    moved = [line for line in rows if line.startswith(b"impact,,")][10:]
    return meta + [line for line in rows if line not in moved] + moved


def _shifted_commas(data: bytes) -> bytes:
    """``data`` with pairs of GWP100 impact rows in which the first row is a
    comma short and the second one over: five commas to a line on average."""
    for scenario in (3, 4, 5):
        for t in (0, 2):
            short, over = (b"\nimpact,,%d,%d,GWP100," % (scenario, t + k) for k in (0, 1))
            data = data.replace(short, short[:-8] + b"GWP100,", 1)
            data = data.replace(over, over[:-7] + b",GWP100,", 1)
    return data


def _sample_csv(sample_results, tmp_path, kind: str, edit=None) -> bytes:
    path = tmp_path / f"{kind}.csv"
    export_results(sample_results[kind], "csv", path)
    if edit is not None:
        _edit_csv_grid(path, *edit)
    return path.read_bytes()


def _names_csv(tmp_path, kind: str) -> bytes:
    """A result whose names hold commas, quotes and newlines."""
    from test_result_text import random_result

    path = tmp_path / f"names_{kind}.csv"
    export_results(random_result(kind, 3), "csv", path)
    return path.read_bytes()


def _unit_csv(tmp_path, extra: bytes) -> bytes:
    path = tmp_path / "unit.csv"
    export_results(result_set(run_static(simple_model(), empty_db()), {}), "csv", path)
    return path.read_bytes() + extra


def _mc_lines(mc_csv) -> list[bytes]:
    return mc_csv[0].read_bytes().splitlines(True)


def _comma_name(mc_csv) -> bytes:
    """The Monte Carlo CSV as the writer gives it for a subprocess whose
    name holds a comma: quoted, on about 40k rows."""
    return mc_csv[0].read_bytes().replace(b",fuel_supply,", b',"fuel_supply, gas",')


def _bad_row_then_bad_utf8(lines: list[bytes]) -> list[bytes]:
    """A bad value in the 100th data row, and an invalid UTF-8 byte in the
    800th: about 30 KB apart, in the first 64 KiB block of data lines."""
    lines = list(lines)
    first = _data_line(lines, b"impact,")
    lines[first + 100] = lines[first + 100].rsplit(b",", 1)[0] + b",x\n"
    lines[first + 800] = lines[first + 800].replace(b",", b",\xff", 1)
    return lines


# each case: its id, and a function of (sample results, the 2000-run
# Monte Carlo CSV, a scratch directory) that gives the file's bytes
BLOCK_CASES = {
    **{kind: lambda sr, mc, tmp, kind=kind: _sample_csv(sr, tmp, kind) for kind in KINDS},
    "crlf": lambda sr, mc, tmp: _sample_csv(sr, tmp, "monte_carlo").replace(b"\n", b"\r\n"),
    **{f"names-{kind}": lambda sr, mc, tmp, kind=kind: _names_csv(tmp, kind) for kind in KINDS},
    **{case: lambda sr, mc, tmp, arrange=arrange: _rearranged(
        _sample_csv(sr, tmp, "monte_carlo"), arrange) for case, arrange in (
        ("reversed", lambda meta, rows: meta + rows[::-1]),
        ("interleaved", lambda meta, rows: meta + sorted(
            rows, key=lambda line: line.split(b",")[2:4])),
        ("split", _split_grid),
        ("meta_after_data", lambda meta, rows: rows + meta))},
    "no_final_newline": lambda sr, mc, tmp: _sample_csv(sr, tmp, "dynamic")[:-1],
    "bare_cr_line_end": lambda sr, mc, tmp: _sample_csv(sr, tmp, "monte_carlo").replace(
        b"\nsp_exchange,", b"\rsp_exchange,", 1),
    "shifted_commas": lambda sr, mc, tmp: _shifted_commas(_sample_csv(sr, tmp, "monte_carlo")),
    "joined_lines": lambda sr, mc, tmp: _sample_csv(sr, tmp, "monte_carlo").replace(
        b"\nimpact,,3,2,GWP100,", b",impact,,3,2,GWP100,", 1),
    "cr_in_field": lambda sr, mc, tmp: _sample_csv(sr, tmp, "monte_carlo").replace(
        b"\nsp_exchange,", b"\nsp_ex\rchange,", 1),
    "bad_meta_after_data": lambda sr, mc, tmp: (_sample_csv(sr, tmp, "monte_carlo")
                                                + b"meta,note,,,,x\n"),
    # a line longer than csv.field_size_limit(), its fields at and past it
    **{f"long_line-{extra}": lambda sr, mc, tmp, extra=extra: _sample_csv(sr, tmp, "unit").replace(
        b"\ncost,,", b"\ncost,%s," % (b"x" * (csv.field_size_limit() + extra)), 1)
       for extra in (0, 1)},
    "mc_2000": lambda sr, mc, tmp: mc[0].read_bytes(),
    **{f"mc_2000-{case}": lambda sr, mc, tmp, case=case: b"".join(_corrupt(_mc_lines(mc), case))
       for case in ("utf8_deep", "broken_quote", "truncated_last_row", "missing_cell",
                    "duplicate_cell", "empty_scenario", "shape_mismatch")},
    # a late deviation: the whole file in the writer's layout but its end
    "mc_2000-swapped_last_rows": lambda sr, mc, tmp: _rearranged(
        mc[0].read_bytes(), lambda meta, rows: meta + rows[:-2] + rows[:-3:-1]),
    "mc_2000-bad_row_then_bad_utf8": lambda sr, mc, tmp: b"".join(
        _bad_row_then_bad_utf8(_mc_lines(mc))),
    "mc_2000-comma_name": lambda sr, mc, tmp: _comma_name(mc),
    "mc_2000-comma_name-extra_cell": lambda sr, mc, tmp: re.sub(
        rb'(\nsp_exchange,"fuel_supply, gas",0,3,,[^\n]*)', rb"\1,0", _comma_name(mc), count=1),
    **{f"blank_before_header-{i}": lambda sr, mc, tmp, lead=lead: lead + _sample_csv(
        sr, tmp, "unit") for i, lead in enumerate((b"\n\n", b" \n", b"   ", b"\r\n\t"))},
    **{f"mc_2000-row-{i}": lambda sr, mc, tmp, row=row: b"".join(
        row if line.startswith(b"cost,,7,3,,") else line for line in _mc_lines(mc))
       for i, row in enumerate((b"cost,,7,x,,1.0\n", b"cost,,7,3,,1_0.5\n",
                                b"cost,,7,0_3,,1.0\n"))},
    **{f"unit-foreign-{i}": lambda sr, mc, tmp, extra=extra: _unit_csv(tmp, extra)
       for i, extra in enumerate((b"impact,,-1,0,GWP100,1.0\n", b"impact,,0,-2,GWP100,1.0\n",
                                  b"stat,mean,,0,GWP100,1.0\n"))},
    # a meta value nested deeper than json parses
    "deep_meta": lambda sr, mc, tmp: _sample_csv(sr, tmp, "unit").replace(
        b"\nmeta,", b"\nmeta,deep,,,,%s%s\nmeta," % (b"[" * 60000, b"]" * 60000), 1),
    # dimensions that the file is far too small to hold
    "huge_payload_grid": lambda sr, mc, tmp: _sample_csv(sr, tmp, "monte_carlo").replace(
        b'""scenarios"": 6,', b'""scenarios"": 1000000000,', 1),
    "stat_scenario": lambda sr, mc, tmp: _sample_csv(sr, tmp, "monte_carlo").replace(
        b"stat,mean,,0,GWP100,", b"stat,mean,7,0,GWP100,"),
    **{f"{kind}-{case_id}": lambda sr, mc, tmp, kind=kind, edit=(source, target):
       _sample_csv(sr, tmp, kind, edit)
       for kinds, case_id, source, target, *_ in CSV_CONTRACT for kind in kinds},
    # blank lines after the last row, which both readers skip
    **{f"trailing_blank-{i}": lambda sr, mc, tmp, end=end: _sample_csv(sr, tmp, "monte_carlo") + end
       for i, end in enumerate((b"\n", b"\r\n", b"\n\n\n", b"\r", b"\n\r\n\r"))},
    "crlf-trailing_blank": lambda sr, mc, tmp: _sample_csv(sr, tmp, "monte_carlo").replace(
        b"\n", b"\r\n") + b"\r\n\r\n",
    "mc_2000-trailing_blank": lambda sr, mc, tmp: mc[0].read_bytes() + b"\n" * 500,
    "meta_only-trailing_blank": lambda sr, mc, tmp: b"".join(
        line for line in _sample_csv(sr, tmp, "unit").splitlines(True)
        if line.startswith((b"section,", b"meta,"))) + b"\n",
    # a blank line that a row follows: a row of 0 cells at the blank line
    "blank_between_rows": lambda sr, mc, tmp: _sample_csv(sr, tmp, "monte_carlo").replace(
        b"\nimpact,,3,2,GWP100,", b"\n\nimpact,,3,2,GWP100,", 1),
    "blank_after_meta": lambda sr, mc, tmp: _sample_csv(sr, tmp, "monte_carlo").replace(
        b"\nimpact,", b"\n\nimpact,", 1),
    "blank_then_last_row": lambda sr, mc, tmp: b"\n\n".join(
        _sample_csv(sr, tmp, "monte_carlo").rsplit(b"\n", 2)[:2]) + b"\n",
    "blank_then_bad_row": lambda sr, mc, tmp: (_sample_csv(sr, tmp, "monte_carlo")
                                               + b"\n\nimpact,,0\n"),
    "blank_then_broken_quote": lambda sr, mc, tmp: (_sample_csv(sr, tmp, "monte_carlo")
                                                    + b'\n"impact,,0,0,GWP100,1.0\n'),
    "mc_2000-blank_then_rows": lambda sr, mc, tmp: mc[0].read_bytes().replace(
        b"\nsp_exchange,", b"\n\r\nsp_exchange,", 1),
}


@pytest.mark.parametrize("block_chars", [None, 300], ids=["default blocks", "300-char blocks"])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_path_agrees_with_row_path(case, block_chars, sample_results, mc_csv, tmp_path,
                                         monkeypatch):
    path = tmp_path / "result.csv"
    path.write_bytes(BLOCK_CASES[case](sample_results, mc_csv, tmp_path))
    if block_chars:
        monkeypatch.setattr(lc_io, "_IMPORT_BLOCK_CHARS", block_chars)
    plain = []
    plain_fields = lc_io._plain_fields
    monkeypatch.setattr(lc_io, "_plain_fields",
                        lambda lines: plain.append(plain_fields(lines)) or plain[-1])
    fast = import_outcome(path)
    if case in KINDS + ("crlf", "mc_2000", "split", "stat_scenario") and block_chars:
        assert any(columns is not None for columns in plain)
    monkeypatch.setattr(lc_io, "_plain_fields", lambda lines: None)
    assert fast == import_outcome(path)


def test_a_bad_row_wins_over_a_later_bad_byte_in_its_block(mc_csv, tmp_path):
    lines = _bad_row_then_bad_utf8(_mc_lines(mc_csv))
    path = tmp_path / "result.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(LoadError, match="bad data row") as exc_info:
        import_results(path)
    assert exc_info.value.line == _data_line(lines, b"impact,") + 101


def test_a_quoted_name_keeps_the_writer_layout(mc_csv, tmp_path, monkeypatch):
    path = tmp_path / "result.csv"
    path.write_bytes(_comma_name(mc_csv))
    monkeypatch.setattr(lc_io, "_row_grids", None)  # the row reader must not be called
    rs = import_results(path)
    assert "fuel_supply, gas" in rs.payload.samples.sp_exchange
    export_results(rs, "csv", tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def _outcome_through_a_pipe(path, data: bytes):
    """What ``import_results`` makes of ``data`` written to a FIFO at ``path``."""
    os.mkfifo(path)

    def write():
        try:
            path.write_bytes(data)
        except BrokenPipeError:  # the import stopped at an error
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return import_outcome(path)
    finally:
        writer.join()
        path.unlink()


@pytest.mark.parametrize("case", ["mc_2000", "mc_2000-bad_row_then_bad_utf8", "mc_2000-utf8_deep",
                                  "reversed", "trailing_blank-2", "blank_between_rows"])
def test_a_result_csv_imports_from_a_pipe(case, sample_results, mc_csv, tmp_path):
    """A pipe cannot be read twice; the row reader reads it all, and names
    an invalid byte by its offset, as in a regular file."""
    data = BLOCK_CASES[case](sample_results, mc_csv, tmp_path)
    path = tmp_path / "result.csv"
    path.write_bytes(data)
    expected = import_outcome(path)
    path.unlink()
    assert _outcome_through_a_pipe(path, data) == expected


@pytest.mark.parametrize("lead", [b"\n\n", b" \n", b"\r\n\t \r\n", b"\r\r\n"])
def test_blank_lines_before_a_csv_header_are_skipped(lead, mc_csv, tmp_path):
    """The file imports as it does without them, and diagnostics count them."""
    lines = _mc_lines(mc_csv)
    path = tmp_path / "result.csv"
    path.write_bytes(lead + b"".join(lines))
    assert import_outcome(path) == import_outcome(mc_csv[0])
    lines[7] = b"meta,bad,,,,x\n"
    path.write_bytes(lead + b"".join(lines))
    with pytest.raises(LoadError, match="bad meta value for 'bad'") as exc_info:
        import_results(path)
    assert exc_info.value.line == 8 + len(lead.splitlines())


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\n\n\r\n"])
def test_blank_lines_after_the_last_row_are_skipped(end, mc_csv, tmp_path):
    """A blank line an editor leaves at the end: the file imports as the
    original does."""
    path = tmp_path / "result.csv"
    path.write_bytes(mc_csv[0].read_bytes() + end)
    assert import_outcome(path) == import_outcome(mc_csv[0])


def test_a_blank_line_between_rows_names_its_line(mc_csv, tmp_path):
    lines = _mc_lines(mc_csv)
    at = _data_line(lines, b"sp_exchange,")
    path = tmp_path / "result.csv"
    path.write_bytes(b"".join(lines[:at] + [b"\n", b"\n"] + lines[at:]))
    with pytest.raises(LoadError, match="row has 0 cells, expected 6") as exc_info:
        import_results(path)
    assert exc_info.value.line == at + 1


def _row_constant_csv(tmp_path, n_t: int, respell: tuple = ()) -> bytes:
    """A static result CSV of 9 scenarios whose every grid is constant along
    its ``n_t`` time steps, -0.0 and NaN among the values; with ``respell``,
    the impact grid's row of 2.0 is written as those texts instead."""
    column = np.array([1.5, -0.0, np.nan, 0.1, 2.0, 1 / 3, -7.25, 1e300, 5e-324])
    grid = np.repeat(column[:, None], n_t, axis=1)
    unit = UnitResult(grid=ScenarioGrid(9, n_t), categories=("GWP100",),
                      impacts={"GWP100": grid}, cost=-grid,
                      sp_unit_impacts={"sp": {"GWP100": grid}}, sp_unit_costs={"sp": grid},
                      sp_exchange={"sp": np.ones((9, n_t))})
    path = tmp_path / f"rows_{n_t}.csv"
    export_results(result_set(unit, {}), "csv", path)
    data = path.read_bytes()
    for t, text in enumerate(respell[:n_t]):
        row = b"\nimpact,,4,%d,GWP100," % t
        data = data.replace(row + b"2.0\n", row + text + b"\n", 1)
    return data


# texts of one row of a grid: of one value, and of one value but the last
RESPELLINGS = {"none": (), "same_value": (b"1.0", b"1.00", b"1e0", b"1.000", b"10e-1"),
               "last_differs": (b"1.0", b"1.00", b"1e0", b"1.000", b"2.0")}


@pytest.mark.parametrize("respell", list(RESPELLINGS))
@pytest.mark.parametrize("n_t", [1, 2, 5])
def test_row_constant_runs_read_as_the_row_reader_reads_them(n_t, respell, tmp_path,
                                                              monkeypatch):
    """Blocks that cut a row at every offset: each grid's bits, and the
    outcome, are those of the row reader."""
    path = tmp_path / "result.csv"
    path.write_bytes(_row_constant_csv(tmp_path, n_t, RESPELLINGS[respell]))
    heads = set()
    run_values = lc_io._run_values
    monkeypatch.setattr(lc_io, "_run_values",
                        lambda run, head, n: heads.add(head) or run_values(run, head, n))
    monkeypatch.setattr(lc_io, "_row_grids", mock.Mock(wraps=lc_io._row_grids))
    outcomes = []
    for block_chars in range(1, 200, 3):
        monkeypatch.setattr(lc_io, "_IMPORT_BLOCK_CHARS", block_chars)
        outcomes.append(import_outcome(path))
    assert heads == set(range(n_t))
    assert not lc_io._row_grids.called  # every block size kept the block reader
    monkeypatch.setattr(lc_io, "_plain_fields", lambda text: None)
    rows = import_outcome(path)
    assert outcomes == [rows] * len(outcomes)
    impact = dict(((g[0], g[1], g[2]), g[5]) for g in rows[3])["impact", "", "GWP100"]
    row = np.frombuffer(impact, dtype=np.float64).reshape(9, n_t)[4]
    spelled = [float(text) for text in RESPELLINGS[respell][:n_t]]
    assert row.tolist() == spelled + [2.0] * (n_t - len(spelled))


def test_a_repeated_row_text_is_converted_once(mc_csv, tmp_path, monkeypatch):
    """Every grid of the Monte Carlo CSV is constant along time, so the block
    reader converts one text a row, and a few cells at each block's edges."""
    converted = []
    floats = lc_io._floats
    monkeypatch.setattr(lc_io, "_floats", lambda texts: converted.append(len(texts))
                        or floats(texts))
    outcome = import_outcome(mc_csv[0])
    n_t = mc_csv[1].payload.samples.grid.n_timesteps
    cells = sum(grid.size for *_, grid in lc_io._payload_grids("monte_carlo", mc_csv[1].payload))
    assert n_t == 5 and cells > 100_000
    assert sum(converted) < cells / n_t + 2 * n_t * len(converted)
    assert sum(converted) < cells / 4
    monkeypatch.setattr(lc_io, "_plain_fields", lambda text: None)
    assert import_outcome(mc_csv[0]) == outcome


# ---------------------------------------------------------------------------
# a JSON result: the writer-layout reader gives the whole-file reader's grids
# and meta, or its error


@pytest.fixture(scope="module")
def mc_json(mc_csv, tmp_path_factory):
    """The 2000-run Monte Carlo result as JSON."""
    path = tmp_path_factory.mktemp("mc") / "mc.json"
    export_results(mc_csv[1], "json", path)
    return path.read_bytes()


def _sample_json(sample_results, tmp_path, kind: str) -> bytes:
    path = tmp_path / f"{kind}.json"
    export_results(sample_results[kind], "json", path)
    return path.read_bytes()


def _names_json(tmp_path, kind: str) -> bytes:
    """A result whose names hold commas, quotes, newlines and non-ASCII, and
    whose meta holds a grid of floats."""
    from test_result_text import random_result

    rs = random_result(kind, 3)
    rs.meta = {"note": 'say "hi"', "floats": [[1.5, -0.0], [2.0, 5e-324]]}
    path = tmp_path / f"names_{kind}.json"
    export_results(rs, "json", path)
    return path.read_bytes()


def _edited_json(data: bytes, edit) -> bytes:
    """A JSON result as ``json.dumps(doc, indent=2)`` writes it after
    ``edit(doc)``: the writer's layout."""
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc, indent=2).encode("utf-8") + b"\n"


def _cell_line(data: bytes, key: bytes, after: int, edit) -> bytes:
    """``data`` with ``edit(line)`` for the line ``after`` lines past the
    last one that holds ``key``."""
    lines = data.splitlines(True)
    i = max(i for i, line in enumerate(lines) if key in line) + after
    lines[i] = edit(lines[i])
    return b"".join(lines)


def _cell(data: bytes, text: bytes, key: bytes = b'"cost": [', after: int = 3) -> bytes:
    """The value of a grid cell replaced by ``text``; by default the third
    cell of the first row of the cost grid."""
    return _cell_line(data, key, after,
                      lambda line: re.sub(rb"[-\w.+]+", lambda m: text, line, count=1))


def _grid_corner(data: bytes, keys: tuple, corner: int, value: float) -> bytes:
    """``data`` with the first (``corner`` 0) or last (-1) cell of the payload
    grid under ``keys`` set to ``value``, in the writer's layout."""
    def edit(doc):
        grid = doc["payload"]
        for key in keys:
            grid = grid[key]
        grid[corner][corner] = value
    return _edited_json(data, edit)


MC_SAMPLE = "monte_carlo"
# each case: its id, whether the file is in the writer's layout, and a
# function of (sample results, the 2000-run Monte Carlo JSON, a scratch
# directory) that gives the file's bytes
JSON_CASES = {
    **{kind: (True, lambda sr, mc, tmp, kind=kind: _sample_json(sr, tmp, kind))
       for kind in KINDS},
    **{f"names-{kind}": (True, lambda sr, mc, tmp, kind=kind: _names_json(tmp, kind))
       for kind in KINDS},
    "mc_2000": (True, lambda sr, mc, tmp: mc),
    "blank_lines_before": (True, lambda sr, mc, tmp: b"\n \n\t" + _sample_json(sr, tmp, "unit")),
    "no_final_newline": (True, lambda sr, mc, tmp: _sample_json(sr, tmp, "dynamic")[:-1]),
    # a name that holds the text that opens a grid
    "grid_opener_in_a_name": (True, lambda sr, mc, tmp: _sample_json(sr, tmp, MC_SAMPLE).replace(
        b'"fuel_supply"', b'"fuel\\": [\\n"')),
    # a list of lists holding an integer in meta, which comes before the
    # payload's grids, so it is not taken for one
    "int_grid_in_meta": (True, lambda sr, mc, tmp: _sample_json(sr, tmp, "unit").replace(
        b'"mode": "static"', b'"pairs": [\n      [\n        1,\n        2\n      ]\n    ]', 1)),
    # non-finite cells, which the writer writes as json.dumps does
    **{f"cell-{case}": (True, lambda sr, mc, tmp, text=text: _cell(
        _sample_json(sr, tmp, MC_SAMPLE), text)) for case, text in (
        ("nan", b"NaN"), ("infinity", b"-Infinity"))},
    "first_cell-infinity": (True, lambda sr, mc, tmp: _grid_corner(
        _sample_json(sr, tmp, MC_SAMPLE), ("samples", "cost"), 0, math.inf)),
    "first_cell-nan": (True, lambda sr, mc, tmp: _grid_corner(
        _sample_json(sr, tmp, "unit"), ("impacts", "GWP100"), 0, math.nan)),
    # the last cell of the file's last grid
    "last_cell-nan": (True, lambda sr, mc, tmp: _grid_corner(
        _sample_json(sr, tmp, "dynamic"), ("contributions", "NOx", "AP"), -1, math.nan)),
    # the deviations, each read whole by json
    "indent_4": (False, lambda sr, mc, tmp: json.dumps(
        json.loads(_sample_json(sr, tmp, MC_SAMPLE)), indent=4).encode()),
    "compact": (False, lambda sr, mc, tmp: json.dumps(
        json.loads(_sample_json(sr, tmp, MC_SAMPLE)), separators=(",", ":")).encode()),
    "crlf": (False, lambda sr, mc, tmp: _sample_json(sr, tmp, MC_SAMPLE).replace(b"\n", b"\r\n")),
    **{f"cell-{case}": (False, lambda sr, mc, tmp, text=text: _cell(
        _sample_json(sr, tmp, MC_SAMPLE), text)) for case, text in (
        ("int", b"7"), ("huge_int", b"1" * 5000),
        ("string", b'"1.5"'), ("escape_in_string", b'"\\u0031.5"'), ("bare_escape", b"\\u0031"),
        ("true", b"true"), ("null", b"null"), ("list", b"[1.5]"), ("object", b"{}"),
        ("two_numbers", b"1.5 2.5"), ("not_a_number", b"1.5x"))},
    "ragged": (False, lambda sr, mc, tmp: _cell_line(
        _sample_json(sr, tmp, MC_SAMPLE), b'"cost": [', 3, lambda line: b"")),
    # a cell moved from the second row to the first: as many cells as the
    # first row's width times the rows
    "ragged_same_cells": (False, lambda sr, mc, tmp: _edited_json(
        _sample_json(sr, tmp, MC_SAMPLE), lambda doc: doc["payload"]["samples"]["cost"][0].append(
            doc["payload"]["samples"]["cost"][1].pop()))),
    # a grid opener, and a grid, inside a string that holds raw newlines
    "grid_inside_a_string": (False, lambda sr, mc, tmp: re.sub(
        rb'"cost": (\[\n.*?\n    \])', rb'"cost": ": \1"', _sample_json(sr, tmp, "unit"),
        count=1, flags=re.S)),
    "nan_in_meta": (False, lambda sr, mc, tmp: _sample_json(sr, tmp, MC_SAMPLE).replace(
        b'"seed": 2', b'"seed": NaN', 1)),
    "deep_meta": (False, lambda sr, mc, tmp: _sample_json(sr, tmp, "unit").replace(
        b'"mode": "static"', b'"deep": %s%s' % (b"[" * 60000, b"]" * 60000), 1)),
    "utf8_meta": (False, lambda sr, mc, tmp: _sample_json(sr, tmp, "unit").replace(
        b'"static"', b'"st\xffatic"', 1)),
    "mc_2000-utf8_deep": (False, lambda sr, mc, tmp: _cell_line(
        mc, b'"boiler_operation": [', 7003, lambda line: line[:-3] + b"\xff" + line[-3:])),
    "mc_2000-int_deep": (False, lambda sr, mc, tmp: _cell(
        mc, b"7", b'"boiler_operation": [', 7003)),
    "missing_comma": (False, lambda sr, mc, tmp: _cell_line(
        _sample_json(sr, tmp, MC_SAMPLE), b'"cost": [', 7, lambda line: line.replace(b",", b""))),
    "truncated": (False, lambda sr, mc, tmp: mc[:len(mc) // 2]),
    "trailing_garbage": (False, lambda sr, mc, tmp: _sample_json(sr, tmp, "unit") + b"x"),
    # breaches of the reader contract, in the writer's layout: the same error
    **{f"{kind}-{case_id}": (True, lambda sr, mc, tmp, kind=kind, edit=edit: _edited_json(
        _sample_json(sr, tmp, kind), lambda doc: edit(doc["payload"])))
       for kinds, case_id, edit, *_ in JSON_CONTRACT for kind in kinds},
}


def _json_outcomes(path, monkeypatch) -> tuple:
    """The import outcome of ``path``, whether the writer-layout reader read
    it, and the outcome of the whole-file reader alone."""
    read = []
    writer_layout_doc = lc_io._writer_layout_doc

    def recorded(fh, head):
        read.append(False)
        doc = writer_layout_doc(fh, head)
        read[-1] = True
        return doc

    monkeypatch.setattr(lc_io, "_writer_layout_doc", recorded)
    outcome = import_outcome(path)
    monkeypatch.setattr(lc_io, "_writer_layout_doc", mock.Mock(side_effect=lc_io._NotWriterLayout))
    return outcome, read == [True], import_outcome(path)


@pytest.mark.parametrize("block_chars", [None, 100], ids=["default blocks", "100-char blocks"])
@pytest.mark.parametrize("case", list(JSON_CASES))
def test_json_readers_agree(case, block_chars, sample_results, mc_json, tmp_path, monkeypatch):
    writer_layout, make = JSON_CASES[case]
    path = tmp_path / "result.json"
    path.write_bytes(make(sample_results, mc_json, tmp_path))
    if block_chars:  # smaller than a row of the sample results
        monkeypatch.setattr(lc_io, "_IMPORT_BLOCK_CHARS", block_chars)
    outcome, read, whole = _json_outcomes(path, monkeypatch)
    assert read == writer_layout
    assert outcome == whole


@pytest.mark.parametrize("case", ["monte_carlo", "mc_2000", "mc_2000-utf8_deep", "truncated"])
def test_a_result_json_imports_from_a_pipe(case, sample_results, mc_json, tmp_path):
    """A pipe is read whole, and an invalid byte is named by its offset, as
    in a regular file."""
    data = JSON_CASES[case][1](sample_results, mc_json, tmp_path)
    path = tmp_path / "result.json"
    path.write_bytes(data)
    expected = import_outcome(path)
    path.unlink()
    assert _outcome_through_a_pipe(path, data) == expected


def test_a_json_import_holds_about_its_grids(tmp_path):
    """A 6 MB result in the writer's layout imports into memory for its
    grids and a few blocks of text and decoded rows, not for its text."""
    rng = np.random.default_rng(5)
    shape, cats, sps = (300, 60), ("GWP100", "AP"), ("a", "b")
    grids = {}

    def grid():
        grids[len(grids)] = rng.standard_normal(shape)
        return grids[len(grids) - 1]

    unit = UnitResult(grid=ScenarioGrid(*shape), categories=cats,
                      impacts={cat: grid() for cat in cats}, cost=grid(),
                      sp_unit_impacts={sp: {cat: grid() for cat in cats} for sp in sps},
                      sp_unit_costs={sp: grid() for sp in sps},
                      sp_exchange={sp: grid() for sp in sps})
    path = tmp_path / "result.json"
    export_results(result_set(unit, {}), "json", path)
    grid_bytes = sum(grid.nbytes for grid in grids.values())
    tracemalloc.start()
    try:
        import_results(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text alone is about four times the grids' bytes
    assert path.stat().st_size > 3.5 * grid_bytes
    # room for the growth of a grid's array
    assert peak < 1.5 * grid_bytes + 8 * lc_io._IMPORT_BLOCK_CHARS
