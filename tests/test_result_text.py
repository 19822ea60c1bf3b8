"""Result text: the grid-row writer against the frozen per-cell emitters,
the JSON import's shape checks and grid hook, and the matrix CSV readers."""

import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcengine import (
    DynamicImpactResult,
    LoadError,
    MonteCarloResult,
    ScenarioGrid,
    SummaryStats,
    UnitResult,
    export_results,
    import_results,
    load_background_db,
    load_dcf_tables,
    load_matrix_csv,
    result_set,
    run_matrix,
    run_monte_carlo,
)
from lcengine import io as lc_io
from lcengine.cli import main

from oracles import oracle_plot_data, oracle_result_csv, oracle_result_json

# names a CSV field must quote, an empty one, one the %-templates must escape
# and one JSON escapes
NAMES = ("a,b", 'say "hi"', "two\nlines", "", "50%", "café")
SPECIAL = (-0.0, 5e-324, 1e-310, 1e16, 1e22, 0.1, 1 / 3, -1e-7, 2.0 ** 60, 123456789.125)
META = {"mode": "test", "note": "with, comma", 7: "int key",
        "nested": {"pairs": [[1, 2], [3.5, 4]], "none": None}}


def _cells(rng, shape, nonfinite: bool) -> np.ndarray:
    grid = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    flat = grid.reshape(-1)
    specials = SPECIAL + ((np.nan, np.inf, -np.inf) if nonfinite else ())
    at = rng.choice(flat.size, size=min(flat.size, len(specials)), replace=False)
    flat[at] = specials[:at.size]
    return grid


def _unit(rng, shape, nonfinite) -> UnitResult:
    cats, sps = NAMES[:4], NAMES[2:]
    cell = lambda: _cells(rng, shape, nonfinite)
    return UnitResult(
        grid=ScenarioGrid(*shape),
        categories=cats,
        impacts={c: cell() for c in cats},
        cost=cell(),
        sp_unit_impacts={sp: {c: cell() for c in cats} for sp in sps},
        sp_unit_costs={sp: cell() for sp in sps},
        sp_exchange={sp: cell() for sp in sps},
    )


def _stats(rng, n_t, nonfinite) -> SummaryStats:
    return SummaryStats(*(_cells(rng, (n_t,), nonfinite) for _ in range(5)))


def random_result(kind: str, seed: int, nonfinite: bool = False):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 40)), int(rng.integers(1, 9)))
    if kind == "unit":
        payload = _unit(rng, shape, nonfinite)
    elif kind == "monte_carlo":
        unit = _unit(rng, shape, nonfinite)
        payload = MonteCarloResult(
            n_runs=shape[0], seed=seed, samples=unit,
            impact_stats={c: _stats(rng, shape[1], nonfinite) for c in unit.categories},
            cost_stats=_stats(rng, shape[1], nonfinite),
        )
    else:
        out = (shape[0], shape[1] + int(rng.integers(0, 4)))
        cats = NAMES[1:5]
        payload = DynamicImpactResult(
            grid=ScenarioGrid(*shape), t_out=out[1], categories=cats,
            impacts={c: _cells(rng, out, nonfinite) for c in cats},
            cumulative={c: _cells(rng, out, nonfinite) for c in cats},
            contributions={sub: {c: _cells(rng, out, nonfinite) for c in cats[:2]}
                           for sub in NAMES[:3]},
        )
    return result_set(payload, META)


def row_constant_result():
    """A Monte Carlo result whose rows each hold one value: a view with a
    zero stride along time, materialised rows, a grid of one value, and rows
    of -0.0 and NaN; beside them, rows that differ only in the sign of a zero
    or in a NaN's payload bits, which the writer must not take for constant."""
    column = np.array([1.5, -0.0, 0.0, np.nan, -np.inf, 5e-324, 1 / 3])
    other_nan = np.array([0x7FF8000000000001]).view(np.float64)[0]
    constant = np.repeat(column[:, None], 4, axis=1)
    grids = {
        "zero_stride": np.broadcast_to(column[:, None], constant.shape),
        "row_constant": constant,
        "all_equal": np.full(constant.shape, -0.0),
        "signed_zeros": np.tile([0.0, -0.0], (7, 2)),
        "nan_payloads": np.tile([np.nan, other_nan], (7, 2)),
    }
    cats = tuple(grids)
    unit = UnitResult(grid=ScenarioGrid(7, 4), categories=cats, impacts=grids, cost=constant,
                      sp_unit_impacts={"sp": grids}, sp_unit_costs={"sp": grids["zero_stride"]},
                      sp_exchange={"sp": grids["all_equal"]})
    stats = SummaryStats(*(np.full(4, v) for v in (1.5, -0.0, np.nan, other_nan, 0.1)))
    payload = MonteCarloResult(n_runs=7, seed=1, samples=unit,
                               impact_stats={cat: stats for cat in cats}, cost_stats=stats)
    return result_set(payload, {})


KINDS = ("unit", "monte_carlo", "dynamic")


@pytest.fixture(params=[3, None], ids=["3-cell blocks", "default blocks"])
def block_cells(request, monkeypatch):
    """Run with tiny row blocks too, so every grid spans several blocks."""
    if request.param:
        monkeypatch.setattr(lc_io, "_BLOCK_CELLS", request.param)


class TestWriterBytes:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_export_matches_frozen_emitter(self, fmt, kind, seed, block_cells, tmp_path):
        rs = random_result(kind, seed, nonfinite=True)
        path = tmp_path / f"result.{fmt}"
        export_results(rs, fmt, path)
        oracle = oracle_result_json if fmt == "json" else oracle_result_csv
        assert path.read_bytes() == oracle(rs).encode("utf-8")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_row_constant_blocks_match_frozen_emitter(self, fmt, block_cells, tmp_path):
        rs = row_constant_result()
        path = tmp_path / f"result.{fmt}"
        export_results(rs, fmt, path)
        oracle = oracle_result_json if fmt == "json" else oracle_result_csv
        assert path.read_bytes() == oracle(rs).encode("utf-8")

    def test_nonfinite_json_cells_keep_json_spelling(self, tmp_path):
        rs = random_result("unit", 4, nonfinite=True)
        path = tmp_path / "result.json"
        export_results(rs, "json", path)
        text = path.read_text(encoding="utf-8")
        assert "NaN" in text and "-Infinity" in text and "nan" not in text.replace("NaN", "")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_plot_data_matches_frozen_emitter(self, fmt, kind, block_cells, tmp_path,
                                                      capsys):
        rs = random_result(kind, 5)
        path = tmp_path / f"result.{fmt}"
        export_results(rs, fmt, path)
        plots = tmp_path / "plots"
        assert main(["report", str(path), "--plot-data", str(plots)]) == 0
        expected = oracle_plot_data(kind, rs.payload)
        assert sorted(p.name for p in plots.iterdir()) == sorted(expected)
        for name, text in expected.items():
            assert (plots / name).read_bytes() == text.encode("utf-8"), name


def _heatplant_json(tmp_path, heatplant, background_db) -> tuple:
    path = tmp_path / "unit.json"
    export_results(result_set(run_matrix(heatplant, background_db), {"mode": "static"}),
                   "json", path)
    return path, json.loads(path.read_text())


def _mc_json(tmp_path, heatplant_uncertain, background_db) -> tuple:
    path = tmp_path / "mc.json"
    mc = run_monte_carlo(heatplant_uncertain, background_db, n_runs=6, seed=2)
    export_results(result_set(mc, {}), "json", path)
    return path, json.loads(path.read_text())


def _unit_doc(payload: dict) -> dict:
    """The unit part of a JSON payload: itself, or its Monte Carlo samples."""
    return payload.get("samples", payload)


def _add_ghost(payload: dict) -> None:
    """A whole sub-process "ghost" in every per-sub-process section, but not
    in sp_order."""
    unit = _unit_doc(payload)
    for section in ("sp_unit_impacts", "sp_unit_costs", "sp_exchange"):
        unit[section]["ghost"] = unit[section]["fuel_supply"]


def _expand(cases):
    """One parameter set per payload type a case applies to."""
    return [pytest.param(kind, *args, id=f"{kind}-{case_id}")
            for kinds, case_id, *args in cases for kind in kinds]


UNIT, MC, DYN = "unit", "monte_carlo", "dynamic"
NOT_HELD = r"rows a \w+ result does not have"

# (payload types, id, edit of the JSON payload, the grid the error names, the
# problem): each is a LoadError naming that grid, and report exits 2
JSON_CONTRACT = [
    ((UNIT, MC), "extra_category",
     lambda p: _unit_doc(p)["impacts"].update(EXTRA=_unit_doc(p)["impacts"]["GWP100"]),
     ("impact", "", "EXTRA"),
     r"payload categories \['GWP100', 'AP'\], its grids carry \['GWP100', 'AP', 'EXTRA'\]"),
    ((UNIT, MC), "ghost_breakdown",
     lambda p: _unit_doc(p)["sp_unit_impacts"].update(
         ghost=_unit_doc(p)["sp_unit_impacts"]["fuel_supply"]),
     ("sp_unit_impact", "ghost", "GWP100"), NOT_HELD),
    ((UNIT, MC), "subprocess_not_in_sp_order", _add_ghost, ("sp_unit_cost", "ghost", ""),
     r"payload sp_order \['fuel_supply', 'boiler_operation'\], its grids carry "
     r"\['fuel_supply', 'boiler_operation', 'ghost'\]"),
    ((UNIT, MC), "dropped_grid", lambda p: _unit_doc(p)["sp_exchange"].pop("boiler_operation"),
     ("sp_exchange", "boiler_operation", ""), "no rows"),
    ((UNIT, MC), "categories_out_of_order", lambda p: _unit_doc(p)["categories"].reverse(),
     ("impact", "", "GWP100"), r"payload categories \['AP', 'GWP100'\]"),
    ((MC,), "dropped_stat", lambda p: p["impact_stats"]["AP"].pop("p50"),
     ("stat", "p50", "AP"), "no rows"),
    ((DYN,), "extra_category", lambda p: p["impacts"].update(EXTRA=p["impacts"]["GWP100"]),
     ("dynamic_impact", "", "EXTRA"), r"payload categories"),
    ((DYN,), "extra_substance",
     lambda p: p["contributions"].update(N2O=p["contributions"]["CO2"]),
     ("dynamic_contribution", "N2O", "GWP100"),
     r"payload substances \['CO2', 'CH4', 'NOx'\], its grids carry "
     r"\['CO2', 'CH4', 'NOx', 'N2O'\]"),
    ((DYN,), "dropped_grid", lambda p: p["cumulative"].pop("AP"),
     ("dynamic_cumulative", "", "AP"), "no rows"),
    ((DYN,), "substance_without_grids", lambda p: p["substances"].append("N2O"),
     ("dynamic_contribution", "N2O", ""), r"payload substances"),
]


class TestJsonImportChecks:
    def test_short_grid_is_load_error_and_report_writes_nothing(
            self, tmp_path, heatplant, background_db, capsys):
        path, doc = _heatplant_json(tmp_path, heatplant, background_db)
        grid = doc["payload"]["sp_exchange"]["boiler_operation"]
        doc["payload"]["sp_exchange"]["boiler_operation"] = [row[:4] for row in grid]
        path.write_text(json.dumps(doc, indent=2))
        message = ("section 'sp_exchange', name 'boiler_operation', category '': "
                   "shape 2x4, payload grid gives 2x5")
        with pytest.raises(LoadError, match=message):
            import_results(path)
        plots = tmp_path / "plots"
        assert main(["report", str(path), "--plot-data", str(plots)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not plots.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["impacts"].update(GWP100=p["impacts"]["GWP100"] * 2),
         "section 'impact', name '', category 'GWP100': shape 4x5, payload grid gives 2x5"),
        (lambda p: p.update(cost=p["cost"][0]),
         "section 'cost', name '', category '': shape 5, payload grid gives 2x5"),
        (lambda p: p["sp_unit_costs"].update(fuel_supply=[[1.0, 2.0], [3.0]]),
         "malformed unit payload"),
        (lambda p: p["sp_unit_impacts"]["fuel_supply"].update(AP=[["x"] * 5] * 2),
         "malformed unit payload"),
        (lambda p: p["grid"].update(scenarios=2.0), "payload grid: expected an integer"),
        (lambda p: p.update(impacts=[[1.0] * 5] * 2), "malformed unit payload"),
    ], ids=["tall", "flat", "ragged", "non-numeric", "float-dimension", "grid-for-mapping"])
    def test_bad_unit_grids(self, tmp_path, heatplant, background_db, capsys, edit, message):
        path, doc = _heatplant_json(tmp_path, heatplant, background_db)
        edit(doc["payload"])
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(LoadError, match=message):
            import_results(path)
        assert main(["report", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind, edit, grid, problem", _expand(JSON_CONTRACT))
    def test_layout_contract(self, tmp_path, sample_results, capsys, kind, edit, grid,
                             problem):
        path = tmp_path / "result.json"
        export_results(sample_results[kind], "json", path)
        doc = json.loads(path.read_text())
        edit(doc["payload"])
        path.write_text(json.dumps(doc, indent=2))
        where = f"section {grid[0]!r}, name {grid[1]!r}, category {grid[2]!r}: "
        with pytest.raises(LoadError, match=re.escape(where) + problem):
            import_results(path)
        plots = tmp_path / "plots"
        assert main(["report", str(path), "--plot-data", str(plots)]) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert not plots.exists()

    def test_stat_series_runs_over_the_time_steps(self, tmp_path, heatplant_uncertain,
                                                  background_db):
        path, doc = _mc_json(tmp_path, heatplant_uncertain, background_db)
        doc["payload"]["cost_stats"]["p50"].pop()
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(LoadError, match="section 'stat_cost', name 'p50', category '': "
                                            "shape 4, payload grid gives 5"):
            import_results(path)

    def test_dynamic_grids_run_to_t_out(self, tmp_path, heatplant, background_db,
                                        dcf_tables):
        from lcengine import run_dynamic

        path = tmp_path / "dyn.json"
        export_results(result_set(run_dynamic(heatplant, background_db, dcf_tables)),
                       "json", path)
        doc = json.loads(path.read_text())
        doc["payload"]["t_out"] += 1
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(LoadError, match=r"section 'dynamic_impact', name '', category "
                                            r"'GWP100': shape 2x14, payload grid gives 2x15"):
            import_results(path)

    def test_t_out_shorter_than_the_model_is_load_error(self, tmp_path, sample_results,
                                                         capsys):
        # grids of 0 columns match t_out 0, and the summary reads the last column
        path = tmp_path / "dyn.json"
        export_results(sample_results["dynamic"], "json", path)
        doc = json.loads(path.read_text())
        payload = doc["payload"]
        payload["t_out"] = 0
        for grids in (payload["impacts"], payload["cumulative"],
                      *payload["contributions"].values()):
            grids.update((cat, [[], []]) for cat in grids)
        path.write_text(json.dumps(doc, indent=2))
        message = "payload t_out: 0 is shorter than the model's 5 time steps"
        with pytest.raises(LoadError, match=message):
            import_results(path)
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_import_returns_float_grids_and_meta_keeps_json_types(self, tmp_path):
        rs = random_result("monte_carlo", 6)
        rs.meta.update(ints=[[1, 2], [3, 4]], floats=[[1.5, -0.0]], ragged=[[1.0], [2.0, 3.0]],
                       bools=[[True, False]])
        path = tmp_path / "result.json"
        export_results(rs, "json", path)
        loaded = import_results(path)
        expected_meta = json.loads(json.dumps(rs.meta))
        assert loaded.meta == expected_meta
        assert [type(v) for v in loaded.meta["ints"][0]] == [int, int]
        assert isinstance(loaded.meta["floats"], list)
        for cat in loaded.payload.samples.categories:
            grid = loaded.payload.samples.impacts[cat]
            assert grid.dtype == np.float64 and np.array_equal(
                grid.view(np.int64), rs.payload.samples.impacts[cat].view(np.int64))
        again = tmp_path / "again.json"
        export_results(loaded, "json", again)
        assert again.read_bytes() == path.read_bytes()

    def test_deep_nesting_is_load_error_and_report_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"meta": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(LoadError, match="nested too deeply"):
            import_results(path)
        assert main(["report", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_non_string_payload_type_is_load_error(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"schema_version": 1, "meta": {}, "payload_type": [[1.0]], '
                        '"payload": {}}')
        with pytest.raises(LoadError, match="unknown payload_type"):
            import_results(path)


# ---------------------------------------------------------------------------
# matrix CSVs: NumPy's reader gives the CSV parser's bytes or error

# each case: its text, and whether NumPy's reader gives the outcome
MATRIX_CASES = {
    "crlf": ("1,2\r\n3,4\r\n", True),
    "bare cr": ("1,2\r3,4\n", True),
    "cr ending a field": ("1,2\r,3\n4,5,6\n", False),
    "blank lines": ("\n1,2\n\n3,4\n\n", True),
    "whitespace-only lines": ("1,2\n  \t \n3,4\n \r\n", True),
    "padded cells": (" 1 ,\t2\t\n 3, 4 \n", True),
    "vertical tab padding": ("\x0b1\x0b,2\n", True),
    "plus sign": ("+1,2\n", True),
    "leading point": (".5,1\n", True),
    "trailing point": ("1.,2\n", True),
    "exponent": ("1E-5,2e+3\n", True),
    "inf": ("inf,1\n", True),
    "nan": ("nan,1\n", True),
    "non-finite spellings": ("-nan,Infinity,+inf\n", True),
    "underscore": ("1_0,2\n", False),
    "arabic-indic digit": ("\u0661,2\n", False),
    "comment": ("1,2 # x\n", False),
    "quoted cell": ('"1",2\n', False),
    "trailing comma": ("1,2,\n3,4,\n", False),
    "ragged rows": ("1,2\n3\n", False),
    "short row after a blank line": ("1,2\n\n3\n", False),
    "double minus": ("1,--1\n", False),
    "bom": ("\ufeff1,2\n", False),
    "blank cells": ("1,2\n , \n", False),
    "empty": ("\n \n", False),
    "empty file": ("", False),
    "only line ends": ("\r\n\n", False),
    "cell past the CSV field limit": ("1" * 200_000 + ",2\n", False),
    "no final newline": ("1,2\n3,4", True),
}


def _matrix_outcomes(path) -> tuple:
    """The outcome of ``load_matrix_csv(path)``, whether NumPy's reader gave
    it (its last call returned), and the outcome with that reader switched
    off: the array's shape and bytes, or the error's text and line.  Any
    warning fails the load."""
    def outcome():
        try:
            values = load_matrix_csv(path)
        except LoadError as exc:
            return "error", str(exc), exc.line
        return "array", values.shape, values.tobytes()

    read = []
    loadtxt = np.loadtxt

    def recorded(*args, **kwargs):
        read.append(False)
        values = loadtxt(*args, **kwargs)
        read[-1] = True
        return values

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(np, "loadtxt", recorded):
            first = outcome()
        with mock.patch.object(np, "loadtxt", side_effect=ValueError):
            return first, read[-1:] == [True], outcome()


@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_matrix_fast_path_agrees_with_csv_parser(case, tmp_path):
    text, numpy_reads = MATRIX_CASES[case]
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome, read, csv_outcome = _matrix_outcomes(path)
    assert read == numpy_reads
    assert outcome == csv_outcome


@st.composite
def _matrix_texts(draw) -> str:
    """A matrix CSV of float64 reprs, in other spellings too: padded, signed,
    with exponents, CRLF line ends, and blank or whitespace-only lines."""
    n_cols = draw(st.integers(1, 4))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    pad = st.sampled_from(["", " ", "\t", " \x0b "])
    spell = st.sampled_from([repr, "{:.17e}".format, "{:.16E}".format, "{:.17g}".format])
    lines = []
    for row in draw(st.lists(st.lists(st.floats(width=64), min_size=n_cols, max_size=n_cols),
                             min_size=1, max_size=4)):
        cells = []
        for value in row:
            cell = draw(spell)(value)
            if not cell.startswith("-") and draw(st.booleans()):
                cell = "+" + cell
            cells.append(draw(pad) + cell + draw(pad))
        lines.extend([draw(pad)] * draw(st.integers(0, 1)))
        lines.append(",".join(cells))
    return end.join(lines) + draw(st.sampled_from(["", end, end + draw(pad) + end]))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(text=_matrix_texts())
def test_numpy_reader_gives_the_csv_parsers_bits(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "generated_matrix.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome, read, csv_outcome = _matrix_outcomes(path)
    assert read and outcome[0] == "array"
    assert outcome == csv_outcome


@pytest.mark.parametrize("loader, text, line", [
    (load_matrix_csv, "1.0,2.0\n3.0,2_8.0\n", 2),
    (load_background_db, "flow,unit_cost,GWP100\ngas,1.0,0.5\nsteam,2_8.0,0.1\n", 3),
    (load_dcf_tables, "substance,category,mode,horizon,tau,factor\n"
                      "CO2,GWP100,annual_step,,0,1_0.0\n", 2),
])
def test_digit_group_underscores_are_rejected(loader, text, line, tmp_path):
    path = tmp_path / "numbers.csv"
    path.write_text(text)
    with pytest.raises(LoadError, match="invalid number") as exc_info:
        loader(path)
    assert exc_info.value.path == str(path) and exc_info.value.line == line
