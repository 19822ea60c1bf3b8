"""Mutation fuzz of the files lcengine reads.

``lcengine report --plot-data`` on a result with one mutation never raises,
exits 0, 2 or 3, and leaves no plot directory behind when it fails; a
result imports as it does through its format's general reader alone: a CSV
one row at a time, a JSON text whole.
``lcengine validate`` and ``lcengine run`` in each mode, on the sample
inputs with one mutation in the model, the database, the factor table or
the matrix CSV, never raise or warn, exit 0, 1, 2 or 3, and leave no
result file behind when they fail."""

import contextlib
import io
import re
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcengine import export_results
from lcengine import io as lc_io
from lcengine.cli import main

from conftest import import_outcome

FORMATS = ("json", "csv")
KINDS = ("unit", "monte_carlo", "dynamic")
# a token replaced in four mutations of seven; the other three almost always
# break a grid, which the import rejects
MUTATIONS = ("replace", "replace", "replace", "replace", "delete", "duplicate", "truncate")

# what a replaced token becomes: numbers at the edges of float64, the
# non-finite spellings of both formats, JSON and CSV syntax, names and
# sections the results use, and an integer past int's digit limit
TOKENS = ("", "0", "-1", "2", "0.5", "1e308", "-1e308", "5e-324", "1e400", "nan", "inf",
          "-Infinity", "NaN", "null", "true", '"x"', "[]", "{}", ",", ":", '"', "[", "]",
          "{", "}", "\n", "GWP100", "AP", "fuel_supply", "CO2", "stat", "impact", "meta",
          "payload_grid", "1" * 5000)

# what a replaced token of an input file becomes: the result tokens, YAML's
# spellings of numbers and non-finite values, per-period database cells,
# names, keys and modes the sample inputs use, and an integer past float's range
INPUT_TOKENS = TOKENS + (
    ".nan", ".inf", "-.inf", "1.0e+308", "-1.0e+308", "1e-320", "0.1;0.2;0.3;0.4;0.5",
    "1;2", "nan;1;1;1;1", "inf;0;0;0;0", "natural_gas", "truck_km", "CH4", "NOx",
    "inv:CO2", "annual_step", "fixed_horizon", "dist", "uniform", "matrix_file",
    "background", "substance", "unit_cost", "unit_impact", "production", "- ", "1" * 400)

# a token: a quoted string or a run of word characters (names, numbers)
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[\w.+-]+')
# a decimal number without an exponent, which a trailing 0 respells
DECIMAL = re.compile(rb"(?<![\w.+-])-?\d+\.\d+(?![\w.+-])")


def mutate(data: bytes, mutation: str, rnd, token: str) -> bytes:
    """``data`` with one line deleted, duplicated or one of its tokens
    replaced by ``token``, one of its decimals respelled with a trailing 0
    (the same float), or cut short; ``rnd`` picks where, uniformly, so that
    the grids deep in a file are mutated as often as its head."""
    if mutation == "truncate":
        return data[:rnd.randrange(len(data))]
    lines = data.splitlines(keepends=True)
    i = rnd.randrange(len(lines))
    if mutation == "respell":
        spans = [m.end() for m in DECIMAL.finditer(lines[i])]
        if spans:
            end = rnd.choice(spans)
            lines[i] = lines[i][:end] + b"0" + lines[i][end:]
    elif mutation == "delete":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    else:
        text = lines[i].decode("utf-8")
        spans = [m.span() for m in TOKEN.finditer(text)]
        if spans:
            start, end = rnd.choice(spans)
            lines[i] = (text[:start] + token + text[end:]).encode("utf-8")
    return b"".join(lines)


@pytest.fixture(scope="module")
def result_files(tmp_path_factory, sample_results):
    """The bytes of each sample result in each format, and a scratch directory."""
    base = tmp_path_factory.mktemp("fuzz")
    files = {}
    for kind, rs in sample_results.items():
        for fmt in FORMATS:
            path = base / f"{kind}.{fmt}"
            export_results(rs, fmt, path)
            files[kind, fmt] = path.read_bytes()
    # every grid of the Monte Carlo sample is constant along time, so
    # mutations reach the CSV reader's path for repeated texts too
    samples = sample_results["monte_carlo"].payload.samples
    for _, _, _, grid in lc_io._payload_grids("unit", samples):
        assert (grid == grid[:, :1]).all()
    return base, files


# 600 examples for the seven mutations of MUTATIONS, and an eighth share for
# "respell"
@settings(derandomize=True, database=None, max_examples=690, deadline=None)
@given(kind=st.sampled_from(KINDS), fmt=st.sampled_from(FORMATS),
       mutation=st.sampled_from(MUTATIONS + ("respell",)), rnd=st.randoms(use_true_random=False),
       token=st.sampled_from(TOKENS))
def test_report_on_a_mutated_result(result_files, kind, fmt, mutation, rnd, token):
    base, files = result_files
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        path = Path(tmp) / f"result.{fmt}"
        path.write_bytes(mutate(files[kind, fmt], mutation, rnd, token))
        plots = Path(tmp) / "plots"
        code = main(["report", str(path), "--plot-data", str(plots)])
        assert code in (0, 2, 3)
        assert code == 0 or not plots.exists()
        # blocks small enough that the sample results span several
        with mock.patch.object(lc_io, "_IMPORT_BLOCK_CHARS", 256):
            outcome = import_outcome(path)
            # the general reader of the format alone
            with (mock.patch.object(lc_io, "_plain_fields", lambda lines: None) if fmt == "csv"
                  else mock.patch.object(lc_io, "_writer_layout_doc",
                                         side_effect=lc_io._NotWriterLayout)):
                assert import_outcome(path) == outcome
        if mutation == "respell":  # the same numbers, so the same result
            assert outcome == import_outcome(base / f"{kind}.{fmt}")


SAMPLE_INPUTS = ("heatplant.model", "heatplant_uncertain.model", "background.csv", "dcf.csv",
                 "co2_stack.csv")
DB = ("--db", "background.csv")
# each command: its arguments, relative to a copy of the sample inputs, and
# the inputs it reads
COMMANDS = (
    (("validate", "--model", "heatplant.model", *DB),
     {"heatplant.model", "background.csv", "co2_stack.csv"}),
    (("run", "--model", "heatplant.model", *DB, "--mode", "static"),
     {"heatplant.model", "background.csv", "co2_stack.csv"}),
    (("run", "--model", "heatplant_uncertain.model", *DB, "--mode", "montecarlo",
      "--n-runs", "20", "--seed", "1"),
     {"heatplant_uncertain.model", "background.csv"}),
    (("run", "--model", "heatplant.model", *DB, "--mode", "dynamic", "--dcf", "dcf.csv"),
     {"heatplant.model", "background.csv", "co2_stack.csv", "dcf.csv"}),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(target=st.sampled_from(SAMPLE_INPUTS), fmt=st.sampled_from(FORMATS),
       mutation=st.sampled_from(MUTATIONS), rnd=st.randoms(use_true_random=False),
       token=st.sampled_from(INPUT_TOKENS))
def test_validate_and_run_on_mutated_inputs(samples_dir, tmp_path_factory, target, fmt,
                                            mutation, rnd, token):
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        tmp = Path(tmp)
        for name in SAMPLE_INPUTS:
            shutil.copy(samples_dir / name, tmp / name)
        (tmp / target).write_bytes(mutate((tmp / target).read_bytes(), mutation, rnd, token))
        output = tmp / f"result.{fmt}"
        for argv, reads in COMMANDS:
            if target not in reads:
                continue
            argv = [str(tmp / a) if a in SAMPLE_INPUTS else a for a in argv]
            if argv[0] == "run":
                argv += ["--format", fmt, "--output", str(output)]
            stderr = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 1, 2, 3)
            # NumPy's floating-point warnings, which Monte Carlo runs print
            assert "encountered in" not in stderr.getvalue()
            assert output.exists() == (code == 0 and argv[0] == "run")
            output.unlink(missing_ok=True)
