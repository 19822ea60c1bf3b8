"""Mutation fuzz of result files: ``lcengine report --plot-data`` on a result
with one mutation never raises, exits 0, 2 or 3, and leaves no plot
directory behind when it fails."""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcengine import export_results
from lcengine.cli import main

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

# a token: a quoted string or a run of word characters (names, numbers)
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[\w.+-]+')


def mutate(data: bytes, mutation: str, rnd, token: str) -> bytes:
    """``data`` with one line deleted, duplicated or one of its tokens
    replaced by ``token``, or cut short; ``rnd`` picks where, uniformly, so
    that the grids deep in a file are mutated as often as its head."""
    if mutation == "truncate":
        return data[:rnd.randrange(len(data))]
    lines = data.splitlines(keepends=True)
    i = rnd.randrange(len(lines))
    if mutation == "delete":
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
    return base, files


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(kind=st.sampled_from(KINDS), fmt=st.sampled_from(FORMATS),
       mutation=st.sampled_from(MUTATIONS), rnd=st.randoms(use_true_random=False),
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
