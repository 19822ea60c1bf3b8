"""The benchmark's traced replay patches names of the program by hand."""

import sys
from pathlib import Path

BENCH = str(Path(__file__).parent.parent / "e2ebench")


def test_the_tracer_finds_every_name_it_patches():
    # A name the tracer wraps that the program no longer has fails every
    # traced benchmark run; installing the tracer shows it here.
    sys.path.insert(0, BENCH)
    try:
        import tracing
    finally:
        sys.path.remove(BENCH)
    with tracing.Tracer().installed():
        pass
