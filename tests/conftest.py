import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracles / modelgen helpers

from lcengine import (
    BackgroundRow,
    FlowDefinition,
    LoadError,
    ProcessModel,
    ScenarioGrid,
    SubProcessDefinition,
    UnitValueTable,
    as_amount,
    import_results,
    load_background_db,
    load_dcf_tables,
    load_model,
)
from lcengine import io as lc_io

SAMPLES = Path(__file__).parent.parent / "sample_models"


@pytest.fixture(scope="session")
def samples_dir() -> Path:
    return SAMPLES


@pytest.fixture(scope="session")
def heatplant():
    return load_model(SAMPLES / "heatplant.model")


@pytest.fixture(scope="session")
def heatplant_uncertain():
    return load_model(SAMPLES / "heatplant_uncertain.model")


@pytest.fixture(scope="session")
def background_db():
    return load_background_db(SAMPLES / "background.csv")


@pytest.fixture(scope="session")
def dcf_tables():
    return load_dcf_tables(SAMPLES / "dcf.csv")


@pytest.fixture(scope="session")
def sample_results(heatplant, heatplant_uncertain, background_db, dcf_tables):
    """A small result set of each payload type, from the sample models."""
    from lcengine import result_set, run_dynamic, run_matrix, run_monte_carlo

    mc = run_monte_carlo(heatplant_uncertain, background_db, n_runs=6, seed=2)
    return {
        "unit": result_set(run_matrix(heatplant, background_db), {"mode": "static"}),
        "monte_carlo": result_set(mc, {"mode": "montecarlo", "seed": 2}),
        "dynamic": result_set(run_dynamic(heatplant, background_db, dcf_tables),
                              {"mode": "dynamic"}),
    }


def simple_model(
    *,
    n_scenarios=1,
    n_timesteps=1,
    flow_amount=1.0,
    sp_amount=1.0,
    unit_impact=1.0,
    unit_cost=0.0,
    category="GWP100",
    substance=None,
    production=None,
    discount_rate=0.0,
) -> ProcessModel:
    """One sub-process, one inline flow; the smallest useful model."""
    flow = FlowDefinition(
        name="only_flow",
        direction="inflow",
        amount=as_amount(flow_amount),
        inline_unit_impact={category: unit_impact},
        inline_unit_cost=unit_cost,
        substance=substance,
    )
    sp = SubProcessDefinition(
        name="only_sp",
        amount=as_amount(sp_amount),
        flows=(flow,),
    )
    return ProcessModel(
        name="simple",
        subprocesses=(sp,),
        grid=ScenarioGrid(n_scenarios, n_timesteps),
        categories=(category,),
        discount_rate=discount_rate,
        production=production,
    )


def empty_db() -> UnitValueTable:
    return UnitValueTable(rows={})


def db_with(rows: dict[str, BackgroundRow]) -> UnitValueTable:
    return UnitValueTable(rows=rows)


def import_outcome(path):
    """What ``import_results`` makes of a file: the payload type, the meta, the
    dimensions and every grid's bytes, or the error's text and line."""
    try:
        rs = import_results(path)
    except LoadError as exc:
        return "error", str(exc), exc.line
    dims = [getattr(rs.payload, "samples", rs.payload).grid,
            *(getattr(rs.payload, key, None) for key in ("n_runs", "seed", "t_out"))]
    grids = [(section, name, category, grid.dtype.str, grid.shape, grid.tobytes())
             for section, name, category, grid
             in lc_io._payload_grids(rs.payload_type, rs.payload)]
    return rs.payload_type, repr(rs.meta), repr(dims), grids
