"""Random deterministic model fixtures for oracle-equivalence testing.

Builds a ProcessModel together with the plain-data mirror that
oracles.oracle_unit_result consumes, with a controllable mix of scalar and
matrix amounts and inline vs database-backed unit values.
"""

from __future__ import annotations

import random

from lcengine import (
    BackgroundRow,
    FlowDefinition,
    MatrixAmount,
    ProcessModel,
    ScalarAmount,
    ScenarioGrid,
    SubProcessDefinition,
    UnitValueTable,
)


def random_model(rng: random.Random, *, max_sp=5, max_flows=5, max_s=4, max_t=4,
                 with_series=True, p_matrix=0.5):
    """Returns (model, db, oracle_data) with deterministic random content."""
    n_s = rng.randint(1, max_s)
    n_t = rng.randint(1, max_t)
    grid = ScenarioGrid(n_s, n_t)
    categories = tuple(f"cat{i}" for i in range(rng.randint(1, 3)))

    def scalar():
        return round(rng.uniform(-2.0, 5.0), 3)

    def amount():
        if rng.random() >= p_matrix:
            v = scalar()
            return ScalarAmount(v), v
        values = [[scalar() for _ in range(n_t)] for _ in range(n_s)]
        return MatrixAmount(values), values

    db_rows: dict[str, BackgroundRow] = {}
    subprocesses = []
    oracle_sps = []
    for i in range(rng.randint(1, max_sp)):
        flows = []
        oracle_flows = []
        for j in range(rng.randint(1, max_flows)):
            amt, oracle_amt = amount()
            unit_cost = scalar()
            if rng.random() < 0.5:
                # background-backed unit values, optionally time-varying
                key = f"bg_{i}_{j}"
                impacts = {}
                oracle_impacts = {}
                for cat in categories:
                    if with_series and rng.random() < 0.25:
                        series = [scalar() for _ in range(n_t)]
                        impacts[cat] = series
                        oracle_impacts[cat] = list(series)
                    else:
                        v = scalar()
                        impacts[cat] = v
                        oracle_impacts[cat] = v
                db_rows[key] = BackgroundRow(unit_cost=unit_cost, impacts=impacts)
                flow = FlowDefinition(
                    name=f"flow_{i}_{j}",
                    direction=rng.choice(("inflow", "outflow")),
                    amount=amt,
                    background_ref=key,
                )
            else:
                oracle_impacts = {cat: scalar() for cat in categories}
                flow = FlowDefinition(
                    name=f"flow_{i}_{j}",
                    direction=rng.choice(("inflow", "outflow")),
                    amount=amt,
                    inline_unit_impact=dict(oracle_impacts),
                    inline_unit_cost=unit_cost,
                )
            flows.append(flow)
            oracle_flows.append(
                {"amount": oracle_amt, "unit_impact": oracle_impacts, "unit_cost": unit_cost}
            )
        sp_amt, oracle_sp_amt = amount()
        subprocesses.append(
            SubProcessDefinition(name=f"sp_{i}", amount=sp_amt, flows=tuple(flows))
        )
        oracle_sps.append({"amount": oracle_sp_amt, "flows": oracle_flows})

    model = ProcessModel(
        name=f"random_{rng.randint(0, 10**9)}",
        subprocesses=tuple(subprocesses),
        grid=grid,
        categories=categories,
    )
    db = UnitValueTable(rows=db_rows)
    oracle_data = {"grid": (n_s, n_t), "subprocesses": oracle_sps}
    return model, db, oracle_data
