"""Library calls as an optimiser makes them: a new small model per call."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from lcengine import MatrixAmount, ScalarAmount, discounted_cost_result, run_matrix

from oracles import oracle_npv, oracle_unit_result

README = Path(__file__).parent.parent / "README.md"


def _oracle_data(model, db):
    """The oracle's plain-data mirror of a model with scalar unit values."""
    def operand(amount):
        return amount.values.tolist() if isinstance(amount, MatrixAmount) else amount.value

    subprocesses = []
    for sp in model.subprocesses:
        flows = []
        for flow in sp.flows:
            row = db.rows.get(flow.background_ref)
            flows.append({
                "amount": operand(flow.amount),
                "unit_impact": dict(flow.inline_unit_impact or row.impacts),
                "unit_cost": (row.unit_cost if flow.inline_unit_cost is None
                              else flow.inline_unit_cost),
            })
        subprocesses.append({"amount": operand(sp.amount), "flows": flows})
    return {"grid": model.grid.shape, "subprocesses": subprocesses}


def test_every_call_of_an_optimiser_loop_has_the_oracle_bits(heatplant, background_db):
    rng = np.random.default_rng(14)
    fuel, rest = heatplant.subprocesses[0], heatplant.subprocesses[1:]
    gas = fuel.flows[0]
    production = heatplant.production.tolist()
    for rate, amount in zip(rng.uniform(0.01, 0.10, 50).tolist(),
                            rng.uniform(1500.0, 2000.0, 50).tolist()):
        flow = dataclasses.replace(gas, amount=ScalarAmount(amount))
        sp = dataclasses.replace(fuel, flows=(flow, *fuel.flows[1:]))
        model = dataclasses.replace(heatplant, discount_rate=rate, subprocesses=(sp, *rest))
        unit = run_matrix(model, background_db)
        indicators = discounted_cost_result(unit.cost, model.production, rate)

        expected = oracle_unit_result(_oracle_data(model, background_db), model.categories)
        for cat in model.categories:
            assert unit.impacts[cat].tobytes() == np.array(expected["impacts"][cat]).tobytes()
        assert unit.cost.tobytes() == np.array(expected["cost"]).tobytes()
        npvs = [oracle_npv(row, rate) for row in expected["cost"]]
        msps = [value / oracle_npv(production, rate) for value in npvs]
        assert indicators.npv.tobytes() == np.array(npvs).tobytes()
        assert indicators.msp.tobytes() == np.array(msps).tobytes()
        assert indicators.lcoe.tobytes() == np.array(msps).tobytes()


def test_readme_optimiser_example(monkeypatch):
    pytest.importorskip("scipy")
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (example,) = [block for block in blocks if "minimize_scalar" in block]
    monkeypatch.chdir(README.parent)  # the example reads sample_models/ relative paths
    namespace: dict = {}
    exec(compile(example, str(README), "exec"), namespace)
    res, msp = namespace["res"], namespace["msp"]
    assert res.success
    # below 1800 MWh every MWh of gas sells heat; above it sells none
    assert res.x == pytest.approx(1800.0, abs=1e-2)
    assert res.fun == msp(res.x)
    assert res.fun < min(msp(1790.0), msp(1810.0))
