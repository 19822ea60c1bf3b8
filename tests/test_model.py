import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcengine import (
    BackgroundRow,
    DistributionAmount,
    DistributionSpec,
    FlowDefinition,
    InvalidModelError,
    MatrixAmount,
    ProcessModel,
    ScalarAmount,
    ScenarioGrid,
    ShapeError,
    SubProcessDefinition,
    as_amount,
    broadcast_exchange,
    compute_inventory,
    discounted_cost_result,
    run_dynamic,
    run_matrix,
    run_monte_carlo,
    run_static,
    validate_model,
)
from lcengine import model as lc_model
from lcengine.sampler import SamplerStream, sample

from conftest import db_with, empty_db, simple_model

NAN, INF = float("nan"), float("inf")


class TestScenarioGrid:
    def test_shape(self):
        grid = ScenarioGrid(3, 7, "minute", 10)
        assert grid.shape == (3, 7)
        assert grid.step_label == "minute"
        assert grid.step_origin == 10

    @pytest.mark.parametrize("n_s,n_t", [(0, 1), (1, 0), (-1, 5)])
    def test_rejects_degenerate_counts(self, n_s, n_t):
        with pytest.raises(ShapeError):
            ScenarioGrid(n_s, n_t)


class TestProduction:
    def test_copies_a_writable_array_and_keeps_a_read_only_one(self):
        writable = np.array([1.0, 2.0, 3.0])
        model = simple_model(n_timesteps=3, production=writable)
        writable[0] = 99.0
        assert model.production.tolist() == [1.0, 2.0, 3.0]
        assert writable.flags.writeable and not model.production.flags.writeable
        assert simple_model(n_timesteps=3, production=model.production).production \
            is model.production


class TestOwnership:
    """An amount or production series keeps an array only when it owns its
    data, so no write through another array changes a model."""

    def test_an_owned_array_is_kept_and_frozen_in_place(self):
        owned = np.arange(6.0).reshape(2, 3).copy()
        amount = MatrixAmount(owned)
        assert amount.values is owned and np.shares_memory(amount.values, owned)
        assert not owned.flags.writeable
        assert MatrixAmount(amount.values).values is owned

    @pytest.mark.parametrize("make", [
        lambda base: base[:, :],
        lambda base: base.T.copy().T,  # Fortran order
        lambda base: base.astype(np.float32),
        lambda base: base.tolist(),
    ], ids=["view", "fortran", "float32", "list"])
    def test_anything_else_is_copied_once(self, make):
        base = np.arange(6.0).reshape(2, 3)
        amount = MatrixAmount(make(base))
        values = amount.values
        assert values.flags.owndata and values.flags.c_contiguous
        assert values.dtype == np.float64 and not values.flags.writeable
        assert not np.shares_memory(values, base) and base.flags.writeable
        assert values.tolist() == base.tolist()

    @staticmethod
    def _run(model):
        unit = run_matrix(model, empty_db())
        return unit.impacts["GWP100"].tobytes(), unit.cost.tobytes()

    @pytest.mark.parametrize("read_only", [False, True], ids=["view", "read_only_view"])
    def test_a_write_through_the_base_of_a_matrix_changes_nothing(self, read_only):
        base = np.arange(1.0, 7.0).reshape(2, 3)
        view = base[:, :]
        view.flags.writeable = not read_only
        amount = MatrixAmount(view)
        model = simple_model(n_scenarios=2, n_timesteps=3, flow_amount=amount, unit_cost=2.0)
        before = self._run(model)
        base[0, 0] = NAN
        base[1, 2] = -5.0
        assert amount.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert model.subprocesses[0].flows[0].amount.values is amount.values
        assert not validate_model(model, empty_db()).findings
        assert self._run(model) == before

    def test_a_write_through_the_base_of_production_changes_nothing(self):
        base = np.array([1.0, 2.0, 3.0])
        view = base[:]
        view.flags.writeable = False
        model = simple_model(n_timesteps=3, production=view, unit_cost=2.0)
        cost = run_matrix(model, empty_db()).cost
        before = discounted_cost_result(cost, model.production, 0.1)
        base[:] = NAN
        assert model.production.tolist() == [1.0, 2.0, 3.0]
        assert not np.shares_memory(model.production, base)
        assert validate_model(model, empty_db()).is_valid
        assert run_matrix(model, empty_db()).cost.tobytes() == cost.tobytes()
        after = discounted_cost_result(cost, model.production, 0.1)
        assert after.msp.tobytes() == before.msp.tobytes()


@pytest.mark.parametrize("value", [2, 2.0, True, np.float64(2), np.int64(2), np.float32(2)],
                         ids=["int", "float", "bool", "float64", "int64", "float32"])
def test_as_amount_takes_any_real_number_as_a_scalar(value):
    assert as_amount(value) == ScalarAmount(float(value))


class TestBroadcast:
    def test_scalar_fills_grid(self):
        out = broadcast_exchange(ScalarAmount(2.5), ScenarioGrid(2, 3))
        assert out.shape == (2, 3)
        assert np.array_equal(out, np.full((2, 3), 2.5))

    def test_matrix_passthrough_identity(self):
        amount = MatrixAmount([[1.0, 2.0], [3.0, 4.0]])
        out = broadcast_exchange(amount, ScenarioGrid(2, 2))
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
        # idempotent: broadcasting again changes nothing
        again = broadcast_exchange(MatrixAmount(out), ScenarioGrid(2, 2))
        assert np.array_equal(again, out)

    def test_matrix_shape_mismatch(self):
        with pytest.raises(ShapeError):
            broadcast_exchange(MatrixAmount([[1.0, 2.0]]), ScenarioGrid(2, 2))

    def test_degenerate_uniform_is_all_ones(self):
        amount = DistributionAmount(DistributionSpec("uniform", (1.0, 1.0)))
        out = broadcast_exchange(amount, ScenarioGrid(3, 2), SamplerStream(0, 1))
        assert np.array_equal(out, np.ones((3, 2)))

    def test_point_needs_no_stream(self):
        amount = DistributionAmount(DistributionSpec("point", (4.0,)))
        out = broadcast_exchange(amount, ScenarioGrid(2, 2))
        assert np.array_equal(out, np.full((2, 2), 4.0))

    def test_distribution_constant_across_time_per_scenario(self):
        amount = DistributionAmount(DistributionSpec("uniform", (0.0, 1.0)))
        out = broadcast_exchange(amount, ScenarioGrid(5, 4), SamplerStream(7, 3))
        for row in out:
            assert np.all(row == row[0])
        assert len(np.unique(out[:, 0])) > 1  # rows differ

    @pytest.mark.parametrize("spec", [DistributionSpec("normal", (5.0, 2.0)),
                                      DistributionSpec("triangular", (0.0, 1.0, 4.0))])
    def test_distribution_is_a_read_only_view_of_repeated_draws(self, spec):
        grid = ScenarioGrid(6, 4)
        out = broadcast_exchange(DistributionAmount(spec), grid, SamplerStream(3, 9))
        draws = sample(spec, grid.n_scenarios, SamplerStream(3, 9))
        repeated = np.repeat(draws[:, np.newaxis], grid.n_timesteps, axis=1)
        assert out.shape == grid.shape and out.tobytes() == repeated.tobytes()
        assert out.strides[1] == 0 and not out.flags.writeable

    def test_missing_stream_raises(self):
        amount = DistributionAmount(DistributionSpec("uniform", (0.0, 1.0)))
        with pytest.raises(ValueError):
            broadcast_exchange(amount, ScenarioGrid(2, 2))

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_scalar_broadcast_exact(self, value):
        out = broadcast_exchange(ScalarAmount(value), ScenarioGrid(3, 2))
        assert np.all(out == value)


class TestValidation:
    def test_well_formed_model_is_clean(self, heatplant, background_db):
        report = validate_model(heatplant, background_db)
        assert report.is_valid
        assert not report.findings

    def test_all_shipped_models_validate_clean(self, heatplant, heatplant_uncertain,
                                               background_db):
        for model in (heatplant, heatplant_uncertain):
            assert not validate_model(model, background_db).findings

    def test_missing_background_key_named(self):
        model = simple_model()
        flow = FlowDefinition(name="steel_input", direction="inflow",
                              amount=ScalarAmount(1.0), background_ref="steel")
        sp = SubProcessDefinition(name="frame", amount=ScalarAmount(1.0), flows=(flow,))
        model = simple_model()
        model = type(model)(
            name=model.name,
            subprocesses=(sp,),
            grid=model.grid,
            categories=model.categories,
        )
        report = validate_model(model, empty_db())
        assert len(report.errors) == 1
        assert "steel_input" in report.errors[0].location
        assert "'steel'" in report.errors[0].message

    def test_matrix_shape_mismatch_cites_expected(self):
        model = simple_model(n_scenarios=2, n_timesteps=4,
                             flow_amount=MatrixAmount(np.ones((2, 3))))
        report = validate_model(model, empty_db())
        assert any("expected 2x4" in f.message for f in report.errors)

    def test_negative_amounts_warn_only(self):
        model = simple_model(flow_amount=-1.0)
        report = validate_model(model, empty_db())
        assert report.is_valid
        assert len(report.warnings) == 1

    def test_negative_discount_rate_is_error(self):
        model = simple_model(discount_rate=-0.1)
        report = validate_model(model, empty_db())
        assert not report.is_valid

    @pytest.mark.parametrize("rate, problem", [
        (float("nan"), "must be finite, got nan"),
        (float("inf"), "must be finite, got inf"),
        (float("-inf"), "must be finite, got -inf"),
        (-0.1, "must be >= 0, got -0.1"),
    ])
    def test_discount_rate_must_be_finite_and_not_negative(self, rate, problem):
        report = validate_model(simple_model(discount_rate=rate), empty_db())
        assert [f.message for f in report.errors] == [f"discount_rate {problem}"]

    def test_duplicate_names_rejected(self):
        flow = FlowDefinition(name="f", direction="inflow", amount=ScalarAmount(1.0),
                              inline_unit_impact={"GWP100": 1.0}, inline_unit_cost=0.0)
        sp = SubProcessDefinition(name="s", amount=ScalarAmount(1.0), flows=(flow, flow))
        model = simple_model()
        model = type(model)(name="dup", subprocesses=(sp, sp), grid=model.grid,
                            categories=("GWP100",))
        report = validate_model(model, empty_db())
        messages = [f.message for f in report.errors]
        assert any("duplicate sub-process" in m for m in messages)
        assert any("duplicate flow" in m for m in messages)

    def test_both_sources_for_category_is_error(self):
        row = BackgroundRow(flow="electricity", unit_cost=0.1, impacts={"GWP100": 0.4})
        flow = FlowDefinition(name="electricity", direction="inflow",
                              amount=ScalarAmount(1.0), background_ref="electricity",
                              inline_unit_impact={"GWP100": 0.5})
        sp = SubProcessDefinition(name="s", amount=ScalarAmount(1.0), flows=(flow,))
        model = simple_model()
        model = type(model)(name="both", subprocesses=(sp,), grid=model.grid,
                            categories=("GWP100",))
        report = validate_model(model, db_with({"electricity": row}))
        assert any("both inline and" in f.message for f in report.errors)

    def test_missing_cost_deferred_until_required(self):
        row = BackgroundRow(flow="electricity", unit_cost=None, impacts={"GWP100": 0.4})
        flow = FlowDefinition(name="electricity", direction="inflow",
                              amount=ScalarAmount(1.0), background_ref="electricity")
        sp = SubProcessDefinition(name="s", amount=ScalarAmount(1.0), flows=(flow,))
        model = simple_model()
        model = type(model)(name="nocost", subprocesses=(sp,), grid=model.grid,
                            categories=("GWP100",))
        db = db_with({"electricity": row})
        assert not validate_model(model, db, require_cost=False).errors
        assert any("unit cost" in f.message for f in validate_model(model, db).errors)

    def test_per_period_override_length_checked(self):
        row = BackgroundRow(flow="grid_mix", unit_cost=0.1,
                            impact_overrides={"GWP100": (0.4, 0.3)})
        flow = FlowDefinition(name="grid_mix", direction="inflow",
                              amount=ScalarAmount(1.0), background_ref="grid_mix")
        sp = SubProcessDefinition(name="s", amount=ScalarAmount(1.0), flows=(flow,))
        model = simple_model(n_timesteps=3)
        model = type(model)(name="override", subprocesses=(sp,), grid=model.grid,
                            categories=("GWP100",))
        report = validate_model(model, db_with({"grid_mix": row}))
        assert any("length 2" in f.message and "expected 3" in f.message
                   for f in report.errors)

    @pytest.mark.parametrize("values, findings", [
        ([[1.0, -2.0]], [("warning", "negative exchange amounts (avoided flow?)")]),
        ([[NAN, 2.0]], [("error", "matrix contains non-finite values")]),
        ([[1.0, INF]], [("error", "matrix contains non-finite values")]),
        ([[NAN, -2.0]], [("warning", "negative exchange amounts (avoided flow?)"),
                         ("error", "matrix contains non-finite values")]),
        ([[-INF, 2.0]], [("warning", "negative exchange amounts (avoided flow?)"),
                         ("error", "matrix contains non-finite values")]),
        ([[NAN], [-2.0]], [("error", "matrix shape 2x1 does not match grid, expected 1x2"),
                           ("error", "matrix contains non-finite values")]),
        ([[NAN, NAN]], [("error", "matrix contains non-finite values")]),
        ([[-0.0, NAN]], [("error", "matrix contains non-finite values")]),
        ([[INF, -2.0]], [("warning", "negative exchange amounts (avoided flow?)"),
                         ("error", "matrix contains non-finite values")]),
        ([[-INF], [INF]], [("error", "matrix shape 2x1 does not match grid, expected 1x2"),
                           ("error", "matrix contains non-finite values")]),
        ([[-1.0], [2.0]], [("error", "matrix shape 2x1 does not match grid, expected 1x2")]),
        (np.empty((0, 2)), [("error", "matrix shape 0x2 does not match grid, expected 1x2")]),
    ], ids=["negative", "nan", "inf", "nan_and_negative", "minus_inf", "shape_and_nan",
            "nan_only", "nan_and_minus_zero", "inf_and_negative", "shape_and_infs",
            "shape_and_negative", "empty"])
    def test_matrix_amount_findings(self, values, findings):
        model = simple_model(n_timesteps=2, flow_amount=MatrixAmount(values))
        report = validate_model(model, empty_db())
        assert [(f.severity, f.message) for f in report.findings] == findings
        # a second validation reads the kept checks: the same findings
        again = validate_model(model, empty_db())
        assert again.findings == report.findings

    def test_a_matrix_amount_is_checked_once(self, monkeypatch):
        checked = []

        def counted(values):
            checked.append(values)
            return value_checks(values)

        value_checks = lc_model._value_checks
        monkeypatch.setattr(lc_model, "_value_checks", counted)
        amount = MatrixAmount(np.full((2, 3), -1.0))
        model = simple_model(n_scenarios=2, n_timesteps=3, flow_amount=amount)
        first = validate_model(model, empty_db())
        kept = amount._checks
        second = validate_model(model, empty_db())
        assert len(checked) == 1 and checked[0] is amount.values
        assert amount._checks is kept
        assert first.findings == second.findings == [lc_model.ValidationFinding(
            "warning", "subprocess 'only_sp', flow 'only_flow'",
            "negative exchange amounts (avoided flow?)")]

    def test_first_validations_in_threads_agree(self):
        """Threads that validate a model for the first time at once all
        report what one validation alone reports."""
        def fresh():
            return simple_model(n_scenarios=2, n_timesteps=3,
                                flow_amount=MatrixAmount([[NAN, 1.0, 2.0], [-1.0, 0.0, 3.0]]),
                                sp_amount=MatrixAmount(np.full((2, 3), -2.0)))

        expected = validate_model(fresh(), empty_db()).findings
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                model, found = fresh(), []
                barrier = threading.Barrier(4)

                def validate(model=model, found=found, barrier=barrier):
                    barrier.wait(timeout=10)
                    found.append(validate_model(model, empty_db()).findings)

                threads = [threading.Thread(target=validate) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert found == [expected] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_unused_static_factors_are_not_checked(self):
        model, db = _truck_model()  # emits nothing
        db = db_with({**db.rows, "CO2": BackgroundRow(flow="CO2", impacts={"GWP100": NAN})})
        assert not validate_model(model, db).findings

    def test_validation_never_raises(self):
        model = simple_model(discount_rate=-1.0, flow_amount=-5.0)
        report = validate_model(model, None)
        assert report.errors and report.warnings


def _truck_model(**row):
    """One background flow on a 1x1 grid, and a database with its row:
    ``row`` replaces the row's default unit cost, impacts or inventory."""
    row = BackgroundRow(flow="truck_km", **{"unit_cost": 1.1, "impacts": {"GWP100": 0.12}, **row})
    flow = FlowDefinition("gas_transport", "inflow", ScalarAmount(180.0),
                          background_ref="truck_km")
    sp = SubProcessDefinition("fuel_supply", ScalarAmount(1.0), flows=(flow,))
    return ProcessModel("m", (sp,), ScenarioGrid(1, 1), ("GWP100",)), db_with({"truck_km": row})


def _emitting_model(factor):
    """_truck_model whose flow emits CO2, with a CO2 row holding ``factor``
    as its static factor for GWP100."""
    model, db = _truck_model(inventory={"CO2": 2.0})
    co2 = BackgroundRow(flow="CO2", impacts={"GWP100": factor})
    return model, db_with({**db.rows, "CO2": co2})


# (model and database, the one finding's location and message)
NON_FINITE_UNIT_VALUES = [
    pytest.param(lambda: _truck_model(unit_cost=NAN), "flow 'gas_transport'",
                 "unit cost nan is not finite", id="db_unit_cost"),
    pytest.param(lambda: _truck_model(impacts={"GWP100": INF}), "flow 'gas_transport'",
                 "unit impact inf for category 'GWP100' is not finite", id="db_unit_impact"),
    pytest.param(lambda: _truck_model(impacts={}, impact_overrides={"GWP100": (-INF,)}),
                 "flow 'gas_transport'",
                 "per-period unit impact -inf for category 'GWP100' at period 0 is not finite",
                 id="db_per_period_unit_impact"),
    pytest.param(lambda: _truck_model(inventory={"CO2": 2.0, "CH4": NAN}), "flow 'gas_transport'",
                 "emission nan of substance 'CH4' per unit is not finite", id="db_inventory"),
    pytest.param(lambda: (simple_model(unit_impact=NAN), empty_db()), "flow 'only_flow'",
                 "unit impact nan for category 'GWP100' is not finite", id="inline_unit_impact"),
    pytest.param(lambda: (simple_model(unit_cost=-INF), empty_db()), "flow 'only_flow'",
                 "unit cost -inf is not finite", id="inline_unit_cost"),
    pytest.param(lambda: _emitting_model(NAN), "substance 'CO2'",
                 "static factor nan for category 'GWP100' is not finite", id="static_factor"),
]


class TestNonFiniteUnitValues:
    @pytest.mark.parametrize("make, location, message", NON_FINITE_UNIT_VALUES)
    def test_validation_names_the_flow_and_the_value(self, make, location, message):
        model, db = make()
        report = validate_model(model, db)
        assert [(location in f.location, f.message) for f in report.findings] == [
            (True, message)]

    @pytest.mark.parametrize("make, location, message", NON_FINITE_UNIT_VALUES)
    def test_every_calculation_refuses_the_model(self, make, location, message):
        model, db = make()
        calculations = [
            lambda: run_static(model, db),
            lambda: run_matrix(model, db),
            lambda: run_monte_carlo(model, db, n_runs=4, seed=1),
            lambda: compute_inventory(model, db),
            lambda: run_dynamic(model, db, []),
        ]
        for calculate in calculations:
            with pytest.raises(InvalidModelError, match=re.escape(message)):
                calculate()
