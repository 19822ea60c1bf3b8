import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcengine import (
    CashFlowSeries,
    ProductionSeries,
    ShapeError,
    discounted_cost_result,
    lcoe,
    minimum_selling_price,
    npv,
)

from oracles import oracle_npv


class TestNpv:
    def test_hand_discounting(self):
        # -100 + 60/1.1 + 60/1.21
        assert npv(CashFlowSeries([-100.0, 60.0, 60.0], 0.1)) == pytest.approx(
            4.132231404958677, abs=1e-9
        )

    def test_zero_rate_is_plain_sum(self):
        values = [3.5, -1.25, 7.75, 0.125]
        assert npv(CashFlowSeries(values, 0.0)) == sum(values)

    def test_all_zero(self):
        assert npv(CashFlowSeries([0.0, 0.0, 0.0], 0.3)) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            values = rng.normal(size=rng.integers(1, 12)).tolist()
            rate = float(rng.uniform(0, 0.3))
            assert npv(CashFlowSeries(values, rate)) == pytest.approx(
                oracle_npv(values, rate), rel=1e-12
            )

    def test_monotone_decreasing_in_rate_after_sign_change(self):
        values = [-100.0, 30.0, 30.0, 30.0, 30.0]  # single sign change - to +
        rates = np.linspace(0.0, 0.5, 40)
        series = [npv(CashFlowSeries(values, r)) for r in rates]
        assert all(a > b for a, b in zip(series, series[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CashFlowSeries([1.0, float("inf")], 0.1)
        with pytest.raises(ValueError):
            CashFlowSeries([1.0], -1.0)


class TestMspAndLcoe:
    def test_undiscounted_ratio(self):
        price = minimum_selling_price(
            CashFlowSeries([100.0, 0.0], 0.0), ProductionSeries([0.0, 10.0])
        )
        assert price == 10.0

    def test_discounted_single_period(self):
        # -100 + 10 p / 1.1 = 0  =>  p = 11
        price = minimum_selling_price(
            CashFlowSeries([100.0, 0.0], 0.1), ProductionSeries([0.0, 10.0])
        )
        assert price == pytest.approx(11.0, rel=1e-12)

    def test_zero_costs_zero_price(self):
        assert minimum_selling_price(
            CashFlowSeries([0.0, 0.0], 0.05), ProductionSeries([1.0, 1.0])
        ) == 0.0

    def test_lcoe_zero_rate(self):
        assert lcoe(
            CashFlowSeries([1000.0, 100.0, 100.0], 0.0),
            ProductionSeries([0.0, 500.0, 500.0]),
        ) == pytest.approx(1.2, rel=1e-12)

    def test_lcoe_single_period_cancellation(self):
        for rate in (0.0, 0.07, 0.5):
            assert lcoe(
                CashFlowSeries([1000.0], rate), ProductionSeries([1000.0])
            ) == pytest.approx(1.0, rel=1e-15)

    def test_lcoe_hand_discounting(self):
        # 1000 / (500 / 1.05) = 2.1
        assert lcoe(
            CashFlowSeries([1000.0, 0.0], 0.05), ProductionSeries([0.0, 500.0])
        ) == pytest.approx(2.1, rel=1e-12)

    def test_lcoe_is_msp(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            costs = CashFlowSeries(rng.uniform(0, 100, n), float(rng.uniform(0, 0.2)))
            production = ProductionSeries(rng.uniform(0.1, 50, n))
            assert lcoe(costs, production) == minimum_selling_price(costs, production)

    def test_lcoe_is_minimum_selling_price(self):
        assert lcoe is minimum_selling_price

    def test_zero_discounted_production_rejected(self):
        with pytest.raises(ZeroDivisionError):
            minimum_selling_price(CashFlowSeries([10.0], 0.0), ProductionSeries([0.0]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            minimum_selling_price(CashFlowSeries([10.0], 0.0), ProductionSeries([1.0, 1.0]))

    def test_negative_production_rejected(self):
        with pytest.raises(ValueError):
            ProductionSeries([1.0, -2.0])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=10),
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=10),
        st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(max_examples=60, deadline=None)
    def test_substitution_check(self, costs, production, rate):
        n = max(len(costs), len(production))
        costs = costs + [0.0] * (n - len(costs))
        production = production + [1.0] * (n - len(production))
        cf = CashFlowSeries(costs, rate)
        prod = ProductionSeries(production)
        price = minimum_selling_price(cf, prod)
        residual = npv(CashFlowSeries(price * prod.values - cf.values, rate))
        assert abs(residual) <= 1e-9 * max(1.0, np.abs(cf.values).sum())


class TestDiscountedCostResult:
    def test_single_row_reduces_to_scalar_ops(self):
        grid = np.array([[100.0, 20.0, 20.0]])
        production = [0.0, 50.0, 50.0]
        rate = 0.08
        out = discounted_cost_result(grid, production, rate)
        cf = CashFlowSeries(grid[0], rate)
        prod = ProductionSeries(production)
        assert out.npv[0] == npv(cf)
        assert out.msp[0] == minimum_selling_price(cf, prod)
        assert out.lcoe[0] == lcoe(cf, prod)

    def test_duplicated_rows_identical(self):
        grid = np.array([[100.0, 20.0], [100.0, 20.0]])
        out = discounted_cost_result(grid, [10.0, 10.0], 0.05)
        assert out.npv[0] == out.npv[1]
        assert out.msp[0] == out.msp[1]

    def test_three_rows_match_per_row_oracle(self):
        rng = np.random.default_rng(12)
        grid = rng.uniform(1, 50, size=(3, 6))
        production = rng.uniform(0.5, 10, size=6)
        rate = 0.1
        out = discounted_cost_result(grid, production, rate)
        for s in range(3):
            expected_npv = oracle_npv(grid[s].tolist(), rate)
            expected_msp = oracle_npv(grid[s].tolist(), rate) / oracle_npv(
                production.tolist(), rate
            )
            assert out.npv[s] == pytest.approx(expected_npv, rel=1e-12)
            assert out.msp[s] == pytest.approx(expected_msp, rel=1e-12)
            assert out.lcoe[s] == out.msp[s]

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            discounted_cost_result(np.ones((2, 3)), [1.0, 1.0], 0.0)

    def test_length_mismatch_rejected_like_a_row(self):
        with pytest.raises(ShapeError) as scalar:
            minimum_selling_price(CashFlowSeries([1.0, 2.0, 3.0], 0.1),
                                  ProductionSeries([1.0, 1.0]))
        with pytest.raises(ShapeError) as grid:
            discounted_cost_result(np.ones((2, 3)), [1.0, 1.0], 0.1)
        assert str(grid.value) == str(scalar.value)

    def test_an_empty_grid_gives_empty_arrays(self):
        out = discounted_cost_result(np.empty((0, 3)), [0.0, 1.0, 1.0], 0.05)
        assert [a.shape for a in (out.npv, out.msp, out.lcoe)] == [(0,)] * 3

    @pytest.mark.parametrize("rate", [0.0, 0.05, -0.5])
    def test_every_row_has_the_scalar_bits(self, rate):
        rng = np.random.default_rng(5)
        grid = rng.uniform(-1e6, 1e6, size=(40, 17))
        grid[3] = 0.0
        grid[4, ::2] = -0.0
        grid[5] = -grid[5] * 1e-300
        production = ProductionSeries(rng.uniform(0.0, 500.0, size=17))
        out = discounted_cost_result(grid, production, rate)
        for s in range(grid.shape[0]):
            cf = CashFlowSeries(grid[s], rate)
            assert out.npv[s].tobytes() == np.float64(npv(cf)).tobytes()
            msp = np.float64(minimum_selling_price(cf, production))
            assert out.msp[s].tobytes() == msp.tobytes()
            assert out.lcoe[s].tobytes() == msp.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_cell_rejected_like_a_row(self, bad):
        grid = np.ones((3, 4))
        grid[2, 1] = bad
        with pytest.raises(ValueError, match="cash flow values must be finite"):
            CashFlowSeries(grid[2], 0.05)
        with pytest.raises(ValueError, match="cash flow values must be finite"):
            discounted_cost_result(grid, [1.0] * 4, 0.05)

    @pytest.mark.parametrize("n_rows", [2, 0])
    @pytest.mark.parametrize("rate", [-1.0, -2.0, np.nan, np.inf])
    def test_bad_rate_rejected_like_a_row(self, rate, n_rows):
        message = f"discount rate must be finite and > -1, got {float(rate)}"
        with pytest.raises(ValueError) as scalar:
            CashFlowSeries([1.0, 2.0], rate)
        with pytest.raises(ValueError) as grid:
            discounted_cost_result(np.ones((n_rows, 2)), [1.0, 1.0], rate)
        assert str(grid.value) == str(scalar.value) == message

    @pytest.mark.parametrize("n_rows", [2, 0])
    @pytest.mark.parametrize("scalar_call", [minimum_selling_price, lcoe], ids=["msp", "lcoe"])
    def test_zero_production_rejected_like_a_row(self, scalar_call, n_rows):
        production = ProductionSeries([0.0, 0.0, 0.0])
        with pytest.raises(ZeroDivisionError) as scalar:
            scalar_call(CashFlowSeries([1.0, 2.0, 3.0], 0.1), production)
        with pytest.raises(ZeroDivisionError) as grid:
            discounted_cost_result(np.ones((n_rows, 3)), production, 0.1)
        assert str(grid.value) == str(scalar.value)

    def test_every_production_form_gives_the_same_bits(self):
        rng = np.random.default_rng(21)
        grid = rng.uniform(-50.0, 50.0, size=(4, 6))
        values = rng.uniform(0.5, 20.0, size=6)
        writable = values.copy()
        read_only = values.copy()
        read_only.flags.writeable = False
        forms = [values.tolist(), writable, read_only, ProductionSeries(values)]
        results = [discounted_cost_result(grid, p, 0.07) for p in forms]
        bits = [(r.npv.tobytes(), r.msp.tobytes(), r.lcoe.tobytes()) for r in results]
        assert bits == [bits[0]] * len(forms)
        writable[:] = 1.0  # the results do not alias the caller's array
        assert [(r.npv.tobytes(), r.msp.tobytes(), r.lcoe.tobytes()) for r in results] == bits
        assert writable.flags.writeable and not read_only.flags.writeable

    def test_series_copies_a_writable_array_and_keeps_a_read_only_one(self):
        writable = np.array([1.0, 2.0, 3.0])
        series = ProductionSeries(writable)
        writable[0] = 99.0
        assert series.values.tolist() == [1.0, 2.0, 3.0]
        assert writable.flags.writeable and not series.values.flags.writeable
        assert ProductionSeries(series.values).values is series.values

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (-1.0, "non-negative"),
    ])
    def test_bad_production_rejected_in_every_form(self, bad, message):
        values = np.array([1.0, 2.0, bad, 4.0])
        read_only = values.copy()
        read_only.flags.writeable = False
        for production in (values.tolist(), values, read_only):
            with pytest.raises(ValueError, match=f"production values must be {message}"):
                discounted_cost_result(np.ones((2, 4)), production, 0.05)
            with pytest.raises(ValueError, match=f"production values must be {message}"):
                ProductionSeries(production)
