import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcengine import (
    BackgroundRow,
    DCFTable,
    EmissionSeries,
    FlowDefinition,
    MissingDataError,
    ProcessModel,
    ScalarAmount,
    ScenarioGrid,
    ShapeError,
    SubProcessDefinition,
    characterize_dynamic,
    characterize_fixed_horizon,
    characterize_static_at_emission,
    run_dynamic,
)

from conftest import db_with
from oracles import oracle_convolve


def em(rows, substance="CO2"):
    return EmissionSeries(substance, np.asarray(rows, dtype=float))


def annual(factors, substance="CO2", category="GWP100"):
    return DCFTable(substance, category, "annual_step", np.asarray(factors, dtype=float))


class TestCharacterizeDynamic:
    def test_impulse_response(self):
        out = characterize_dynamic(em([[1.0, 0.0, 0.0]]), annual([0.5, 0.25, 0.125]))
        assert out.tolist() == [[0.5, 0.25, 0.125, 0.0, 0.0]]

    def test_hand_convolution(self):
        out = characterize_dynamic(em([[1.0, 1.0]]), annual([1.0, 0.5]))
        assert out.tolist() == [[1.0, 1.5, 0.5]]

    def test_identity_kernel(self):
        series = [[3.0, 1.0, 4.0], [1.0, 5.0, 9.0]]
        out = characterize_dynamic(em(series), annual([1.0]))
        assert out.tolist() == series

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        series = rng.normal(size=(3, 7))
        taps = rng.normal(size=4)
        out = characterize_dynamic(em(series), annual(taps))
        for s in range(3):
            expected = oracle_convolve(series[s].tolist(), taps.tolist())
            np.testing.assert_allclose(out[s], expected, rtol=1e-12, atol=1e-12)

    def test_substance_mismatch(self):
        with pytest.raises(ShapeError):
            characterize_dynamic(em([[1.0]], substance="CH4"), annual([1.0]))

    def test_wrong_mode(self):
        table = DCFTable("CO2", "GWP100", "fixed_horizon", [28.0], horizon=100)
        with pytest.raises(ShapeError):
            characterize_dynamic(em([[1.0]]), table)

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6),
        st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, row1, row2, a, b):
        n = max(len(row1), len(row2))
        row1 = row1 + [0.0] * (n - len(row1))
        row2 = row2 + [0.0] * (n - len(row2))
        taps = annual([1.0, 0.5, 0.25])
        combined = characterize_dynamic(
            em([[a * x + b * y for x, y in zip(row1, row2)]]), taps
        )
        separate = a * characterize_dynamic(em([row1]), taps) + b * characterize_dynamic(
            em([row2]), taps
        )
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-9)

    def test_mass_balance(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            series = rng.uniform(0, 10, size=(2, rng.integers(1, 8)))
            taps = rng.uniform(0, 3, size=rng.integers(1, 9))
            out = characterize_dynamic(em(series), annual(taps))
            np.testing.assert_allclose(
                out.sum(axis=1), series.sum(axis=1) * taps.sum(), rtol=1e-9
            )


class TestStaticAndFixedHorizon:
    def test_static_hand_values(self):
        out = characterize_static_at_emission(em([[2.0, 3.0]]), 10.0)
        assert out.tolist() == [[20.0, 30.0]]

    def test_factor_zero_annihilates(self):
        assert np.all(characterize_static_at_emission(em([[2.0, 3.0]]), 0.0) == 0.0)

    def test_factor_one_is_identity(self):
        series = [[2.0, 3.0]]
        assert characterize_static_at_emission(em(series), 1.0).tolist() == series

    def test_fixed_horizon_single_pulse(self):
        table = DCFTable("CO2", "GWP100", "fixed_horizon", [28.0], horizon=100)
        out = characterize_fixed_horizon(em([[1.0, 0.0]]), table)
        assert out.tolist() == [[28.0, 0.0]]

    def test_fixed_horizon_zero_emissions(self):
        table = DCFTable("CO2", "GWP100", "fixed_horizon", [28.0], horizon=100)
        assert np.all(characterize_fixed_horizon(em([[0.0, 0.0]]), table) == 0.0)

    def test_fixed_horizon_equals_static(self):
        table = DCFTable("CO2", "GWP100", "fixed_horizon", [28.0], horizon=100)
        series = em([[1.5, 2.5, 0.0]])
        assert np.array_equal(
            characterize_fixed_horizon(series, table),
            characterize_static_at_emission(series, 28.0),
        )

    def test_table_invariants(self):
        with pytest.raises(ShapeError):
            DCFTable("CO2", "GWP100", "annual_step", [])
        with pytest.raises(ShapeError):
            DCFTable("CO2", "GWP100", "fixed_horizon", [1.0, 2.0], horizon=100)
        with pytest.raises(ShapeError):
            DCFTable("CO2", "GWP100", "fixed_horizon", [1.0])
        with pytest.raises(ShapeError):
            DCFTable("CO2", "GWP100", "sliding", [1.0])

    @pytest.mark.parametrize("mode, factors, horizon", [
        ("annual_step", [1.0, float("nan")], None),
        ("annual_step", [float("inf")], None),
        ("fixed_horizon", [-float("inf")], 100),
    ])
    def test_table_rejects_non_finite_factors(self, mode, factors, horizon):
        with pytest.raises(ValueError, match="CO2/GWP100: factors must be finite"):
            DCFTable("CO2", "GWP100", mode, factors, horizon=horizon)


def co2_model(amounts, n_t, substance="CO2"):
    """One flow emitting `substance` 1:1, per-period amounts via matrix."""
    from lcengine import MatrixAmount

    flow = FlowDefinition("stack", "outflow", MatrixAmount([amounts]),
                          inline_unit_impact={"GWP100": 0.0}, inline_unit_cost=0.0,
                          substance=substance)
    sp = SubProcessDefinition("ops", ScalarAmount(1.0), flows=(flow,))
    return ProcessModel("emitter", (sp,), ScenarioGrid(1, n_t), ("GWP100",))


class TestOwnership:
    """A factor table takes its factors as a production series, and an
    emission series its values as a matrix amount, so a caller's later
    write to its array changes neither."""

    def test_a_write_to_the_factors_array_changes_no_table_or_run(self):
        factors = np.array([1.0, 0.5, 0.25])
        table = DCFTable("CO2", "GWP100", "annual_step", factors)
        model = co2_model([1.0, 2.0], 2)
        before = run_dynamic(model, db_with({}), [table]).impacts["GWP100"].tobytes()
        factors[0] = np.nan
        assert table.factors.tolist() == [1.0, 0.5, 0.25]
        assert not table.factors.flags.writeable
        assert run_dynamic(model, db_with({}), [table]).impacts["GWP100"].tobytes() == before

    def test_an_emission_series_keeps_an_owned_array_and_copies_a_view(self):
        owned = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert EmissionSeries("CO2", owned).values is owned
        assert not owned.flags.writeable
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        values = EmissionSeries("CO2", base[:, :]).values
        assert values.flags.owndata and not values.flags.writeable
        assert not np.shares_memory(values, base) and base.flags.writeable


class TestRunDynamic:
    def test_static_only_substances_match_per_period_static(self):
        model = co2_model([2.0, 0.0, 3.0], 3, substance="NOx")
        db = db_with({"NOx": BackgroundRow(flow="NOx", impacts={"AP": 0.9})})
        result = run_dynamic(model, db, [])
        assert result.t_out == 3
        np.testing.assert_allclose(result.impacts["AP"], [[1.8, 0.0, 2.7]])

    def test_impulse_emission_reproduces_dcf_row(self):
        model = co2_model([1.0, 0.0], 2)
        taps = [1.0, 0.8, 0.6]
        result = run_dynamic(model, db_with({}), [annual(taps)])
        assert result.t_out == 2 + 3 - 1
        np.testing.assert_allclose(result.impacts["GWP100"], [[1.0, 0.8, 0.6, 0.0]])

    def test_two_substances_sum_per_category(self):
        flow_a = FlowDefinition("a", "outflow", ScalarAmount(2.0),
                                inline_unit_impact={"GWP100": 0.0}, inline_unit_cost=0.0,
                                substance="CO2")
        flow_b = FlowDefinition("b", "outflow", ScalarAmount(3.0),
                                inline_unit_impact={"GWP100": 0.0}, inline_unit_cost=0.0,
                                substance="CH4")
        sp = SubProcessDefinition("ops", ScalarAmount(1.0), flows=(flow_a, flow_b))
        model = ProcessModel("m", (sp,), ScenarioGrid(1, 2), ("GWP100",))
        tables = [annual([1.0, 0.5]), annual([28.0], substance="CH4")]
        result = run_dynamic(model, db_with({}), tables)
        # brute-force: characterize each substance alone, then add
        co2_part = oracle_convolve([2.0, 2.0], [1.0, 0.5])
        ch4_part = oracle_convolve([3.0, 3.0], [28.0]) + [0.0]
        expected = [x + y for x, y in zip(co2_part, ch4_part)]
        np.testing.assert_allclose(result.impacts["GWP100"], [expected], rtol=1e-12)
        np.testing.assert_allclose(
            result.contributions["CO2"]["GWP100"], [co2_part], rtol=1e-12
        )

    def test_category_grid_has_the_bits_of_zeros_plus_its_terms(self):
        """A category grid starts as its first term + 0.0, in a new array:
        the bits of adding its terms to zeros, -0.0 cells turned to 0.0 and
        denormal cells kept, and no term is changed by the later sums."""
        from lcengine import MatrixAmount

        tiny = float(np.nextafter(0.0, 1.0))  # the smallest denormal
        rows = {"X": [0.0, tiny, 1e-310, 2.0], "Y": [3.0, 0.0, 1e-320, 0.5]}
        flows = tuple(FlowDefinition(name.lower(), "outflow", MatrixAmount([row]),
                                     inline_unit_impact={"GWP100": 0.0}, inline_unit_cost=0.0,
                                     substance=name) for name, row in rows.items())
        model = ProcessModel("m", (SubProcessDefinition("ops", ScalarAmount(1.0), flows),),
                             ScenarioGrid(1, 4), ("GWP100",))
        db = db_with({"X": BackgroundRow(flow="X", impacts={"GWP100": -1.0}),
                      "Y": BackgroundRow(flow="Y", impacts={"GWP100": 1.0, "AP": -1.0})})
        result = run_dynamic(model, db, [])
        for cat in ("GWP100", "AP"):
            expected = np.zeros((1, 4))
            for substance in ("X", "Y"):
                if cat in result.contributions[substance]:
                    expected += result.contributions[substance][cat]
            assert result.impacts[cat].tobytes() == expected.tobytes()
        ap, x_gwp = result.contributions["Y"]["AP"], result.contributions["X"]["GWP100"]
        assert np.signbit(ap[0, 1]) and not np.signbit(result.impacts["AP"][0, 1])
        assert 0.0 < -ap[0, 2] < np.finfo(np.float64).tiny  # a denormal cell, kept
        assert result.impacts["AP"][0, 2] == ap[0, 2]
        assert x_gwp.tobytes() == (-1.0 * np.array([rows["X"]])).tobytes()
        assert np.signbit(x_gwp[0, 0])

    def test_annual_preferred_over_fixed_and_static(self):
        model = co2_model([1.0], 1)
        db = db_with({"CO2": BackgroundRow(flow="CO2", impacts={"GWP100": 999.0})})
        fixed = DCFTable("CO2", "GWP100", "fixed_horizon", [555.0], horizon=100)
        result = run_dynamic(model, db, [annual([1.0, 0.5]), fixed])
        np.testing.assert_allclose(result.impacts["GWP100"], [[1.0, 0.5]])

    def test_fixed_preferred_over_static(self):
        model = co2_model([1.0], 1)
        db = db_with({"CO2": BackgroundRow(flow="CO2", impacts={"GWP100": 999.0})})
        fixed = DCFTable("CO2", "GWP100", "fixed_horizon", [555.0], horizon=100)
        result = run_dynamic(model, db, [fixed])
        np.testing.assert_allclose(result.impacts["GWP100"], [[555.0]])

    def test_missing_factor_is_error(self):
        model = co2_model([1.0], 1, substance="SF6")
        with pytest.raises(MissingDataError, match="SF6"):
            run_dynamic(model, db_with({}), [])

    def test_requested_category_without_factors_is_error(self, heatplant, background_db,
                                                         dcf_tables):
        with pytest.raises(MissingDataError, match=r"\['NOPE', 'ALSO_NOT'\]"):
            run_dynamic(heatplant, background_db, dcf_tables,
                        categories=("NOPE", "GWP100", "ALSO_NOT"))
        result = run_dynamic(heatplant, background_db, dcf_tables, categories=("AP",))
        assert result.categories == ("AP",)

    def test_cumulative_is_prefix_sum_and_nondecreasing(self, heatplant, background_db,
                                                        dcf_tables):
        result = run_dynamic(heatplant, background_db, dcf_tables)
        for cat in result.categories:
            np.testing.assert_allclose(
                result.cumulative[cat], np.cumsum(result.impacts[cat], axis=1)
            )
            assert np.all(np.diff(result.cumulative[cat], axis=1) >= 0)

    def test_unit_impulse_kernels_reproduce_static_per_period(self, heatplant,
                                                              background_db):
        # [f] length-1 kernels == static factors booked at emission
        tables = [annual([1.0], "CO2", "GWP100"), annual([28.0], "CH4", "GWP100"),
                  annual([0.9], "NOx", "AP")]
        dynamic = run_dynamic(heatplant, background_db, tables)
        assert dynamic.t_out == heatplant.grid.n_timesteps
        static = {}
        from lcengine import compute_inventory

        inv = compute_inventory(heatplant, background_db)
        for cat, factors in (("GWP100", {"CO2": 1.0, "CH4": 28.0}), ("AP", {"NOx": 0.9})):
            acc = np.zeros(inv.emissions["CO2"].shape)
            for substance, f in factors.items():
                acc += f * inv.emissions[substance]
            static[cat] = acc
        for cat in dynamic.categories:
            np.testing.assert_allclose(dynamic.impacts[cat], static[cat], rtol=1e-12)

    def test_seeded_sampling_flows_through(self):
        from lcengine import DistributionAmount, DistributionSpec

        flow = FlowDefinition("stack", "outflow",
                              DistributionAmount(DistributionSpec("uniform", (1.0, 2.0))),
                              inline_unit_impact={"GWP100": 0.0}, inline_unit_cost=0.0,
                              substance="CO2")
        sp = SubProcessDefinition("ops", ScalarAmount(1.0), flows=(flow,))
        model = ProcessModel("m", (sp,), ScenarioGrid(4, 2), ("GWP100",))
        a = run_dynamic(model, db_with({}), [annual([1.0])], seed=3)
        b = run_dynamic(model, db_with({}), [annual([1.0])], seed=3)
        assert np.array_equal(a.impacts["GWP100"], b.impacts["GWP100"])
        with pytest.raises(ValueError):
            run_dynamic(model, db_with({}), [annual([1.0])])
