import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcengine import (
    BackgroundRow,
    DistributionAmount,
    DistributionSpec,
    FlowDefinition,
    InvalidModelError,
    MatrixAmount,
    MissingDataError,
    ProcessModel,
    ScalarAmount,
    ScenarioGrid,
    StaticModeError,
    SubProcessDefinition,
    compute_inventory,
    main_aggregate,
    run_dynamic,
    run_matrix,
    run_monte_carlo,
    run_static,
    subprocess_aggregate,
    validate_model,
)
from lcengine.engine import (
    _cache_blocks,
    _evaluate,
    _exchange_operand,
    _unit_operand,
)
from lcengine.sampler import stream_for_flow, stream_for_subprocess

from conftest import db_with, empty_db, simple_model
from modelgen import random_model
from oracles import oracle_unit_result


def _resolved(model, db, kind):
    """Each flow's unit value of ``kind`` (a category, or None for cost), in
    document order, as validation resolved it."""
    return [units.cost if kind is None else units.impacts[model.categories.index(kind)]
            for units in validate_model(model, db)._resolved]


def grid_1x1(v):
    return np.array([[float(v)]])


class TestSubprocessAggregate:
    def test_two_flow_hand_value(self):
        sp = SubProcessDefinition(
            "s", ScalarAmount(1.0),
            flows=(FlowDefinition("a", "inflow", ScalarAmount(4.0)),
                   FlowDefinition("b", "inflow", ScalarAmount(5.0))),
        )
        out = subprocess_aggregate(sp, [grid_1x1(2), grid_1x1(3)], [grid_1x1(4), grid_1x1(5)])
        assert out[0, 0] == 23.0  # 2*4 + 3*5

    def test_identity_exchange(self):
        sp = SubProcessDefinition(
            "s", ScalarAmount(1.0), flows=(FlowDefinition("a", "inflow", ScalarAmount(1.0)),)
        )
        u = np.array([[3.25]])
        out = subprocess_aggregate(sp, [u], [grid_1x1(1)])
        assert out[0, 0] == 3.25

    def test_all_ones_2x2_three_flows(self):
        sp = SubProcessDefinition(
            "s", ScalarAmount(1.0),
            flows=tuple(FlowDefinition(f"f{i}", "inflow", ScalarAmount(1.0)) for i in range(3)),
        )
        ones = np.ones((2, 2))
        out = subprocess_aggregate(sp, [ones] * 3, [ones] * 3)
        # nested-loop oracle: per cell, sum of 3 products of ones
        expected = [[sum(1.0 * 1.0 for _ in range(3)) for _ in range(2)] for _ in range(2)]
        assert np.array_equal(out, expected)

    def test_shape_mismatch(self):
        sp = SubProcessDefinition(
            "s", ScalarAmount(1.0), flows=(FlowDefinition("a", "inflow", ScalarAmount(1.0)),)
        )
        from lcengine import ShapeError
        with pytest.raises(ShapeError):
            subprocess_aggregate(sp, [np.ones((2, 2))], [np.ones((2, 3))])


class TestMainAggregate:
    def test_single_subprocess_identity(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = main_aggregate([g], [np.ones((2, 2))])
        assert np.array_equal(out, g)

    def test_hand_value(self):
        out = main_aggregate([grid_1x1(10), grid_1x1(20)], [grid_1x1(1), grid_1x1(0.5)])
        assert out[0, 0] == 20.0  # 10*1 + 20*0.5

    def test_empty_rejected(self):
        from lcengine import ShapeError
        with pytest.raises(ShapeError):
            main_aggregate([], [])


class TestOneAccumulationPath:
    """The public aggregators add terms in run_matrix's order, to the bit."""

    @staticmethod
    def _model():
        ones = MatrixAmount(np.ones((2, 3)))

        def flow(name, amount, unit):
            return FlowDefinition(name, "inflow", amount,
                                  inline_unit_impact={"GWP100": unit}, inline_unit_cost=unit)

        mixed = SubProcessDefinition("mixed", ScalarAmount(1.0), flows=(
            flow("grid", ones, 0.1),
            flow("b", ScalarAmount(1.0), 0.2),
            flow("c", ScalarAmount(1.0), 0.3),
        ))
        b = SubProcessDefinition("b", ScalarAmount(1.0), flows=(flow("b", ScalarAmount(1.0), 0.2),))
        c = SubProcessDefinition("c", ScalarAmount(1.0), flows=(flow("c", ScalarAmount(1.0), 0.3),))
        return ProcessModel("order", (mixed, b, c), ScenarioGrid(2, 3), ("GWP100",))

    def test_aggregators_match_run_matrix_bits(self):
        model = self._model()
        unit = run_matrix(model, empty_db())
        ones = np.ones((2, 3))

        sp_grid = subprocess_aggregate(model.subprocesses[0], [0.1, 0.2, 0.3], [ones, 1.0, 1.0])
        assert sp_grid.tobytes() == unit.sp_unit_impacts["mixed"]["GWP100"].tobytes()
        assert sp_grid.tobytes() == unit.sp_unit_costs["mixed"].tobytes()
        # scalar terms first: (0.2 + 0.3) + 0.1, not (0.1 + 0.2) + 0.3
        assert np.all(sp_grid == 0.6)

        total = main_aggregate([sp_grid, 0.2, 0.3], [1.0, 1.0, 1.0])
        assert total.tobytes() == unit.impacts["GWP100"].tobytes()
        assert total.tobytes() == unit.cost.tobytes()
        assert np.all(total == 1.1)


class TestRunStatic:
    def test_passthrough(self):
        unit = run_static(simple_model(unit_impact=7.0), empty_db())
        assert unit.impacts["GWP100"][0, 0] == 7.0

    def test_all_zero_amounts(self):
        unit = run_static(simple_model(flow_amount=0.0, unit_impact=7.0, unit_cost=3.0),
                          empty_db())
        assert unit.impacts["GWP100"][0, 0] == 0.0
        assert unit.cost[0, 0] == 0.0

    def test_matches_oracle_on_random_scalar_models(self):
        rng = random.Random(101)
        for _ in range(20):
            model, db, data = random_model(rng, max_s=1, max_t=1)
            unit = run_static(model, db)
            expected = oracle_unit_result(data, model.categories)
            for cat in model.categories:
                assert unit.impacts[cat][0, 0] == pytest.approx(
                    expected["impacts"][cat][0][0], rel=1e-9, abs=1e-12
                )
            assert unit.cost[0, 0] == pytest.approx(
                expected["cost"][0][0], rel=1e-9, abs=1e-12
            )

    def test_rejects_matrix_on_large_grid(self, heatplant, background_db):
        with pytest.raises(StaticModeError):
            run_static(heatplant, background_db)

    def test_rejects_sampling_distributions(self):
        model = simple_model(
            flow_amount=DistributionAmount(DistributionSpec("uniform", (0.0, 1.0)))
        )
        with pytest.raises(StaticModeError):
            run_static(model, empty_db())

    def test_accepts_point_distributions(self):
        model = simple_model(
            flow_amount=DistributionAmount(DistributionSpec("point", (2.0,))),
            unit_impact=3.0,
        )
        unit = run_static(model, empty_db())
        assert unit.impacts["GWP100"][0, 0] == 6.0

    def test_validation_gate(self):
        model = simple_model(discount_rate=-1.0)
        with pytest.raises(InvalidModelError):
            run_static(model, empty_db())


class TestRunMatrix:
    def test_broadcast_consistency_bit_exact(self):
        model = simple_model(n_scenarios=100, n_timesteps=50,
                             flow_amount=3.7, sp_amount=0.9,
                             unit_impact=0.123, unit_cost=4.56)
        static = run_static(model, empty_db())
        matrix = run_matrix(model, empty_db())
        assert np.all(matrix.impacts["GWP100"] == static.impacts["GWP100"][0, 0])
        assert np.all(matrix.cost == static.cost[0, 0])

    def test_scenario_doubling_linearity(self):
        amounts = MatrixAmount(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]))
        model = simple_model(n_scenarios=2, n_timesteps=3, flow_amount=amounts,
                             unit_impact=1.7, unit_cost=0.3)
        unit = run_matrix(model, empty_db())
        assert np.allclose(unit.impacts["GWP100"][1], 2.0 * unit.impacts["GWP100"][0],
                           rtol=1e-12)

    def test_3x4_distinct_cells_vs_oracle(self):
        rng = random.Random(7)
        values = [[rng.uniform(0.1, 9) for _ in range(4)] for _ in range(3)]
        model = simple_model(n_scenarios=3, n_timesteps=4,
                             flow_amount=MatrixAmount(values),
                             unit_impact=2.5, unit_cost=1.5, sp_amount=1.25)
        unit = run_matrix(model, empty_db())
        data = {
            "grid": (3, 4),
            "subprocesses": [{
                "amount": 1.25,
                "flows": [{"amount": values, "unit_impact": {"GWP100": 2.5},
                           "unit_cost": 1.5}],
            }],
        }
        expected = oracle_unit_result(data, ("GWP100",))
        assert np.allclose(unit.impacts["GWP100"], expected["impacts"]["GWP100"], rtol=1e-9)
        assert np.allclose(unit.cost, expected["cost"], rtol=1e-9)

    def test_heatplant_matches_nested_loop_oracle(self, heatplant, background_db):
        unit = run_matrix(heatplant, background_db)
        co2_matrix = [[81000.0] * 5, [81000.0, 79000.0, 77000.0, 75000.0, 73000.0]]
        data = {
            "grid": (2, 5),
            "subprocesses": [
                {"amount": 1.0, "flows": [
                    {"amount": 1755.0, "unit_cost": 28.0,
                     "unit_impact": {"GWP100": 0.23, "AP": 0.0004}},
                    {"amount": 180.0, "unit_cost": 1.1,
                     "unit_impact": {"GWP100": 0.12, "AP": 0.0005}},
                ]},
                {"amount": 1.0, "flows": [
                    {"amount": 27.0, "unit_cost": 95.0,
                     "unit_impact": {"GWP100": 0.42, "AP": 0.0008}},
                    {"amount": 4.5, "unit_cost": 120.0,
                     "unit_impact": {"GWP100": 0.05, "AP": 0.0001}},
                    {"amount": co2_matrix, "unit_cost": 0.0,
                     "unit_impact": {"GWP100": 1.0, "AP": 0.0}},
                ]},
            ],
        }
        expected = oracle_unit_result(data, ("GWP100", "AP"))
        for cat in ("GWP100", "AP"):
            np.testing.assert_allclose(unit.impacts[cat], expected["impacts"][cat],
                                       rtol=1e-9)
        np.testing.assert_allclose(unit.cost, expected["cost"], rtol=1e-9)

    def test_oracle_equivalence_random_models(self):
        rng = random.Random(2024)
        for _ in range(30):
            model, db, data = random_model(rng)
            unit = run_matrix(model, db)
            expected = oracle_unit_result(data, model.categories)
            for cat in model.categories:
                assert np.allclose(unit.impacts[cat], expected["impacts"][cat],
                                   rtol=1e-9, atol=1e-12)
            assert np.allclose(unit.cost, expected["cost"], rtol=1e-9, atol=1e-12)

    def test_breakdowns_recompose_total(self):
        rng = random.Random(55)
        model, db, _ = random_model(rng)
        unit = run_matrix(model, db)
        for cat in model.categories:
            recomposed = sum(unit.contribution_impact(sp, cat)
                             for sp in unit.subprocess_names)
            np.testing.assert_allclose(recomposed, unit.impacts[cat], rtol=1e-9)
        recomposed_cost = sum(unit.contribution_cost(sp) for sp in unit.subprocess_names)
        np.testing.assert_allclose(recomposed_cost, unit.cost, rtol=1e-9)

    def test_permutation_invariance(self):
        rng = random.Random(31)
        model, db, _ = random_model(rng, max_sp=4, max_flows=4)
        unit = run_matrix(model, db)
        shuffled_sps = list(model.subprocesses)[::-1]
        shuffled_sps = [
            SubProcessDefinition(sp.name, sp.amount, tuple(reversed(sp.flows)))
            for sp in shuffled_sps
        ]
        permuted = ProcessModel(
            name=model.name, subprocesses=tuple(shuffled_sps), grid=model.grid,
            categories=model.categories,
        )
        unit_p = run_matrix(permuted, db)
        for cat in model.categories:
            np.testing.assert_allclose(unit_p.impacts[cat], unit.impacts[cat], rtol=1e-9)
        np.testing.assert_allclose(unit_p.cost, unit.cost, rtol=1e-9)

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_scaling_one_subprocess_is_linear(self, k):
        base_flow = FlowDefinition("f", "inflow", ScalarAmount(2.0),
                                   inline_unit_impact={"c": 3.0}, inline_unit_cost=1.0)
        other = SubProcessDefinition(
            "other", ScalarAmount(1.0),
            flows=(FlowDefinition("g", "inflow", ScalarAmount(1.0),
                                  inline_unit_impact={"c": 5.0}, inline_unit_cost=2.0),),
        )

        def build(scale):
            scaled_flow = FlowDefinition("f", "inflow", ScalarAmount(2.0 * scale),
                                         inline_unit_impact={"c": 3.0}, inline_unit_cost=1.0)
            target = SubProcessDefinition("target", ScalarAmount(1.0), flows=(scaled_flow,))
            return ProcessModel("m", (target, other), ScenarioGrid(2, 2), ("c",))

        base = run_matrix(build(1.0), empty_db())
        scaled = run_matrix(build(k), empty_db())
        base_target = base.contribution_impact("target", "c")
        scaled_target = scaled.contribution_impact("target", "c")
        np.testing.assert_allclose(scaled_target, k * base_target, rtol=1e-12, atol=1e-12)

    def test_seed_required_with_distributions(self):
        model = simple_model(
            flow_amount=DistributionAmount(DistributionSpec("uniform", (0.0, 1.0))),
            n_scenarios=3,
        )
        with pytest.raises(ValueError):
            run_matrix(model, empty_db())

    def test_categories_filter(self):
        flow = FlowDefinition("f", "inflow", ScalarAmount(1.0),
                              inline_unit_impact={"a": 1.0, "b": 2.0}, inline_unit_cost=0.0)
        sp = SubProcessDefinition("s", ScalarAmount(1.0), flows=(flow,))
        model = ProcessModel("m", (sp,), ScenarioGrid(1, 1), ("a", "b"))
        unit = run_matrix(model, empty_db(), categories=("b",))
        assert tuple(unit.impacts) == ("b",)
        from lcengine import MissingDataError
        with pytest.raises(MissingDataError):
            run_matrix(model, empty_db(), categories=("zzz",))


class TestWithoutDatabase:
    def test_inline_flows_need_no_database(self):
        model = simple_model(unit_impact=2.0, unit_cost=3.0, flow_amount=4.0)
        unit = run_matrix(model, None)
        assert unit.impacts["GWP100"][0, 0] == 8.0 and unit.cost[0, 0] == 12.0

    @pytest.mark.filterwarnings("ignore:model has no distribution amounts")
    def test_background_flow_is_named(self):
        flow = FlowDefinition("gas", "inflow", ScalarAmount(1.0), background_ref="natural_gas")
        sp = SubProcessDefinition("s", ScalarAmount(1.0), flows=(flow,))
        model = ProcessModel("m", (sp,), ScenarioGrid(1, 1), ("GWP100",))
        for calculate in (run_static, run_matrix, compute_inventory,
                          lambda model, db: run_monte_carlo(model, db, 4, 1),
                          lambda model, db: run_dynamic(model, db, ())):
            with pytest.raises(MissingDataError, match="flow 'gas': no database"):
                calculate(model, None)

    def test_missing_database_is_reported_before_a_missing_seed(self):
        drawn = FlowDefinition("fuel", "inflow", UNIFORM, inline_unit_impact={"GWP100": 1.0},
                               inline_unit_cost=1.0)
        gas = FlowDefinition("gas", "inflow", ScalarAmount(1.0), background_ref="natural_gas")
        sp = SubProcessDefinition("s", ScalarAmount(1.0), flows=(drawn, gas))
        model = ProcessModel("m", (sp,), ScenarioGrid(3, 2), ("GWP100",))
        for calculate in (run_matrix, compute_inventory):
            with pytest.raises(MissingDataError, match="flow 'gas': no database"):
                calculate(model, None)


class TestBreakdownsOnFirstRead:
    """Sub-process breakdowns are summed when first read, with the bits of
    the public aggregators, and not before."""

    @staticmethod
    def _sp_operands(model, db, sp, cat):
        shape = model.grid.shape
        resolved = _resolved(model, db, cat)
        first = sum(len(s.flows) for s in model.subprocesses[:model.subprocesses.index(sp)])
        units, exchanges = [], []
        for i, flow in enumerate(sp.flows, start=first):
            units.append(_unit_operand(resolved[i], shape))
            exchanges.append(_exchange_operand(flow.amount, model.grid, None))
        return units, exchanges

    def test_breakdowns_have_the_aggregator_bits(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(12):
            # up to 600 x 120 cells: several cache blocks per grid
            model, db, _ = random_model(rng, max_sp=4, max_flows=4, max_s=600, max_t=120)
            unit = run_matrix(model, db)
            for kind in (*model.categories, None):
                sp_grids, sp_exchanges = [], []
                for sp in model.subprocesses:
                    read = (unit.sp_unit_costs[sp.name] if kind is None
                            else unit.sp_unit_impacts[sp.name][kind])
                    units, exchanges = self._sp_operands(model, db, sp, kind)
                    if any(isinstance(v, np.ndarray) for v in (*units, *exchanges)):
                        expected = subprocess_aggregate(sp, units, exchanges)
                        assert read.tobytes() == expected.tobytes()
                        sp_grids.append(read)
                        checked += 1
                    else:
                        assert read.strides == (0, 0)  # a constant view
                        sp_grids.append(float(read[0, 0]))
                    sp_exchanges.append(_exchange_operand(sp.amount, model.grid, None))
                if any(isinstance(v, np.ndarray) for v in (*sp_grids, *sp_exchanges)):
                    total = unit.cost if kind is None else unit.impacts[kind]
                    expected = main_aggregate(sp_grids, sp_exchanges)
                    assert total.tobytes() == expected.tobytes()
        assert checked > 20

    def test_breakdowns_are_read_only_and_cached(self):
        model, db, _ = random_model(random.Random(3), max_s=5, max_t=5)
        unit = run_matrix(model, db)
        sp = unit.subprocess_names[0]
        assert unit.sp_unit_costs[sp] is unit.sp_unit_costs[sp]
        assert list(unit.sp_unit_impacts[sp]) == list(unit.categories)
        with pytest.raises(TypeError):
            unit.sp_unit_costs[sp] = np.zeros(unit.grid.shape)

    def test_no_breakdown_grid_is_allocated_before_a_read(self):
        n_s, n_t, n_sp = 200, 50, 40
        grid_bytes = n_s * n_t * 8
        rng = np.random.default_rng(1)
        sps = []
        for i in range(n_sp):
            flows = tuple(
                FlowDefinition(f"f{j}", "inflow", MatrixAmount(rng.uniform(size=(n_s, n_t))),
                               inline_unit_impact={"a": 1.0, "b": 2.0, "c": 3.0},
                               inline_unit_cost=0.5)
                for j in range(2))
            sps.append(SubProcessDefinition(f"sp{i}", ScalarAmount(1.5), flows=flows))
        model = ProcessModel("many", tuple(sps), ScenarioGrid(n_s, n_t), ("a", "b", "c"))
        db = empty_db()

        def live_grids():
            """Live traced blocks that can hold a grid."""
            return sum(t.size >= grid_bytes for t in tracemalloc.take_snapshot().traces)

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            unit = run_matrix(model, db)
            peak = tracemalloc.get_traced_memory()[1]
            after = live_grids()
            unit.sp_unit_impacts["sp7"]["b"]
            after_read = live_grids()
        finally:
            tracemalloc.stop()
        # the four totals plus block-sized scratch, not 160 breakdown grids
        assert peak - before < 8 * grid_bytes
        assert after == 4
        assert after_read == 5


class TestRowBlocks:
    def test_partition_covers_all_rows(self):
        for n_rows in (1, 2, 5, 17, 40_000):
            for n_timesteps in (1, 3, 100, 40_000):
                blocks = _cache_blocks(n_rows, n_timesteps)
                covered = [i for b in blocks for i in range(b.start, b.stop)]
                assert covered == list(range(n_rows))


UNIFORM = DistributionAmount(DistributionSpec("uniform", (0.5, 2.0)))


def _with_draws(model, every_flow):
    """The model with a uniform amount on every flow, or on every other one."""
    sps = tuple(
        dataclasses.replace(sp, flows=tuple(
            dataclasses.replace(f, amount=UNIFORM) if every_flow or i % 2 else f
            for i, f in enumerate(sp.flows)))
        for sp in model.subprocesses)
    return dataclasses.replace(model, subprocesses=sps)


def _materialised_total(model, db, kind, seed):
    """A total from ``subprocess_aggregate``/``main_aggregate`` on C-contiguous
    copies of every grid operand, so summed over the whole grid.  An
    all-scalar sub-process enters as the scalar its fold gives."""
    grid = model.grid
    values = iter(_resolved(model, db, kind))

    def stream(make, *names):
        return None if seed is None else make(seed, *names)

    def whole(v):
        return np.ascontiguousarray(v) if isinstance(v, np.ndarray) else v

    sp_terms, sp_exchanges = [], []
    for sp in model.subprocesses:
        units, exchanges = [], []
        for flow in sp.flows:
            units.append(whole(_unit_operand(next(values), grid.shape)))
            exchanges.append(whole(_exchange_operand(
                flow.amount, grid, stream(stream_for_flow, sp.name, flow.name))))
        if any(isinstance(v, np.ndarray) for v in (*units, *exchanges)):
            sp_terms.append(subprocess_aggregate(sp, units, exchanges))
        else:
            const = 0.0
            for u, x in zip(units, exchanges):
                const += float(u) * float(x)
            sp_terms.append(const)
        sp_exchanges.append(whole(_exchange_operand(
            sp.amount, grid, stream(stream_for_subprocess, sp.name))))
    if not any(isinstance(v, np.ndarray) for v in (*sp_terms, *sp_exchanges)):
        return None  # a virtual total
    return main_aggregate(sp_terms, sp_exchanges)


class TestCompactShape:
    """A total is summed once per distinct value, over its compact shape,
    with the bits of the aggregators summed over the whole grid."""

    @staticmethod
    def _check(model, db, seed):
        """Each total's compact shape, after checking the total's bits."""
        cats = model.categories
        unit, compact = _evaluate(model, validate_model(model, db), model.grid, seed, cats)
        shapes = {}
        for kind in (*cats, None):
            total = unit.cost if kind is None else unit.impacts[kind]
            expected = _materialised_total(model, db, kind, seed)
            if expected is None:
                assert total.strides == (0, 0) and compact[kind].shape == (1, 1)
                continue
            assert total.tobytes() == expected.tobytes()
            assert total.flags.writeable and total.flags.c_contiguous
            assert total.shape == model.grid.shape
            shapes[kind] = compact[kind].shape
        return shapes

    def test_draw_columns_compact_to_runs(self):
        rng = random.Random(11)
        for _ in range(10):
            model, db, _ = random_model(rng, max_s=300, max_t=12, p_matrix=0.0,
                                        with_overrides=False)
            model = _with_draws(model, every_flow=True)
            shapes = self._check(model, db, seed=5)
            assert set(shapes.values()) == {(model.grid.n_scenarios, 1)}

    def test_per_period_rows_compact_to_one_row(self):
        rng = random.Random(12)
        rows = 0
        for _ in range(12):
            model, db, _ = random_model(rng, max_s=300, max_t=12, p_matrix=0.0)
            for shape in self._check(model, db, seed=None).values():
                assert shape in {(1, 1), (1, model.grid.n_timesteps)}
                rows += shape[1] > 1
        assert rows > 3

    def test_mixed_operands_use_the_full_shape(self):
        rng = random.Random(13)
        full = 0
        for _ in range(12):
            # up to 600 x 120 cells: several cache blocks per grid
            model, db, _ = random_model(rng, max_s=600, max_t=120, p_matrix=0.3)
            model = _with_draws(model, every_flow=False)
            shapes = self._check(model, db, seed=9)
            full += list(shapes.values()).count(model.grid.shape)
        assert full > 5

    def test_monte_carlo_stats_have_the_bits_of_the_whole_totals(self):
        rng = random.Random(14)
        for _ in range(6):
            model, db, _ = random_model(rng, max_s=1, max_t=12, p_matrix=0.0)
            model = _with_draws(model, every_flow=True)
            mc = run_monte_carlo(model, db, n_runs=257, seed=3)
            for stats, total in [*((mc.impact_stats[c], mc.samples.impacts[c])
                                   for c in model.categories),
                                 (mc.cost_stats, mc.samples.cost)]:
                runs = np.ascontiguousarray(total)
                pcts = np.percentile(runs, [2.5, 50.0, 97.5], axis=0, method="linear")
                for got, want in [(stats.mean, runs.mean(axis=0)),
                                  (stats.sd, runs.std(axis=0, ddof=1)),
                                  (stats.p2_5, pcts[0]), (stats.p50, pcts[1]),
                                  (stats.p97_5, pcts[2])]:
                    assert got.shape == (model.grid.n_timesteps,)
                    assert got.tobytes() == want.tobytes()

    def test_totals_are_writable_unless_virtual(self):
        model, db, _ = random_model(random.Random(15), max_s=6, max_t=5, p_matrix=0.0,
                                    with_overrides=False)
        drawn = _with_draws(model, every_flow=True)
        mc = run_monte_carlo(drawn, db, n_runs=8, seed=1)
        emitting = dataclasses.replace(drawn, subprocesses=tuple(
            dataclasses.replace(sp, flows=(dataclasses.replace(sp.flows[0], substance="CO2"),
                                           *sp.flows[1:]))
            for sp in drawn.subprocesses))
        inventory = compute_inventory(emitting, db, seed=1)
        assert list(inventory.emissions) == ["CO2"]
        for total in (*mc.samples.impacts.values(), mc.samples.cost,
                      *inventory.emissions.values()):
            assert total.flags.writeable and total.flags.owndata
            total[0, 0] = 1.0
        unit = run_matrix(model, db)  # all scalar: constant views
        assert all(not g.flags.writeable for g in (*unit.impacts.values(), unit.cost))


class TestMonteCarlo:
    def test_degenerate_point_masses_reproduce_static(self):
        model = simple_model(
            flow_amount=DistributionAmount(DistributionSpec("point", (2.0,))),
            unit_impact=3.5, unit_cost=1.25, n_timesteps=4,
        )
        static = run_static(model, empty_db())
        with pytest.warns(UserWarning, match="degenerate"):
            mc = run_monte_carlo(model, empty_db(), n_runs=50, seed=1)
        assert np.all(mc.samples.impacts["GWP100"] == static.impacts["GWP100"][0, 0])
        assert np.all(mc.impact_stats["GWP100"].sd == 0.0)
        assert np.all(mc.impact_stats["GWP100"].mean == static.impacts["GWP100"][0, 0])
        assert np.all(mc.cost_stats.sd == 0.0)

    def test_uniform_mean_within_tolerance(self):
        model = simple_model(
            flow_amount=DistributionAmount(DistributionSpec("uniform", (0.0, 2.0))),
            unit_impact=1.0,
        )
        mc = run_monte_carlo(model, empty_db(), n_runs=10_000, seed=3)
        assert abs(mc.impact_stats["GWP100"].mean[0] - 1.0) < 0.05

    def test_same_seed_identical_samples(self):
        model = simple_model(
            flow_amount=DistributionAmount(DistributionSpec("normal", (5.0, 2.0))),
        )
        a = run_monte_carlo(model, empty_db(), n_runs=64, seed=11)
        b = run_monte_carlo(model, empty_db(), n_runs=64, seed=11)
        assert np.array_equal(a.samples.impacts["GWP100"], b.samples.impacts["GWP100"])
        c = run_monte_carlo(model, empty_db(), n_runs=64, seed=12)
        assert not np.array_equal(a.samples.impacts["GWP100"],
                                  c.samples.impacts["GWP100"])

    def test_adding_flow_preserves_other_draws(self):
        dist = DistributionAmount(DistributionSpec("uniform", (0.0, 1.0)))
        f1 = FlowDefinition("f1", "inflow", dist,
                            inline_unit_impact={"c": 1.0}, inline_unit_cost=0.0)
        f2 = FlowDefinition("f2", "inflow", dist,
                            inline_unit_impact={"c": 0.0}, inline_unit_cost=0.0)
        sp_one = SubProcessDefinition("s", ScalarAmount(1.0), flows=(f1,))
        sp_two = SubProcessDefinition("s", ScalarAmount(1.0), flows=(f1, f2))
        m_one = ProcessModel("m", (sp_one,), ScenarioGrid(1, 1), ("c",))
        m_two = ProcessModel("m", (sp_two,), ScenarioGrid(1, 1), ("c",))
        a = run_monte_carlo(m_one, empty_db(), n_runs=32, seed=5)
        b = run_monte_carlo(m_two, empty_db(), n_runs=32, seed=5)
        # f2 has zero unit values, so any change would come from draw coupling
        assert np.array_equal(a.samples.impacts["c"], b.samples.impacts["c"])

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_first_runs_have_the_bits_of_a_shorter_call(self, seed):
        def flow(name, kind, params, impact):
            return FlowDefinition(name, "inflow", DistributionAmount(DistributionSpec(kind, params)),
                                  inline_unit_impact={"GWP100": impact, "AP": impact / 7},
                                  inline_unit_cost=impact + 1.0)

        sp = SubProcessDefinition(
            "plant", DistributionAmount(DistributionSpec("uniform", (0.5, 1.5))), flows=(
                flow("a", "uniform", (1.0, 2.0), 0.3),
                flow("b", "normal", (5.0, 0.5), 1.7),
                flow("c", "triangular", (0.0, 1.0, 3.0), 2.2),
                flow("d", "lognormal", (0.0, 0.4), 0.9),
            ))
        model = ProcessModel("m", (sp,), ScenarioGrid(1, 3), ("GWP100", "AP"))

        def grids(mc):
            unit = mc.samples
            return [*unit.impacts.values(), unit.cost, unit.sp_exchange["plant"],
                    *unit.sp_unit_impacts["plant"].values(), unit.sp_unit_costs["plant"]]

        whole = grids(run_monte_carlo(model, empty_db(), n_runs=5000, seed=seed))
        prefix = grids(run_monte_carlo(model, empty_db(), n_runs=100, seed=seed))
        assert len(whole) == len(prefix) == 7
        for long, short in zip(whole, prefix):
            assert long[:100].tobytes() == short[:100].tobytes()
            assert short.shape[0] in (1, 100)

    def test_n_runs_validation(self):
        model = simple_model()
        with pytest.raises(ValueError):
            run_monte_carlo(model, empty_db(), n_runs=1, seed=0)

    def test_percentile_interpolation_matches_oracle(self):
        from oracles import oracle_mean, oracle_percentile, oracle_sd

        model = simple_model(
            flow_amount=DistributionAmount(DistributionSpec("lognormal", (0.0, 0.5))),
        )
        mc = run_monte_carlo(model, empty_db(), n_runs=101, seed=8)
        values = mc.samples.impacts["GWP100"][:, 0].tolist()
        stats = mc.impact_stats["GWP100"]
        assert stats.mean[0] == pytest.approx(oracle_mean(values), rel=1e-12)
        assert stats.sd[0] == pytest.approx(oracle_sd(values), rel=1e-12)
        for q, got in ((2.5, stats.p2_5[0]), (50, stats.p50[0]), (97.5, stats.p97_5[0])):
            assert got == pytest.approx(oracle_percentile(values, q), rel=1e-12)


class TestInventory:
    def test_hand_product(self):
        row = BackgroundRow(flow="fuel", unit_cost=0.0, impacts={"GWP100": 0.0},
                            inventory={"CO2": 2.0})
        flow = FlowDefinition("fuel", "inflow", ScalarAmount(3.0), background_ref="fuel")
        sp = SubProcessDefinition("s", ScalarAmount(1.0), flows=(flow,))
        model = ProcessModel("m", (sp,), ScenarioGrid(1, 1), ("GWP100",))
        inv = compute_inventory(model, db_with({"fuel": row}))
        assert inv.emissions["CO2"][0, 0] == 6.0
        assert not inv.emissions["CO2"].flags.writeable  # all-scalar: a constant view

    def test_inventory_has_the_run_matrix_bits(self):
        # each flow's unit impact for GWP100 equals its per-unit CO2 emission,
        # so the inventory and the impact grid are the same fold
        rows = {ref: BackgroundRow(flow=ref, unit_cost=0.0, impacts={"GWP100": e},
                                   inventory={"CO2": e})
                for ref, e in (("steel", 0.7), ("gas", 0.45))}
        uniform = DistributionAmount(DistributionSpec("uniform", (1.0, 2.0)))
        steel = np.random.default_rng(4).uniform(0.1, 9.0, (3, 4))
        sp = SubProcessDefinition("plant", ScalarAmount(2.5), flows=(
            FlowDefinition("steel", "inflow", MatrixAmount(steel), background_ref="steel"),
            FlowDefinition("stack", "outflow", uniform, inline_unit_impact={"GWP100": 1.0},
                           inline_unit_cost=0.0, substance="CO2"),
            FlowDefinition("gas", "inflow", ScalarAmount(3.1), background_ref="gas"),
        ))
        model = ProcessModel("m", (sp,), ScenarioGrid(3, 4), ("GWP100",))
        db = db_with(rows)
        emissions = compute_inventory(model, db, seed=11).emissions["CO2"]
        impacts = run_matrix(model, db, seed=11).impacts["GWP100"]
        assert emissions.tobytes() == impacts.tobytes()

    def test_empty_inventory_contributes_nothing(self):
        model = simple_model()
        inv = compute_inventory(model, empty_db())
        assert inv.emissions == {}

    def test_same_substance_adds_across_flows(self):
        row = BackgroundRow(flow="fuel", unit_cost=0.0, impacts={"GWP100": 0.0},
                            inventory={"CO2": 2.0})
        f1 = FlowDefinition("fuel1", "inflow", ScalarAmount(3.0), background_ref="fuel")
        f2 = FlowDefinition("fuel2", "inflow", ScalarAmount(1.0), background_ref="fuel")
        sp = SubProcessDefinition("s", ScalarAmount(1.0), flows=(f1, f2))
        model = ProcessModel("m", (sp,), ScenarioGrid(1, 1), ("GWP100",))
        inv = compute_inventory(model, db_with({"fuel": row}))
        assert inv.emissions["CO2"][0, 0] == 8.0

    def test_substance_tag_is_unit_emission(self):
        model = simple_model(flow_amount=4.0, substance="CO2")
        inv = compute_inventory(model, empty_db())
        assert inv.emissions["CO2"][0, 0] == 4.0

    def test_matches_oracle(self, heatplant, background_db):
        inv = compute_inventory(heatplant, background_db)
        data = {
            "grid": (2, 5),
            "subprocesses": [
                {"amount": 1.0, "flows": [
                    {"amount": 1755.0, "unit_impact": {}, "unit_cost": 0,
                     "inventory": {"CO2": 36.0, "CH4": 0.15}},
                    {"amount": 180.0, "unit_impact": {}, "unit_cost": 0, "inventory": {}},
                ]},
                {"amount": 1.0, "flows": [
                    {"amount": 27.0, "unit_impact": {}, "unit_cost": 0,
                     "inventory": {"CO2": 380.0, "NOx": 0.45}},
                    {"amount": 4.5, "unit_impact": {}, "unit_cost": 0, "inventory": {}},
                    {"amount": [[81000.0] * 5, [81000.0, 79000.0, 77000.0, 75000.0, 73000.0]],
                     "unit_impact": {}, "unit_cost": 0, "inventory": {"CO2": 1.0}},
                ]},
            ],
        }
        from oracles import oracle_inventory

        expected = oracle_inventory(data)
        for substance, grid in expected.items():
            np.testing.assert_allclose(inv.emissions[substance], grid, rtol=1e-9)
