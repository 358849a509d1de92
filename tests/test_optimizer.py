import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capsub import (ActivationSchedule, DomainError, HourlyLoadSeries, IllPosed, LoadScenario,
                    PolicyKind, ScenarioMismatch, ScenarioSet, SyntheticPopulationSpec,
                    TariffBook, VclCurveParams, build_segment_stack,
                    default_tariff_bundle, derive_activations, expected_cost,
                    generate_population, optimize_deterministic,
                    optimize_dynamic, optimize_static, run_study, stacks_for_scenarios,
                    static_objective_lines, study)
from capsub.optimizer import (TIE_RTOL, PreparedObjective, _argmin_index, objective_lines,
                              prepare_objective)
from capsub.tariff_engine import PEAK_MATCH_RTOL

from conftest import expected_exceedance_hours, make_series, objective_table, singleton_set

PARAMS = VclCurveParams(5.0, 8.0)


def grid_search_static(scenario_set, book, step_fraction=1e-3):
    """Independent brute-force oracle: evaluate the engine on a dense level grid."""
    peak = max(sc.series.peak_kw for sc in scenario_set.scenarios)
    step = step_fraction * peak
    grid = np.arange(0.0, peak + step, step)
    values = np.array([
        expected_cost(scenario_set, book, float(x)).total_monetary for x in grid
    ])
    best = int(np.argmin(values))
    return float(grid[best]), float(values[best])


def grid_search_dynamic(scenario_set, book, schedules, stacks, step_fraction=1e-3):
    peak = max(sc.series.peak_kw for sc in scenario_set.scenarios)
    step = step_fraction * peak
    grid = np.arange(0.0, peak + step, step)
    values = np.array([
        expected_cost(scenario_set, book, float(x), schedules, stacks).total_welfare
        for x in grid
    ])
    best = int(np.argmin(values))
    return float(grid[best]), float(values[best])


def grid_dynamic_objective_lines(scenario_set, book, schedules, stacks):
    """Independent oracle for the dynamic lines: every candidate level against every active hour.

    This is the levels x active-hours grid that the optimizer used before it
    switched to tail-energy suffix sums; inputs are assumed to be valid.
    """
    per_scenario = []
    candidates = [np.zeros(1)]
    for sc in scenario_set.scenarios:
        series = sc.series
        stack = stacks[series.year_label]
        active = series.loads[schedules[series.year_label].active_hours]
        inactive_energy = series.total_kwh - float(active.sum())
        per_scenario.append((sc.probability, active, stack, inactive_energy))
        if active.size:
            offsets = np.cumsum(stack.widths_kw)[:-1]
            shifted = active[:, None] - offsets[None, :]
            candidates.append(active)
            candidates.append(shifted[shifted > 0.0])

    levels = np.unique(np.concatenate(candidates))
    levels = levels[levels >= 0.0]
    const = np.full(levels.shape, book.fixed_annual)
    for probability, active, stack, inactive_energy in per_scenario:
        const += probability * book.energy_price * inactive_energy
        if not active.size:
            continue
        cum_width = np.concatenate(([0.0], np.cumsum(stack.widths_kw)))
        cum_cost = np.concatenate(([0.0], np.cumsum(stack.widths_kw * stack.marginal_costs)))
        chunk = max(1, (1 << 21) // active.size)
        for start in range(0, levels.size, chunk):
            x = levels[start:start + chunk, None]
            served = np.minimum(active[None, :], x)
            cuts = active[None, :] - served
            idx = np.clip(np.searchsorted(cum_width, cuts, side="left"), 1, stack.segment_count)
            discomfort = cum_cost[idx - 1] + stack.marginal_costs[idx - 1] * (cuts - cum_width[idx - 1])
            const[start:start + chunk] += probability * (
                book.energy_price * served.sum(axis=1) + discomfort.sum(axis=1))
    return levels, const


def loop_constants(objective, levels):
    """The constants as a Python loop over each year's segments, one tail-energy call each.

    This is how ``PreparedObjective.constants`` costed levels before it took
    one searchsorted per year over the levels x segments grid.
    """
    def tail_energy(year, t):
        pos = year.sorted_loads.searchsorted(t, side="right")
        return year.suffix[pos] - t * (year.sorted_loads.size - pos)

    const = np.full(levels.shape, objective.fixed_annual)
    for probability, year in objective.years:
        cut_cost = sum(step * tail_energy(year, levels + floor)
                       for step, floor in zip(year.steps, year.floors))
        const += probability * (objective.energy_price * year.total_kwh + cut_cost)
    return const


def cut_rate(objective, level):
    """The cut cost one more kW above ``level`` saves, counted from the unsorted loads.

    That is sum_s p_s sum_j steps[j] * #{a_s > level + floors[j]}; at a
    capacity price equal to it, the objective is flat just above ``level``.
    """
    return sum(probability * float(year.steps @ (year.loads[:, None] > level + year.floors).sum(0))
               for probability, year in objective.years)


def pooled_static_objective_lines(scenario_set, book):
    """Independent oracle for the static lines: cumulative sums over all scenarios' loads pooled.

    This is the kernel the optimizer used before both objectives were costed
    from per-scenario tail energies; inputs are assumed to be valid.
    """
    values = np.concatenate([sc.series.loads for sc in scenario_set.scenarios])
    weights = np.concatenate([
        np.full(sc.series.hours_count, sc.probability) for sc in scenario_set.scenarios
    ])
    order = np.argsort(values, kind="stable")
    sorted_loads, sorted_weights = values[order], weights[order]
    cum_w = np.cumsum(sorted_weights)
    cum_wv = np.cumsum(sorted_weights * sorted_loads)

    levels = np.unique(np.concatenate(([0.0], sorted_loads)))
    pos = np.searchsorted(sorted_loads, levels, side="right")
    below_wv = np.where(pos > 0, cum_wv[np.maximum(pos - 1, 0)], 0.0)
    below_w = np.where(pos > 0, cum_w[np.maximum(pos - 1, 0)], 0.0)
    energy_below = below_wv + levels * (cum_w[-1] - below_w)
    energy_above = cum_wv[-1] - energy_below
    const = (book.fixed_annual
             + book.energy_price * energy_below
             + book.excess_price * energy_above)
    return levels, const


def interior_static_book(hours, rng):
    # place the exceedance-hour target strictly inside the horizon
    c_l, c_h = 0.005, 0.105
    target_fraction = rng.uniform(0.05, 0.9)
    return TariffBook.static_cs(135.0, target_fraction * (c_h - c_l) * hours, c_l, c_h)


class TestOptimizeStatic:
    def test_constant_load_subscribes_at_the_load(self, static_book):
        ss = singleton_set(make_series([2.0] * 8760))
        result = optimize_static(ss, static_book)
        assert result.decision.level == 2.0
        assert result.decision.policy is PolicyKind.STOCHASTIC

    def test_breakdown_matches_engine_reevaluation(self, static_book):
        rng = np.random.default_rng(0)
        ss = singleton_set(make_series(rng.uniform(0, 5, 500)))
        result = optimize_static(ss, static_book)
        again = expected_cost(ss, static_book, result.decision.level)
        assert result.expected_breakdown.total_monetary == pytest.approx(
            again.total_monetary, rel=1e-9)

    def test_never_worse_than_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            hours = int(rng.integers(20, 200))
            n_scen = int(rng.integers(1, 4))
            series = [make_series(rng.uniform(0, 5, hours), year_label=str(2013 + k))
                      for k in range(n_scen)]
            ss = ScenarioSet.equiprobable(series)
            book = interior_static_book(hours, rng)
            result = optimize_static(ss, book)
            _, grid_best = grid_search_static(ss, book)
            exact = result.expected_breakdown.total_monetary
            assert exact <= grid_best + 1e-9 * abs(grid_best)

    def test_quantile_rule_bracketing(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            hours = int(rng.integers(50, 250))
            series = [make_series(rng.uniform(0, 5, hours))]
            ss = ScenarioSet.equiprobable(series)
            book = interior_static_book(hours, rng)
            target = book.capacity_price / (book.excess_price - book.energy_price)
            level = optimize_static(ss, book).decision.level
            assert expected_exceedance_hours(ss, level) <= target + 1e-9
            if level > 0.0:
                just_below = np.nextafter(level, -np.inf)
                assert expected_exceedance_hours(ss, just_below) >= target - 1e-9

    def test_single_scenario_equals_deterministic(self, static_book):
        rng = np.random.default_rng(1)
        series = make_series(rng.uniform(0, 4, 300))
        stochastic = optimize_static(singleton_set(series), static_book)
        deterministic = optimize_deterministic(series, static_book)
        assert deterministic.decision.level == stochastic.decision.level
        assert deterministic.decision.policy is PolicyKind.DETERMINISTIC
        assert deterministic.decision.source_year_label == "2015"

    def test_ill_posed_prices_rejected(self, static_book):
        # the book invariant blocks construction; the optimizer re-checks defensively
        broken = object.__new__(TariffBook)
        for name, value in (("fixed_annual", 135.0), ("capacity_price", 67.5),
                            ("energy_price", 0.10), ("excess_price", 0.10),
                            ("voll", 0.0), ("regime", static_book.regime)):
            object.__setattr__(broken, name, value)
        with pytest.raises(IllPosed):
            static_objective_lines(singleton_set(make_series([1.0, 2.0])), broken)

    def test_argmin_invariant_under_tradeoff_scaling(self):
        # scaling capacity price and (excess - energy) by the same power of two
        # leaves the optimal level unchanged
        rng = np.random.default_rng(21)
        for _ in range(10):
            hours = int(rng.integers(30, 150))
            ss = singleton_set(make_series(rng.uniform(0, 5, hours)))
            c_l = 0.005
            spread = 0.1
            c_sub = rng.uniform(0.1, 0.9) * spread * hours
            base = TariffBook.static_cs(135.0, c_sub, c_l, c_l + spread)
            scaled = TariffBook.static_cs(135.0, 4.0 * c_sub, c_l, c_l + 4.0 * spread)
            assert optimize_static(ss, base).decision.level == \
                optimize_static(ss, scaled).decision.level


class TestOptimizeDynamic:
    def make_inputs(self, loads, active_hours, segments=4, year="2015"):
        series = make_series(loads, year_label=year)
        ss = singleton_set(series)
        schedules = {year: ActivationSchedule(year, np.asarray(active_hours, dtype=np.int64))}
        stacks = {year: build_segment_stack(PARAMS, series.peak_kw, segments)}
        return ss, schedules, stacks

    def test_no_activations_gives_zero_level(self, dynamic_book):
        rng = np.random.default_rng(3)
        ss, schedules, stacks = self.make_inputs(rng.uniform(0.5, 4.0, 200), [])
        result = optimize_dynamic(ss, dynamic_book, schedules, stacks)
        assert result.decision.level == 0.0
        # without activations the cost depends on the level only via capacity
        for level in (0.0, 1.0, 3.0):
            bd = expected_cost(ss, dynamic_book, level, schedules, stacks)
            assert bd.total_welfare - dynamic_book.capacity_price * level == pytest.approx(
                result.expected_breakdown.total_welfare, rel=1e-12)

    def test_single_scarce_hour_not_worth_subscribing(self, dynamic_book):
        # one activation at peak: a kW of subscription saves at most VoLL (5) for
        # one hour but costs 54 for the year
        loads = np.full(100, 1.0)
        loads[50] = 4.0
        ss, schedules, stacks = self.make_inputs(loads, [50], segments=10)
        result = optimize_dynamic(ss, dynamic_book, schedules, stacks)
        assert result.decision.level == 0.0

    def test_many_scarce_hours_justify_subscribing(self, dynamic_book):
        # 11 activations at peak: the top discomfort segment alone is worth
        # 11 * ~5 > 54 per kW
        loads = np.full(8760, 1.0)
        peak_hours = np.arange(11) * 700
        loads[peak_hours] = 4.0
        ss, schedules, stacks = self.make_inputs(loads, peak_hours, segments=10)
        result = optimize_dynamic(ss, dynamic_book, schedules, stacks)
        assert result.decision.level > 0.0

    def test_never_worse_than_brute_force(self, dynamic_book):
        rng = np.random.default_rng(17)
        for _ in range(20):
            hours = int(rng.integers(10, 120))
            loads = rng.uniform(0.0, 6.0, hours)
            n_active = int(rng.integers(0, hours // 2 + 1))
            active = np.sort(rng.choice(hours, n_active, replace=False))
            ss, schedules, stacks = self.make_inputs(loads, active,
                                                     segments=int(rng.integers(1, 8)))
            result = optimize_dynamic(ss, dynamic_book, schedules, stacks)
            _, grid_best = grid_search_dynamic(ss, dynamic_book, schedules, stacks)
            exact = result.expected_breakdown.total_welfare
            assert exact <= grid_best + 1e-9 * abs(grid_best)

    def test_missing_year_coverage_rejected(self, dynamic_book):
        ss, schedules, stacks = self.make_inputs([1.0, 2.0], [0])
        with pytest.raises(ScenarioMismatch):
            optimize_dynamic(ss, dynamic_book, {}, stacks)

    def test_schedule_beyond_the_series_rejected(self, dynamic_book):
        ss, schedules, stacks = self.make_inputs([1.0, 2.0, 1.5], [0, 3])
        with pytest.raises(ScenarioMismatch, match="hour index 3 outside a 3-hour year"):
            optimize_dynamic(ss, dynamic_book, schedules, stacks)

    def test_breakdown_matches_engine_reevaluation(self, dynamic_book):
        rng = np.random.default_rng(9)
        loads = rng.uniform(0, 5, 400)
        active = np.flatnonzero(loads > 4.0)
        ss, schedules, stacks = self.make_inputs(loads, active, segments=10)
        result = optimize_dynamic(ss, dynamic_book, schedules, stacks)
        again = expected_cost(ss, dynamic_book, result.decision.level, schedules, stacks)
        assert result.expected_breakdown.total_welfare == pytest.approx(
            again.total_welfare, rel=1e-9)


class TestObjectiveLines:
    def test_static_lines_agree_with_engine(self, static_book):
        rng = np.random.default_rng(31)
        series = [make_series(rng.uniform(0, 5, 80), year_label=str(2013 + k))
                  for k in range(2)]
        ss = ScenarioSet.equiprobable(series)
        levels, const = objective_table(ss, static_book)
        for k in range(0, levels.size, 7):
            level = float(levels[k])
            line_value = const[k] + static_book.capacity_price * level
            engine_value = expected_cost(ss, static_book, level).total_monetary
            assert line_value == pytest.approx(engine_value, rel=1e-9)

    def test_dynamic_lines_agree_with_engine(self, dynamic_book):
        rng = np.random.default_rng(37)
        loads = rng.uniform(0, 5, 120)
        series = make_series(loads)
        ss = singleton_set(series)
        schedules = {"2015": ActivationSchedule("2015", np.flatnonzero(loads > 3.5))}
        stacks = {"2015": build_segment_stack(PARAMS, series.peak_kw, 5)}
        levels, const = objective_table(ss, dynamic_book, schedules, stacks)
        for k in range(0, levels.size, 11):
            level = float(levels[k])
            line_value = const[k] + dynamic_book.capacity_price * level
            engine_value = expected_cost(
                ss, dynamic_book, level, schedules, stacks).total_welfare
            assert line_value == pytest.approx(engine_value, rel=1e-9)

    def test_static_objective_is_convex_along_candidates(self, static_book):
        rng = np.random.default_rng(41)
        ss = singleton_set(make_series(rng.uniform(0, 5, 150)))
        levels, const = objective_table(ss, static_book)
        values = const + static_book.capacity_price * levels
        slopes = np.diff(values) / np.diff(levels)
        assert np.all(np.diff(slopes) >= -1e-8)


class TestPolicies:
    def test_deterministic_dominates_stochastic_per_scenario(self, static_book):
        rng = np.random.default_rng(53)
        series = [make_series(rng.uniform(0, 5, 400), year_label=str(2013 + k))
                  for k in range(3)]
        ss = ScenarioSet.equiprobable(series)
        stochastic_level = optimize_static(ss, static_book).decision.level
        for s in series:
            det = optimize_deterministic(s, static_book)
            at_stochastic = expected_cost(singleton_set(s), static_book, stochastic_level)
            assert det.expected_breakdown.total_monetary <= \
                at_stochastic.total_monetary * (1.0 + 1e-12)

    # the reactive policy applies the previous year's deterministic optimum
    def test_reactive_on_identical_years_matches_deterministic(self, static_book):
        rng = np.random.default_rng(59)
        loads = rng.uniform(0, 5, 300)
        year1 = make_series(loads, year_label="2015")
        year2 = make_series(loads, year_label="2016")
        decision = optimize_deterministic(year1, static_book).decision
        assert decision.policy is PolicyKind.DETERMINISTIC
        assert decision.source_year_label == "2015"
        det2 = optimize_deterministic(year2, static_book)
        cost_reactive = expected_cost(singleton_set(year2), static_book, decision.level)
        assert cost_reactive.total_monetary == pytest.approx(
            det2.expected_breakdown.total_monetary, rel=1e-12)

    def test_reactive_level_is_a_previous_year_breakpoint(self, static_book):
        rng = np.random.default_rng(61)
        loads = rng.uniform(0, 5, 200)
        decision = optimize_deterministic(make_series(loads), static_book).decision
        assert decision.level == 0.0 or decision.level in loads

    def test_reactive_dynamic_zero_then_painful(self, dynamic_book):
        # year 1 has no scarcity -> reactive subscribes 0; year 2 has enough
        # activated peak hours (15 * ~5 EUR/kWh > 54 EUR/kW) that foresight
        # subscribes while the reactive consumer takes the full cut
        calm = make_series(np.full(100, 2.0), year_label="2015")
        stormy_loads = np.full(100, 2.0)
        stormy_loads[10:25] = 4.0
        stormy = make_series(stormy_loads, year_label="2016")
        calm_schedule = ActivationSchedule("2015", np.array([], dtype=np.int64))
        stormy_schedule = ActivationSchedule("2016", np.arange(10, 25))
        calm_stack = build_segment_stack(PARAMS, calm.peak_kw, 10)
        stormy_stack = build_segment_stack(PARAMS, stormy.peak_kw, 10)

        decision = optimize_deterministic(calm, dynamic_book, calm_schedule, calm_stack).decision
        assert decision.level == 0.0
        reactive_cost = expected_cost(singleton_set(stormy), dynamic_book, decision.level,
                                      {"2016": stormy_schedule}, {"2016": stormy_stack})
        det = optimize_deterministic(stormy, dynamic_book, stormy_schedule, stormy_stack)
        assert reactive_cost.discomfort > 0.0
        assert reactive_cost.total_welfare > det.expected_breakdown.total_welfare

    def test_energy_only_has_nothing_to_optimize(self, energy_book):
        with pytest.raises(DomainError):
            optimize_deterministic(make_series([1.0, 2.0]), energy_book)

    def test_energy_only_has_no_objective_lines(self, energy_book):
        with pytest.raises(DomainError, match="expected 'dynamic'"):
            objective_lines(singleton_set(make_series([1.0, 2.0])), energy_book)


# loads on a coarse grid repeat and line up with whole segment widths, so
# duplicate and coinciding breakpoints are common; the rest are arbitrary
_load_values = st.one_of(st.integers(0, 24).map(lambda k: 0.25 * k),
                         st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))


@st.composite
def dynamic_inputs(draw):
    """A scenario set of 1-3 years with random active hours, and a J-segment stack per year."""
    hours = draw(st.integers(1, 48))
    n_years = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 9), min_size=n_years, max_size=n_years))
    segments = draw(st.integers(1, 12))
    params = VclCurveParams(draw(st.floats(0.5, 10.0)), draw(st.floats(0.5, 20.0)))
    book = TariffBook.dynamic_cs(draw(st.sampled_from([0.0, 135.0])), 54.0, 0.005, params.voll)
    scenarios, schedules, stacks = [], {}, {}
    for k in range(n_years):
        year = str(2013 + k)
        loads = np.array(draw(st.lists(_load_values, min_size=hours, max_size=hours)))
        loads[draw(st.integers(0, hours - 1))] += 0.5  # a positive peak for the stack
        series = HourlyLoadSeries("c0", year, loads)
        mask = np.array(draw(st.lists(st.booleans(), min_size=hours, max_size=hours)))
        schedules[year] = ActivationSchedule(year, np.flatnonzero(mask))
        # the stack's peak basis may sit just below the series peak
        shortfall = draw(st.sampled_from([0.0, 0.5 * PEAK_MATCH_RTOL, PEAK_MATCH_RTOL]))
        stacks[year] = build_segment_stack(params, series.peak_kw * (1.0 - shortfall), segments)
        scenarios.append(LoadScenario(series, weights[k] / sum(weights)))
    return ScenarioSet(tuple(scenarios)), book, schedules, stacks


class TestDynamicLinesMatchGridOracle:
    @settings(max_examples=200, deadline=None)
    @given(dynamic_inputs())
    def test_same_levels_constants_and_optima(self, inputs):
        scenario_set, book, schedules, stacks = inputs
        levels, const = objective_table(scenario_set, book, schedules, stacks)
        grid_levels, grid_const = grid_dynamic_objective_lines(
            scenario_set, book, schedules, stacks)
        np.testing.assert_array_equal(levels, grid_levels)
        np.testing.assert_allclose(const, grid_const, rtol=1e-12, atol=0.0)
        for price in (0.0, 0.5, 5.0, 54.0, 500.0):
            objective = const + price * levels
            grid_objective = grid_const + price * levels
            best, grid_best = np.argmin(objective), np.argmin(grid_objective)
            if best != grid_best:
                # two candidates an ulp apart whose costs differ below the
                # grid's rounding: each kernel must rate both picks as tied
                for values in (objective, grid_objective):
                    assert values[best] == pytest.approx(values[grid_best], rel=1e-12)


class TestAllActiveHours:
    def test_two_all_active_years_optimize_fast_to_a_local_minimum(self, dynamic_book):
        # the criterion-9 recipe never loads a consumer below 0.9 - 0.3 = 0.6 kW,
        # so a 0.5 kW threshold activates all 17,544 hours of 2015-2016; a grid
        # over levels x active hours took about 50 s on this input
        spec = SyntheticPopulationSpec(
            consumer_count=1, years=("2015", "2016"), rng_seed=404, base_load_kw=0.9,
            seasonal_amplitude=2.2, daily_amplitude=1.2, spike_rate=40.0,
            spike_magnitude=3.0, noise_amplitude=0.3, cold_year_factor=(0.95, 1.25))
        (consumer,) = generate_population(spec)
        schedules = {sc.series.year_label: derive_activations([sc.series], 0.5)
                     for sc in consumer.scenarios}
        assert sum(s.count for s in schedules.values()) == 8760 + 8784
        stacks = stacks_for_scenarios(consumer, VclCurveParams(dynamic_book.voll))

        start = time.perf_counter()
        result = optimize_dynamic(consumer, dynamic_book, schedules, stacks)
        assert time.perf_counter() - start < 10.0

        level = result.decision.level
        assert level > 0.0

        def welfare(x):
            return expected_cost(consumer, dynamic_book, x, schedules, stacks).total_welfare

        best = welfare(level)
        assert best <= welfare(level * (1.0 - 1e-6))
        assert best <= welfare(level * (1.0 + 1e-6))


@st.composite
def static_inputs(draw):
    """A scenario set of 1-3 years with unequal probabilities; loads repeat and include zeros."""
    hours = draw(st.integers(1, 48))
    n_years = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 9), min_size=n_years, max_size=n_years))
    book = TariffBook.static_cs(draw(st.sampled_from([0.0, 135.0])), 67.5, 0.005, 0.10)
    scenarios = []
    for k in range(n_years):
        loads = draw(st.lists(_load_values, min_size=hours, max_size=hours))
        series = HourlyLoadSeries("c0", str(2013 + k), np.array(loads))
        scenarios.append(LoadScenario(series, weights[k] / sum(weights)))
    return ScenarioSet(tuple(scenarios)), book


class TestStaticLinesMatchPooledOracle:
    @settings(max_examples=200, deadline=None)
    @given(static_inputs(), st.lists(st.floats(0.0, 500.0), min_size=3, max_size=3),
           st.data())
    def test_same_levels_constants_and_choice(self, inputs, prices, data):
        scenario_set, book = inputs
        levels, const = objective_table(scenario_set, book)
        pooled_levels, pooled_const = pooled_static_objective_lines(scenario_set, book)
        np.testing.assert_array_equal(levels, pooled_levels)
        np.testing.assert_allclose(const, pooled_const, rtol=1e-11, atol=0.0)
        # a price equal to (excess - energy) x H(x) makes the objective flat
        # on the piece above x, so both of its ends are optimal
        pieces = data.draw(st.lists(st.sampled_from(levels.tolist()), min_size=1, max_size=3))
        spread = book.excess_price - book.energy_price
        flat = [spread * expected_exceedance_hours(scenario_set, x) for x in pieces]
        for price in prices + flat:
            assert levels[_argmin_index(const + price * levels)] == \
                pooled_levels[_argmin_index(pooled_const + price * pooled_levels)]


class TestTieRule:
    def test_flat_piece_returns_its_smaller_end(self, static_book):
        # 95 EUR/kW = 1000 h x (excess - energy): the cost is flat between the
        # 1001st and the 1000th largest load. Summation order alone once
        # decided which end np.argmin returned; on this input it was the upper.
        book = replace(static_book, capacity_price=95.0)
        loads = np.round(np.random.default_rng(9).uniform(0.0, 5.0, 1500), 3)
        ss = singleton_set(make_series(loads))
        ordered = np.sort(loads)
        lower, upper = ordered[-1001], ordered[-1000]
        assert lower < upper
        at_lower = expected_cost(ss, book, lower).total_monetary
        at_upper = expected_cost(ss, book, upper).total_monetary
        assert at_lower == pytest.approx(at_upper, rel=TIE_RTOL)

        assert optimize_static(ss, book).decision.level == lower

    def test_near_ties_resolve_to_the_smallest_level(self):
        levels = np.array([0.0, 1.0, 2.0, 3.0])
        objective = np.array([10.0, 5.0 * (1 + 0.5 * TIE_RTOL), 5.0, 5.0 * (1 + 2 * TIE_RTOL)])
        assert levels[_argmin_index(objective)] == 1.0


def _rounded_loads(hours, decimals):
    """Loads rounded to ``decimals`` places; about 30% of them are zero."""
    value = st.tuples(st.integers(0, 9), st.floats(0.0, 10.0)).map(
        lambda t: 0.0 if t[0] < 3 else round(t[1], decimals))
    return st.lists(value, min_size=hours, max_size=hours)


@st.composite
def window_inputs(draw):
    """A static or dynamic scenario set, its objective's arguments and a cluster of tied loads.

    The cluster is a run of loads a few ulps apart in the first year (active
    there, for dynamic books). Near a zero slope their costs differ by far
    less than TIE_RTOL, so several candidates tie and the window must grow
    to reach the first of them. Returns (scenario set, book, schedules,
    stacks, cluster middle or None).
    """
    hours = draw(st.integers(1, 59))
    n_years = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 9), min_size=n_years, max_size=n_years))
    decimals = draw(st.integers(0, 2))
    dynamic = draw(st.booleans())
    cluster = draw(st.integers(5, 15)) if draw(st.booleans()) and hours >= 15 else 0
    segments = draw(st.integers(1, 5))
    params = VclCurveParams(draw(st.floats(0.5, 10.0)), draw(st.floats(0.5, 20.0)))
    if dynamic:
        book = TariffBook.dynamic_cs(draw(st.sampled_from([0.0, 135.0])), 54.0, 0.005,
                                     params.voll)
    else:
        book = TariffBook.static_cs(draw(st.sampled_from([0.0, 135.0])), 67.5, 0.005, 0.10)
    scenarios, schedules, stacks = [], {}, {}
    middle = None
    for k in range(n_years):
        year = str(2013 + k)
        loads = np.array(draw(_rounded_loads(hours, decimals)))
        loads[draw(st.integers(0, hours - 1))] += 0.5  # a positive peak for the stack
        mode = draw(st.sampled_from(["none", "all", "some"]))
        mask = (np.zeros(hours, bool) if mode == "none" else np.ones(hours, bool)
                if mode == "all" else np.array(draw(st.lists(st.booleans(), min_size=hours,
                                                             max_size=hours))))
        if k == 0 and cluster:
            base = draw(st.floats(0.5, 5.0))
            loads[:cluster] = base * (1.0 + 2e-16 * np.arange(cluster))
            mask[:cluster] = True
            middle = float(loads[cluster // 2])
        series = HourlyLoadSeries("c0", year, loads)
        schedules[year] = ActivationSchedule(year, np.flatnonzero(mask))
        stacks[year] = build_segment_stack(params, series.peak_kw, segments)
        scenarios.append(LoadScenario(series, weights[k] / sum(weights)))
    return ScenarioSet(tuple(scenarios)), book, schedules, stacks, middle


class TestWindowMatchesFullTable:
    @settings(max_examples=300, deadline=None)
    @given(window_inputs(), st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_same_level_bit_for_bit(self, inputs, fractions):
        scenario_set, book, schedules, stacks, middle = inputs
        objective = prepare_objective(scenario_set, book, schedules, stacks)
        levels, const = objective_table(scenario_set, book, schedules, stacks)
        np.testing.assert_array_equal(objective.levels, levels)

        # the steepest descent is at level 0; prices run from 0 to beyond it
        steepest = cut_rate(objective, 0.0)
        prices = [0.0, 1.5 * steepest + 1.0] + [f * 1.2 * steepest for f in fractions]
        # a price equal to a piece's slope makes that piece flat
        prices += [cut_rate(objective, levels[len(levels) // 3]),
                   cut_rate(objective, levels[-2]) if len(levels) > 1 else 0.0]
        if middle is not None:
            prices.append(cut_rate(objective, middle))
        for price in prices:
            table = const + price * levels
            k = _argmin_index(table)
            level, value = objective.argmin(price)
            assert (level.hex(), value.hex()) == (float(levels[k]).hex(), float(table[k]).hex()), \
                price

    # dynamic_inputs draws up to 12 segments: a pairwise sum differs from the
    # loop's left-to-right one from 8 terms on
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(window_inputs().map(lambda inputs: inputs[:4]), dynamic_inputs()),
           st.data())
    def test_constants_equal_the_segment_loop_bit_for_bit(self, inputs, data):
        scenario_set, book, schedules, stacks = inputs
        objective = prepare_objective(scenario_set, book, schedules, stacks)
        levels = objective.levels
        subset = np.unique(np.array(data.draw(st.lists(
            st.integers(0, levels.size - 1), min_size=1, max_size=12)), dtype=np.int64))
        for some in (levels, levels[subset], levels[subset[:1]]):
            np.testing.assert_array_equal(objective.constants(some).view(np.int64),
                                          loop_constants(objective, some).view(np.int64))

    def test_window_grows_to_the_first_tied_level(self, static_book):
        # 40 loads a few ulps apart: at the price where the slope crosses zero
        # among them, all 40 cost the same to within TIE_RTOL, and the first
        # lies far below the initial window
        loads = np.concatenate([np.full(200, 1.0), 3.0 * (1.0 + 2e-16 * np.arange(40)),
                                np.full(100, 4.0)])
        ss = singleton_set(make_series(loads))
        objective = prepare_objective(ss, static_book)
        levels, const = objective_table(ss, static_book)
        price = cut_rate(objective, levels[30])
        expected = levels[_argmin_index(const + price * levels)]
        # the window starts at the last probe, every ceil(sqrt(L))-th level,
        # where the slope is negative
        probes = range(0, levels.size, math.isqrt(levels.size - 1) + 1)
        start = max(k for k in probes if cut_rate(objective, levels[k]) > price)
        assert np.flatnonzero(levels == expected)[0] < start - 4
        assert objective.argmin(price)[0] == expected


class TestStudyBuildsNoFullTable:
    def test_same_study_result_with_the_tables_refused(self, monkeypatch):
        spec = SyntheticPopulationSpec(
            consumer_count=3, years=("2015", "2016"), rng_seed=5, base_load_kw=0.9,
            seasonal_amplitude=2.2, daily_amplitude=1.2, spike_rate=40.0,
            spike_magnitude=3.0, noise_amplitude=0.3, cold_year_factor=(0.95, 1.25))
        population = generate_population(spec)
        bundle = default_tariff_bundle()

        def run():
            return run_study(population, bundle, policies=("det", "stoch", "reactive"),
                             threshold_kw=8.0, vcl_segments=10)

        def table_level(scenario_set, book, schedules=None, stacks=None, prepared=None):
            levels, const = objective_table(scenario_set, book, schedules, stacks)
            return float(levels[_argmin_index(const + book.capacity_price * levels)])

        with monkeypatch.context() as patch:
            patch.setattr(study, "optimize_expected", table_level)
            expected = run()

        def refuse(self):
            raise AssertionError("the study built a full objective table")

        monkeypatch.setattr(PreparedObjective, "lines", refuse)
        got = run()
        assert got.consumers == expected.consumers
        assert (got.policies, got.regimes) == (expected.policies, expected.regimes)
        assert got.schedules.keys() == expected.schedules.keys()
        assert any(s.count for s in got.schedules.values())
