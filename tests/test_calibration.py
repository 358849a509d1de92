import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from capsub import (ActivationSchedule, CalibrationFailed, DomainError, HourlyLoadSeries,
                    ScenarioSet, SyntheticPopulationSpec, TariffBook,
                    VclCurveParams, calibrate_capacity_price, derive_schedules,
                    energy_reference_revenue, expected_cost, generate_population,
                    optimize_static, stacks_for_scenarios)
from capsub.optimizer import PreparedObjective, _argmin_index

from conftest import make_series, objective_table, singleton_set


def aggregate_at(lines, price):
    """Aggregate optimized cost: the sum of every consumer's lower envelope at ``price``."""
    return float(sum(np.min(const + price * levels) for levels, const in lines))


def bisection_price(lines, reference, tolerance):
    """Independent oracle: the bracket-and-bisection search that Newton steps replaced.

    Doubles an upper bracket from 1 (at most 16 times) until the aggregate
    reaches the reference, then bisects until it is within
    ``tolerance * reference``.
    """
    abs_tol = tolerance * reference
    lo, hi = 0.0, 1.0
    if abs(aggregate_at(lines, lo) - reference) <= abs_tol:
        return lo
    for _ in range(16):
        if aggregate_at(lines, hi) >= reference:
            break
        hi *= 2.0
    assert aggregate_at(lines, hi) >= reference, "reference beyond the bracket"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        agg_mid = aggregate_at(lines, mid)
        if abs(agg_mid - reference) <= abs_tol:
            return mid
        if agg_mid < reference:
            lo = mid
        else:
            hi = mid
    raise AssertionError(f"bisection did not reach {tolerance:g} within 200 steps")


def table_newton(lines, reference):
    """Calibration's Newton steps over every consumer's full table; returns (price, trace).

    This is how calibration evaluated each price before it costed only a
    window of each table; inputs are assumed to be valid.
    """
    trace = []

    def evaluate(price):
        aggregate = slope = 0.0
        for levels, const in lines:
            objective = const + price * levels
            k = _argmin_index(objective)
            aggregate += float(objective[k])
            slope += float(levels[k])
        trace.append((price, aggregate))
        return aggregate, slope

    price = 0.0
    aggregate, slope = evaluate(price)
    while aggregate < reference and slope > 0.0:
        step = price + (reference - aggregate) / slope
        if step <= price:
            break
        price = step
        aggregate, slope = evaluate(price)
    return price, trace


def mini_population(consumers=8, seed=5):
    spec = SyntheticPopulationSpec(
        consumer_count=consumers,
        years=("2015", "2016"),
        rng_seed=seed,
        base_load_kw=0.9,
        seasonal_amplitude=2.2,
        daily_amplitude=1.2,
        spike_rate=60.0,
        spike_magnitude=3.0,
        noise_amplitude=0.3,
        cold_year_factor=(0.95, 1.25),
    )
    return generate_population(spec)


class TestFlatLoadClosedForm:
    def test_matches_hand_algebra(self, energy_book, static_book):
        # one flat consumer: optimal subscription is exactly the load, so the
        # optimized CS cost is fixed + c*L + energy_price*L*hours, linear in c
        load = 2.0
        hours = 8760
        population = [singleton_set(make_series([load] * hours))]
        reference = energy_reference_revenue(population, energy_book)
        assert reference == pytest.approx(204.6 + 0.01859 * load * hours, rel=1e-12)

        tolerance = 1e-6
        outcome = calibrate_capacity_price(population, static_book, reference, tolerance)
        closed_form = (reference - 135.0 - static_book.energy_price * load * hours) / load
        # |aggregate(c) - ref| <= tol*ref and the aggregate has slope L in c
        assert abs(outcome.capacity_price - closed_form) <= tolerance * reference / load
        assert outcome.relative_gap <= tolerance


_loads = st.one_of(st.integers(0, 24).map(lambda k: 0.25 * k), st.floats(0.1, 10.0))


@st.composite
def calibration_inputs(draw):
    """1-6 consumers over 1-2 short years; a static book, or a dynamic one with
    shared activation schedules and per-consumer stacks."""
    hours = draw(st.integers(1, 24))
    years = [str(2013 + k) for k in range(draw(st.integers(1, 2)))]
    dynamic = draw(st.booleans())
    population = []
    for c in range(draw(st.integers(1, 6))):
        series = []
        for year in years:
            loads = np.array(draw(st.lists(_loads, min_size=hours, max_size=hours)))
            loads[draw(st.integers(0, hours - 1))] += 0.5  # a positive peak for the stack
            series.append(HourlyLoadSeries(f"c{c}", year, loads))
        population.append(ScenarioSet.equiprobable(series))
    # a whole year's fixed fee on a few hours of load would dwarf what the price moves
    fixed = draw(st.sampled_from([0.0, 135.0 * hours / 8760]))
    if not dynamic:
        return population, TariffBook.static_cs(fixed, 67.5, 0.005, 0.10), None, \
            [None] * len(population)
    params = VclCurveParams(draw(st.floats(0.5, 10.0)), draw(st.floats(0.5, 20.0)))
    schedules = {}
    for year in years:
        mask = draw(st.lists(st.booleans(), min_size=hours, max_size=hours))
        schedules[year] = ActivationSchedule(year, np.flatnonzero(mask))
    stacks = [stacks_for_scenarios(consumer, params, draw(st.integers(1, 8)))
              for consumer in population]
    return population, TariffBook.dynamic_cs(fixed, 54.0, 0.005, params.voll), schedules, stacks


class TestNewtonExactness:
    def test_flat_load_closed_form_holds_to_rounding(self, energy_book, static_book):
        # the aggregate is one line of slope L, so the first step lands on the root
        load, hours = 2.0, 8760
        population = [singleton_set(make_series([load] * hours))]
        reference = energy_reference_revenue(population, energy_book)
        outcome = calibrate_capacity_price(population, static_book, reference, 1e-6)
        closed_form = (reference - 135.0 - static_book.energy_price * load * hours) / load
        assert outcome.capacity_price == pytest.approx(closed_form, rel=1e-12)
        assert outcome.relative_gap <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_smallest_price_reaching_the_reference(self, data):
        population, book, schedules, stacks = data.draw(calibration_inputs())
        lines = [objective_table(consumer, book, schedules, consumer_stacks)
                 for consumer, consumer_stacks in zip(population, stacks)]
        at_zero = aggregate_at(lines, 0.0)
        # every consumer's zero-kW line is flat: the aggregate saturates at their sum
        saturation = float(sum(const[0] for _, const in lines))
        assume(saturation - at_zero > 1e-6 * saturation)
        share = data.draw(st.floats(0.01, 0.99))
        reference = at_zero + share * (saturation - at_zero)

        outcome = calibrate_capacity_price(population, book, reference, 1e-12,
                                           schedules=schedules, stacks_by_consumer=stacks)
        price = outcome.capacity_price
        assert aggregate_at(lines, price) == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert aggregate_at(lines, price * (1.0 - 1e-9)) < reference
        assert bisection_price(lines, reference, 1e-13) == pytest.approx(price, rel=1e-9)
        prices = [p for p, _ in outcome.trace]
        assert all(a < b for a, b in zip(prices, prices[1:]))
        assert outcome.iterations == len(outcome.trace)


class TestCalibrationBuildsNoFullTable:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_outcome_as_the_full_tables(self, data):
        population, book, schedules, stacks = data.draw(calibration_inputs())
        lines = [objective_table(consumer, book, schedules, consumer_stacks)
                 for consumer, consumer_stacks in zip(population, stacks)]
        at_zero = aggregate_at(lines, 0.0)
        saturation = float(sum(const[0] for _, const in lines))
        assume(saturation - at_zero > 1e-6 * saturation)
        reference = at_zero + data.draw(st.floats(0.01, 0.99)) * (saturation - at_zero)
        price, trace = table_newton(lines, reference)

        def refuse(self):
            raise AssertionError("calibration built a full objective table")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PreparedObjective, "lines", refuse)
            outcome = calibrate_capacity_price(population, book, reference, 1e-12,
                                               schedules=schedules, stacks_by_consumer=stacks)
        assert outcome.capacity_price.hex() == price.hex()
        assert [(p.hex(), a.hex()) for p, a in outcome.trace] == \
            [(p.hex(), a.hex()) for p, a in trace]
        assert outcome.iterations == len(trace)


class TestSelfConsistency:
    def test_recovers_the_price_that_generated_the_reference(self, static_book):
        population = mini_population()
        reference = sum(
            optimize_static(c, static_book).expected_breakdown.total_monetary
            for c in population
        )
        outcome = calibrate_capacity_price(population, static_book, reference, 1e-6)
        assert outcome.capacity_price == pytest.approx(67.5, abs=0.05)

    def test_idempotent(self, energy_book, static_book):
        population = mini_population()
        reference = energy_reference_revenue(population, energy_book)
        first = calibrate_capacity_price(population, static_book, reference, 1e-5)
        second = calibrate_capacity_price(population, first.book, reference, 1e-5)
        assert second.capacity_price == pytest.approx(first.capacity_price, rel=1e-5)

    def test_trace_is_monotone_in_price(self, energy_book, static_book):
        population = mini_population()
        reference = energy_reference_revenue(population, energy_book)
        outcome = calibrate_capacity_price(population, static_book, reference, 1e-5)
        trace = sorted(outcome.trace)
        prices = [p for p, _ in trace]
        aggregates = [a for _, a in trace]
        assert prices == sorted(prices)
        assert all(b >= a - 1e-9 for a, b in zip(aggregates, aggregates[1:]))


class TestStaticVsDynamicOrdering:
    def test_dynamic_price_below_static_when_cuts_occur(self, energy_book,
                                                        static_book, dynamic_book):
        population = mini_population(consumers=12, seed=11)
        years = population[0].year_labels
        aggregate_peak = max(
            np.sum([c.scenario_for(y).series.loads for c in population], axis=0).max()
            for y in years
        )
        threshold = 0.88 * aggregate_peak
        schedules = derive_schedules(population, threshold)
        assert sum(s.count for s in schedules.values()) > 0
        params = VclCurveParams(dynamic_book.voll, 8.0)
        stacks = [stacks_for_scenarios(c, params, 10) for c in population]
        reference = energy_reference_revenue(population, energy_book)

        static_outcome = calibrate_capacity_price(population, static_book, reference, 1e-5)
        dynamic_outcome = calibrate_capacity_price(population, dynamic_book, reference, 1e-5,
                                                   schedules=schedules,
                                                   stacks_by_consumer=stacks)
        assert dynamic_outcome.relative_gap <= 1e-5
        assert static_outcome.relative_gap <= 1e-5
        assert dynamic_outcome.capacity_price < static_outcome.capacity_price


class TestErrorHandling:
    def test_rejects_energy_only_book(self, energy_book):
        population = mini_population(consumers=2)
        with pytest.raises(DomainError):
            calibrate_capacity_price(population, energy_book, 1000.0, 1e-4)

    def test_rejects_bad_tolerance(self, static_book):
        population = mini_population(consumers=2)
        with pytest.raises(DomainError):
            calibrate_capacity_price(population, static_book, 1000.0, 0.0)

    def test_rejects_bad_reference(self, static_book):
        population = mini_population(consumers=2)
        with pytest.raises(DomainError):
            calibrate_capacity_price(population, static_book, -5.0, 1e-4)

    def test_unreachable_reference_fails(self, static_book):
        # the optimized aggregate saturates at fixed + excess_price*energy
        population = mini_population(consumers=2)
        with pytest.raises(CalibrationFailed, match="no capacity price"):
            calibrate_capacity_price(population, static_book, 1e12, 1e-4)

    def test_reference_below_free_capacity_cost_fails(self, static_book):
        population = mini_population(consumers=2)
        with pytest.raises(CalibrationFailed, match="zero capacity price"):
            calibrate_capacity_price(population, static_book, 1.0, 1e-4)

    def test_rejects_empty_population(self, static_book):
        with pytest.raises(DomainError, match="population must not be empty"):
            calibrate_capacity_price([], static_book, 100.0, 1e-6)

    def test_dynamic_needs_schedules(self, dynamic_book):
        population = mini_population(consumers=2)
        with pytest.raises(DomainError):
            calibrate_capacity_price(population, dynamic_book, 1000.0, 1e-4)
