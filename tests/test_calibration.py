import numpy as np
import pytest

from capsub import (CalibrationFailed, DomainError, SyntheticPopulationSpec, TariffBook,
                    VclCurveParams, calibrate_capacity_price, derive_schedules,
                    energy_reference_revenue, expected_cost, generate_population,
                    optimize_static, stacks_for_scenarios)

from conftest import make_series, singleton_set


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
        second = calibrate_capacity_price(population, first.book, reference, 1e-5,
                                          initial_hi=first.capacity_price)
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

    def test_dynamic_needs_schedules(self, dynamic_book):
        population = mini_population(consumers=2)
        with pytest.raises(DomainError):
            calibrate_capacity_price(population, dynamic_book, 1000.0, 1e-4)
