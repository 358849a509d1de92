import math

import numpy as np
import pytest

from capsub import (ActivationSchedule, DomainError, IllPosed, LoadScenario, ScenarioMismatch,
                    ScenarioSet, TariffBook, VclSegmentStack, build_segment_stack,
                    VclCurveParams, cost_dynamic_cs, cost_energy_tariff, cost_static_cs,
                    expected_cost)
from capsub.tariff_engine import active_loads, annual_cost

from conftest import make_series, singleton_set

PARAMS = VclCurveParams(5.0, 8.0)


def vcl_oracle(f, b=8.0, voll=5.0):
    return voll * (1.0 - math.exp(-b * f)) / (1.0 - math.exp(-b))


class TestEnergyTariff:
    def test_zero_load_pays_fixed_only(self, energy_book):
        bd = cost_energy_tariff(make_series(np.zeros(8760)), energy_book)
        assert bd.total_monetary == pytest.approx(204.6, rel=1e-9)
        assert bd.capacity == 0.0 and bd.excess == 0.0 and bd.discomfort == 0.0

    def test_ten_mwh_bill(self, energy_book):
        # 204.6 + 0.01859 * 10000 = 390.5
        loads = np.zeros(8760)
        loads[:1000] = 10.0
        bd = cost_energy_tariff(make_series(loads), energy_book)
        assert bd.total_monetary == pytest.approx(390.5, rel=1e-9)

    def test_energy_term_is_linear(self, energy_book):
        loads = np.linspace(0.0, 3.0, 100)
        single = cost_energy_tariff(make_series(loads), energy_book)
        double = cost_energy_tariff(make_series(2.0 * loads), energy_book)
        assert double.energy_below == 2.0 * single.energy_below

    def test_wrong_regime_rejected(self, static_book):
        with pytest.raises(DomainError):
            cost_energy_tariff(make_series([1.0]), static_book)


class TestStaticCs:
    def test_two_hour_example(self, static_book):
        # 135 + 67.5*2 + 0.005*(1+2) + 0.10*1 = 270.115
        bd = cost_static_cs(make_series([1.0, 3.0]), static_book, 2.0)
        assert bd.total_monetary == pytest.approx(270.115, rel=1e-9)
        assert bd.fixed == 135.0
        assert bd.capacity == pytest.approx(135.0, rel=1e-12)
        assert bd.energy_below == pytest.approx(0.015, rel=1e-9)
        assert bd.excess == pytest.approx(0.10, rel=1e-9)

    def test_subscription_at_peak_has_no_excess(self, static_book):
        bd = cost_static_cs(make_series([1.0, 3.0, 2.0]), static_book, 3.0)
        assert bd.excess == 0.0

    def test_zero_subscription_pays_excess_on_everything(self, static_book):
        series = make_series([1.0, 3.0])
        bd = cost_static_cs(series, static_book, 0.0)
        assert bd.energy_below == 0.0
        assert bd.excess == pytest.approx(static_book.excess_price * 4.0, rel=1e-12)
        assert bd.capacity == 0.0

    def test_negative_subscription_rejected(self, static_book):
        with pytest.raises(DomainError):
            cost_static_cs(make_series([1.0]), static_book, -0.5)


class TestDynamicCs:
    def make_schedule(self, hours, year="2015"):
        return ActivationSchedule(year, np.asarray(hours, dtype=np.int64))

    def test_empty_schedule_means_no_limiting(self, dynamic_book):
        series = make_series([1.0, 3.0, 2.0, 4.0])
        stack = build_segment_stack(PARAMS, series.peak_kw, 4)
        schedule = self.make_schedule([])
        for level in (0.0, 1.0, 2.5, 10.0):
            bd = cost_dynamic_cs(series, dynamic_book, level, schedule, stack)
            assert bd.discomfort == 0.0
            assert bd.excess == 0.0
            assert bd.energy_below == pytest.approx(
                dynamic_book.energy_price * series.total_kwh, rel=1e-12)
            assert bd.total_monetary == pytest.approx(
                135.0 + 54.0 * level + dynamic_book.energy_price * series.total_kwh, rel=1e-12)

    def test_one_active_hour_cut(self, dynamic_book):
        # peak 3 with a hand-built two-segment stack priced at f=0.5 and f=1.0;
        # cutting 1 kWh fills only the first 1.5 kW segment
        series = make_series([1.0, 3.0, 2.0])
        stack = VclSegmentStack(3.0, np.array([1.5, 1.5]),
                                np.array([vcl_oracle(0.5), vcl_oracle(1.0)]))
        schedule = self.make_schedule([1])
        bd = cost_dynamic_cs(series, dynamic_book, 2.0, schedule, stack)
        assert bd.discomfort == pytest.approx(1.0 * vcl_oracle(0.5), rel=1e-12)
        assert bd.discomfort == pytest.approx(4.910068950189542, rel=1e-12)
        served = series.total_kwh - 1.0
        assert bd.energy_below == pytest.approx(dynamic_book.energy_price * served, rel=1e-12)

    def test_subscribing_at_peak_avoids_all_discomfort(self, dynamic_book):
        series = make_series([2.0, 3.0, 1.0])
        stack = build_segment_stack(PARAMS, series.peak_kw, 10)
        schedule = self.make_schedule([0, 1, 2])
        bd = cost_dynamic_cs(series, dynamic_book, series.peak_kw, schedule, stack)
        assert bd.discomfort == 0.0

    def test_year_mismatch_rejected(self, dynamic_book):
        series = make_series([1.0, 2.0], year_label="2015")
        stack = build_segment_stack(PARAMS, 2.0, 2)
        schedule = self.make_schedule([0], year="2016")
        with pytest.raises(ScenarioMismatch):
            cost_dynamic_cs(series, dynamic_book, 1.0, schedule, stack)

    def test_undersized_stack_rejected(self, dynamic_book):
        series = make_series([1.0, 4.0])
        stack = build_segment_stack(PARAMS, 2.0, 2)  # peak basis below series peak
        with pytest.raises(ScenarioMismatch):
            cost_dynamic_cs(series, dynamic_book, 1.0, self.make_schedule([1]), stack)

    def test_schedule_beyond_the_series_rejected(self, dynamic_book):
        series = make_series([1.0, 2.0, 1.5])
        stack = build_segment_stack(PARAMS, series.peak_kw, 2)
        with pytest.raises(ScenarioMismatch, match="hour index 3 outside a 3-hour year"):
            cost_dynamic_cs(series, dynamic_book, 1.0, self.make_schedule([1, 3]), stack)

    def test_cheap_first_segment_rejected(self):
        expensive_energy = TariffBook.dynamic_cs(135.0, 54.0, 3.0, 5.0)
        series = make_series([1.0, 2.0])
        stack = build_segment_stack(PARAMS, 2.0, 10)  # first midpoint cost ~1.65 < 3.0
        with pytest.raises(IllPosed):
            cost_dynamic_cs(series, expensive_energy, 1.0, self.make_schedule([0]), stack)

    def test_dynamic_monetary_never_exceeds_static_at_equal_level(
            self, dynamic_book, static_book):
        rng = np.random.default_rng(5)
        loads = rng.uniform(0.0, 5.0, 300)
        series = make_series(loads)
        stack = build_segment_stack(PARAMS, series.peak_kw, 10)
        schedule = self.make_schedule(np.flatnonzero(loads > 4.0))
        level = 2.5
        dynamic = cost_dynamic_cs(series, dynamic_book, level, schedule, stack)
        static = cost_static_cs(series, static_book, level)
        # same capacity price for a clean revenue comparison
        assert dynamic.total_monetary - dynamic.capacity <= static.total_monetary - static.capacity


class TestActiveLoads:
    def test_loads_of_the_active_hours_in_order(self, dynamic_book):
        series = make_series([1.0, 3.0, 2.0, 4.0, 0.5])
        stack = build_segment_stack(PARAMS, series.peak_kw, 4)
        schedule = ActivationSchedule("2015", np.array([0, 3, 4]))
        assert active_loads(series, dynamic_book, schedule, stack).tolist() == [1.0, 4.0, 0.5]

    def test_hour_beyond_the_series_rejected(self, dynamic_book):
        series = make_series(np.ones(8760))
        stack = build_segment_stack(PARAMS, series.peak_kw, 4)
        schedule = ActivationSchedule("2015", np.array([5, 9000]))
        with pytest.raises(ScenarioMismatch, match="hour index 9000 outside a 8760-hour year"):
            active_loads(series, dynamic_book, schedule, stack)


class TestExpectedCost:
    def test_single_scenario_equals_plain_cost(self, static_book):
        series = make_series([1.0, 3.0])
        expected = expected_cost(singleton_set(series), static_book, 2.0)
        plain = cost_static_cs(series, static_book, 2.0)
        assert expected.as_dict() == pytest.approx(plain.as_dict())

    def test_two_identical_scenarios_average_to_the_same(self, static_book):
        a = make_series([1.0, 3.0], year_label="2015")
        b = make_series([1.0, 3.0], year_label="2016")
        ss = ScenarioSet((LoadScenario(a, 0.5), LoadScenario(b, 0.5)))
        expected = expected_cost(ss, static_book, 2.0)
        assert expected.total_monetary == pytest.approx(
            cost_static_cs(a, static_book, 2.0).total_monetary, rel=1e-12)

    def test_energy_terms_average(self, static_book):
        a = make_series([1.0, 1.0], year_label="2015")
        b = make_series([3.0, 3.0], year_label="2016")
        ss = ScenarioSet((LoadScenario(a, 0.5), LoadScenario(b, 0.5)))
        expected = expected_cost(ss, static_book, 10.0)
        ea = cost_static_cs(a, static_book, 10.0).energy_below
        eb = cost_static_cs(b, static_book, 10.0).energy_below
        assert expected.energy_below == pytest.approx((ea + eb) / 2.0, rel=1e-12)
        # fixed and capacity are certain, not averaged
        assert expected.fixed == 135.0
        assert expected.capacity == pytest.approx(675.0, rel=1e-12)

    def test_dynamic_requires_schedules_and_stacks(self, dynamic_book):
        ss = singleton_set(make_series([1.0, 2.0]))
        with pytest.raises(ScenarioMismatch):
            expected_cost(ss, dynamic_book, 1.0)


class TestAnnualCost:
    def test_dispatches_on_the_book_regime(self, energy_book, static_book, dynamic_book):
        rng = np.random.default_rng(8)
        series = make_series(rng.uniform(0.0, 5.0, 200))
        schedule = ActivationSchedule("2015", np.flatnonzero(series.loads > 4.0))
        stack = build_segment_stack(PARAMS, series.peak_kw, 10)
        schedules, stacks = {"2015": schedule}, {"2015": stack}
        assert annual_cost(series, energy_book, 0.0) == cost_energy_tariff(series, energy_book)
        assert annual_cost(series, static_book, 2.5) == cost_static_cs(series, static_book, 2.5)
        assert annual_cost(series, dynamic_book, 2.5, schedules, stacks) == \
            cost_dynamic_cs(series, dynamic_book, 2.5, schedule, stack)

    def test_dynamic_requires_schedule_and_stack(self, dynamic_book):
        with pytest.raises(ScenarioMismatch):
            annual_cost(make_series([1.0, 2.0]), dynamic_book, 1.0)
