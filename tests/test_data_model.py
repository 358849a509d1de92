import numpy as np
import pytest
from hypothesis import given, strategies as st

from capsub import (CostBreakdown, DegenerateProfile, HourlyLoadSeries, LoadScenario,
                    PolicyKind, ScenarioSet, SubscriptionDecision, TariffBook,
                    full_load_hours, load_factor)

from conftest import make_series


class TestFullLoadHours:
    def test_flat_profile_gives_hours_count(self):
        series = make_series([2.0] * 8760)
        assert full_load_hours(series) == pytest.approx(8760.0, rel=1e-12)

    def test_two_hour_example(self):
        # hand arithmetic: (1 + 3) / 3
        series = make_series([1.0, 3.0])
        assert full_load_hours(series) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_single_spike(self):
        loads = np.zeros(8760)
        loads[1234] = 10.0
        assert full_load_hours(make_series(loads)) == pytest.approx(1.0, rel=1e-12)

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateProfile):
            full_load_hours(make_series([0.0, 0.0, 0.0]))

    @given(scale=st.floats(min_value=1e-6, max_value=1e6),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        loads = rng.uniform(0.01, 5.0, 50)
        base = full_load_hours(make_series(loads))
        scaled = full_load_hours(make_series(loads * scale))
        assert scaled == pytest.approx(base, rel=1e-9)


class TestLoadFactor:
    def test_flat_profile(self):
        assert load_factor(make_series([1.5] * 100)) == pytest.approx(1.0, rel=1e-12)

    def test_two_hour_example(self):
        assert load_factor(make_series([1.0, 3.0])) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_single_spike(self):
        loads = np.zeros(8760)
        loads[0] = 7.0
        assert load_factor(make_series(loads)) == pytest.approx(1.0 / 8760.0, rel=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        loads = rng.uniform(0.0, 4.0, 30) + 1e-9
        assert 0.0 < load_factor(make_series(loads)) <= 1.0


class TestHourlyLoadSeries:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_series([1.0, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_series([1.0, np.nan])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_series([])

    def test_immutable_loads(self):
        series = make_series([1.0, 2.0])
        with pytest.raises(ValueError):
            series.loads[0] = 9.0


class TestScenarioSet:
    def test_equiprobable(self):
        series = [make_series([1.0], year_label=str(y)) for y in (2013, 2014, 2015)]
        ss = ScenarioSet.equiprobable(series)
        assert ss.year_labels == ("2013", "2014", "2015")
        assert all(sc.probability == pytest.approx(1.0 / 3.0) for sc in ss.scenarios)

    def test_equiprobable_rejects_no_series(self):
        with pytest.raises(ValueError, match="^scenario set must not be empty$"):
            ScenarioSet.equiprobable([])

    def test_probabilities_must_sum_to_one(self):
        a = make_series([1.0], year_label="2013")
        b = make_series([1.0], year_label="2014")
        with pytest.raises(ValueError):
            ScenarioSet((LoadScenario(a, 0.5), LoadScenario(b, 0.4)))

    def test_rejects_mixed_consumers(self):
        a = make_series([1.0], consumer_id="a", year_label="2013")
        b = make_series([1.0], consumer_id="b", year_label="2014")
        with pytest.raises(ValueError):
            ScenarioSet((LoadScenario(a, 0.5), LoadScenario(b, 0.5)))

    def test_rejects_duplicate_years(self):
        a = make_series([1.0], year_label="2013")
        b = make_series([2.0], year_label="2013")
        with pytest.raises(ValueError):
            ScenarioSet((LoadScenario(a, 0.5), LoadScenario(b, 0.5)))

    def test_scenario_for(self):
        series = [make_series([1.0], year_label=str(y)) for y in (2013, 2014)]
        ss = ScenarioSet.equiprobable(series)
        assert ss.scenario_for("2014").series.year_label == "2014"
        with pytest.raises(KeyError):
            ss.scenario_for("1999")


class TestTariffBook:
    def test_static_needs_excess_above_energy(self):
        with pytest.raises(ValueError):
            TariffBook.static_cs(135.0, 67.5, 0.10, 0.10)

    def test_dynamic_needs_positive_voll(self):
        with pytest.raises(ValueError):
            TariffBook.dynamic_cs(135.0, 54.0, 0.005, 0.0)

    def test_energy_only_bans_capacity_terms(self):
        with pytest.raises(ValueError):
            TariffBook(204.6, 5.0, 0.0186)

    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError):
            TariffBook.energy_only(-1.0, 0.0186)


class TestCostBreakdown:
    def test_total_monetary_is_exact_sum(self):
        bd = CostBreakdown(fixed=135.0, capacity=67.5, energy_below=12.25, excess=3.125)
        assert bd.total_monetary == 135.0 + 67.5 + 12.25 + 3.125

    def test_total_welfare_adds_discomfort(self):
        bd = CostBreakdown(fixed=1.0, capacity=2.0, energy_below=3.0, discomfort=4.0)
        assert bd.total_welfare == bd.total_monetary + 4.0

    def test_as_dict_round_trips_fields(self):
        bd = CostBreakdown(1.0, 2.0, 3.0, 4.0, 5.0)
        d = bd.as_dict()
        assert d["total_monetary"] == bd.total_monetary
        assert d["total_welfare"] == bd.total_welfare


class TestSubscriptionDecision:
    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            SubscriptionDecision(-1.0, PolicyKind.STOCHASTIC)

    def test_deterministic_requires_source_year(self):
        with pytest.raises(ValueError):
            SubscriptionDecision(1.0, PolicyKind.DETERMINISTIC)
        SubscriptionDecision(1.0, PolicyKind.DETERMINISTIC, source_year_label="2015")

    def test_reactive_requires_source_year(self):
        with pytest.raises(ValueError):
            SubscriptionDecision(1.0, PolicyKind.REACTIVE)
