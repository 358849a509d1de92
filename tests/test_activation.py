import numpy as np
import pytest

from capsub import (ActivationSchedule, DomainError, ScenarioMismatch, ScenarioSet,
                    activation_summary, derive_activations, derive_schedules,
                    write_schedules_csv)

from conftest import make_series

# hours counts and share percentages from a six-year activation overview
KNOWN_COUNTS = [13, 42, 148, 10, 19, 59]
KNOWN_SHARES = [4.5, 14.4, 50.9, 3.4, 6.5, 20.3]


def schedule_with_hours(year, count):
    return ActivationSchedule(year, np.arange(count, dtype=np.int64))


class TestDeriveActivations:
    def test_strict_threshold(self):
        # aggregates per hour: [380, 391, 458, 390]; 390 itself must NOT activate
        a = make_series([100.0, 100.0, 200.0, 100.0])
        b = make_series([140.0, 141.0, 158.0, 140.0])
        c = make_series([140.0, 150.0, 100.0, 150.0])
        schedule = derive_activations([a, b, c], 390.0)
        assert schedule.active_hours.tolist() == [1, 2]

    def test_threshold_above_peak_gives_empty_schedule(self):
        schedule = derive_activations([make_series([1.0, 2.0, 3.0])], 10.0)
        assert schedule.count == 0

    def test_tiny_threshold_activates_every_nonzero_hour(self):
        schedule = derive_activations([make_series([0.0, 1.5, 0.0, 2.0])], 1e-9)
        assert schedule.active_hours.tolist() == [1, 3]

    def test_mixed_years_rejected(self):
        a = make_series([1.0, 2.0], year_label="2015")
        b = make_series([1.0, 2.0], year_label="2016")
        with pytest.raises(ScenarioMismatch):
            derive_activations([a, b], 1.0)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(DomainError):
            derive_activations([make_series([1.0])], 0.0)

    def test_threshold_monotonicity_random_populations(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            population = [make_series(rng.uniform(0, 5, 200)) for _ in range(5)]
            thresholds = np.sort(rng.uniform(1.0, 20.0, 3))
            previous = None
            for threshold in thresholds[::-1]:  # descending: sets must grow
                active = set(derive_activations(population, float(threshold)).active_hours.tolist())
                if previous is not None:
                    assert previous <= active
                previous = active


class TestDeriveSchedules:
    def make_population(self, years_by_consumer, rng):
        return [
            ScenarioSet.equiprobable([
                make_series(rng.uniform(0, 5, 48), consumer_id=f"c{k}", year_label=year)
                for year in years])
            for k, years in enumerate(years_by_consumer)
        ]

    def test_one_schedule_per_year_from_the_aggregate(self):
        rng = np.random.default_rng(5)
        population = self.make_population([("2015", "2016")] * 3, rng)
        schedules = derive_schedules(population, 7.5)
        assert list(schedules) == ["2015", "2016"]
        for year, schedule in schedules.items():
            expected = derive_activations(
                [c.scenario_for(year).series for c in population], 7.5)
            assert schedule.year_label == year
            assert schedule.active_hours.tolist() == expected.active_hours.tolist()

    def test_consumer_missing_a_year_rejected(self):
        rng = np.random.default_rng(6)
        population = self.make_population([("2015", "2016"), ("2015",)], rng)
        with pytest.raises(ScenarioMismatch, match="c1 covers years"):
            derive_schedules(population, 7.5)

    def test_empty_population_rejected(self):
        with pytest.raises(ScenarioMismatch):
            derive_schedules([], 7.5)


class TestActivationSummary:
    def test_known_six_year_table(self):
        schedules = [schedule_with_hours(str(2013 + i), c) for i, c in enumerate(KNOWN_COUNTS)]
        rows = activation_summary(schedules)
        assert sum(r.hours for r in rows) == 291
        for row, expected_share in zip(rows, KNOWN_SHARES):
            assert abs(row.share_pct - expected_share) <= 0.05
        assert sum(r.share_pct for r in rows) == pytest.approx(100.0, abs=1e-9)

    def test_single_year_share_is_100(self):
        rows = activation_summary([schedule_with_hours("2015", 10)])
        assert len(rows) == 1 and rows[0].share_pct == pytest.approx(100.0)

    def test_all_empty_gives_no_rows(self):
        schedules = [schedule_with_hours("2015", 0), schedule_with_hours("2016", 0)]
        assert activation_summary(schedules) == []

    def test_needs_at_least_one_schedule(self):
        with pytest.raises(DomainError):
            activation_summary([])


class TestScheduleValidation:
    def test_unsorted_hours_rejected(self):
        with pytest.raises(ValueError):
            ActivationSchedule("2015", np.array([3, 1, 2]))

    def test_negative_hours_rejected(self):
        with pytest.raises(ValueError):
            ActivationSchedule("2015", np.array([-1, 2]))

    def test_mask_rejects_out_of_range(self):
        schedule = ActivationSchedule("2015", np.array([5, 9000]))
        with pytest.raises(ScenarioMismatch):
            schedule.active_mask(8760)

    def test_mask_shape(self):
        schedule = ActivationSchedule("2015", np.array([0, 3]))
        mask = schedule.active_mask(5)
        assert mask.tolist() == [True, False, False, True, False]


class TestScheduleCsv:
    def test_one_row_per_active_hour(self, tmp_path):
        schedules = [
            ActivationSchedule("2015", np.array([4, 17, 902])),
            ActivationSchedule("2016", np.array([], dtype=np.int64)),
            ActivationSchedule("2017", np.array([7])),
        ]
        path = tmp_path / "schedules.csv"
        write_schedules_csv(schedules, path)
        # a year without activations writes no rows
        assert path.read_text(encoding="utf-8") == (
            "year_label,hour_index\n2015,4\n2015,17\n2015,902\n2017,7\n")
