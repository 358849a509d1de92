import numpy as np
import pytest

from capsub import HourlyLoadSeries, LoadScenario, ScenarioSet, TariffBook, study
from capsub.optimizer import prepare_objective


@pytest.fixture
def energy_book():
    return TariffBook.energy_only(204.6, 1.859 / 100.0)


@pytest.fixture
def static_book():
    return TariffBook.static_cs(135.0, 67.5, 0.5 / 100.0, 10.0 / 100.0)


@pytest.fixture
def dynamic_book():
    return TariffBook.dynamic_cs(135.0, 54.0, 0.5 / 100.0, 5.0)


def make_series(loads, consumer_id="c0", year_label="2015"):
    return HourlyLoadSeries(consumer_id, year_label, np.asarray(loads, dtype=float))


def singleton_set(series):
    return ScenarioSet((LoadScenario(series, 1.0),))


@pytest.fixture
def series_factory():
    return make_series


@pytest.fixture
def singleton_factory():
    return singleton_set


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every pool a study starts, in order."""
    sizes = []

    class RecordingPool(study.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(study, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def small_pools(monkeypatch, pool_sizes):
    """Lets a study of a few consumer-years start a pool; returns ``pool_sizes``."""
    monkeypatch.setattr(study, "MIN_CONSUMER_YEARS_PER_WORKER", 1)
    return pool_sizes


def expected_exceedance_hours(scenario_set, level):
    """Oracle: expected number of hours per year with load strictly above ``level``."""
    return float(sum(sc.probability * int(np.count_nonzero(sc.series.loads > level))
                     for sc in scenario_set.scenarios))


def objective_table(scenario_set, book, schedules=None, stacks=None):
    """The full table of the book's objective: every candidate level and its constant."""
    return prepare_objective(scenario_set, book, schedules, stacks).lines()
