"""Core domain types: load series, scenario sets, tariff books and cost breakdowns.

All types are immutable after construction and safe to share across parallel
workers. Monetary amounts are EUR, energy is kWh, power is kW; at hourly
resolution kWh/h and kW are used interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DegenerateProfile

PROBABILITY_TOL = 1e-9


@dataclass(frozen=True)
class HourlyLoadSeries:
    """One hourly load series for one consumer and one scenario year.

    Attributes:
        consumer_id: Opaque consumer identifier.
        year_label: Scenario identifier, e.g. "2015".
        loads: Non-negative hourly energy values in kWh/h.

    Ingested full-year data always has 8760 or 8784 hours; that constraint is
    enforced at the ingestion boundary so that short synthetic series remain
    usable for analysis and testing.
    """

    consumer_id: str
    year_label: str
    loads: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.loads, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("loads must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("loads must be finite")
        if np.any(arr < 0.0):
            raise ValueError("loads must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "loads", arr)

    @property
    def hours_count(self) -> int:
        return int(self.loads.size)

    @property
    def peak_kw(self) -> float:
        return float(self.loads.max())

    @property
    def total_kwh(self) -> float:
        return float(self.loads.sum())


@dataclass(frozen=True)
class LoadScenario:
    """A weather-year load series together with its scenario probability."""

    series: HourlyLoadSeries
    probability: float

    def __post_init__(self) -> None:
        p = float(self.probability)
        if not (0.0 <= p <= 1.0) or not np.isfinite(p):
            raise ValueError(f"scenario probability {p} outside [0, 1]")
        object.__setattr__(self, "probability", p)


@dataclass(frozen=True)
class ScenarioSet:
    """All weather-year scenarios of one consumer, with probabilities summing to 1."""

    scenarios: tuple[LoadScenario, ...]

    def __post_init__(self) -> None:
        scenarios = tuple(self.scenarios)
        if not scenarios:
            raise ValueError("scenario set must not be empty")
        total_p = sum(s.probability for s in scenarios)
        if abs(total_p - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"scenario probabilities sum to {total_p}, not 1")
        consumer_ids = {s.series.consumer_id for s in scenarios}
        if len(consumer_ids) != 1:
            raise ValueError(f"scenarios mix consumers: {sorted(consumer_ids)}")
        labels = [s.series.year_label for s in scenarios]
        if len(set(labels)) != len(labels):
            raise ValueError("scenario year labels must be distinct")
        object.__setattr__(self, "scenarios", scenarios)

    @classmethod
    def equiprobable(cls, series: Sequence[HourlyLoadSeries]) -> "ScenarioSet":
        """Wrap per-year series with probability 1/n each."""
        n = len(series)
        if n == 0:
            raise ValueError("scenario set must not be empty")
        return cls(tuple(LoadScenario(s, 1.0 / n) for s in series))

    @property
    def consumer_id(self) -> str:
        return self.scenarios[0].series.consumer_id

    @property
    def year_labels(self) -> tuple[str, ...]:
        return tuple(s.series.year_label for s in self.scenarios)

    def scenario_for(self, year_label: str) -> LoadScenario:
        for s in self.scenarios:
            if s.series.year_label == year_label:
                return s
        raise KeyError(f"no scenario with year label {year_label!r}")


class TariffRegime(Enum):
    ENERGY_ONLY = "energy"
    STATIC_CS = "static"
    DYNAMIC_CS = "dynamic"


@dataclass(frozen=True)
class TariffBook:
    """Price vector for one tariff regime.

    Attributes:
        fixed_annual: Fixed annual charge [EUR/year].
        capacity_price: Price per subscribed kW [EUR/kW-year]; 0 for energy-only.
        energy_price: Energy fee below the subscription [EUR/kWh].
        excess_price: Fee for energy above the subscription [EUR/kWh]
            (static capacity subscription only).
        voll: Value of lost load [EUR/kWh] (dynamic capacity subscription only).
        regime: Which tariff scheme the prices belong to.
    """

    fixed_annual: float
    capacity_price: float
    energy_price: float
    excess_price: float = 0.0
    voll: float = 0.0
    regime: TariffRegime = TariffRegime.ENERGY_ONLY

    def __post_init__(self) -> None:
        for name in ("fixed_annual", "capacity_price", "energy_price", "excess_price", "voll"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
            object.__setattr__(self, name, value)
        if self.regime is TariffRegime.ENERGY_ONLY:
            if self.capacity_price != 0.0 or self.excess_price != 0.0:
                raise ValueError("energy-only tariff must have zero capacity and excess prices")
        elif self.regime is TariffRegime.STATIC_CS:
            if self.excess_price <= self.energy_price:
                raise ValueError("static CS tariff requires excess_price > energy_price")
        elif self.regime is TariffRegime.DYNAMIC_CS:
            if self.voll <= 0.0:
                raise ValueError("dynamic CS tariff requires voll > 0")

    @classmethod
    def energy_only(cls, fixed_annual: float, energy_price: float) -> "TariffBook":
        return cls(fixed_annual, 0.0, energy_price, regime=TariffRegime.ENERGY_ONLY)

    @classmethod
    def static_cs(cls, fixed_annual: float, capacity_price: float,
                  energy_price: float, excess_price: float) -> "TariffBook":
        return cls(fixed_annual, capacity_price, energy_price, excess_price,
                   regime=TariffRegime.STATIC_CS)

    @classmethod
    def dynamic_cs(cls, fixed_annual: float, capacity_price: float,
                   energy_price: float, voll: float) -> "TariffBook":
        return cls(fixed_annual, capacity_price, energy_price, voll=voll,
                   regime=TariffRegime.DYNAMIC_CS)


@dataclass(frozen=True)
class CostBreakdown:
    """Itemized annual cost for one consumer-scenario-tariff combination.

    ``total_monetary`` covers actual payments (fixed + capacity + energy +
    excess); ``total_welfare`` adds the non-monetary discomfort cost of
    curtailed load.
    """

    fixed: float
    capacity: float
    energy_below: float
    excess: float = 0.0
    discomfort: float = 0.0

    @property
    def total_monetary(self) -> float:
        return self.fixed + self.capacity + self.energy_below + self.excess

    @property
    def total_welfare(self) -> float:
        return self.total_monetary + self.discomfort

    def as_dict(self) -> dict[str, float]:
        return {
            "fixed": self.fixed,
            "capacity": self.capacity,
            "energy_below": self.energy_below,
            "excess": self.excess,
            "discomfort": self.discomfort,
            "total_monetary": self.total_monetary,
            "total_welfare": self.total_welfare,
        }


class PolicyKind(Enum):
    DETERMINISTIC = "det"
    STOCHASTIC = "stoch"
    REACTIVE = "reactive"


@dataclass(frozen=True)
class SubscriptionDecision:
    """A chosen subscription level and the policy that produced it.

    ``source_year_label`` names the year whose data determined the level:
    the optimized year for deterministic decisions, the preceding year for
    reactive ones.
    """

    level: float
    policy: PolicyKind
    source_year_label: str | None = None

    def __post_init__(self) -> None:
        level = float(self.level)
        if not np.isfinite(level) or level < 0.0:
            raise ValueError(f"subscription level must be finite and >= 0, got {level}")
        object.__setattr__(self, "level", level)
        if self.policy in (PolicyKind.DETERMINISTIC, PolicyKind.REACTIVE) \
                and self.source_year_label is None:
            raise ValueError(f"{self.policy.value} decision requires a source year label")


def full_load_hours(series: HourlyLoadSeries) -> float:
    """Annual energy divided by peak load [h].

    A flat profile yields the number of hours in the series; a single spike
    yields 1. Invariant under uniform scaling of the loads.
    """
    peak = series.peak_kw
    if peak <= 0.0:
        raise DegenerateProfile(
            f"consumer {series.consumer_id} year {series.year_label}: all-zero load profile")
    return series.total_kwh / peak


def load_factor(series: HourlyLoadSeries) -> float:
    """Full load hours normalized by the hours in the series; in (0, 1]."""
    return full_load_hours(series) / series.hours_count
