"""Load-limiting-device activation schedules derived from aggregate population load."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data_model import HourlyLoadSeries, ScenarioSet
from .errors import DomainError, ScenarioMismatch


@dataclass(frozen=True)
class ActivationSchedule:
    """Hours of one scenario year in which load limiting is active."""

    year_label: str
    active_hours: np.ndarray

    def __post_init__(self) -> None:
        hours = np.asarray(self.active_hours, dtype=np.int64)
        if hours.ndim != 1:
            raise ValueError("active_hours must be 1-D")
        if hours.size and (np.any(np.diff(hours) <= 0) or hours[0] < 0):
            raise ValueError("active_hours must be sorted, unique and non-negative")
        hours.flags.writeable = False
        object.__setattr__(self, "active_hours", hours)

    @property
    def count(self) -> int:
        return int(self.active_hours.size)

    def active_mask(self, hours_count: int) -> np.ndarray:
        """Boolean per-hour mask; rejects hour indices beyond the series length."""
        if self.active_hours.size and self.active_hours[-1] >= hours_count:
            raise ScenarioMismatch(
                f"schedule for {self.year_label} has hour index {int(self.active_hours[-1])} "
                f"outside a {hours_count}-hour year")
        mask = np.zeros(hours_count, dtype=bool)
        mask[self.active_hours] = True
        return mask


def derive_activations(population: Sequence[HourlyLoadSeries],
                       threshold_kw: float) -> ActivationSchedule:
    """Hours where the summed population load strictly exceeds the threshold.

    The comparison is strict: an aggregate load exactly at the threshold does
    not trigger an activation.
    """
    if not population:
        raise ScenarioMismatch("cannot derive activations from an empty population")
    if not (threshold_kw > 0.0 and math.isfinite(threshold_kw)):
        raise DomainError(f"threshold must be > 0, got {threshold_kw}")
    year = population[0].year_label
    hours_count = population[0].hours_count
    for series in population[1:]:
        if series.year_label != year or series.hours_count != hours_count:
            raise ScenarioMismatch(
                f"population mixes years/lengths: {series.year_label} ({series.hours_count} h) "
                f"vs {year} ({hours_count} h)")
    aggregate = np.sum([s.loads for s in population], axis=0)
    active = np.flatnonzero(aggregate > threshold_kw)
    return ActivationSchedule(year, active)


def derive_schedules(population: Sequence[ScenarioSet],
                     threshold_kw: float) -> dict[str, ActivationSchedule]:
    """One schedule per scenario year, from the aggregate load of the population.

    Every consumer must cover the same years, in the same order, as the first.
    """
    if not population:
        raise ScenarioMismatch("cannot derive activations from an empty population")
    years = population[0].year_labels
    for consumer in population[1:]:
        if consumer.year_labels != years:
            raise ScenarioMismatch(
                f"consumer {consumer.consumer_id} covers years {consumer.year_labels}, "
                f"expected {years} as for {population[0].consumer_id}")
    return {
        year: derive_activations(
            [consumer.scenario_for(year).series for consumer in population], threshold_kw)
        for year in years
    }


@dataclass(frozen=True)
class ActivationSummaryRow:
    year_label: str
    hours: int
    share_pct: float


def activation_summary(schedules: Sequence[ActivationSchedule]) -> list[ActivationSummaryRow]:
    """Per-year activation counts and each year's share of the grand total.

    Shares are percentages and sum to 100. With no activations at all there is
    nothing to apportion and the summary is empty.
    """
    if not schedules:
        raise DomainError("activation_summary needs at least one schedule")
    total = sum(s.count for s in schedules)
    if total == 0:
        return []
    return [
        ActivationSummaryRow(s.year_label, s.count, 100.0 * s.count / total)
        for s in schedules
    ]


def write_schedules_csv(schedules: Iterable[ActivationSchedule], path: str | Path) -> None:
    """Export schedules as ``year_label,hour_index`` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["year_label", "hour_index"])
        for schedule in schedules:
            for hour in schedule.active_hours.tolist():
                writer.writerow([schedule.year_label, hour])
