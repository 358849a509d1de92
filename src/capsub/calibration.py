"""Revenue-neutral capacity price calibration by Newton steps.

The capacity price is varied until the aggregate cost of the population,
with every consumer re-optimizing its subscription at each trial price,
matches the reference revenue collected under the incumbent energy tariff.
The aggregate uses actual payments (total_monetary) for the static scheme
and payments plus discomfort (total_welfare) for the dynamic scheme, where
physical limitation shifts part of the burden into non-monetary welfare loss.

Each consumer's optimized cost is the pointwise minimum of lines
const_k + price * level_k over its candidate subscription levels, so the
aggregate A(p) is concave, piecewise-linear and non-decreasing in the price.
Each consumer's objective is prepared once; at each trial price its
``argmin`` costs only a window of the lines around the optimum. From p = 0,
each step sums the lines the optimizer's tie rule picks at p and moves to
the price where that sum meets the reference R. Every line lies on or above
its consumer's envelope at every price, so A never exceeds R at the new
price: the steps rise monotonically and stop on the piece of A that holds
R, at the smallest price whose aggregate reaches it. A zero slope below R
means no price reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .activation import ActivationSchedule
from .data_model import ScenarioSet, TariffBook, TariffRegime
from .errors import CalibrationFailed, DomainError
from .optimizer import objective_lines
from .tariff_engine import expected_cost
from .vcl import VclSegmentStack


def energy_reference_revenue(population: Sequence[ScenarioSet], energy_book: TariffBook) -> float:
    """Aggregate expected annual payment of the population under the energy tariff."""
    if energy_book.regime is not TariffRegime.ENERGY_ONLY:
        raise DomainError("reference revenue is defined against an energy-only book")
    return float(sum(
        expected_cost(consumer, energy_book, 0.0).total_monetary for consumer in population
    ))


@dataclass(frozen=True)
class CalibrationOutcome:
    """Calibrated book plus convergence diagnostics."""

    book: TariffBook
    capacity_price: float
    achieved_aggregate: float
    reference_revenue: float
    relative_gap: float
    iterations: int
    trace: tuple[tuple[float, float], ...]


def _consumer_objectives(population, base_book, schedules, stacks_by_consumer):
    stacks_by_consumer = stacks_by_consumer or [None] * len(population)
    return [objective_lines(consumer, base_book, schedules, stacks)[1]
            for consumer, stacks in zip(population, stacks_by_consumer, strict=True)]


def calibrate_capacity_price(population: Sequence[ScenarioSet],
                             base_book: TariffBook,
                             reference_revenue: float,
                             tolerance: float,
                             schedules: Mapping[str, ActivationSchedule] | None = None,
                             stacks_by_consumer: Sequence[Mapping[str, VclSegmentStack]] | None = None,
                             ) -> CalibrationOutcome:
    """Find the smallest capacity price at which aggregate optimized cost meets the reference.

    ``tolerance`` is relative to ``reference_revenue`` and bounds the
    accepted gap. For a dynamic book, per-year activation schedules and
    per-consumer stacks are required.
    """
    if base_book.regime is TariffRegime.ENERGY_ONLY:
        raise DomainError("calibration applies to capacity-subscription regimes only")
    if not (reference_revenue > 0.0 and math.isfinite(reference_revenue)):
        raise DomainError(f"reference revenue must be > 0, got {reference_revenue}")
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        raise DomainError(f"tolerance must be > 0, got {tolerance}")
    if base_book.regime is TariffRegime.DYNAMIC_CS and (
            schedules is None or stacks_by_consumer is None):
        raise DomainError("dynamic calibration needs schedules and per-consumer stacks")
    if not population:
        raise DomainError("population must not be empty")

    objectives = _consumer_objectives(population, base_book, schedules, stacks_by_consumer)
    trace: list[tuple[float, float]] = []

    def evaluate(price: float) -> tuple[float, float]:
        """Aggregate cost and slope of the levels the optimizer picks at ``price``."""
        aggregate = slope = 0.0
        for objective in objectives:
            level, value = objective.argmin(price)
            aggregate += value
            slope += level
        trace.append((price, aggregate))
        return aggregate, slope

    price = 0.0
    aggregate, slope = evaluate(price)
    if aggregate - reference_revenue > tolerance * reference_revenue:
        raise CalibrationFailed(
            f"aggregate cost at zero capacity price ({aggregate:.6g}) already exceeds the "
            f"reference revenue ({reference_revenue:.6g}); prices below zero are not meaningful")
    while aggregate < reference_revenue:
        if slope == 0.0:
            raise CalibrationFailed(
                f"no capacity price reaches the reference revenue {reference_revenue:.6g}: "
                f"from {price:.6g} on, every consumer subscribes 0 kW and the aggregate "
                f"stays at {aggregate:.6g}")
        step = price + (reference_revenue - aggregate) / slope
        if step <= price:
            break
        price = step
        aggregate, slope = evaluate(price)

    gap = abs(aggregate - reference_revenue) / reference_revenue
    if gap > tolerance:
        raise CalibrationFailed(
            f"price {price:.17g} leaves a relative gap of {gap:.3g} to the reference revenue "
            f"{reference_revenue:.6g}, above the tolerance {tolerance:g}")
    return CalibrationOutcome(replace(base_book, capacity_price=price), price, aggregate,
                              reference_revenue, gap, len(trace), tuple(trace))
