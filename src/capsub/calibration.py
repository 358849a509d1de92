"""Revenue-neutral capacity price calibration by bisection.

The capacity price is varied until the aggregate cost of the population,
with every consumer re-optimizing its subscription at each trial price,
matches the reference revenue collected under the incumbent energy tariff.
The aggregate uses actual payments (total_monetary) for the static scheme
and payments plus discomfort (total_welfare) for the dynamic scheme, where
physical limitation shifts part of the burden into non-monetary welfare loss.

Each consumer's optimized cost is the pointwise minimum of lines
const_k + price * level_k over its candidate subscription levels, hence
concave and non-decreasing in the price; the candidate lines are therefore
precomputed once and the bisection itself is exact re-optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .activation import ActivationSchedule
from .data_model import ScenarioSet, TariffBook, TariffRegime
from .errors import CalibrationFailed, DomainError
from .optimizer import objective_lines
from .tariff_engine import expected_cost
from .vcl import VclSegmentStack

MAX_DOUBLINGS = 16
MAX_BISECTIONS = 200


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


def _consumer_lines(population, base_book, schedules, stacks_by_consumer):
    stacks_by_consumer = stacks_by_consumer or [None] * len(population)
    return [objective_lines(consumer, base_book, schedules, stacks)
            for consumer, stacks in zip(population, stacks_by_consumer, strict=True)]


def _aggregate_at(lines, price: float) -> float:
    return float(sum(np.min(const + price * levels) for levels, const in lines))


def calibrate_capacity_price(population: Sequence[ScenarioSet],
                             base_book: TariffBook,
                             reference_revenue: float,
                             tolerance: float,
                             schedules: Mapping[str, ActivationSchedule] | None = None,
                             stacks_by_consumer: Sequence[Mapping[str, VclSegmentStack]] | None = None,
                             initial_hi: float | None = None) -> CalibrationOutcome:
    """Find the capacity price at which aggregate optimized cost meets the reference.

    ``tolerance`` is relative to ``reference_revenue``. For a dynamic book,
    per-year activation schedules and per-consumer stacks are required.
    The upper bracket grows geometrically from ``initial_hi`` (default: the
    base book's capacity price, or 1) and is capped at 2^16 times the start.
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

    lines = _consumer_lines(population, base_book, schedules, stacks_by_consumer)
    abs_tol = tolerance * reference_revenue
    trace: list[tuple[float, float]] = []

    def evaluate(price: float) -> float:
        aggregate = _aggregate_at(lines, price)
        trace.append((price, aggregate))
        return aggregate

    def outcome(price: float, aggregate: float) -> CalibrationOutcome:
        book = replace(base_book, capacity_price=price)
        gap = abs(aggregate - reference_revenue) / reference_revenue
        return CalibrationOutcome(book, price, aggregate, reference_revenue,
                                  gap, len(trace), tuple(trace))

    lo, agg_lo = 0.0, evaluate(0.0)
    if abs(agg_lo - reference_revenue) <= abs_tol:
        return outcome(lo, agg_lo)
    if agg_lo > reference_revenue:
        raise CalibrationFailed(
            f"aggregate cost at zero capacity price ({agg_lo:.6g}) already exceeds the "
            f"reference revenue ({reference_revenue:.6g}); prices below zero are not meaningful")

    hi = initial_hi if initial_hi is not None else max(base_book.capacity_price, 1.0)
    if not (hi > 0.0 and math.isfinite(hi)):
        raise DomainError(f"initial_hi must be > 0, got {hi}")
    agg_hi = evaluate(hi)
    doublings = 0
    while agg_hi < reference_revenue:
        if doublings >= MAX_DOUBLINGS:
            raise CalibrationFailed(
                f"no capacity price up to {hi:.6g} reaches the reference revenue "
                f"{reference_revenue:.6g} (best aggregate {agg_hi:.6g}); the population's "
                "subscription demand saturates below the target")
        hi *= 2.0
        agg_hi = evaluate(hi)
        doublings += 1
    if abs(agg_hi - reference_revenue) <= abs_tol:
        return outcome(hi, agg_hi)

    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        agg_mid = evaluate(mid)
        if abs(agg_mid - reference_revenue) <= abs_tol:
            return outcome(mid, agg_mid)
        if agg_mid < reference_revenue:
            lo = mid
        else:
            hi = mid

    final = 0.5 * (lo + hi)
    agg_final = _aggregate_at(lines, final)
    raise CalibrationFailed(
        f"bisection did not reach relative tolerance {tolerance:g} within "
        f"{MAX_BISECTIONS} iterations (price {final:.9g}, aggregate {agg_final:.6g}, "
        f"reference {reference_revenue:.6g}); the aggregate may be flat at the target level")
