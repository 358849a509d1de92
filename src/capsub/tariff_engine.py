"""Annual cost evaluation for the energy-only, static CS and dynamic CS tariffs.

Given a load series, a tariff book and a subscription level, the split
between energy below and above the subscription is forced hour by hour
(min/max), so no optimization is needed at evaluation time. Under the
dynamic scheme, energy is billed on served consumption only: load cut by the
limiting device is never delivered and therefore never pays the energy fee.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .activation import ActivationSchedule
from .data_model import CostBreakdown, HourlyLoadSeries, ScenarioSet, TariffBook, TariffRegime
from .errors import DomainError, IllPosed, ScenarioMismatch
from .vcl import VclSegmentStack, discomfort_cost_array

PEAK_MATCH_RTOL = 1e-9


def require_regime(book: TariffBook, regime: TariffRegime) -> None:
    """Reject a book of another regime with a DomainError."""
    if book.regime is not regime:
        raise DomainError(f"tariff book has regime {book.regime.value!r}, expected {regime.value!r}")


def _require_level(x_sub: float) -> float:
    level = float(x_sub)
    if not math.isfinite(level) or level < 0.0:
        raise DomainError(f"subscription level must be finite and >= 0, got {x_sub}")
    return level


def cost_energy_tariff(series: HourlyLoadSeries, book: TariffBook) -> CostBreakdown:
    """Fixed charge plus a volumetric fee on all consumption."""
    require_regime(book, TariffRegime.ENERGY_ONLY)
    return CostBreakdown(
        fixed=book.fixed_annual,
        capacity=0.0,
        energy_below=book.energy_price * series.total_kwh,
    )


def cost_static_cs(series: HourlyLoadSeries, book: TariffBook, x_sub: float) -> CostBreakdown:
    """Static capacity subscription: excess above the level pays the high fee every hour."""
    require_regime(book, TariffRegime.STATIC_CS)
    level = _require_level(x_sub)
    below = np.minimum(series.loads, level)
    energy_below = float(below.sum())
    energy_above = series.total_kwh - energy_below
    return CostBreakdown(
        fixed=book.fixed_annual,
        capacity=book.capacity_price * level,
        energy_below=book.energy_price * energy_below,
        excess=book.excess_price * energy_above,
    )


def schedule_and_stack(schedules: Mapping[str, ActivationSchedule] | None,
                       stacks: Mapping[str, VclSegmentStack] | None,
                       year: str) -> tuple[ActivationSchedule, VclSegmentStack]:
    """The activation schedule and discomfort stack filed under a scenario year."""
    if schedules is None or stacks is None or year not in schedules or year not in stacks:
        raise ScenarioMismatch(f"no schedule/stack for scenario year {year!r}")
    return schedules[year], stacks[year]


def active_loads(series: HourlyLoadSeries, book: TariffBook, schedule: ActivationSchedule,
                 stack: VclSegmentStack) -> np.ndarray:
    """The series' active-hour loads, once schedule, stack and book are checked against it.

    This is the one compatibility check of dynamic inputs, shared with the optimizer.
    """
    if schedule.year_label != series.year_label:
        raise ScenarioMismatch(
            f"schedule year {schedule.year_label!r} does not match series year "
            f"{series.year_label!r}")
    if stack.peak_load_kw < series.peak_kw * (1.0 - PEAK_MATCH_RTOL):
        raise ScenarioMismatch(
            f"stack peak basis {stack.peak_load_kw} kW is below the "
            f"{series.year_label} series peak {series.peak_kw} kW")
    first = float(stack.marginal_costs[0])  # the cheapest cut must beat the energy fee
    if first <= book.energy_price:
        raise IllPosed(
            f"cheapest discomfort segment ({first} EUR/kWh) does not exceed the "
            f"energy price ({book.energy_price} EUR/kWh); curtailment would be "
            "preferable to consumption")
    hours = schedule.active_hours
    if hours.size and hours[-1] >= series.hours_count:
        raise ScenarioMismatch(
            f"schedule for {schedule.year_label} has hour index {int(hours[-1])} "
            f"outside a {series.hours_count}-hour year")
    return series.loads[hours]


def cost_dynamic_cs(series: HourlyLoadSeries, book: TariffBook, x_sub: float,
                    schedule: ActivationSchedule, stack: VclSegmentStack) -> CostBreakdown:
    """Dynamic capacity subscription: load is clamped to the level in active hours only.

    Outside active hours the full load is served at the energy fee regardless
    of the subscription. During activations, consumption above the level is
    cut and valued at the stack's increasing discomfort schedule.
    """
    require_regime(book, TariffRegime.DYNAMIC_CS)
    level = _require_level(x_sub)
    active = active_loads(series, book, schedule, stack)
    served_active = np.minimum(active, level)
    cuts = active - served_active
    served_total = (series.total_kwh - float(active.sum())) + float(served_active.sum())
    discomfort = float(discomfort_cost_array(stack, cuts).sum()) if cuts.size else 0.0
    return CostBreakdown(
        fixed=book.fixed_annual,
        capacity=book.capacity_price * level,
        energy_below=book.energy_price * served_total,
        discomfort=discomfort,
    )


def annual_cost(series: HourlyLoadSeries, book: TariffBook, x_sub: float,
                schedules: Mapping[str, ActivationSchedule] | None = None,
                stacks: Mapping[str, VclSegmentStack] | None = None) -> CostBreakdown:
    """One year's cost under the book's regime; dynamic books need its schedule and stack."""
    if book.regime is TariffRegime.ENERGY_ONLY:
        return cost_energy_tariff(series, book)
    if book.regime is TariffRegime.STATIC_CS:
        return cost_static_cs(series, book, x_sub)
    schedule, stack = schedule_and_stack(schedules, stacks, series.year_label)
    return cost_dynamic_cs(series, book, x_sub, schedule, stack)


def expected_cost(scenario_set: ScenarioSet, book: TariffBook, x_sub: float,
                  schedules: Mapping[str, ActivationSchedule] | None = None,
                  stacks: Mapping[str, VclSegmentStack] | None = None) -> CostBreakdown:
    """Probability-weighted annual cost across the scenario set.

    Fixed and capacity charges are certain and not scenario-weighted; the
    volumetric terms are weighted by scenario probability.
    """
    level = _require_level(x_sub)
    energy_below = 0.0
    excess = 0.0
    discomfort = 0.0
    for scenario in scenario_set.scenarios:
        item = annual_cost(scenario.series, book, level, schedules, stacks)
        p = scenario.probability
        energy_below += p * item.energy_below
        excess += p * item.excess
        discomfort += p * item.discomfort
    return CostBreakdown(
        fixed=book.fixed_annual,
        capacity=book.capacity_price * level,
        energy_below=energy_below,
        excess=excess,
        discomfort=discomfort,
    )
