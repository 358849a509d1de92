"""Optimal subscription levels for static and dynamic capacity subscription.

Both expected-cost objectives are one-dimensional convex piecewise-linear
functions of the subscription level, so the exact global optimum is found by
evaluating every breakpoint candidate rather than by calling an LP solver:

* static: breakpoints are the distinct load values across all scenarios
  (the objective's subgradient is C_sub - (C_high - C_low) * H(x), where
  H(x) is the expected number of hours with load above x);
* dynamic: breakpoints are the active-hour load values and their offsets by
  whole discomfort-segment widths; each is costed from the tail energy above
  a level, a suffix sum of the sorted active loads, in O(J log N) for N
  active hours and J segments.

Each objective decomposes as const(x_k) + capacity_price * x_k over the
candidate levels, which lets calibration re-optimize cheaply while scanning
capacity prices. Ties are broken toward the smaller level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .activation import ActivationSchedule
from .data_model import (CostBreakdown, HourlyLoadSeries, LoadScenario, PolicyKind,
                         ScenarioSet, SubscriptionDecision, TariffBook, TariffRegime)
from .errors import DomainError, IllPosed, ScenarioMismatch
from .tariff_engine import active_loads, expected_cost, schedule_and_stack
from .vcl import VclSegmentStack

@dataclass(frozen=True)
class OptimizationResult:
    """An optimal decision, its expected cost breakdown and search diagnostics."""

    decision: SubscriptionDecision
    expected_breakdown: CostBreakdown
    candidate_count: int


def _pooled_sorted(scenario_set: ScenarioSet) -> tuple[np.ndarray, np.ndarray]:
    values = np.concatenate([sc.series.loads for sc in scenario_set.scenarios])
    weights = np.concatenate([
        np.full(sc.series.hours_count, sc.probability) for sc in scenario_set.scenarios
    ])
    order = np.argsort(values, kind="stable")
    return values[order], weights[order]


def expected_exceedance_hours(scenario_set: ScenarioSet, level: float) -> float:
    """Expected number of hours per year with load strictly above ``level``."""
    return float(sum(
        sc.probability * int(np.count_nonzero(sc.series.loads > level))
        for sc in scenario_set.scenarios
    ))


def static_objective_lines(scenario_set: ScenarioSet,
                           book: TariffBook) -> tuple[np.ndarray, np.ndarray]:
    """Candidate levels and capacity-free cost constants for the static objective.

    The expected static cost at candidate level x_k under capacity price c is
    exactly const[k] + c * x_k; levels are sorted ascending and enumerate
    every vertex of the piecewise-linear objective (0 plus all distinct
    load values across scenarios).
    """
    if book.regime is not TariffRegime.STATIC_CS:
        raise DomainError(f"expected a static CS book, got regime {book.regime.value!r}")
    if book.excess_price <= book.energy_price:
        raise IllPosed("static optimization needs excess_price > energy_price")
    sorted_loads, sorted_weights = _pooled_sorted(scenario_set)
    cum_w = np.cumsum(sorted_weights)
    cum_wv = np.cumsum(sorted_weights * sorted_loads)
    total_energy = cum_wv[-1]

    levels = np.unique(np.concatenate(([0.0], sorted_loads)))
    pos = np.searchsorted(sorted_loads, levels, side="right")
    below_wv = np.where(pos > 0, cum_wv[np.maximum(pos - 1, 0)], 0.0)
    below_w = np.where(pos > 0, cum_w[np.maximum(pos - 1, 0)], 0.0)
    exceed_hours = cum_w[-1] - below_w
    energy_below = below_wv + levels * exceed_hours
    energy_above = total_energy - energy_below
    const = (book.fixed_annual
             + book.energy_price * energy_below
             + book.excess_price * energy_above)
    return levels, const


def dynamic_objective_lines(scenario_set: ScenarioSet, book: TariffBook,
                            schedules: Mapping[str, ActivationSchedule],
                            stacks: Mapping[str, VclSegmentStack],
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate levels and capacity-free cost constants for the dynamic objective.

    Candidates are 0, every active-hour load, and each active-hour load minus
    whole segment widths (where the greedy discomfort fill changes slope).
    const[k] covers fixed, energy on served consumption and expected
    discomfort at level x_k. A scenario's active loads a have tail energy
    T(t) = sum_i max(a_i - t, 0), the energy cut at level t; with energy fee
    e, segment costs m_j and cumulative widths W_j (W_0 = 0), the scenario
    adds e * total_kwh + sum_j (m_j - m_{j-1}) * T(x_k + W_{j-1}), m_0 = e,
    since a cut kWh saves e; the top segment absorbs every cut beyond W_{J-1}.
    T is a suffix sum of the sorted loads, so each candidate takes J binary
    searches, O(J log N) for N active hours and J segments.
    """
    if book.regime is not TariffRegime.DYNAMIC_CS:
        raise DomainError(f"expected a dynamic CS book, got regime {book.regime.value!r}")
    per_scenario = []
    candidates = [np.zeros(1)]
    for sc in scenario_set.scenarios:
        schedule, stack = schedule_and_stack(schedules, stacks, sc.series.year_label)
        active = active_loads(sc.series, book, schedule, stack)
        per_scenario.append((sc.probability, sc.series.total_kwh, np.sort(active), stack))
        if active.size:
            offsets = np.cumsum(stack.widths_kw)[:-1]
            shifted = active[:, None] - offsets[None, :]
            candidates.append(active)
            candidates.append(shifted[shifted > 0.0])

    levels = np.unique(np.concatenate(candidates))
    levels = levels[levels >= 0.0]
    const = np.full(levels.shape, book.fixed_annual)
    for probability, total_kwh, loads, stack in per_scenario:
        suffix = np.append(np.cumsum(loads[::-1])[::-1], 0.0)

        def tail_energy(t: np.ndarray) -> np.ndarray:
            pos = np.searchsorted(loads, t, side="right")
            return suffix[pos] - t * (loads.size - pos)

        floors = np.append(0.0, np.cumsum(stack.widths_kw)[:-1])
        steps = np.diff(stack.marginal_costs, prepend=book.energy_price)
        cut_cost = sum(step * tail_energy(levels + floor) for step, floor in zip(steps, floors))
        const += probability * (book.energy_price * total_kwh + cut_cost)
    return levels, const


def _argmin_level(levels: np.ndarray, objective: np.ndarray, min_level: float) -> float:
    best = int(np.argmin(objective))
    return max(float(levels[best]), float(min_level))


def optimize_static(scenario_set: ScenarioSet, book: TariffBook,
                    min_level: float = 0.0) -> OptimizationResult:
    """Exact expected-cost minimizer for the static CS tariff."""
    levels, const = static_objective_lines(scenario_set, book)
    level = _argmin_level(levels, const + book.capacity_price * levels, min_level)
    decision = SubscriptionDecision(level, PolicyKind.STOCHASTIC)
    breakdown = expected_cost(scenario_set, book, level)
    return OptimizationResult(decision, breakdown, int(levels.size))


def optimize_dynamic(scenario_set: ScenarioSet, book: TariffBook,
                     schedules: Mapping[str, ActivationSchedule],
                     stacks: Mapping[str, VclSegmentStack],
                     min_level: float = 0.0) -> OptimizationResult:
    """Exact expected-welfare (monetary + discomfort) minimizer for dynamic CS."""
    levels, const = dynamic_objective_lines(scenario_set, book, schedules, stacks)
    level = _argmin_level(levels, const + book.capacity_price * levels, min_level)
    decision = SubscriptionDecision(level, PolicyKind.STOCHASTIC)
    breakdown = expected_cost(scenario_set, book, level, schedules, stacks)
    return OptimizationResult(decision, breakdown, int(levels.size))


def optimize_deterministic(series: HourlyLoadSeries, book: TariffBook,
                           schedule: ActivationSchedule | None = None,
                           stack: VclSegmentStack | None = None,
                           min_level: float = 0.0) -> OptimizationResult:
    """Perfect-foresight optimum for a single year (probability-1 scenario)."""
    singleton = ScenarioSet((LoadScenario(series, 1.0),))
    year = series.year_label
    if book.regime is TariffRegime.STATIC_CS:
        result = optimize_static(singleton, book, min_level)
    elif book.regime is TariffRegime.DYNAMIC_CS:
        if schedule is None or stack is None:
            raise ScenarioMismatch("deterministic dynamic optimization needs a schedule and stack")
        result = optimize_dynamic(singleton, book, {year: schedule}, {year: stack}, min_level)
    else:
        raise DomainError("the energy-only tariff has no subscription level to optimize")
    decision = replace(result.decision, policy=PolicyKind.DETERMINISTIC, source_year_label=year)
    return OptimizationResult(decision, result.expected_breakdown, result.candidate_count)


def reactive_level(previous_year: HourlyLoadSeries, book: TariffBook,
                   schedule: ActivationSchedule | None = None,
                   stack: VclSegmentStack | None = None,
                   min_level: float = 0.0) -> SubscriptionDecision:
    """Previous year's perfect-foresight optimum, to be applied to the next year."""
    result = optimize_deterministic(previous_year, book, schedule, stack, min_level)
    return SubscriptionDecision(result.decision.level, PolicyKind.REACTIVE,
                                source_year_label=previous_year.year_label)
