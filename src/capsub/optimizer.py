"""Optimal subscription levels for static and dynamic capacity subscription.

Both expected-cost objectives are one-dimensional convex piecewise-linear
functions of the subscription level, so the exact global optimum is found by
evaluating every breakpoint candidate rather than by calling an LP solver.
One kernel costs both from the tail energies T(t) = sum_i max(a_i - t, 0) of
a scenario's sorted loads, in O(J log N) per candidate for N loads and J
segments: the dynamic objective over active-hour loads and the discomfort
stack, the static one over every hour with one segment at the excess fee.

Each objective decomposes as const(x_k) + capacity_price * x_k over the
candidate levels, which lets calibration re-optimize cheaply while scanning
capacity prices. Ties go to the smallest level: levels whose objective is
within TIE_RTOL of the minimum count as tied, so rounding cannot pick the
upper end of a flat piece.

The optimizer only chooses levels (``optimize_expected``); ``tariff_engine``
prices them. The public ``optimize_*`` wrappers add the policy and the
expected cost breakdown at the level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .activation import ActivationSchedule
from .data_model import (CostBreakdown, HourlyLoadSeries, PolicyKind, ScenarioSet,
                         SubscriptionDecision, TariffBook, TariffRegime)
from .errors import DomainError, IllPosed
from .tariff_engine import active_loads, expected_cost, require_regime, schedule_and_stack
from .vcl import VclSegmentStack

# well below the ~1e-10 relative cost step between neighbouring breakpoints
TIE_RTOL = 1e-13


@dataclass(frozen=True)
class OptimizationResult:
    """An optimal decision and the expected cost breakdown at its level."""

    decision: SubscriptionDecision
    expected_breakdown: CostBreakdown


def expected_exceedance_hours(scenario_set: ScenarioSet, level: float) -> float:
    """Expected number of hours per year with load strictly above ``level``."""
    return float(sum(
        sc.probability * int(np.count_nonzero(sc.series.loads > level))
        for sc in scenario_set.scenarios
    ))


def _tail_energy_lines(book: TariffBook, scenarios) -> tuple[np.ndarray, np.ndarray]:
    """Levels and constants of sum_s p_s (e * total_kwh + sum_j steps[j] * T(x + floors[j])).

    ``scenarios`` holds (probability, total_kwh, loads, steps, floors); a cut
    beyond floors[j] costs steps[j] more per kWh. Candidates are 0 and every
    load minus a floor, where the objective changes slope.
    """
    candidates = [np.zeros(1)]
    for _, _, loads, _, floors in scenarios:
        shifted = loads[:, None] - floors[None, :]
        candidates.append(shifted[shifted >= 0.0])
    levels = np.unique(np.concatenate(candidates))

    const = np.full(levels.shape, book.fixed_annual)
    for probability, total_kwh, loads, steps, floors in scenarios:
        loads = np.sort(loads)
        suffix = np.append(np.cumsum(loads[::-1])[::-1], 0.0)

        def tail_energy(t: np.ndarray) -> np.ndarray:
            pos = np.searchsorted(loads, t, side="right")
            return suffix[pos] - t * (loads.size - pos)

        cut_cost = sum(step * tail_energy(levels + floor) for step, floor in zip(steps, floors))
        const += probability * (book.energy_price * total_kwh + cut_cost)
    return levels, const


def static_objective_lines(scenario_set: ScenarioSet,
                           book: TariffBook) -> tuple[np.ndarray, np.ndarray]:
    """Candidate levels and capacity-free cost constants for the static objective.

    The expected static cost at candidate level x_k under capacity price c is
    exactly const[k] + c * x_k; levels are sorted ascending and enumerate
    every vertex of the piecewise-linear objective (0 plus all distinct
    load values across scenarios): every hour counts, with one segment at 0.
    """
    require_regime(book, TariffRegime.STATIC_CS)
    if book.excess_price <= book.energy_price:
        raise IllPosed("static optimization needs excess_price > energy_price")
    steps = np.array([book.excess_price - book.energy_price])
    floors = np.zeros(1)
    return _tail_energy_lines(book, [
        (sc.probability, sc.series.total_kwh, sc.series.loads, steps, floors)
        for sc in scenario_set.scenarios
    ])


def dynamic_objective_lines(scenario_set: ScenarioSet, book: TariffBook,
                            schedules: Mapping[str, ActivationSchedule],
                            stacks: Mapping[str, VclSegmentStack],
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Candidate levels and capacity-free cost constants for the dynamic objective.

    Candidates are 0, every active-hour load, and each active-hour load minus
    whole segment widths (where the greedy discomfort fill changes slope).
    const[k] covers fixed, energy on served consumption and expected
    discomfort at level x_k. With energy fee e, segment costs m_j and
    cumulative widths W_j (W_0 = 0), a scenario adds
    e * total_kwh + sum_j (m_j - m_{j-1}) * T(x_k + W_{j-1}), m_0 = e, over
    its active loads, since a cut kWh saves e; the top segment absorbs every
    cut beyond W_{J-1}.
    """
    require_regime(book, TariffRegime.DYNAMIC_CS)
    scenarios = []
    for sc in scenario_set.scenarios:
        schedule, stack = schedule_and_stack(schedules, stacks, sc.series.year_label)
        active = active_loads(sc.series, book, schedule, stack)
        steps = np.diff(stack.marginal_costs, prepend=book.energy_price)
        floors = np.append(0.0, np.cumsum(stack.widths_kw)[:-1])
        scenarios.append((sc.probability, sc.series.total_kwh, active, steps, floors))
    return _tail_energy_lines(book, scenarios)


def objective_lines(scenario_set: ScenarioSet, book: TariffBook,
                    schedules: Mapping[str, ActivationSchedule] | None = None,
                    stacks: Mapping[str, VclSegmentStack] | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The candidate lines of the book's regime; dynamic books need schedules and stacks."""
    if book.regime is TariffRegime.STATIC_CS:
        return static_objective_lines(scenario_set, book)
    if book.regime is TariffRegime.DYNAMIC_CS:
        return dynamic_objective_lines(scenario_set, book, schedules, stacks)
    raise DomainError("the energy-only tariff has no subscription level to optimize")


def _argmin_index(objective: np.ndarray) -> int:
    """Index of the smallest level whose objective is within TIE_RTOL of the minimum.

    Levels ascend, so that is the first tied index. The optimizer and the
    calibration both pick levels by this rule.
    """
    best = float(objective.min())
    return int(np.flatnonzero(objective <= best + TIE_RTOL * abs(best))[0])


def optimize_expected(scenario_set: ScenarioSet, book: TariffBook,
                      schedules: Mapping[str, ActivationSchedule] | None = None,
                      stacks: Mapping[str, VclSegmentStack] | None = None) -> float:
    """Exact minimizing level of the expected cost (static) or welfare (dynamic) of the book."""
    levels, const = objective_lines(scenario_set, book, schedules, stacks)
    return float(levels[_argmin_index(const + book.capacity_price * levels)])


def _optimized(scenario_set: ScenarioSet, book: TariffBook, policy: PolicyKind,
               schedules: Mapping[str, ActivationSchedule] | None = None,
               stacks: Mapping[str, VclSegmentStack] | None = None,
               source_year_label: str | None = None) -> OptimizationResult:
    level = optimize_expected(scenario_set, book, schedules, stacks)
    return OptimizationResult(SubscriptionDecision(level, policy, source_year_label),
                              expected_cost(scenario_set, book, level, schedules, stacks))


def optimize_static(scenario_set: ScenarioSet, book: TariffBook) -> OptimizationResult:
    """Exact expected-cost minimizer for the static CS tariff."""
    require_regime(book, TariffRegime.STATIC_CS)
    return _optimized(scenario_set, book, PolicyKind.STOCHASTIC)


def optimize_dynamic(scenario_set: ScenarioSet, book: TariffBook,
                     schedules: Mapping[str, ActivationSchedule],
                     stacks: Mapping[str, VclSegmentStack]) -> OptimizationResult:
    """Exact expected-welfare (monetary + discomfort) minimizer for dynamic CS."""
    require_regime(book, TariffRegime.DYNAMIC_CS)
    return _optimized(scenario_set, book, PolicyKind.STOCHASTIC, schedules, stacks)


def optimize_deterministic(series: HourlyLoadSeries, book: TariffBook,
                           schedule: ActivationSchedule | None = None,
                           stack: VclSegmentStack | None = None) -> OptimizationResult:
    """Perfect-foresight optimum for a single year (probability-1 scenario)."""
    year = series.year_label
    return _optimized(ScenarioSet.equiprobable((series,)), book, PolicyKind.DETERMINISTIC,
                      None if schedule is None else {year: schedule},
                      None if stack is None else {year: stack}, year)
