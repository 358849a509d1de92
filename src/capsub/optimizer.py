"""Optimal subscription levels for static and dynamic capacity subscription.

Both expected-cost objectives are one-dimensional convex piecewise-linear
functions of the subscription level, so the exact global optimum is one of
the breakpoint candidates and no LP solver is needed. One kernel costs both
from the tail energies T(t) = sum_i max(a_i - t, 0) of a scenario's sorted
loads, in O(J log N) per candidate for N loads and J segments: the dynamic
objective over active-hour loads and the discomfort stack, the static one
over every hour with one segment at the excess fee.

Each objective decomposes as const(x_k) + capacity_price * x_k over the
candidate levels. Ties go to the smallest level: levels whose objective is
within TIE_RTOL of the minimum count as tied, so rounding cannot pick the
upper end of a flat piece.

``PreparedObjective`` sorts each scenario's loads once. Its ``argmin`` probes
the objective's right slope, a weighted count of the loads above the level,
at every sqrt(L)-th of L candidates. It costs only the window of candidates
where the slope stops being negative, with the kernel's own formula, so each
value is bit-identical to the full table's. The window grows until no level
outside it can tie with its minimum, and the tie rule then picks the same
level as on the full table. The study chooses every level this way
(``optimize_expected``), sharing each year's preparation between its
policies; calibration prepares each consumer's objective once
(``static_objective_lines``, ``dynamic_objective_lines``) and takes its
argmin at every trial price.

The optimizer only chooses levels; ``tariff_engine`` prices them. The public
``optimize_*`` wrappers add the policy and the expected cost breakdown at the
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


class PreparedYear:
    """One scenario year's loads for the tail-energy kernel, sorted once.

    A cut beyond floors[j] costs steps[j] more per kWh. ``loads`` keeps the
    order given, from which the candidate levels are taken.
    """

    __slots__ = ("total_kwh", "loads", "steps", "floors", "sorted_loads", "suffix")

    def __init__(self, total_kwh: float, loads: np.ndarray, steps: np.ndarray,
                 floors: np.ndarray):
        self.total_kwh, self.loads, self.steps, self.floors = total_kwh, loads, steps, floors
        self.sorted_loads = np.sort(loads)
        self.suffix = np.append(np.cumsum(self.sorted_loads[::-1])[::-1], 0.0)


class PreparedObjective:
    """sum_s p_s (e * total_kwh + sum_j steps[j] * T(x + floors[j])) + fixed, ready for any price.

    ``levels`` ascend: 0 and every load minus a floor, where the objective
    changes slope.
    """

    def __init__(self, book: TariffBook, years: Sequence[tuple[float, PreparedYear]]):
        self.fixed_annual, self.energy_price = book.fixed_annual, book.energy_price
        self.years = tuple(years)
        candidates = [np.zeros(1)]
        for _, year in self.years:
            shifted = year.loads[:, None] - year.floors[None, :]
            candidates.append(shifted[shifted >= 0.0])
        self.levels = np.unique(np.concatenate(candidates))

    def constants(self, levels: np.ndarray) -> np.ndarray:
        """The capacity-free cost at each level; elementwise, so any subset costs the same bits.

        One searchsorted per year over the levels x segments grid. The
        segments add left to right, as a running sum, so the result does not
        depend on how many levels are costed together.
        """
        const = np.full(levels.shape, self.fixed_annual)
        for probability, year in self.years:
            shifted = levels[:, None] + year.floors
            pos = year.sorted_loads.searchsorted(shifted, side="right")
            tail = year.suffix[pos] - shifted * (year.sorted_loads.size - pos)
            cut_cost = np.add.accumulate(year.steps * tail, axis=1)[:, -1]
            const += probability * (self.energy_price * year.total_kwh + cut_cost)
        return const

    def lines(self) -> tuple[np.ndarray, np.ndarray]:
        """The full table: every candidate level and its constant."""
        return self.levels, self.constants(self.levels)

    def _slopes(self, price: float, levels: np.ndarray) -> np.ndarray:
        """The right slope price - sum_s p_s sum_j steps[j] * #{a_s > x + floors[j]} at each x."""
        rate = 0.0
        for probability, year in self.years:
            pos = year.sorted_loads.searchsorted(levels[:, None] + year.floors, side="right")
            rate = rate + probability * ((year.sorted_loads.size - pos) @ year.steps)
        return price - rate

    def argmin(self, price: float) -> tuple[float, float]:
        """The level ``_argmin_index`` picks on the full table at ``price``, and its value there.

        Both come from a window of the table. Every ceil(sqrt(L))-th of the L
        candidates is probed for its right slope; by convexity the minimum
        lies between the last probe where the slope is negative and the
        first where it is not, and the window runs from the former to one
        candidate past the latter. It grows while an edge that is not an end
        of the table lies within 2 * TIE_RTOL of the window's minimum; by
        convexity no level outside it can then be below that minimum or tied
        with it, however the probes' slopes round. The value is
        const + price * level, bit for bit as in the table.
        """
        levels = self.levels
        probes = np.arange(0, levels.size, math.isqrt(levels.size - 1) + 1)
        below = int(np.count_nonzero(self._slopes(price, levels[probes]) < 0.0))
        start = int(probes[below - 1]) if below else 0
        stop = min(int(probes[below]) + 2, levels.size) if below < probes.size else levels.size
        while True:
            window = levels[start:stop]
            values = self.constants(window) + price * window
            best = float(values.min())
            near = best + 2.0 * TIE_RTOL * abs(best)
            grow_down = start > 0 and values[0] <= near
            grow_up = stop < levels.size and values[-1] <= near
            if not (grow_down or grow_up):
                k = _argmin_index(values)
                return float(window[k]), float(values[k])
            width = stop - start
            if grow_down:
                start = max(start - width, 0)
            if grow_up:
                stop = min(stop + width, levels.size)


def prepare_years(series_list: Iterable[HourlyLoadSeries], book: TariffBook,
                  schedules: Mapping[str, ActivationSchedule] | None = None,
                  stacks: Mapping[str, VclSegmentStack] | None = None,
                  ) -> dict[str, PreparedYear]:
    """Each year's loads prepared for the book's objective, by year label.

    Static uses every hour with one segment at the excess fee. Dynamic uses
    the active hours, checked once against schedule, stack and book, and the
    discomfort stack's segments: with energy fee e, segment costs m_j and
    cumulative widths W_j (W_0 = 0), steps are m_j - m_{j-1} (m_0 = e) at
    floors W_{j-1}, since a cut kWh saves e; the top segment absorbs every
    cut beyond W_{J-1}.
    """
    if book.regime is TariffRegime.STATIC_CS:
        if book.excess_price <= book.energy_price:
            raise IllPosed("static optimization needs excess_price > energy_price")
        steps = np.array([book.excess_price - book.energy_price])
        floors = np.zeros(1)
        return {s.year_label: PreparedYear(s.total_kwh, s.loads, steps, floors)
                for s in series_list}
    if book.regime is TariffRegime.DYNAMIC_CS:
        years = {}
        for s in series_list:
            schedule, stack = schedule_and_stack(schedules, stacks, s.year_label)
            active = active_loads(s, book, schedule, stack)
            steps = np.diff(stack.marginal_costs, prepend=book.energy_price)
            floors = np.append(0.0, np.cumsum(stack.widths_kw)[:-1])
            years[s.year_label] = PreparedYear(s.total_kwh, active, steps, floors)
        return years
    raise DomainError("the energy-only tariff has no subscription level to optimize")


def prepare_objective(scenario_set: ScenarioSet, book: TariffBook,
                      schedules: Mapping[str, ActivationSchedule] | None = None,
                      stacks: Mapping[str, VclSegmentStack] | None = None,
                      prepared: Mapping[str, PreparedYear] | None = None) -> PreparedObjective:
    """The set's objective under the book; ``prepared`` holds its years from ``prepare_years``.

    Without ``prepared`` the years are prepared here; dynamic books then need
    schedules and stacks.
    """
    if prepared is None:
        prepared = prepare_years((sc.series for sc in scenario_set.scenarios), book,
                                 schedules, stacks)
    return PreparedObjective(book, [(sc.probability, prepared[sc.series.year_label])
                                    for sc in scenario_set.scenarios])


def static_objective_lines(scenario_set: ScenarioSet,
                           book: TariffBook) -> tuple[np.ndarray, PreparedObjective]:
    """Candidate levels and the prepared static objective over them.

    The expected static cost at candidate level x_k under capacity price c is
    exactly const(x_k) + c * x_k; levels are sorted ascending and enumerate
    every vertex of the piecewise-linear objective (0 plus all distinct
    load values across scenarios): every hour counts, with one segment at 0.
    No constant is computed here; ``lines()`` gives the full table. The
    benchmark's tracer (``perfbench/spans.py``) wraps this name and the
    dynamic one and counts the levels they return.
    """
    require_regime(book, TariffRegime.STATIC_CS)
    objective = prepare_objective(scenario_set, book)
    return objective.levels, objective


def dynamic_objective_lines(scenario_set: ScenarioSet, book: TariffBook,
                            schedules: Mapping[str, ActivationSchedule],
                            stacks: Mapping[str, VclSegmentStack],
                            ) -> tuple[np.ndarray, PreparedObjective]:
    """Candidate levels and the prepared dynamic objective over them.

    Candidates are 0, every active-hour load, and each active-hour load minus
    whole segment widths (where the greedy discomfort fill changes slope).
    const(x_k) covers fixed, energy on served consumption and expected
    discomfort at level x_k; ``prepare_years`` gives each scenario's terms.
    No constant is computed here; ``lines()`` gives the full table.
    """
    require_regime(book, TariffRegime.DYNAMIC_CS)
    objective = prepare_objective(scenario_set, book, schedules, stacks)
    return objective.levels, objective


def objective_lines(scenario_set: ScenarioSet, book: TariffBook,
                    schedules: Mapping[str, ActivationSchedule] | None = None,
                    stacks: Mapping[str, VclSegmentStack] | None = None,
                    ) -> tuple[np.ndarray, PreparedObjective]:
    """The levels and prepared objective of the book's regime.

    Dynamic books need schedules and stacks; any other book raises DomainError.
    """
    if book.regime is TariffRegime.STATIC_CS:
        return static_objective_lines(scenario_set, book)
    return dynamic_objective_lines(scenario_set, book, schedules, stacks)


def _argmin_index(objective: np.ndarray) -> int:
    """Index of the smallest level whose objective is within TIE_RTOL of the minimum.

    Levels ascend, so that is the first tied index. The optimizer and the
    calibration both pick levels by this rule.
    """
    best = float(objective.min())
    return int(np.flatnonzero(objective <= best + TIE_RTOL * abs(best))[0])


def optimize_expected(scenario_set: ScenarioSet, book: TariffBook,
                      schedules: Mapping[str, ActivationSchedule] | None = None,
                      stacks: Mapping[str, VclSegmentStack] | None = None,
                      prepared: Mapping[str, PreparedYear] | None = None) -> float:
    """Exact minimizing level of the expected cost (static) or welfare (dynamic) of the book.

    ``prepared`` may hold the set's years from ``prepare_years`` with this book.
    """
    return prepare_objective(scenario_set, book, schedules, stacks,
                             prepared).argmin(book.capacity_price)[0]


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
