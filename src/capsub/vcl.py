"""Value-of-cut-load discomfort curve and its piecewise-linear segment stacks.

The marginal discomfort of curtailment rises from 0 (no load cut) to the
value of lost load (everything cut) along a saturating exponential whose
steepness reflects how painful partial curtailment is. Segment stacks
discretize the curve per consumer, scaled to the consumer's scenario-year
peak, so that two consumers cut the same *fraction* of their respective
peaks face the same per-kWh discomfort schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateProfile, DomainError

if TYPE_CHECKING:
    from .data_model import ScenarioSet

DEFAULT_SEGMENT_COUNT = 10
DEFAULT_STEEPNESS = 8.0

WIDTH_SUM_RTOL = 1e-9


@dataclass(frozen=True)
class VclCurveParams:
    """Shape of the discomfort curve: ceiling (voll, EUR/kWh) and steepness."""

    voll: float
    steepness_b: float = DEFAULT_STEEPNESS

    def __post_init__(self) -> None:
        if not (self.voll > 0.0 and math.isfinite(self.voll)):
            raise ValueError(f"voll must be > 0, got {self.voll}")
        if not (self.steepness_b > 0.0 and math.isfinite(self.steepness_b)):
            raise ValueError(f"steepness_b must be > 0, got {self.steepness_b}")


def vcl_marginal(params: VclCurveParams, cut_fraction: float) -> float:
    """Marginal discomfort [EUR/kWh] at a cumulative cut of ``cut_fraction`` of peak.

    Evaluates voll * (1 - exp(-b*f)) / (1 - exp(-b)); exactly 0 at f=0 and
    exactly voll at f=1, strictly increasing in between.
    """
    f = float(cut_fraction)
    if not (0.0 <= f <= 1.0):
        raise DomainError(f"cut fraction {f} outside [0, 1]")
    b = params.steepness_b
    # expm1 keeps the ratio exact at the f=1 boundary and accurate for small b*f
    return params.voll * math.expm1(-b * f) / math.expm1(-b)


def _marginal_array(params: VclCurveParams, fractions: np.ndarray) -> np.ndarray:
    b = params.steepness_b
    return params.voll * np.expm1(-b * fractions) / math.expm1(-b)


@dataclass(frozen=True)
class VclSegmentStack:
    """Piecewise-linear discomfort schedule scaled to one consumer-scenario peak.

    ``widths_kw[j]`` is how much load the j-th segment can absorb and
    ``marginal_costs[j]`` its price per kWh cut; costs are strictly
    increasing and the widths sum to the peak, so a greedy cheapest-first
    fill yields a convex total cost.
    """

    peak_load_kw: float
    widths_kw: np.ndarray
    marginal_costs: np.ndarray

    def __post_init__(self) -> None:
        widths = np.asarray(self.widths_kw, dtype=np.float64)
        costs = np.asarray(self.marginal_costs, dtype=np.float64)
        if widths.ndim != 1 or widths.size == 0 or widths.shape != costs.shape:
            raise ValueError("widths and marginal costs must be matching non-empty 1-D arrays")
        if np.any(widths <= 0.0):
            raise ValueError("segment widths must be positive")
        if np.any(np.diff(costs) <= 0.0) or costs[0] < 0.0:
            raise ValueError("marginal costs must be non-negative and strictly increasing")
        peak = float(self.peak_load_kw)
        if not (peak > 0.0 and math.isfinite(peak)):
            raise ValueError(f"peak_load_kw must be > 0, got {peak}")
        if abs(widths.sum() - peak) > WIDTH_SUM_RTOL * peak:
            raise ValueError(f"segment widths sum to {widths.sum()}, expected peak {peak}")
        widths.flags.writeable = False
        costs.flags.writeable = False
        object.__setattr__(self, "peak_load_kw", peak)
        object.__setattr__(self, "widths_kw", widths)
        object.__setattr__(self, "marginal_costs", costs)

    @property
    def segment_count(self) -> int:
        return int(self.widths_kw.size)


def build_segment_stack(params: VclCurveParams, peak_load_kw: float,
                        segment_count: int = DEFAULT_SEGMENT_COUNT) -> VclSegmentStack:
    """Discretize the curve into ``segment_count`` equal-width segments.

    Segment j covers cut fractions ((j-1)/J, j/J] of the peak and carries the
    marginal cost sampled at the segment midpoint (j-1/2)/J. Midpoint sampling
    keeps the greedy total within O(1/J^2) of the continuous-curve integral,
    so stacks of different resolution agree closely.
    """
    peak = float(peak_load_kw)
    if not (peak > 0.0 and math.isfinite(peak)):
        raise DegenerateProfile(f"peak load must be > 0 to scale a segment stack, got {peak}")
    if segment_count < 1:
        raise DomainError(f"segment_count must be >= 1, got {segment_count}")
    j = segment_count
    edges = np.linspace(0.0, peak, j + 1)
    widths = np.diff(edges)
    midpoints = (np.arange(j) + 0.5) / j
    costs = _marginal_array(params, midpoints)
    return VclSegmentStack(peak, widths, costs)


def discomfort_cost(stack: VclSegmentStack, cut_kw: float) -> float:
    """Cost [EUR] of cutting ``cut_kw`` for one hour, cheapest segments first."""
    cut = float(cut_kw)
    if not math.isfinite(cut) or cut < 0.0:
        raise DomainError(f"cut must be finite and >= 0, got {cut}")
    if cut > stack.peak_load_kw + 1e-9:
        raise DomainError(
            f"cut {cut} kW exceeds the stack's peak basis {stack.peak_load_kw} kW")
    return float(discomfort_cost_array(stack, np.asarray([cut]))[0])


def discomfort_cost_array(stack: VclSegmentStack, cuts_kw: np.ndarray) -> np.ndarray:
    """Vectorized greedy-fill discomfort for non-negative cuts within the peak."""
    cuts = np.asarray(cuts_kw, dtype=np.float64)
    cum_width = np.concatenate(([0.0], np.cumsum(stack.widths_kw)))
    cum_cost = np.concatenate(([0.0], np.cumsum(stack.widths_kw * stack.marginal_costs)))
    idx = np.searchsorted(cum_width, cuts, side="left")
    idx = np.clip(idx, 1, stack.segment_count)
    return cum_cost[idx - 1] + stack.marginal_costs[idx - 1] * (cuts - cum_width[idx - 1])


def stacks_for_scenarios(scenario_set: "ScenarioSet", params: VclCurveParams,
                         segment_count: int = DEFAULT_SEGMENT_COUNT,
                         ) -> dict[str, VclSegmentStack]:
    """One stack per scenario year, scaled to that year's peak load."""
    return {
        sc.series.year_label: build_segment_stack(params, sc.series.peak_kw, segment_count)
        for sc in scenario_set.scenarios
    }
