import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capsub import (DegenerateProfile, DomainError, VclCurveParams, VclSegmentStack,
                    build_segment_stack, discomfort_cost, vcl_marginal)
from capsub.vcl import discomfort_cost_array

PARAMS = VclCurveParams(voll=5.0, steepness_b=8.0)


def curve_oracle(f, b=8.0, voll=5.0):
    # direct evaluation of voll * (1 - e^(-b f)) / (1 - e^(-b))
    return voll * (1.0 - math.exp(-b * f)) / (1.0 - math.exp(-b))


def curve_integral(f, b=8.0, voll=5.0):
    # closed-form antiderivative of the curve, per unit peak
    scale = voll / (1.0 - math.exp(-b))
    return scale * (f + (math.exp(-b * f) - 1.0) / b)


class TestMarginalCurve:
    def test_zero_at_no_cut(self):
        assert vcl_marginal(PARAMS, 0.0) == 0.0

    def test_voll_at_full_cut(self):
        assert vcl_marginal(PARAMS, 1.0) == 5.0

    def test_halfway_value(self):
        # cross-checked against 40-digit evaluation of the same expression
        assert vcl_marginal(PARAMS, 0.5) == pytest.approx(4.910068950189542, rel=1e-12)
        assert vcl_marginal(PARAMS, 0.5) == pytest.approx(curve_oracle(0.5), rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            vcl_marginal(PARAMS, bad)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone(self, f1, f2):
        lo, hi = sorted((f1, f2))
        assert vcl_marginal(PARAMS, lo) <= vcl_marginal(PARAMS, hi)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            VclCurveParams(voll=0.0)
        with pytest.raises(ValueError):
            VclCurveParams(voll=5.0, steepness_b=-1.0)


class TestSegmentStack:
    def test_single_segment(self):
        stack = build_segment_stack(PARAMS, peak_load_kw=4.0, segment_count=1)
        assert stack.segment_count == 1
        assert stack.widths_kw[0] == pytest.approx(4.0)
        # midpoint of the single segment is f = 0.5
        assert stack.marginal_costs[0] == pytest.approx(curve_oracle(0.5), rel=1e-12)

    def test_two_segments(self):
        stack = build_segment_stack(PARAMS, peak_load_kw=2.0, segment_count=2)
        np.testing.assert_allclose(stack.widths_kw, [1.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(
            stack.marginal_costs,
            [curve_oracle(0.25), curve_oracle(0.75)], rtol=1e-12)
        np.testing.assert_allclose(
            stack.marginal_costs,
            [4.3247743839968776, 4.989279956082077], rtol=1e-12)

    @pytest.mark.parametrize("segment_count", [1, 2, 3, 7, 10, 50])
    def test_costs_strictly_increasing_and_capped(self, segment_count):
        stack = build_segment_stack(PARAMS, 3.7, segment_count)
        assert np.all(np.diff(stack.marginal_costs) > 0.0)
        assert stack.marginal_costs[-1] <= PARAMS.voll
        assert stack.widths_kw.sum() == pytest.approx(3.7, rel=1e-9)

    @pytest.mark.parametrize("steepness", [0.7, 2.5, 8.0])
    def test_costs_are_the_curve_at_midpoints(self, steepness):
        params = VclCurveParams(5.0, steepness)
        stack = build_segment_stack(params, 3.7, 40)
        midpoints = (np.arange(40) + 0.5) / 40
        assert stack.marginal_costs.tolist() == [vcl_marginal(params, f) for f in midpoints]

    def test_costs_depend_only_on_fraction_not_peak(self):
        small = build_segment_stack(PARAMS, 5.0, 5)
        large = build_segment_stack(PARAMS, 10.0, 5)
        np.testing.assert_array_equal(small.marginal_costs, large.marginal_costs)
        # same curtailed fraction of the respective peaks, same cost per kWh
        d_small = discomfort_cost(small, 1.0)  # 20 % of 5 kW
        d_large = discomfort_cost(large, 2.0)  # 20 % of 10 kW
        assert d_small / 1.0 == pytest.approx(d_large / 2.0, rel=1e-12)

    def test_rejects_degenerate_peak(self):
        with pytest.raises(DegenerateProfile):
            build_segment_stack(PARAMS, 0.0, 4)

    def test_rejects_bad_segment_count(self):
        with pytest.raises(DomainError):
            build_segment_stack(PARAMS, 1.0, 0)

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            VclSegmentStack(2.0, np.array([1.0, 1.0]), np.array([2.0, 2.0]))  # not increasing
        with pytest.raises(ValueError):
            VclSegmentStack(3.0, np.array([1.0, 1.0]), np.array([1.0, 2.0]))  # widths != peak


class TestDiscomfortCost:
    def test_zero_cut(self):
        stack = build_segment_stack(PARAMS, 2.0, 2)
        assert discomfort_cost(stack, 0.0) == 0.0

    def test_fills_first_segment_exactly(self):
        stack = build_segment_stack(PARAMS, 2.0, 2)
        assert discomfort_cost(stack, 1.0) == pytest.approx(curve_oracle(0.25), rel=1e-12)

    def test_greedy_fill_spills_into_second_segment(self):
        stack = build_segment_stack(PARAMS, 2.0, 2)
        expected = curve_oracle(0.25) * 1.0 + curve_oracle(0.75) * 0.5
        assert discomfort_cost(stack, 1.5) == pytest.approx(expected, rel=1e-12)

    def test_rejects_cut_beyond_peak(self):
        stack = build_segment_stack(PARAMS, 2.0, 2)
        with pytest.raises(DomainError):
            discomfort_cost(stack, 2.1)
        with pytest.raises(DomainError):
            discomfort_cost(stack, -0.1)

    def test_tolerates_tiny_overshoot(self):
        stack = build_segment_stack(PARAMS, 2.0, 2)
        assert discomfort_cost(stack, 2.0 + 1e-10) >= discomfort_cost(stack, 2.0)

    @given(seed=st.integers(min_value=0, max_value=2**31),
           segment_count=st.integers(min_value=1, max_value=30))
    def test_convex_increasing(self, seed, segment_count):
        rng = np.random.default_rng(seed)
        peak = float(rng.uniform(0.5, 10.0))
        stack = build_segment_stack(PARAMS, peak, segment_count)
        cuts = np.sort(rng.uniform(0.0, peak, 12))
        values = discomfort_cost_array(stack, cuts)
        assert np.all(np.diff(values) >= -1e-12)
        slopes = np.diff(values) / np.maximum(np.diff(cuts), 1e-300)
        assert np.all(np.diff(slopes) >= -1e-7)


class TestSegmentationConvergence:
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_fine_stacks_agree(self, fraction):
        peak = 3.0
        coarse = build_segment_stack(PARAMS, peak, 100)
        fine = build_segment_stack(PARAMS, peak, 1000)
        d_coarse = discomfort_cost(coarse, fraction * peak)
        d_fine = discomfort_cost(fine, fraction * peak)
        assert abs(d_coarse - d_fine) / d_fine < 1e-3

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_fine_stack_matches_curve_integral(self, fraction):
        peak = 3.0
        fine = build_segment_stack(PARAMS, peak, 1000)
        expected = curve_integral(fraction) * peak
        assert discomfort_cost(fine, fraction * peak) == pytest.approx(expected, rel=5e-4)
