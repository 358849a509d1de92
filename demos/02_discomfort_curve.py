"""
The value-of-cut-load discomfort curve and its segment stacks
=============================================================

The marginal discomfort of curtailment rises from 0 to the value of lost
load as the cut share of the consumer's peak grows. Per consumer the curve
is discretized into equal-width segments scaled to the scenario-year peak,
so equal *fractions* cut always cost the same per kWh regardless of peak.
"""

import numpy as np

from capsub import VclCurveParams, build_segment_stack, discomfort_cost, vcl_marginal

params = VclCurveParams(voll=5.0, steepness_b=8.0)

print("marginal discomfort [EUR/kWh] along the cut fraction:")
for f in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
    print(f"  cut {f * 100:5.1f} % of peak -> {vcl_marginal(params, f):.4f}")

print("\nflatter curves for comparison (steepness 2 and 4):")
for b in (2.0, 4.0):
    flat = VclCurveParams(5.0, b)
    values = ", ".join(f"{vcl_marginal(flat, f):.3f}" for f in (0.25, 0.5, 0.75))
    print(f"  b={b:g}: marginal at 25/50/75 % = {values}")

stack = build_segment_stack(params, peak_load_kw=4.0, segment_count=10)
print("\n10-segment stack for a 4 kW peak (width, EUR/kWh):")
for width, cost in zip(stack.widths_kw, stack.marginal_costs):
    print(f"  {width:.2f} kW @ {cost:.4f}")

print("\ngreedy fill: total discomfort per hour of curtailment")
for cut in (0.5, 1.0, 2.0, 4.0):
    print(f"  cut {cut:.1f} kW -> {discomfort_cost(stack, cut):.4f} EUR")

# a 5 kW peak consumer cut 1 kW (20 %) pays the same per kWh as a
# 10 kW peak consumer cut 2 kW (also 20 %)
small = build_segment_stack(params, 5.0, 10)
large = build_segment_stack(params, 10.0, 10)
print("\npeak-independence of the per-kWh schedule:")
print(f"  5 kW peak, 1 kW cut: {discomfort_cost(small, 1.0) / 1.0:.4f} EUR/kWh")
print(f"  10 kW peak, 2 kW cut: {discomfort_cost(large, 2.0) / 2.0:.4f} EUR/kWh")

# resolution study: stacks of different fineness agree closely
coarse, fine = build_segment_stack(params, 4.0, 100), build_segment_stack(params, 4.0, 1000)
for f in (0.25, 0.5, 1.0):
    a, b = discomfort_cost(coarse, 4.0 * f), discomfort_cost(fine, 4.0 * f)
    print(f"resolution gap at {f * 100:.0f} % cut: J=100 vs J=1000 differ by "
          f"{abs(a - b) / b:.2e} (relative)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    f = np.linspace(0.0, 1.0, 400)
    fig, ax = plt.subplots(figsize=(7, 4))
    for b in (2.0, 4.0, 8.0):
        curve = [vcl_marginal(VclCurveParams(5.0, b), x) for x in f]
        ax.plot(100 * f, curve, label=f"steepness {b:g}")
    ax.set_xlabel("cut load [% of peak]")
    ax.set_ylabel("marginal discomfort [EUR/kWh]")
    ax.legend()
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig("discomfort_curve.png", dpi=120)
    print("\nsaved discomfort_curve.png")
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
