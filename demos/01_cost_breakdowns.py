"""
Annual grid cost under three tariff schemes
===========================================

Builds one synthetic household profile and prices the same year under the
incumbent energy tariff, a static capacity subscription (excess energy above
the subscribed level pays a high fee) and a dynamic capacity subscription
(load is physically limited during scarcity hours instead).
"""

import numpy as np

from capsub import (ActivationSchedule, VclCurveParams, build_segment_stack,
                    cost_dynamic_cs, cost_energy_tariff, cost_static_cs,
                    default_tariff_bundle, SyntheticPopulationSpec, generate_population)

bundle = default_tariff_bundle()
print("tariff books:")
print(f"  energy-only: fixed {bundle.energy.fixed_annual} EUR, "
      f"{bundle.energy.energy_price * 100:.3f} ct/kWh")
print(f"  static CS:   fixed {bundle.static.fixed_annual} EUR, "
      f"{bundle.static.capacity_price} EUR/kW-yr, "
      f"{bundle.static.energy_price * 100:.1f} ct/kWh below, "
      f"{bundle.static.excess_price * 100:.1f} ct/kWh above")
print(f"  dynamic CS:  fixed {bundle.dynamic.fixed_annual} EUR, "
      f"{bundle.dynamic.capacity_price} EUR/kW-yr, "
      f"VoLL {bundle.dynamic.voll} EUR/kWh")

spec = SyntheticPopulationSpec(
    consumer_count=1, years=("2015",), rng_seed=42, base_load_kw=0.9,
    seasonal_amplitude=2.2, daily_amplitude=1.2, spike_rate=60.0,
    spike_magnitude=3.0, noise_amplitude=0.3)
series = generate_population(spec)[0].scenarios[0].series
print(f"\nprofile: {series.total_kwh:.0f} kWh over {series.hours_count} h, "
      f"peak {series.peak_kw:.2f} kW")

print("\nenergy tariff:")
print(f"  {cost_energy_tariff(series, bundle.energy).as_dict()}")

# static CS at a few subscription levels: capacity vs excess trade-off
print("\nstatic CS by subscription level:")
for level in (1.0, 2.0, 3.0, 4.0, series.peak_kw):
    bd = cost_static_cs(series, bundle.static, level)
    print(f"  x_sub {level:5.2f} kW -> capacity {bd.capacity:7.2f}  "
          f"excess {bd.excess:7.2f}  total {bd.total_monetary:8.2f} EUR")

# dynamic CS: limitation only binds in the declared scarcity hours
scarce_hours = np.argsort(series.loads)[-20:]
schedule = ActivationSchedule("2015", np.sort(scarce_hours))
stack = build_segment_stack(VclCurveParams(bundle.dynamic.voll, bundle.vcl_steepness),
                            series.peak_kw, 10)
print(f"\ndynamic CS with {schedule.count} scarcity hours:")
for level in (1.0, 2.0, 3.0, 4.0, series.peak_kw):
    bd = cost_dynamic_cs(series, bundle.dynamic, level, schedule, stack)
    print(f"  x_sub {level:5.2f} kW -> monetary {bd.total_monetary:8.2f}  "
          f"discomfort {bd.discomfort:7.2f}  welfare {bd.total_welfare:8.2f} EUR")
