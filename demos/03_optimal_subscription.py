"""
Choosing the subscription level: perfect foresight vs stochastic vs reactive
============================================================================

Under the static scheme the optimal level balances the capacity price
against the excess-energy fee; the optimum sits where the expected number
of hours above the level equals capacity_price / (excess - energy) -- about
710 h/yr with the bundled prices. The stochastic level is computed over all
weather years at once; the reactive level reuses last year's optimum.
"""

import numpy as np

from capsub import (SyntheticPopulationSpec, cost_static_cs, default_tariff_bundle,
                    expected_cost, generate_population,
                    optimize_deterministic, optimize_static)

bundle = default_tariff_bundle()
book = bundle.static

spec = SyntheticPopulationSpec(
    consumer_count=1, years=("2013", "2014", "2015", "2016", "2017", "2018"),
    rng_seed=7, base_load_kw=0.9, seasonal_amplitude=2.2, daily_amplitude=1.2,
    spike_rate=60.0, spike_magnitude=3.0, noise_amplitude=0.3,
    cold_year_factor=(1.05, 0.9, 1.25, 0.95, 1.15, 1.08))
consumer = generate_population(spec)[0]
years = consumer.year_labels

target = book.capacity_price / (book.excess_price - book.energy_price)
print(f"exceedance-hour target: {book.capacity_price} / "
      f"({book.excess_price} - {book.energy_price}) = {target:.1f} h/yr")

stochastic = optimize_static(consumer, book)
x_stoch = stochastic.decision.level
print(f"\nstochastic optimum over {len(years)} weather years: {x_stoch:.3f} kW "
      f"(expected cost {stochastic.expected_breakdown.total_monetary:.2f} EUR)")
hours_above = sum(sc.probability * np.count_nonzero(sc.series.loads > x_stoch)
                  for sc in consumer.scenarios)
print(f"expected hours above the level: {hours_above:.1f} h/yr")

print("\nper-year deterministic optima (perfect foresight):")
det_levels = {}
for year in years:
    series = consumer.scenario_for(year).series
    det = optimize_deterministic(series, book)
    det_levels[year] = det.decision.level
    at_stoch = cost_static_cs(series, book, x_stoch)
    print(f"  {year}: x* = {det.decision.level:6.3f} kW, cost "
          f"{det.expected_breakdown.total_monetary:8.2f} EUR "
          f"(vs {at_stoch.total_monetary:8.2f} at the stochastic level)")

print("\nreactive policy (prior-year optimum), applied to the following year:")
for prev, year in zip(years, years[1:]):
    series = consumer.scenario_for(year).series
    cost = cost_static_cs(series, book, det_levels[prev])
    det_cost = cost_static_cs(series, book, det_levels[year])
    print(f"  {year}: reuse {det_levels[prev]:6.3f} kW from {prev} -> "
          f"{cost.total_monetary:8.2f} EUR (foresight {det_cost.total_monetary:8.2f})")

# the expected-cost curve is convex piecewise-linear in the level
levels = np.linspace(0.0, consumer.scenarios[0].series.peak_kw, 9)
print("\nexpected cost along the level axis:")
for level in levels:
    value = expected_cost(consumer, book, float(level)).total_monetary
    marker = " <- stochastic optimum" if abs(level - x_stoch) < 0.4 else ""
    print(f"  x_sub {level:5.2f} kW -> {value:8.2f} EUR{marker}")
