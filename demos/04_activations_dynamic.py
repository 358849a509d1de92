"""
Scarcity activations and the dynamic subscription optimum
=========================================================

The grid operator declares load-limiting activations whenever the aggregate
population load exceeds a capacity threshold. Those hours, weighted across
weather years, determine how much capacity each consumer subscribes under
the dynamic scheme: with no activations anywhere the optimum is 0 kW, and
it grows with the consumer's exposure to scarcity hours.
"""

import numpy as np

from capsub import (VclCurveParams, activation_summary, default_study_spec,
                    default_tariff_bundle, derive_schedules, generate_population,
                    optimize_dynamic, optimize_static, stacks_for_scenarios,
                    DEFAULT_THRESHOLD_KW)

bundle = default_tariff_bundle()
population = generate_population(default_study_spec())
years = population[0].year_labels

aggregates = {
    year: np.sum([c.scenario_for(year).series.loads for c in population], axis=0)
    for year in years
}
print("aggregate load of the 84-consumer population:")
for year in years:
    print(f"  {year}: peak {aggregates[year].max():6.1f} kW, "
          f"mean {aggregates[year].mean():6.1f} kW")

schedules = derive_schedules(population, DEFAULT_THRESHOLD_KW)
print(f"\nactivations at threshold {DEFAULT_THRESHOLD_KW} kW:")
rows = activation_summary([schedules[y] for y in years])
total_hours = sum(r.hours for r in rows)
for row in rows:
    print(f"  {row.year_label}: {row.hours:4d} h ({row.share_pct:5.1f} % of all activations)")
hours_in_study = sum(len(aggregates[y]) for y in years)
print(f"  total {total_hours} h = {100 * total_hours / hours_in_study:.2f} % of the time")

params = VclCurveParams(bundle.dynamic.voll, bundle.vcl_steepness)
print("\nstatic vs dynamic subscription (first 8 consumers):")
ratios = []
for consumer in population:
    stacks = stacks_for_scenarios(consumer, params, 10)
    x_static = optimize_static(consumer, bundle.static).decision.level
    x_dynamic = optimize_dynamic(consumer, bundle.dynamic, schedules, stacks).decision.level
    ratios.append(x_dynamic / x_static)
for consumer, ratio in list(zip(population, ratios))[:8]:
    x_static = optimize_static(consumer, bundle.static).decision.level
    print(f"  {consumer.consumer_id}: static {x_static:5.2f} kW, "
          f"dynamic/static ratio {ratio:5.2f}")
print(f"median dynamic/static level ratio over the population: "
      f"{np.median(ratios):.2f} (physical limitation pushes levels up)")
