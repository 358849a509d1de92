"""
End-to-end study: generate, calibrate, compare policies, write tables
=====================================================================

Reproduces the whole pipeline on a compact population so it runs in
seconds: synthesize consumers, find revenue-neutral capacity prices for
both capacity-subscription schemes, run the policy comparison study and
write the machine-readable tables plus a reproducibility manifest.

The same flow is available from the command line:

    capsub generate --out data/
    capsub calibrate --loads data/loads.csv --regime static --out calibrated.json
    capsub study --loads data/loads.csv --policy det --policy stoch \
        --policy reactive --threshold-kw 385 --out results/
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from capsub import (SyntheticPopulationSpec, VclCurveParams, build_manifest,
                    calibrate_capacity_price, default_tariff_bundle, derive_schedules,
                    energy_reference_revenue, generate_population, run_study,
                    stacks_for_scenarios, write_load_csv, write_study_outputs)

spec = SyntheticPopulationSpec(
    consumer_count=16, years=("2015", "2016", "2017"), rng_seed=31,
    base_load_kw=0.9, seasonal_amplitude=2.2, daily_amplitude=1.2,
    spike_rate=60.0, spike_magnitude=3.0, noise_amplitude=0.3,
    cold_year_factor=(0.95, 1.25, 1.08))
population = generate_population(spec)
years = population[0].year_labels
bundle = default_tariff_bundle()

aggregate_peak = max(
    np.sum([c.scenario_for(y).series.loads for c in population], axis=0).max()
    for y in years)
threshold = round(0.9 * aggregate_peak, 1)
print(f"population: {len(population)} consumers, aggregate peak {aggregate_peak:.1f} kW, "
      f"activation threshold {threshold} kW")

schedules = derive_schedules(population, threshold)
print("activations:", {y: schedules[y].count for y in years})

reference = energy_reference_revenue(population, bundle.energy)
print(f"\nreference revenue under the energy tariff: {reference:.0f} EUR/yr")

static_cal = calibrate_capacity_price(population, bundle.static, reference, 1e-4)
params = VclCurveParams(bundle.dynamic.voll, bundle.vcl_steepness)
stacks = [stacks_for_scenarios(c, params, 10) for c in population]
dynamic_cal = calibrate_capacity_price(population, bundle.dynamic, reference, 1e-4,
                                       schedules=schedules, stacks_by_consumer=stacks)
print(f"revenue-neutral capacity prices: static {static_cal.capacity_price:.2f}, "
      f"dynamic {dynamic_cal.capacity_price:.2f} EUR/kW-yr")

calibrated = replace(bundle, static=static_cal.book, dynamic=dynamic_cal.book)
result = run_study(population, calibrated, policies=("det", "stoch", "reactive"),
                   threshold_kw=threshold, vcl_segments=10, jobs=1)

print("\naggregate annual cost by policy (static regime, EUR):")
for year in years:
    parts = []
    for policy in ("det", "stoch", "reactive"):
        total = sum(
            c.breakdowns[("static", policy, year)].total_monetary
            for c in result.consumers if ("static", policy, year) in c.breakdowns)
        parts.append(f"{policy} {total:8.0f}")
    energy_total = sum(
        c.breakdowns[("energy", "baseline", year)].total_monetary
        for c in result.consumers)
    print(f"  {year}: {'  '.join(parts)}   energy baseline {energy_total:8.0f}")

print("\ndynamic regime, monetary + discomfort (EUR):")
for year in years:
    for policy in ("stoch", "reactive"):
        key = ("dynamic", policy, year)
        rows = [c.breakdowns[key] for c in result.consumers if key in c.breakdowns]
        if rows:
            monetary = sum(bd.total_monetary for bd in rows)
            discomfort = sum(bd.discomfort for bd in rows)
            print(f"  {year} {policy:8s}: {monetary:8.0f} + {discomfort:7.0f} discomfort")

with tempfile.TemporaryDirectory(prefix="capsub_study_") as tmp:
    out_dir = Path(tmp)
    loads_csv = out_dir / "loads.csv"
    write_load_csv([sc.series for c in population for sc in c.scenarios], loads_csv)
    manifest = build_manifest(loads_csv, calibrated, policies=("det", "stoch", "reactive"),
                              regimes=("static", "dynamic"), threshold_kw=threshold,
                              vcl_segments=10)
    written = write_study_outputs(result, out_dir, manifest)
    print(f"\nwrote {len(written)} files to {out_dir} (removed on exit):")
    for path in written:
        print(f"  {path.name}")
