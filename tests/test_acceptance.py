"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight shared inputs (the bundled 84-consumer six-year
synthetic population and its activation schedules) are built once per module.
"""

import time

import numpy as np
import pytest

from capsub import (ActivationSchedule, DEFAULT_THRESHOLD_KW, ScenarioSet, TariffBook,
                    VclCurveParams, activation_summary, build_segment_stack,
                    calibrate_capacity_price, cost_dynamic_cs, cost_energy_tariff,
                    cost_static_cs, default_study_spec, default_tariff_bundle,
                    derive_activations, derive_schedules, discomfort_cost,
                    energy_reference_revenue, expected_cost, expected_exceedance_hours,
                    generate_population, optimize_deterministic, optimize_dynamic,
                    optimize_static, stacks_for_scenarios, vcl_marginal)
from capsub.cli import main as cli_main

from conftest import make_series, objective_table, singleton_set

BUNDLE = default_tariff_bundle()
VCL_PARAMS = VclCurveParams(5.0, 8.0)


def report(criterion, label):
    print(f"\n[acceptance] criterion {criterion} ({label}): PASS")


@pytest.fixture(scope="module")
def population():
    return generate_population(default_study_spec())


@pytest.fixture(scope="module")
def schedules(population):
    return derive_schedules(population, DEFAULT_THRESHOLD_KW)


@pytest.fixture(scope="module")
def stacks_per_consumer(population):
    return [stacks_for_scenarios(c, VCL_PARAMS, 10) for c in population]


def winterish_loads(hours, rng):
    t = np.arange(hours)
    seasonal = 2.2 * 0.5 * (1 + np.cos(2 * np.pi * t / hours))
    daily = 1.1 * 0.5 * (1 + np.cos(2 * np.pi * ((t % 24) - 18) / 24))
    noise = rng.uniform(-0.3, 0.3, hours)
    spikes = np.zeros(hours)
    np.add.at(spikes, rng.integers(0, hours, 60), rng.uniform(1.0, 4.0, 60))
    return np.clip(0.9 + seasonal + daily + noise + spikes, 0.0, None)


def static_grid_minimum(scenario_set, book, step_fraction=1e-3):
    """Brute-force oracle: direct cost evaluation on a dense subscription grid."""
    peak = max(sc.series.peak_kw for sc in scenario_set.scenarios)
    step = step_fraction * peak
    grid = np.arange(0.0, peak + step, step)
    totals = book.fixed_annual + book.capacity_price * grid
    for sc in scenario_set.scenarios:
        loads = sc.series.loads
        energy_total = loads.sum()
        for start in range(0, grid.size, 128):
            g = grid[start:start + 128]
            below = np.minimum(loads[None, :], g[:, None]).sum(axis=1)
            totals[start:start + 128] += sc.probability * (
                book.energy_price * below + book.excess_price * (energy_total - below))
    return float(totals.min())


def test_criterion_1_static_quantile_optimality():
    began = time.time()
    rng = np.random.default_rng(2024)
    book = BUNDLE.static

    # 30 small instances with the exceedance target placed inside the horizon
    for _ in range(30):
        hours = int(rng.integers(20, 200))
        n_scen = int(rng.integers(1, 4))
        series = [make_series(rng.uniform(0, 5, hours), year_label=str(2013 + k))
                  for k in range(n_scen)]
        ss = ScenarioSet.equiprobable(series)
        c_l, c_h = 0.005, 0.105
        small_book = TariffBook.static_cs(
            135.0, float(rng.uniform(0.05, 0.9)) * (c_h - c_l) * hours, c_l, c_h)
        exact = optimize_static(ss, small_book).expected_breakdown.total_monetary
        grid_best = static_grid_minimum(ss, small_book)
        assert exact <= grid_best + 1e-6 * abs(grid_best)
        assert grid_best >= exact - 1e-9 * abs(exact)

    # 25 full-year instances with the published price constellation
    target = book.capacity_price / (book.excess_price - book.energy_price)
    assert target == pytest.approx(710.5263157894736, rel=1e-12)
    for _ in range(25):
        n_scen = int(rng.integers(1, 4))
        series = [make_series(winterish_loads(8760, rng), year_label=str(2013 + k))
                  for k in range(n_scen)]
        ss = ScenarioSet.equiprobable(series)
        result = optimize_static(ss, book)
        exact = result.expected_breakdown.total_monetary
        grid_best = static_grid_minimum(ss, book)
        assert exact <= grid_best + 1e-6 * abs(grid_best)
        assert grid_best >= exact - 1e-9 * abs(exact)

        # the optimum sits at the expected-exceedance quantile: ~710.5 h/yr
        level = result.decision.level
        assert expected_exceedance_hours(ss, level) <= target + 1e-9
        if level > 0.0:
            below = np.nextafter(level, -np.inf)
            assert expected_exceedance_hours(ss, below) >= target - 1e-9

    elapsed = time.time() - began
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s, budget is 30s"
    report(1, f"static quantile optimality, 55 instances in {elapsed:.1f}s")


def test_criterion_2_perfect_foresight_dominance(population, schedules,
                                                 stacks_per_consumer):
    static_book, dynamic_book = BUNDLE.static, BUNDLE.dynamic
    violations = 0
    for consumer, stacks in zip(population, stacks_per_consumer):
        static_level = optimize_static(consumer, static_book).decision.level
        dynamic_level = optimize_dynamic(
            consumer, dynamic_book, schedules, stacks).decision.level
        for sc in consumer.scenarios:
            year = sc.series.year_label
            det_static = optimize_deterministic(sc.series, static_book)
            at_stoch = cost_static_cs(sc.series, static_book, static_level)
            if det_static.expected_breakdown.total_monetary > \
                    at_stoch.total_monetary * (1 + 1e-12):
                violations += 1
            det_dynamic = optimize_deterministic(
                sc.series, dynamic_book, schedules[year], stacks[year])
            at_stoch_dyn = cost_dynamic_cs(
                sc.series, dynamic_book, dynamic_level, schedules[year], stacks[year])
            if det_dynamic.expected_breakdown.total_welfare > \
                    at_stoch_dyn.total_welfare * (1 + 1e-12):
                violations += 1
    assert violations == 0
    report(2, "perfect-foresight dominance, 84 consumers x 6 years, both regimes")


def test_criterion_3_dynamic_zero_activation_boundary(population):
    dynamic_book = BUNDLE.dynamic
    for consumer in population[:5]:
        years = consumer.year_labels
        empty = {
            y: ActivationSchedule(y, np.array([], dtype=np.int64)) for y in years
        }
        stacks = stacks_for_scenarios(consumer, VCL_PARAMS, 10)
        result = optimize_dynamic(consumer, dynamic_book, empty, stacks)
        assert result.decision.level == 0.0
        base = result.expected_breakdown.total_welfare
        for level in (0.5, 1.7, 4.0, 9.0):
            bd = expected_cost(consumer, dynamic_book, level, empty, stacks)
            residual = bd.total_welfare - dynamic_book.capacity_price * level
            assert residual == pytest.approx(base, rel=1e-12)
            assert bd.discomfort == 0.0
    report(3, "zero activations give level 0 and capacity-only level dependence")


def test_criterion_4_vcl_curve_constants():
    assert vcl_marginal(VCL_PARAMS, 0.0) == 0.0
    assert vcl_marginal(VCL_PARAMS, 1.0) == 5.0
    peak = 3.0
    coarse = build_segment_stack(VCL_PARAMS, peak, 100)
    fine = build_segment_stack(VCL_PARAMS, peak, 1000)
    for fraction in (0.25, 0.5, 1.0):
        d_coarse = discomfort_cost(coarse, fraction * peak)
        d_fine = discomfort_cost(fine, fraction * peak)
        gap = abs(d_coarse - d_fine) / d_fine
        assert gap < 1e-3, f"f={fraction}: J=100 vs J=1000 gap {gap:.2e}"
    report(4, "curve endpoints exact, J=100 vs J=1000 within 1e-3")


def test_criterion_5_activation_table_arithmetic():
    counts = [13, 42, 148, 10, 19, 59]
    shares = [4.5, 14.4, 50.9, 3.4, 6.5, 20.3]
    schedules = [
        ActivationSchedule(str(2013 + i), np.arange(c, dtype=np.int64))
        for i, c in enumerate(counts)
    ]
    rows = activation_summary(schedules)
    assert sum(r.hours for r in rows) == 291
    for row, share in zip(rows, shares):
        assert abs(row.share_pct - share) <= 0.05

    rng = np.random.default_rng(55)
    for _ in range(20):
        population = [make_series(rng.uniform(0, 5, 500)) for _ in range(6)]
        low, high = np.sort(rng.uniform(2.0, 25.0, 2))
        at_high = set(derive_activations(population, float(high)).active_hours.tolist())
        at_low = set(derive_activations(population, float(low)).active_hours.tolist())
        assert at_high <= at_low
    report(5, "table totals/shares reproduced, threshold monotonicity holds")


def test_criterion_6_revenue_neutral_calibration(population, schedules,
                                                 stacks_per_consumer):
    tolerance = 1e-4
    reference = energy_reference_revenue(population, BUNDLE.energy)

    static_outcome = calibrate_capacity_price(
        population, BUNDLE.static, reference, tolerance)
    assert static_outcome.relative_gap < tolerance

    dynamic_outcome = calibrate_capacity_price(
        population, BUNDLE.dynamic, reference, tolerance,
        schedules=schedules, stacks_by_consumer=stacks_per_consumer)
    assert dynamic_outcome.relative_gap < tolerance

    # idempotence: recalibrating at the found price stays put
    again = calibrate_capacity_price(
        population, static_outcome.book, reference, tolerance)
    assert abs(again.capacity_price - static_outcome.capacity_price) <= \
        tolerance * max(static_outcome.capacity_price, 1.0)

    # physical limitation must actually bite, and then the dynamic scheme,
    # which collects no excess fees, calibrates to a lower capacity price
    total_cut = 0.0
    for consumer, stacks in zip(population, stacks_per_consumer):
        level = optimize_dynamic(
            consumer, dynamic_outcome.book, schedules, stacks).decision.level
        for sc in consumer.scenarios:
            year = sc.series.year_label
            active = sc.series.loads[schedules[year].active_hours]
            cut = np.clip(active - level, 0.0, None).sum()
            total_cut += sc.probability * float(cut)
    assert total_cut > 0.0
    assert dynamic_outcome.capacity_price < static_outcome.capacity_price
    report(6, f"calibration gaps < 1e-4; dynamic price "
              f"{dynamic_outcome.capacity_price:.2f} < static "
              f"{static_outcome.capacity_price:.2f} with {total_cut:.0f} kWh cut")


def test_criterion_6_calibration_is_exact_in_few_evaluations(population, schedules,
                                                             stacks_per_consumer):
    # Newton steps on the concave aggregate land on the reference itself
    reference = energy_reference_revenue(population, BUNDLE.energy)
    for book, inputs in ((BUNDLE.static, {}),
                         (BUNDLE.dynamic, dict(schedules=schedules,
                                               stacks_by_consumer=stacks_per_consumer))):
        outcome = calibrate_capacity_price(population, book, reference, 1e-4, **inputs)
        assert outcome.iterations <= 10, outcome.trace
        assert outcome.relative_gap <= 1e-12


def test_criterion_7_cost_evaluation_exactness():
    static_bd = cost_static_cs(make_series([1.0, 3.0]), BUNDLE.static, 2.0)
    assert static_bd.total_monetary == pytest.approx(270.115, rel=1e-9)

    loads = np.zeros(8760)
    loads[:1000] = 10.0
    energy_bd = cost_energy_tariff(make_series(loads), BUNDLE.energy)
    assert energy_bd.total_monetary == pytest.approx(390.5, rel=1e-9)
    report(7, "hand-computed 270.115 and 390.5 EUR examples exact to 1e-9")


def test_criterion_8_convexity_audit():
    rng = np.random.default_rng(88)

    def assert_convex(levels, values):
        keep = np.concatenate(([True], np.diff(levels) > 1e-12))
        levels, values = levels[keep], values[keep]
        slopes = np.diff(values) / np.diff(levels)
        # slack only for float round-off in the summed objective
        floor = np.maximum(1.0, np.abs(slopes[:-1])) * 1e-6
        assert np.all(np.diff(slopes) >= -floor)

    for _ in range(50):
        hours = int(rng.integers(20, 200))
        n_scen = int(rng.integers(1, 4))
        series = [make_series(rng.uniform(0, 5, hours), year_label=str(2013 + k))
                  for k in range(n_scen)]
        ss = ScenarioSet.equiprobable(series)
        c_l, c_h = 0.005, 0.105
        book = TariffBook.static_cs(
            135.0, float(rng.uniform(0.05, 0.9)) * (c_h - c_l) * hours, c_l, c_h)
        levels, const = objective_table(ss, book)
        assert_convex(levels, const + book.capacity_price * levels)

    dynamic_book = BUNDLE.dynamic
    for _ in range(50):
        hours = int(rng.integers(20, 150))
        loads = rng.uniform(0.0, 6.0, hours)
        series = make_series(loads)
        ss = singleton_set(series)
        n_active = int(rng.integers(1, hours // 2 + 1))
        active = np.sort(rng.choice(hours, n_active, replace=False))
        schedules = {"2015": ActivationSchedule("2015", active)}
        stacks = {"2015": build_segment_stack(VCL_PARAMS, series.peak_kw,
                                              int(rng.integers(1, 9)))}
        levels, const = objective_table(ss, dynamic_book, schedules, stacks)
        assert_convex(levels, const + dynamic_book.capacity_price * levels)
    report(8, "non-decreasing slopes on 100 random instances, both objectives")


def test_criterion_9_study_determinism(tmp_path, small_pools):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("""{
        "consumer_count": 6, "years": ["2015", "2016", "2017"], "rng_seed": 404,
        "base_load_kw": 0.9, "seasonal_amplitude": 2.2, "daily_amplitude": 1.2,
        "spike_rate": 40.0, "spike_magnitude": 3.0, "noise_amplitude": 0.3,
        "cold_year_factor": [0.95, 1.25, 1.05]
    }""")
    assert cli_main(["generate", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    loads = tmp_path / "loads.csv"

    first = tmp_path / "run_jobs1"
    assert cli_main(["study", "--loads", str(loads),
                     "--policy", "det", "--policy", "stoch", "--policy", "reactive",
                     "--threshold-kw", "24.0", "--jobs", "1",
                     "--out", str(first)]) == 0
    manifest = first / "study.json"

    for jobs in (1, 2, 3):
        rerun = tmp_path / f"rerun_jobs{jobs}"
        assert cli_main(["study", "--from-manifest", str(manifest),
                         "--jobs", str(jobs), "--out", str(rerun)]) == 0
        base_names = sorted(p.name for p in first.iterdir())
        rerun_names = sorted(p.name for p in rerun.iterdir())
        assert base_names == rerun_names
        for name in base_names:
            assert (first / name).read_bytes() == (rerun / name).read_bytes(), \
                f"--jobs {jobs} changed {name}"
    # 6 consumers are 2 chunks of 4: the --jobs 2 and 3 reruns each start 2 workers
    assert small_pools == [2, 2]
    report(9, "study rerun from manifest byte-identical at jobs 1, 2 and 3")
