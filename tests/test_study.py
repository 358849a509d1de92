import json
from dataclasses import replace

import numpy as np
import pytest

from capsub import (ConfigError, PolicyKind, ScenarioMismatch, ScenarioSet,
                    SyntheticPopulationSpec, TariffRegime, expected_exceedance_hours,
                    default_tariff_bundle, generate_population, run_study,
                    run_study_from_manifest, build_manifest, write_load_csv,
                    write_study_outputs)
from capsub import VclCurveParams, optimizer, stacks_for_scenarios, study
from capsub.study import _policy_cost_total
from capsub.tariff_engine import annual_cost


def study_population(consumers=5, seed=17, years=("2015", "2016", "2017")):
    spec = SyntheticPopulationSpec(
        consumer_count=consumers,
        years=years,
        rng_seed=seed,
        base_load_kw=0.9,
        seasonal_amplitude=2.2,
        daily_amplitude=1.2,
        spike_rate=40.0,
        spike_magnitude=3.0,
        noise_amplitude=0.3,
        cold_year_factor=(0.95, 1.25, 1.05)[:len(years)],
    )
    return generate_population(spec)


def pick_threshold(population, fraction=0.9):
    years = population[0].year_labels
    peak = max(
        np.sum([c.scenario_for(y).series.loads[:8760] for c in population], axis=0).max()
        for y in years
    )
    return fraction * peak


@pytest.fixture(scope="module")
def small_study():
    population = study_population()
    bundle = default_tariff_bundle()
    threshold = pick_threshold(population)
    result = run_study(population, bundle, policies=("det", "stoch", "reactive"),
                       threshold_kw=threshold, vcl_segments=10, jobs=1)
    return population, bundle, threshold, result


class TestRunStudy:
    def test_structure(self, small_study):
        population, _, _, result = small_study
        assert len(result.consumers) == len(population)
        years = result.years
        consumer = result.consumers[0]
        assert set(consumer.full_load_hours) == set(years)
        for regime in ("static", "dynamic"):
            assert (regime, "stoch") in consumer.levels
            stoch_rows = consumer.levels[(regime, "stoch")]
            assert len(stoch_rows) == 1 and stoch_rows[0][0] == ""
            det_rows = consumer.levels[(regime, "det")]
            assert [y for y, _ in det_rows] == list(years)
            reactive_rows = consumer.levels[(regime, "reactive")]
            assert [y for y, _ in reactive_rows] == list(years[1:])
        for year in years:
            assert ("energy", "baseline", year) in consumer.breakdowns

    def test_reactive_level_is_previous_deterministic(self, small_study):
        _, _, _, result = small_study
        for consumer in result.consumers:
            det = dict(consumer.levels[("static", "det")])
            for year, level in consumer.levels[("static", "reactive")]:
                years = list(consumer.years)
                previous = years[years.index(year) - 1]
                assert level == det[previous]

    def test_deterministic_dominates_reactive_and_stochastic(self, small_study):
        _, _, _, result = small_study
        for consumer in result.consumers:
            for year in consumer.years:
                det = consumer.breakdowns[("static", "det", year)].total_monetary
                stoch = consumer.breakdowns[("static", "stoch", year)].total_monetary
                assert det <= stoch * (1 + 1e-12)
            for year in consumer.years[1:]:
                det = consumer.breakdowns[("static", "det", year)].total_monetary
                reactive = consumer.breakdowns[("static", "reactive", year)].total_monetary
                assert det <= reactive * (1 + 1e-12)

    def test_rejects_empty_policies(self, small_study):
        population, bundle, threshold, _ = small_study
        with pytest.raises(ConfigError, match="polic"):
            run_study(population, bundle, policies=(), threshold_kw=threshold)

    def test_rejects_unknown_policy(self, small_study):
        population, bundle, threshold, _ = small_study
        with pytest.raises(ConfigError, match="unknown policy"):
            run_study(population, bundle, policies=("perfect",), threshold_kw=threshold)

    def test_rejects_mismatched_year_sets(self, small_study):
        population, bundle, threshold, _ = small_study
        from capsub import ScenarioSet
        odd = ScenarioSet.equiprobable(
            [sc.series for sc in population[0].scenarios[:2]])
        with pytest.raises(ScenarioMismatch):
            run_study([population[1], odd], bundle, policies=("stoch",),
                      threshold_kw=threshold)

    def test_regimes_by_name_or_member(self, small_study):
        population, bundle, threshold, _ = small_study
        by_name = run_study(population[:2], bundle, policies=("stoch",), regimes=("dynamic",),
                            threshold_kw=threshold, vcl_segments=10)
        by_member = run_study(population[:2], bundle, policies=("stoch",),
                              regimes=(TariffRegime.DYNAMIC_CS,),
                              threshold_kw=threshold, vcl_segments=10)
        assert by_name.regimes == by_member.regimes == (TariffRegime.DYNAMIC_CS,)
        assert by_name.consumers == by_member.consumers

    def test_policies_by_name_or_member(self, small_study):
        population, bundle, threshold, _ = small_study
        by_name = run_study(population[:2], bundle, policies=("reactive", "det", "reactive"),
                            regimes=("static",), threshold_kw=threshold)
        by_member = run_study(population[:2], bundle,
                              policies=(PolicyKind.REACTIVE, PolicyKind.DETERMINISTIC),
                              regimes=("static",), threshold_kw=threshold)
        assert by_name.policies == by_member.policies == \
            (PolicyKind.REACTIVE, PolicyKind.DETERMINISTIC)
        assert by_name.consumers == by_member.consumers
        assert set(by_name.consumers[0].levels) == {("static", "det"), ("static", "reactive")}

    @pytest.mark.parametrize("regime", ["energy", "fancy"])
    def test_rejects_non_cs_regime(self, small_study, regime):
        population, bundle, threshold, _ = small_study
        with pytest.raises(ConfigError, match="unknown capacity-subscription regime"):
            run_study(population, bundle, policies=("stoch",), regimes=(regime,),
                      threshold_kw=threshold)

    def test_parallel_equals_serial(self, small_study, small_pools, tmp_path):
        population, bundle, threshold, result = small_study
        parallel = run_study(population, bundle, policies=("det", "stoch", "reactive"),
                             threshold_kw=threshold, vcl_segments=10, jobs=2)
        assert small_pools == [2]
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        write_study_outputs(result, out_serial)
        write_study_outputs(parallel, out_parallel)
        for path in sorted(out_serial.iterdir()):
            twin = out_parallel / path.name
            assert twin.read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, small_study, jobs):
        population, bundle, threshold, _ = small_study
        with pytest.raises(ConfigError, match=f"jobs: must be >= 1, got {jobs}"):
            run_study(population, bundle, policies=("stoch",), threshold_kw=threshold,
                      jobs=jobs)


class TestWorkerCount:
    """One worker per MIN_CONSUMER_YEARS_PER_WORKER consumer-years and per chunk of 4
    consumers, at most ``jobs``; a study that allows one runs in-process."""

    MIN = study.MIN_CONSUMER_YEARS_PER_WORKER

    @pytest.mark.parametrize("jobs, consumer_years, consumers, workers", [
        (8, 2 * MIN - 1, 1000, 1),
        (8, 2 * MIN, 1000, 2),
        (8, 3 * MIN, 1000, 3),
        (2, 10 * MIN, 1000, 2),
        (1, 10 * MIN, 1000, 1),
    ])
    def test_worker_count(self, jobs, consumer_years, consumers, workers):
        assert study._worker_count(jobs, consumer_years, consumers) == workers

    # with a minimum of one consumer-year per worker, the chunks of 4 bound the pool

    def test_four_consumers_start_no_pool(self, small_study, small_pools):
        population, bundle, _, _ = small_study
        four = population[:4]
        threshold = pick_threshold(four)
        runs = [run_study(four, bundle, policies=("det", "stoch", "reactive"),
                          threshold_kw=threshold, vcl_segments=10, jobs=jobs)
                for jobs in (8, 1)]
        assert small_pools == []
        assert runs[0].consumers == runs[1].consumers

    def test_five_consumers_start_two_workers(self, small_study, small_pools):
        population, bundle, threshold, serial = small_study
        assert len(population) == 5
        pooled = run_study(population, bundle, policies=("det", "stoch", "reactive"),
                           threshold_kw=threshold, vcl_segments=10, jobs=8)
        assert small_pools == [2]
        assert pooled.consumers == serial.consumers

    def test_small_population_starts_no_pool(self, small_study, pool_sizes):
        population, bundle, threshold, serial = small_study
        assert len(population) * len(serial.years) < 2 * self.MIN
        for jobs in (1, 2, 8):
            run = run_study(population, bundle, policies=("det", "stoch", "reactive"),
                            threshold_kw=threshold, vcl_segments=10, jobs=jobs)
            assert run.consumers == serial.consumers
        assert pool_sizes == []

    def test_two_minimums_start_two_workers(self, pool_sizes):
        # two years per consumer: MIN consumers hold exactly 2 * MIN consumer-years
        population = study_population(consumers=self.MIN, years=("2015", "2016"))
        bundle = default_tariff_bundle()
        threshold = pick_threshold(population)

        def run(consumers, jobs):
            return run_study(consumers, bundle, policies=("det", "stoch", "reactive"),
                             threshold_kw=threshold, vcl_segments=10, jobs=jobs).consumers

        serial = run(population, 1)
        assert pool_sizes == []
        assert run(population, 8) == serial
        assert pool_sizes == [2]
        assert run(population[1:], 8) == run(population[1:], 1)
        assert pool_sizes == [2]


class TestPricing:
    """The optimizer only chooses levels; the study prices each row once with annual_cost."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"annual_cost": [], "optimize_expected": []}

        def counting(name):
            original = getattr(study, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return original(*args, **kwargs)
            return wrapper

        def refuse(*args, **kwargs):
            raise AssertionError("the study called expected_cost")

        for name in calls:
            monkeypatch.setattr(study, name, counting(name))
        monkeypatch.setattr(optimizer, "expected_cost", refuse)
        return calls

    def test_each_row_priced_once_at_its_level(self, small_study, calls):
        population, bundle, _, _ = small_study
        two = population[:2]
        result = run_study(two, bundle, policies=("det", "stoch", "reactive"),
                           threshold_kw=pick_threshold(two), vcl_segments=10)
        # consumers x regimes x (det years + stoch years + reactive years)
        assert len(calls["annual_cost"]) == 2 * 2 * (3 + 3 + 2)
        params = VclCurveParams(bundle.dynamic.voll, bundle.vcl_steepness)
        for consumer, scenario_set in zip(result.consumers, two):
            stacks = stacks_for_scenarios(scenario_set, params, 10)
            priced = set()
            for (regime, policy), rows in consumer.levels.items():
                book = bundle.book(TariffRegime(regime))
                for row_year, level in rows:
                    for year in (row_year,) if row_year else consumer.years:
                        series = scenario_set.scenario_for(year).series
                        assert consumer.breakdowns[(regime, policy, year)] == annual_cost(
                            series, book, level, result.schedules, stacks)
                        priced.add((regime, policy, year))
            assert priced == {key for key in consumer.breakdowns if key[0] != "energy"}

    def test_reactive_only_optimizes_the_reused_years(self, small_study, calls):
        population, bundle, _, _ = small_study
        two = population[:2]
        years = two[0].year_labels
        run_study(two, bundle, policies=("reactive",), threshold_kw=pick_threshold(two),
                  vcl_segments=10)
        # each consumer and regime optimizes every year but the last, and nothing else
        optimized = [args[0].year_labels for args in calls["optimize_expected"]]
        assert optimized == [(year,) for _ in range(2 * 2) for year in years[:-1]]
        assert len(calls["annual_cost"]) == 2 * 2 * 2


class TestStaticOptimalityCondition:
    """The paper's first-order condition, an oracle independent of the optimizer.

    At the optimal static level x, (excess - energy) * E[#{load > x}] <= c
    <= (excess - energy) * E[#{load >= x}] for capacity price c; at x = 0 only
    the left half holds. Compared exactly.
    """

    @pytest.mark.parametrize("price", [0.0, 1.0, 10.0, 54.0, 89.87150561137764, 250.0,
                                       1000.0, 1e4])
    def test_every_static_level_of_the_criterion_9_study(self, price):
        population = study_population(consumers=6, seed=404)
        bundle = default_tariff_bundle()
        bundle = bundle.with_book(replace(bundle.static, capacity_price=price))
        result = run_study(population, bundle, policies=("det", "stoch"), regimes=("static",),
                           threshold_kw=24.0)
        spread = bundle.static.excess_price - bundle.static.energy_price
        checked = 0
        for consumer, scenario_set in zip(result.consumers, population):
            for policy in ("det", "stoch"):
                for year, level in consumer.levels[("static", policy)]:
                    ss = ScenarioSet.equiprobable((scenario_set.scenario_for(year).series,)) \
                        if year else scenario_set
                    at_or_above = float(sum(
                        sc.probability * int(np.count_nonzero(sc.series.loads >= level))
                        for sc in ss.scenarios))
                    assert spread * expected_exceedance_hours(ss, level) <= price
                    assert level == 0.0 or price <= spread * at_or_above
                    checked += 1
        assert checked == 6 * (3 + 1)


class TestOutputsAndManifest:
    def test_expected_files_written(self, small_study, tmp_path):
        _, _, _, result = small_study
        written = write_study_outputs(result, tmp_path / "out")
        names = {p.name for p in written}
        assert {"fullloadhours.csv", "subscription_levels.csv", "aggregate_revenue.csv",
                "annual_costs.csv", "activations.csv",
                "relative_cost_static_stoch_vs_energy.csv",
                "relative_cost_dynamic_stoch_vs_energy.csv",
                "relative_cost_static_reactive_vs_stoch.csv",
                "relative_cost_dynamic_reactive_vs_stoch.csv",
                "loadfactor_scatter_static.csv",
                "loadfactor_scatter_dynamic.csv"} <= names

    def test_aggregate_rows_sum_consumers(self, small_study, tmp_path):
        _, _, _, result = small_study
        out = tmp_path / "out"
        write_study_outputs(result, out)
        per_consumer = sum(
            _policy_cost_total(c, "static", "stoch", result.years)
            for c in result.consumers
        )
        total = 0.0
        for line in (out / "aggregate_revenue.csv").read_text().splitlines():
            if line.startswith(("#", "year_label")):
                continue
            year, regime, policy, monetary, discomfort = line.split(",")
            if regime == "static" and policy == "stoch":
                total += float(monetary)
        assert total == pytest.approx(per_consumer, rel=1e-9)

    def test_manifest_rerun_reproduces_bytes(self, small_study, small_pools, tmp_path):
        population, bundle, threshold, result = small_study
        series = [sc.series for c in population for sc in c.scenarios]
        loads_csv = tmp_path / "loads.csv"
        write_load_csv(series, loads_csv)
        manifest = build_manifest(loads_csv, bundle,
                                  policies=("det", "stoch", "reactive"),
                                  regimes=("static", "dynamic"),
                                  threshold_kw=threshold, vcl_segments=10)
        out1 = tmp_path / "run1"
        write_study_outputs(result, out1, manifest)
        rerun, manifest2 = run_study_from_manifest(out1 / "study.json", jobs=2)
        assert small_pools == [2]
        out2 = tmp_path / "run2"
        write_study_outputs(rerun, out2, manifest2)
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_manifest_detects_changed_input(self, small_study, tmp_path):
        population, bundle, threshold, _ = small_study
        series = [sc.series for c in population for sc in c.scenarios]
        loads_csv = tmp_path / "loads.csv"
        write_load_csv(series, loads_csv)
        manifest = build_manifest(loads_csv, bundle, policies=("stoch",),
                                  regimes=("static",), threshold_kw=threshold,
                                  vcl_segments=10)
        manifest_path = tmp_path / "study.json"
        manifest_path.write_text(json.dumps(manifest))
        loads_csv.write_text(loads_csv.read_text() + "\n")
        with pytest.raises(ConfigError, match="sha256"):
            run_study_from_manifest(manifest_path)

    def test_manifest_records_names(self, small_study, tmp_path):
        population, bundle, threshold, _ = small_study
        loads_csv = tmp_path / "loads.csv"
        write_load_csv([sc.series for sc in population[0].scenarios], loads_csv)
        manifest = build_manifest(loads_csv, bundle,
                                  policies=(PolicyKind.STOCHASTIC, "det", "stoch"),
                                  regimes=(TariffRegime.STATIC_CS, "dynamic", "static"),
                                  threshold_kw=threshold, vcl_segments=10)
        assert manifest["params"]["policies"] == ["stoch", "det"]
        assert manifest["params"]["regimes"] == ["static", "dynamic"]
        json.dumps(manifest)

    @pytest.mark.parametrize("field, name, message", [
        ("policies", "perfect", "policies: unknown policy 'perfect'"),
        ("regimes", "energy", "regimes: unknown capacity-subscription regime 'energy'"),
    ])
    def test_manifest_rejects_unknown_names(self, small_study, tmp_path, field, name, message):
        population, bundle, threshold, _ = small_study
        loads_csv = tmp_path / "loads.csv"
        write_load_csv([sc.series for sc in population[0].scenarios], loads_csv)
        names = {"policies": ("stoch",), "regimes": ("static",)}
        names[field] += (name,)
        with pytest.raises(ConfigError, match=message):
            build_manifest(loads_csv, bundle, **names, threshold_kw=threshold, vcl_segments=10)

    @pytest.mark.parametrize("malform, message", [
        pytest.param(lambda m: [], r"must be a dict, got \[\]", id="list"),
        pytest.param(lambda m: None, "must be a dict, got None", id="null"),
        pytest.param(lambda m: {**m, "manifest_version": 2}, "manifest_version must be 1, got 2",
                     id="version-2"),
        pytest.param(lambda m: {**m, "inputs": "x"}, "inputs must be a dict", id="inputs"),
        pytest.param(lambda m: {**m, "inputs": {**m["inputs"], "loads_csv_sha256": None}},
                     "inputs.loads_csv_sha256 must be a str, got None", id="sha256-null"),
        pytest.param(lambda m: {**m, "tariff": 5}, "tariff config: expected a JSON object",
                     id="tariff"),
        pytest.param(lambda m: {**m, "params": {**m["params"], "policies": None}},
                     "params.policies must be a list, got None", id="policies-null"),
        pytest.param(lambda m: {**m, "params": {**m["params"], "policies": "det"}},
                     "params.policies must be a list, got 'det'", id="policies-string"),
        pytest.param(lambda m: {**m, "params": {**m["params"], "regimes": 5}},
                     "params.regimes must be a list, got 5", id="regimes"),
    ])
    def test_malformed_manifest_is_config_error(self, small_study, tmp_path, malform, message):
        population, bundle, threshold, _ = small_study
        loads_csv = tmp_path / "loads.csv"
        write_load_csv([sc.series for sc in population[0].scenarios], loads_csv)
        manifest = build_manifest(loads_csv, bundle, policies=("stoch",), regimes=("static",),
                                  threshold_kw=threshold, vcl_segments=10)
        manifest_path = tmp_path / "study.json"
        manifest_path.write_text(json.dumps(malform(manifest)))
        with pytest.raises(ConfigError, match=message):
            run_study_from_manifest(manifest_path)

    @pytest.mark.parametrize("field, value", [("threshold_kw", "abc"), ("vcl_segments", "10"),
                                              ("vcl_segments", 2.5)])
    def test_manifest_bad_number_is_config_error(self, small_study, tmp_path, field, value):
        population, bundle, threshold, _ = small_study
        loads_csv = tmp_path / "loads.csv"
        write_load_csv([sc.series for sc in population[0].scenarios], loads_csv)
        manifest = build_manifest(loads_csv, bundle, policies=("stoch",), regimes=("static",),
                                  threshold_kw=threshold, vcl_segments=10)
        manifest["params"][field] = value
        manifest_path = tmp_path / "study.json"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=field):
            run_study_from_manifest(manifest_path)

    @pytest.mark.parametrize("min_level", [0.0, 3.0])
    def test_manifest_min_level_only_zero_reruns(self, small_study, tmp_path, min_level):
        # manifests written before the subscription floor was removed all record 0.0
        population, bundle, threshold, _ = small_study
        series = [sc.series for c in population[:2] for sc in c.scenarios]
        loads_csv = tmp_path / "loads.csv"
        write_load_csv(series, loads_csv)
        manifest = build_manifest(loads_csv, bundle, policies=("stoch",),
                                  regimes=("static",), threshold_kw=threshold,
                                  vcl_segments=10)
        manifest["params"]["min_level"] = min_level
        manifest_path = tmp_path / "study.json"
        manifest_path.write_text(json.dumps(manifest))
        if min_level == 0.0:
            result, _ = run_study_from_manifest(manifest_path)
            assert len(result.consumers) == 2
        else:
            with pytest.raises(ConfigError, match="min_level"):
                run_study_from_manifest(manifest_path)
