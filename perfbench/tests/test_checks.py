import json
import math
import shutil

import numpy as np
import pytest

import checks
from capsub import (VclCurveParams, default_tariff_bundle, derive_activations,
                    generate_population, optimize_dynamic, optimize_static,
                    stacks_for_scenarios, static_objective_lines)
from run import WORKLOADS


def test_compare_dirs_finds_one_changed_byte(tmp_path):
    first = tmp_path / "study"
    first.mkdir()
    (first / "a.csv").write_bytes(b"x,y\n1,2\n")
    (first / "b.csv").write_bytes(b"z\n3\n")
    second = tmp_path / "rerun"
    shutil.copytree(first, second)
    assert checks.compare_dirs(first, second) == []

    data = bytearray((second / "b.csv").read_bytes())
    data[2] ^= 1
    (second / "b.csv").write_bytes(bytes(data))
    problems = checks.compare_dirs(first, second)
    assert len(problems) == 1 and "b.csv" in problems[0]


def test_compare_dirs_finds_a_missing_file(tmp_path):
    first, second = tmp_path / "study", tmp_path / "rerun"
    first.mkdir()
    second.mkdir()
    (first / "a.csv").write_text("1\n")
    assert checks.compare_dirs(first, second)


def _tariff(path, gap, tolerance=1e-4, price=60.0):
    path.write_text(json.dumps({"calibration": {
        "capacity_price_eur_per_kw_year": price, "relative_gap": gap, "tolerance": tolerance}}))
    return path


def test_calibration_gap_above_tolerance_fails(tmp_path):
    assert checks.calibration_problems(_tariff(tmp_path / "ok.json", 5e-5)) == []
    problems = checks.calibration_problems(_tariff(tmp_path / "bad.json", 2e-4))
    assert len(problems) == 1 and "exceeds" in problems[0]


@pytest.mark.parametrize("price", [0.0, -1.0, math.inf])
def test_calibration_price_must_be_finite_and_positive(tmp_path, price):
    assert checks.calibration_problems(_tariff(tmp_path / "t.json", 0.0, price=price))


@pytest.fixture(scope="module")
def small_study():
    spec = WORKLOADS["scarcity"].spec(seed=3)
    population = generate_population(spec)
    years = population[0].year_labels
    schedules = {y: derive_activations([c.scenario_for(y).series for c in population], 9.0)
                 for y in years}
    bundle = default_tariff_bundle()
    params = VclCurveParams(bundle.dynamic.voll, bundle.vcl_steepness)
    stacks = [stacks_for_scenarios(c, params) for c in population]
    levels = {}
    for consumer, stack in zip(population, stacks):
        levels[(consumer.consumer_id, "static")] = \
            optimize_static(consumer, bundle.static).decision.level
        levels[(consumer.consumer_id, "dynamic")] = \
            optimize_dynamic(consumer, bundle.dynamic, schedules, stack).decision.level
    return population, bundle, schedules, stacks, levels


def test_optimal_levels_pass_the_local_minimum_check(small_study):
    population, bundle, schedules, stacks, levels = small_study
    assert checks.nonminimal_levels(population, bundle, schedules, stacks, levels) == []


@pytest.mark.parametrize("regime", ["static", "dynamic"])
@pytest.mark.parametrize("factor", [0.97, 1.03])
def test_a_non_minimal_level_fails(small_study, regime, factor):
    population, bundle, schedules, stacks, levels = small_study
    key = (population[0].consumer_id, regime)
    moved = {**levels, key: levels[key] * factor}
    problems = checks.nonminimal_levels(population, bundle, schedules, stacks, moved)
    assert len(problems) == 1 and problems[0].startswith(f"{key[0]} {regime}")


def test_the_next_breakpoint_is_not_minimal(small_study):
    population, bundle, schedules, stacks, levels = small_study
    consumer = population[0]
    key = (consumer.consumer_id, "static")
    candidates, _ = static_objective_lines(consumer, bundle.static)
    following = candidates[np.searchsorted(candidates, levels[key], side="right")]
    problems = checks.nonminimal_levels(population, bundle, schedules, stacks,
                                        {**levels, key: float(following)})
    assert len(problems) == 1


def test_level_zero_is_checked_upwards_only(small_study):
    population, bundle, schedules, stacks, levels = small_study
    key = (population[0].consumer_id, "static")
    # a zero level is not the optimum here, so the upward step must lower the cost
    problems = checks.nonminimal_levels(population, bundle, schedules, stacks,
                                        {**levels, key: 0.0})
    assert len(problems) == 1


def test_study_digest_ignores_where_the_loads_file_was(tmp_path):
    for name, loads in (("one", "/a/loads.csv"), ("two", "/b/loads.csv")):
        out = tmp_path / name
        out.mkdir()
        (out / "study.json").write_text(json.dumps({"inputs": {"loads_csv": loads}}))
        (out / "levels.csv").write_text("1\n")
    assert checks.study_digest(tmp_path / "one") == checks.study_digest(tmp_path / "two")
    (tmp_path / "two" / "levels.csv").write_text("2\n")
    assert checks.study_digest(tmp_path / "one") != checks.study_digest(tmp_path / "two")

