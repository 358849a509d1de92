"""Golden numbers: calibrated prices and study bytes, pinned across commits.

Each recipe runs generate, calibrate --regime static, calibrate --regime
dynamic on the static result, and a det/stoch/reactive study on the
calibrated tariff. Its entries in ``tests/golden.json`` are the SHA-256 and
the ``repr`` of the price and relative gap of both calibrate JSONs, and the
SHA-256 of each study file, with study.json's absolute loads path normalised
as perfbench's study digest does.

- ``criterion_9`` (6 consumers x 2015-2017, seed 404, 24 kW) runs through
  ``cli.main`` in the tier-1 tests below.
- ``bundled`` and ``scarcity`` are the benchmark's two recipes at seed 1
  (``perfbench/run.py``), each with its threshold placed in the aggregate load
  so that a fixed share of hours is active. They also run in tier-1.
- ``paper_scale`` (the bundled 84 x 6 population, 385 kW, ``--jobs 2``) takes
  about 15 s cold and runs in CI only, through the console script:

      python tests/test_golden.py --paper-scale DIR

Without ``--paper-scale`` the script runs the tier-1 recipes, or the one
named by ``--recipe``. Add ``--write`` to either form to rewrite the entries
of the recipes it ran instead of comparing them. The comparison is exact;
each entry records the Python and numpy versions it was written with. If
another platform gives other bits, report it rather than loosening the
comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from capsub import SyntheticPopulationSpec, generate_population
from capsub.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden.json")

CRITERION_9_SPEC = {
    "consumer_count": 6, "years": ["2015", "2016", "2017"], "rng_seed": 404,
    "base_load_kw": 0.9, "seasonal_amplitude": 2.2, "daily_amplitude": 1.2,
    "spike_rate": 40.0, "spike_magnitude": 3.0, "noise_amplitude": 0.3,
    "cold_year_factor": [0.95, 1.25, 1.05],
}


# The benchmark's recipes (perfbench/run.py WORKLOADS) at seed 1, and the share
# of all hours their threshold activates.
BENCHMARK_RECIPES = {
    "bundled": ({
        "consumer_count": 6, "years": ["2015", "2016"], "rng_seed": 1,
        "base_load_kw": 0.9, "seasonal_amplitude": 2.2, "daily_amplitude": 1.2,
        "spike_rate": 80.0, "spike_magnitude": 3.0, "noise_amplitude": 0.3,
        "cold_year_factor": [1.25, 0.95],
    }, 729 / 52584),
    "scarcity": ({
        **CRITERION_9_SPEC, "consumer_count": 2, "years": ["2015", "2016"], "rng_seed": 1,
        "cold_year_factor": [0.95, 1.25],
    }, 2238 / 26280),
}


def active_share_threshold(spec: dict, active_share: float) -> str:
    """The benchmark's threshold: midway between the aggregate loads that bound the share."""
    population = generate_population(SyntheticPopulationSpec(**spec))
    aggregate = [np.sum([c.scenario_for(y).series.loads for c in population], axis=0)
                 for y in population[0].year_labels]
    loads = np.sort(np.concatenate(aggregate))[::-1]
    k = round(active_share * loads.size)
    return repr(float((loads[k - 1] + loads[k]) / 2.0))


TIER_1_RECIPES = ("criterion_9", *sorted(BENCHMARK_RECIPES))


def run_recipe(recipe: str, out: Path) -> dict:
    """A tier-1 recipe's golden entries, from a run through ``cli.main`` in ``out``."""
    if recipe == "criterion_9":
        return pipeline(run_in_process, out, CRITERION_9_SPEC, "24", "1")
    spec, active_share = BENCHMARK_RECIPES[recipe]
    return pipeline(run_in_process, out, spec, active_share_threshold(spec, active_share), "1")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run_in_process(argv: list[str]) -> None:
    code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"capsub {' '.join(argv)} exited {code}")


def run_console_script(argv: list[str]) -> None:
    # the installed console script; from a checkout, the same entry point by module
    capsub = shutil.which("capsub")
    command = [capsub] if capsub else [sys.executable, "-m", "capsub.cli"]
    subprocess.run(command + argv, check=True, stdout=subprocess.DEVNULL)


def _study_file_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "study.json":
        manifest = json.loads(data)
        manifest["inputs"]["loads_csv"] = "loads.csv"
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return data


def _calibration_entry(path: Path) -> dict:
    data = path.read_bytes()
    calibration = json.loads(data)["calibration"]
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "capacity_price": repr(calibration["capacity_price_eur_per_kw_year"]),
            "relative_gap": repr(calibration["relative_gap"])}


def pipeline(run, out: Path, spec: dict | None, threshold_kw: str, jobs: str) -> dict:
    """Run the four commands in ``out`` with ``run``; returns the recipe's golden entries."""
    out.mkdir(parents=True, exist_ok=True)
    data, study = out / "data", out / "study"
    tariffs = {"static": out / "static.json", "dynamic": out / "dynamic.json"}
    loads = str(data / "loads.csv")
    generate = ["generate", "--out", str(data)]
    if spec is not None:
        spec_path = out / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        generate += ["--spec", str(spec_path)]
    run(generate)
    run(["calibrate", "--loads", loads, "--regime", "static", "--out", str(tariffs["static"])])
    run(["calibrate", "--loads", loads, "--regime", "dynamic", "--tariff", str(tariffs["static"]),
         "--threshold-kw", threshold_kw, "--out", str(tariffs["dynamic"])])
    run(["study", "--loads", loads, "--tariff", str(tariffs["dynamic"]),
         "--policy", "det", "--policy", "stoch", "--policy", "reactive",
         "--threshold-kw", threshold_kw, "--jobs", jobs, "--out", str(study)])
    return {
        "calibrate": {regime: _calibration_entry(path) for regime, path in tariffs.items()},
        "study": {path.name: hashlib.sha256(_study_file_bytes(path)).hexdigest()
                  for path in sorted(study.iterdir())},
    }


def _expected(recipe: str) -> dict:
    entry = json.loads(GOLDEN.read_text(encoding="utf-8"))[recipe]
    return {key: entry[key] for key in ("calibrate", "study")}


def _written_with(recipe: str) -> str:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))[recipe]["written_with"]
    return f"{recipe} was written with {recorded}; this run has {versions()}"


def test_criterion_9_golden(tmp_path):
    assert run_recipe("criterion_9", tmp_path) == _expected("criterion_9"), \
        _written_with("criterion_9")


@pytest.mark.parametrize("recipe", sorted(BENCHMARK_RECIPES))
def test_benchmark_recipe_golden(recipe, tmp_path):
    assert run_recipe(recipe, tmp_path) == _expected(recipe), _written_with(recipe)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paper-scale", metavar="DIR",
                        help="run the 84 x 6 pipeline through the console script in DIR")
    parser.add_argument("--recipe", choices=TIER_1_RECIPES,
                        help="run only this tier-1 recipe")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the entries of the recipes run in tests/golden.json")
    args = parser.parse_args(argv)

    results = {}
    if args.paper_scale:
        results["paper_scale"] = pipeline(run_console_script, Path(args.paper_scale), None,
                                          "385", "2")
    else:
        for recipe in (args.recipe,) if args.recipe else TIER_1_RECIPES:
            with tempfile.TemporaryDirectory() as tmp:
                results[recipe] = run_recipe(recipe, Path(tmp))
    for recipe, got in results.items():
        for regime, entry in got["calibrate"].items():
            print(f"{recipe} {regime}: {entry['capacity_price']} EUR/kW, "
                  f"relative gap {entry['relative_gap']}")

    if args.write:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        for recipe, got in results.items():
            golden[recipe] = {"written_with": versions(), **got}
            print(f"wrote {recipe} to {GOLDEN}")
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    code = 0
    for recipe, got in results.items():
        expected = _expected(recipe)
        if got == expected:
            print(f"{recipe}: matches {GOLDEN.name}")
            continue
        code = 1
        for section in ("calibrate", "study"):
            for name in sorted(set(got[section]) | set(expected[section])):
                if got[section].get(name) != expected[section].get(name):
                    print(f"{recipe} {section} {name}: expected "
                          f"{expected[section].get(name)}, got {got[section].get(name)}")
        print(_written_with(recipe))
    return code


if __name__ == "__main__":
    sys.exit(main())
