"""Golden numbers: calibrated prices and study bytes, pinned across commits.

Each recipe runs generate, calibrate --regime static, calibrate --regime
dynamic on the static result, and a det/stoch/reactive study on the
calibrated tariff. Its entries in ``tests/golden.json`` are the SHA-256 and
the ``repr`` of the price and relative gap of both calibrate JSONs, and the
SHA-256 of each study file, with study.json's absolute loads path normalised
as perfbench's study digest does.

- ``criterion_9`` (6 consumers x 2015-2017, seed 404, 24 kW) runs through
  ``cli.main`` in the tier-1 test below.
- ``paper_scale`` (the bundled 84 x 6 population, 385 kW, ``--jobs 2``) takes
  about 15 s cold and runs in CI only, through the console script:

      python tests/test_golden.py --paper-scale DIR

Add ``--write`` to either form to rewrite that recipe's entries instead of
comparing them. The comparison is exact; each entry records the Python and
numpy versions it was written with. If another platform gives other bits,
report it rather than loosening the comparison.
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

from capsub.cli import main as cli_main

GOLDEN = Path(__file__).with_name("golden.json")

CRITERION_9_SPEC = {
    "consumer_count": 6, "years": ["2015", "2016", "2017"], "rng_seed": 404,
    "base_load_kw": 0.9, "seasonal_amplitude": 2.2, "daily_amplitude": 1.2,
    "spike_rate": 40.0, "spike_magnitude": 3.0, "noise_amplitude": 0.3,
    "cold_year_factor": [0.95, 1.25, 1.05],
}


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
    got = pipeline(run_in_process, tmp_path, CRITERION_9_SPEC, "24", "1")
    assert got == _expected("criterion_9"), _written_with("criterion_9")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paper-scale", metavar="DIR",
                        help="run the 84 x 6 pipeline through the console script in DIR")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the recipe's entries in tests/golden.json")
    args = parser.parse_args(argv)

    if args.paper_scale:
        recipe = "paper_scale"
        got = pipeline(run_console_script, Path(args.paper_scale), None, "385", "2")
    else:
        recipe = "criterion_9"
        with tempfile.TemporaryDirectory() as tmp:
            got = pipeline(run_in_process, Path(tmp), CRITERION_9_SPEC, "24", "1")
    for regime, entry in got["calibrate"].items():
        print(f"{recipe} {regime}: {entry['capacity_price']} EUR/kW, "
              f"relative gap {entry['relative_gap']}")

    if args.write:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        golden[recipe] = {"written_with": versions(), **got}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {recipe} to {GOLDEN}")
        return 0

    expected = _expected(recipe)
    if got == expected:
        print(f"{recipe}: matches {GOLDEN.name}")
        return 0
    for section in ("calibrate", "study"):
        for name in sorted(set(got[section]) | set(expected[section])):
            if got[section].get(name) != expected[section].get(name):
                print(f"{recipe} {section} {name}: expected {expected[section].get(name)}, "
                      f"got {got[section].get(name)}")
    print(_written_with(recipe))
    return 1


if __name__ == "__main__":
    sys.exit(main())
