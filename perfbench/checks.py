"""Output checks of the benchmark; each returns a list of problems, empty when it passes.

They run outside the timed sections and count towards ``ops_failed_share``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from capsub import expected_cost

LEVEL_STEP = 1e-6
# Rounding allowance when comparing objective values. Next to a breakpoint
# optimum the slope can be as small as one hour's excess fee, so a level one
# breakpoint off the optimum moves the objective by only ~1e-10 of its value.
OBJECTIVE_RTOL = 1e-12


def compare_dirs(first: Path, second: Path) -> list[str]:
    """Both directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in first.iterdir())
    other = sorted(p.name for p in second.iterdir())
    if names != other:
        return [f"{second} holds {other}, expected {names}"]
    return [f"{second / name} differs from {first / name}" for name in names
            if (first / name).read_bytes() != (second / name).read_bytes()]


def calibration_problems(tariff_json: Path) -> list[str]:
    """A calibrate output has a finite positive price and a gap within its tolerance."""
    record = json.loads(tariff_json.read_text(encoding="utf-8"))["calibration"]
    price = record["capacity_price_eur_per_kw_year"]
    problems = []
    if not (math.isfinite(price) and price > 0.0):
        problems.append(f"{tariff_json}: capacity price {price} is not finite and positive")
    if not record["relative_gap"] <= record["tolerance"]:
        problems.append(f"{tariff_json}: relative gap {record['relative_gap']} exceeds "
                        f"tolerance {record['tolerance']}")
    return problems


def read_stoch_levels(study_dir: Path) -> dict[tuple[str, str], float]:
    """(consumer_id, regime) -> stochastic-policy level from subscription_levels.csv."""
    with open(study_dir / "subscription_levels.csv", encoding="utf-8", newline="") as fh:
        return {(row["consumer_id"], row["regime"]): float(row["level_kw"])
                for row in csv.DictReader(fh) if row["policy"] == "stoch"}


def _objective(consumer, bundle, regime, level, schedules, stacks) -> float:
    if regime == "static":
        return expected_cost(consumer, bundle.static, level).total_monetary
    return expected_cost(consumer, bundle.dynamic, level, schedules, stacks).total_welfare


def nonminimal_levels(population, bundle, schedules, stacks_by_consumer,
                      levels: dict[tuple[str, str], float]) -> list[str]:
    """Each stochastic level is a local minimum of ``capsub.expected_cost``.

    The objective is convex in the level, so a local minimum at
    level * (1 +/- LEVEL_STEP) is the global one; at level 0 only the upward
    side exists. This checks the breakpoint optimizer independently.
    """
    problems = []
    for consumer, stacks in zip(population, stacks_by_consumer):
        for regime in ("static", "dynamic"):
            level = levels[(consumer.consumer_id, regime)]
            at = _objective(consumer, bundle, regime, level, schedules, stacks)
            # a relative step vanishes at level 0, so step up by LEVEL_STEP kW there
            probes = [level * (1.0 - LEVEL_STEP), level * (1.0 + LEVEL_STEP)] \
                if level > 0.0 else [LEVEL_STEP]
            for probe in probes:
                near = _objective(consumer, bundle, regime, probe, schedules, stacks)
                if near < at - OBJECTIVE_RTOL * abs(at):
                    problems.append(
                        f"{consumer.consumer_id} {regime}: level {level!r} costs {at!r}, "
                        f"but {probe!r} costs {near!r}")
    return problems


def study_digest(study_dir: Path) -> str:
    """SHA-256 over the study's files, with the absolute loads path in study.json normalised."""
    digest = hashlib.sha256()
    for path in sorted(study_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "study.json":
            manifest = json.loads(data)
            manifest["inputs"]["loads_csv"] = "loads.csv"
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()
