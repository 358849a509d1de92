"""End-to-end benchmark of capsub's generate -> calibrate -> study pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--results PATH]

One run is one process. It builds the workload's population spec from the
seed, then drives the real CLI entry point, ``capsub.cli.main(argv)``,
through the command sequence

    generate                      (its median is setup_s)
    calibrate --regime static
    calibrate --regime dynamic    (starting from the static output)
    study --jobs 1                (det, stoch, reactive; both regimes)
    study --from-manifest --jobs 2

and repeats the sequence while another pass fits in ``--seconds``,
reporting each command's median wall time (a command shorter than
BATCH_SECONDS is timed in back-to-back batches). Every output is checked
outside the timed sections. With ``--trace 1`` it instead runs the sequence once
with spans around each layer (see spans.py), then the study once more
untraced, and reports per-layer self times and counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
for _path in (str(BENCH_DIR), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

import capsub  # noqa: E402
from capsub import (SyntheticPopulationSpec, VclCurveParams, derive_activations,  # noqa: E402
                    generate_population, load_tariff_config, stacks_for_scenarios)
from capsub.cli import main as cli_main  # noqa: E402
from capsub.config import default_study_spec  # noqa: E402
from capsub.ingest import hours_in_year  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

METRIC_OF = {"generate": "setup_s", "calibrate_static": "calibrate_static_s",
             "calibrate_dynamic": "calibrate_dynamic_s", "study": "study_s", "rerun": "rerun_s"}
# On a shared two-CPU machine the speed switches between phases up to 1.7x
# apart that last seconds. A command shorter than this is therefore timed in
# back-to-back batches at least this long, and a batch's mean is one sample.
BATCH_SECONDS = 2.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A population recipe (every spec field but the seed) and how scarce capacity is.

    The activation threshold is placed in the population's aggregate load so
    that ``active_share`` of all hours are active. A fixed threshold in kW
    would let the number of active hours, and with it the dynamic objective's
    work, which grows with their square, vary with the seed.
    """

    name: str
    recipe: dict
    active_share: float

    def spec(self, seed: int) -> SyntheticPopulationSpec:
        return SyntheticPopulationSpec(rng_seed=seed, **self.recipe)

    def threshold(self, aggregate_by_year: dict[str, np.ndarray]) -> float:
        loads = np.sort(np.concatenate(list(aggregate_by_year.values())))[::-1]
        k = round(self.active_share * loads.size)
        return float((loads[k - 1] + loads[k]) / 2.0)


def _bundled_recipe() -> dict:
    recipe = asdict(default_study_spec())
    del recipe["rng_seed"]
    return recipe


# The recipe of acceptance criterion 9 (spikier, three weather years).
CRITERION_9 = dict(consumer_count=6, years=("2015", "2016", "2017"), base_load_kw=0.9,
                   seasonal_amplitude=2.2, daily_amplitude=1.2, spike_rate=40.0,
                   spike_magnitude=3.0, noise_amplitude=0.3, cold_year_factor=(0.95, 1.25, 1.05))

# The paper-scale inputs (84 consumers x 6 years; 6 x 3 years) take 35-160 s
# per sequence; these keep their recipes and activation shares at a size
# that a run repeats several times. The shares are those of the full-size
# inputs at their default seeds: 729 of 52,584 hours at 385 kW, and 2,238 of
# 26,280 hours at 24 kW.
WORKLOADS = {w.name: w for w in (
    # rare activations: CSV write and parse dominate; six consumers fill both
    # workers of the --jobs 2 rerun (the pool hands out chunks of four)
    Workload("bundled",
             {**_bundled_recipe(), "consumer_count": 6, "years": ("2015", "2016"),
              "cold_year_factor": (1.25, 0.95)},
             active_share=729 / 52584),
    # frequent activations: the dynamic objective and the calibration search dominate
    Workload("scarcity",
             {**CRITERION_9, "consumer_count": 2, "years": ("2015", "2016"),
              "cold_year_factor": (0.95, 1.25)},
             active_share=2238 / 26280),
)}


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

class CommandFailed(Exception):
    pass


class Ledger:
    """Commands and checks attempted, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def command(self, label: str, code: int, output: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{label} exited {code}: {output.strip()}")
            raise CommandFailed(label)

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def timed_command(ledger: Ledger, label: str, argv: list[str],
                  tracer: spans.Tracer | None = None) -> float:
    """Run one CLI command in-process; returns its wall time in seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            code = cli_main(argv)
        else:
            code = tracer.call("cli.main", cli_main, argv, label=label)
        elapsed = time.perf_counter() - start
    ledger.command(label, code, err.getvalue())
    return elapsed


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_stamp() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def loadavg() -> str:
    return " ".join(_read("/proc/loadavg").split()[:3])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

class Pipeline:
    """One workload at one seed, set up in ``work``."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.spec = workload.spec(seed)
        self.ledger = Ledger()
        self.loads = work / "data" / "loads.csv"
        self.traffic: dict | None = None

    def prepare(self) -> None:
        """Threshold, schedules and traffic from the same population, built in memory."""
        self.spec.to_json(self.work / "spec.json")
        self.population = generate_population(self.spec)
        years = self.population[0].year_labels
        aggregate = {y: np.sum([c.scenario_for(y).series.loads for c in self.population], axis=0)
                     for y in years}
        self.threshold_kw = self.workload.threshold(aggregate)
        self.schedules = {y: derive_activations([c.scenario_for(y).series
                                                 for c in self.population], self.threshold_kw)
                          for y in years}
        self.traffic = {
            "consumers": len(self.population),
            "years": list(years),
            "consumer_years": len(self.population) * len(years),
            "rows": len(self.population) * sum(hours_in_year(int(y)) for y in years),
            "threshold_kw": self.threshold_kw,
            "active_hours": {y: s.count for y, s in self.schedules.items()},
        }

    def argvs(self, out: Path) -> dict[str, list[str]]:
        static, tariff, study = out / "static.json", out / "tariff.json", out / "study"
        threshold = ["--threshold-kw", repr(self.threshold_kw)]
        return {
            "generate": ["generate", "--spec", str(self.work / "spec.json"),
                         "--seed", str(self.seed), "--out", str(self.loads.parent)],
            "calibrate_static": ["calibrate", "--loads", str(self.loads), "--regime", "static",
                                 "--out", str(static)],
            "calibrate_dynamic": ["calibrate", "--loads", str(self.loads), "--regime", "dynamic",
                                  "--tariff", str(static), *threshold, "--out", str(tariff)],
            "study": ["study", "--loads", str(self.loads), "--tariff", str(tariff),
                      "--policy", "det", "--policy", "stoch", "--policy", "reactive",
                      *threshold, "--seed", str(self.seed), "--jobs", "1", "--out", str(study)],
            "rerun": ["study", "--from-manifest", str(study / "study.json"), "--jobs", "2",
                      "--out", str(out / "rerun")],
        }

    def iteration(self, out: Path, tracer: spans.Tracer | None = None,
                  batch_seconds: float = 0.0) -> dict[str, float]:
        """The five commands in order, then their output checks.

        Returns one sample per command: the mean wall time of a back-to-back
        batch of runs of it that lasts at least ``batch_seconds``.
        """
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        samples = {}
        for label, argv in self.argvs(out).items():
            times = [timed_command(self.ledger, label, argv, tracer)]
            while sum(times) < batch_seconds:
                times.append(timed_command(self.ledger, label, argv, tracer))
            samples[label] = sum(times) / len(times)
        self.traffic["csv_bytes"] = self.loads.stat().st_size
        self.ledger.check("calibrate static", checks.calibration_problems(out / "static.json"))
        self.ledger.check("calibrate dynamic", checks.calibration_problems(out / "tariff.json"))
        self.ledger.check("rerun byte-identical", checks.compare_dirs(out / "study", out / "rerun"))
        return samples

    def check_levels(self, out: Path) -> None:
        bundle = load_tariff_config(out / "tariff.json")
        params = VclCurveParams(bundle.dynamic.voll, bundle.vcl_steepness)
        stacks = [stacks_for_scenarios(c, params) for c in self.population]
        levels = checks.read_stoch_levels(out / "study")
        self.ledger.check("stoch levels are minima", checks.nonminimal_levels(
            self.population, bundle, self.schedules, stacks, levels))


def measure(pipeline: Pipeline, seconds: float) -> dict:
    """Untraced run: iterations of the sequence while another fits in ``seconds``."""
    samples: dict[str, list[float]] = {label: [] for label in METRIC_OF}
    digests: list[str] = []
    out = pipeline.work / "out"
    try:
        pipeline.prepare()
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            for label, value in pipeline.iteration(out, batch_seconds=BATCH_SECONDS).items():
                samples[label].append(value)
            digests.append(checks.study_digest(out / "study"))
            if len(digests) == 1:
                pipeline.check_levels(out)
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
    except CommandFailed:
        pass
    if digests:
        pipeline.ledger.check("repeated studies identical",
                              [f"digests {sorted(set(digests))}"] if len(set(digests)) > 1 else [])
    metrics = {}
    if all(samples.values()):
        metrics = {metric: statistics.median(samples[label]) for label, metric in METRIC_OF.items()}
        metrics["consumer_years_per_s"] = pipeline.traffic["consumer_years"] / metrics["study_s"]
        metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics, "samples": samples,
            "study_digest": digests[0] if digests else None}


def measure_traced(pipeline: Pipeline) -> dict:
    """Traced run: the sequence once with spans, then the study once untraced."""
    tracer = spans.Tracer(f"{pipeline.workload.name}-{pipeline.seed}-{os.getpid()}")
    out = pipeline.work / "out"
    try:
        pipeline.prepare()
        with spans.installed(tracer):
            traced = pipeline.iteration(out, tracer)
        pipeline.check_levels(out)
        untraced_dir = pipeline.work / "untraced"
        untraced = timed_command(pipeline.ledger, "study",
                                 ["study", "--from-manifest", str(out / "study" / "study.json"),
                                  "--jobs", "1", "--out", str(untraced_dir)])
    except CommandFailed:
        return {"metrics": {}, "samples": {}, "study_digest": None}
    pipeline.ledger.check("tracing leaves outputs unchanged",
                          checks.compare_dirs(out / "study", untraced_dir))
    pipeline.ledger.check("self times add up to each command's wall time", [
        f"{root}: self times sum to {total!r} s, wall {wall!r} s"
        for root, (total, wall) in spans.command_balance(tracer).items()
        if abs(total - wall) > 1e-6])
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced["study"] - untraced
    return {"metrics": metrics, "samples": {**traced, "untraced_study": untraced},
            "study_digest": checks.study_digest(out / "study"),
            "spans": [[s.name, s.start, s.end, s.parent, s.run_id, s.label]
                      for s in tracer.spans]}


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    stamp = {**machine_stamp(), "loadavg_start": loadavg()}
    pipeline = Pipeline(workload, seed, work)
    result = measure_traced(pipeline) if trace else measure(pipeline, seconds)
    stamp["loadavg_end"] = loadavg()
    ledger = pipeline.ledger
    return {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "stamp": stamp, "traffic": pipeline.traffic,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "ops_failed_share": ledger.failed / max(ledger.attempted, 1),
            "problems": ledger.problems, **result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--results", help="also write the full run record to this JSON file")
    args = parser.parse_args(argv)
    if not Path(capsub.__file__).resolve().is_relative_to(SRC):
        print(f"capsub was imported from {capsub.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if args.results:
        Path(args.results).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in record["problems"]:
        print(f"FAILED {problem}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if any(name not in record["metrics"] for name in units):
        print("no result: a command failed before every metric was measured", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} traffic {json.dumps(record['traffic'])}")
    print(f"study_digest {record['study_digest']}")
    for name, unit in units.items():
        print(f"{name} {record['metrics'][name]!r} {unit}")
    print(f"ops_failed_share {record['ops_failed_share']!r} "
          f"({record['failed']} of {record['attempted']} commands and checks)")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
