"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --workloads bundled scarcity --seeds 1-10 \
        [--trace-seed 1] [--out perfbench/trajectory/NAME.json]

Each run is a separate ``run.py`` process, one at a time, with the
``run_seconds`` of BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, beside the metric's bound. With
``--out`` it writes every run record (stamped with the machine and load) and
the summary to one trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        results = Path(tmp) / "record.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--results", str(results)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0 or not results.exists():
            raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
        record = json.loads(results.read_text())
    record.pop("spans", None)
    record["last_line"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def summarise(records: list[dict], end_to_end: list[dict]) -> dict:
    summary = {}
    for metric in end_to_end:
        values = [r["metrics"][metric["name"]] for r in records]
        summary[metric["name"]] = {**spread(values), "values": values}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range such as 1-10, or a list 1,5,9")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run at this seed")
    parser.add_argument("--out", help="write the trajectory file here")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    trajectory = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        records = []
        for seed in _seeds(args.seeds):
            record = run_once(workload, seed, seconds, 0)
            records.append(record)
            print(f"{workload} seed {seed}: correct={record['last_line']['correct']} "
                  f"loadavg {record['stamp']['loadavg_start']} -> {record['stamp']['loadavg_end']}",
                  flush=True)
        summary = summarise(records, benchmark["end_to_end"])
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s = summary[name]
            flag = "ok" if name == "setup_s" or s["spread"] < bound / 3 else "WIDE"
            print(f"  {name:22s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bound}  {flag}", flush=True)
        entry = {"summary": summary, "runs": records}
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, seconds, 1)
        trajectory["workloads"][workload] = entry

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
