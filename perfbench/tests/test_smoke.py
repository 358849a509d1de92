"""Each workload's command sequence, shrunk so that it finishes in seconds."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def tiny(workload: run.Workload) -> run.Workload:
    recipe = {**workload.recipe, "consumer_count": min(2, workload.recipe["consumer_count"]),
              "years": workload.recipe["years"][:2],
              "cold_year_factor": workload.recipe["cold_year_factor"][:2]}
    return replace(workload, recipe=recipe, active_share=0.002)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_sequence_runs_and_checks_pass(tmp_path, monkeypatch, name):
    monkeypatch.setattr(run, "BATCH_SECONDS", 0.0)
    record = run.run(tiny(run.WORKLOADS[name]), seed=5, seconds=0, trace=False, work=tmp_path)
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] >= 10
    assert sorted(record["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(value > 0 for value in record["metrics"].values())
    traffic = record["traffic"]
    hours = traffic["rows"] // traffic["consumers"]
    assert sum(traffic["active_hours"].values()) == round(0.002 * hours)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_sequence_reports_every_layer(tmp_path, name):
    record = run.run(tiny(run.WORKLOADS[name]), seed=5, seconds=0, trace=True, work=tmp_path)
    assert record["problems"] == []
    assert sorted(record["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert record["metrics"]["ingest.parse_load_csv.calls"] == 4
    assert record["metrics"]["optimizer.dynamic_grid_cells"] > 0
