import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capsub
from capsub import (DEFAULT_TARIFF_CONFIG, SyntheticPopulationSpec, generate_population,
                    parse_load_csv)
from capsub import cli
from capsub.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_spec_file(tmp_path, **overrides):
    spec = {
        "consumer_count": 4,
        "years": ["2015", "2016"],
        "rng_seed": 7,
        "base_load_kw": 0.9,
        "seasonal_amplitude": 2.2,
        "daily_amplitude": 1.2,
        "spike_rate": 30.0,
        "spike_magnitude": 3.0,
        "noise_amplitude": 0.3,
        "cold_year_factor": [0.95, 1.25],
    }
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


class TestGenerate:
    def test_deterministic_rerun(self, tmp_path, capsys):
        spec = small_spec_file(tmp_path)
        code1, _, _ = run_cli(capsys, "generate", "--spec", str(spec),
                              "--out", str(tmp_path / "a"))
        code2, _, _ = run_cli(capsys, "generate", "--spec", str(spec),
                              "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        a = (tmp_path / "a" / "loads.csv").read_bytes()
        b = (tmp_path / "b" / "loads.csv").read_bytes()
        assert a == b

    def test_seed_changes_output(self, tmp_path, capsys):
        spec = small_spec_file(tmp_path)
        run_cli(capsys, "generate", "--spec", str(spec), "--out", str(tmp_path / "a"))
        run_cli(capsys, "generate", "--spec", str(spec), "--seed", "8",
                "--out", str(tmp_path / "b"))
        a = (tmp_path / "a" / "loads.csv").read_bytes()
        b = (tmp_path / "b" / "loads.csv").read_bytes()
        assert a != b

    def test_effective_spec_records_the_seed(self, tmp_path, capsys):
        spec = small_spec_file(tmp_path)
        code, _, err = run_cli(capsys, "generate", "--spec", str(spec), "--seed", "8",
                               "--out", str(tmp_path / "a"))
        assert code == 0, err
        written = tmp_path / "a" / "population_spec.json"
        assert json.loads(written.read_text())["rng_seed"] == 8
        code, _, err = run_cli(capsys, "generate", "--spec", str(written),
                               "--out", str(tmp_path / "b"))
        assert code == 0, err
        assert (tmp_path / "a" / "loads.csv").read_bytes() == \
            (tmp_path / "b" / "loads.csv").read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("base_load_kw", "abc"),
        ("consumer_count", "3"),
        ("consumer_count", 2.5),
        ("rng_seed", True),
        ("spike_rate", None),
        ("cold_year_factor", ["x", 1.0]),
        ("cold_year_factor", 1.0),
    ])
    def test_bad_number_is_input_error(self, tmp_path, capsys, field, value):
        spec = small_spec_file(tmp_path, **{field: value})
        code, _, err = run_cli(capsys, "generate", "--spec", str(spec),
                               "--out", str(tmp_path / "o"))
        assert code == 1, err
        assert field in err and "must be" in err

    def test_missing_field_named(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"consumer_count": 2, "years": ["2015"], "rng_seed": 1}')
        code, _, err = run_cli(capsys, "generate", "--spec", str(path),
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert "base_load_kw" in err


    def test_year_before_1000_round_trips(self, tmp_path, capsys):
        # timestamps are written zero-padded ("0999-01-01T00:00"), as strptime's %Y needs
        spec = small_spec_file(tmp_path, consumer_count=1, years=["999"],
                               cold_year_factor=[1.0])
        code, _, err = run_cli(capsys, "generate", "--spec", str(spec),
                               "--out", str(tmp_path / "gen"))
        assert code == 0, err
        loads = tmp_path / "gen" / "loads.csv"
        code, _, err = run_cli(capsys, "calibrate", "--loads", str(loads),
                               "--regime", "static", "--out", str(tmp_path / "cal.json"))
        assert code == 0, err
        [want] = generate_population(SyntheticPopulationSpec.from_json(spec))[0].scenarios
        [got] = parse_load_csv(loads)
        assert (got.consumer_id, got.year_label) == (want.series.consumer_id, "999")
        assert np.array_equal(got.loads, want.series.loads)


@pytest.fixture(scope="module")
def generated_loads(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("loads")
    spec = small_spec_file(tmp)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp)]) == 0
    return tmp / "loads.csv"


class TestCalibrate:
    def test_static_calibration_writes_config(self, generated_loads, tmp_path, capsys):
        out = tmp_path / "calibrated.json"
        code, _, _ = run_cli(capsys, "calibrate", "--loads", str(generated_loads),
                             "--regime", "static", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["calibration"]["regime"] == "static"
        assert payload["calibration"]["relative_gap"] <= 1e-4
        assert payload["static_cs"]["capacity_price_eur_per_kw_year"] == \
            payload["calibration"]["capacity_price_eur_per_kw_year"]

    def test_energy_regime_rejected(self, generated_loads, tmp_path, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--loads", str(generated_loads),
                               "--regime", "energy", "--out", str(tmp_path / "x.json"))
        assert code == 1

    def test_zero_tolerance_rejected(self, generated_loads, tmp_path, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--loads", str(generated_loads),
                               "--regime", "static", "--tolerance", "0",
                               "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "tolerance" in err

    def test_unreachable_reference_is_calibration_failure(self, generated_loads,
                                                          tmp_path, capsys):
        # an energy tariff so expensive no capacity price can match its revenue
        config = {
            "energy_only": {"fixed_annual_eur": 204.6,
                            "energy_price_eurct_per_kwh": 10000.0},
            "static_cs": {"fixed_annual_eur": 135.0,
                          "capacity_price_eur_per_kw_year": 67.5,
                          "energy_price_eurct_per_kwh": 0.5,
                          "excess_price_eurct_per_kwh": 10.0},
            "dynamic_cs": {"fixed_annual_eur": 135.0,
                           "capacity_price_eur_per_kw_year": 54.0,
                           "energy_price_eurct_per_kwh": 0.5,
                           "voll_eur_per_kwh": 5.0},
        }
        tariff = tmp_path / "tariff.json"
        tariff.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "calibrate", "--loads", str(generated_loads),
                               "--tariff", str(tariff), "--regime", "static",
                               "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "calibration failed" in err


def test_over_long_load_field_is_input_error(tmp_path, capsys):
    # a valid float, but longer than the csv module's field size limit
    lines = ["consumer_id,timestamp,load_kwh"]
    lines += [f"c0,2015-01-01T{h:02d}:00,1.5" for h in range(24)]
    lines[3] = "c0,2015-01-01T02:00," + "0" * csv.field_size_limit() + "1.5"
    loads = tmp_path / "loads.csv"
    loads.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "calibrate", "--loads", str(loads), "--regime", "static",
                           "--out", str(tmp_path / "x.json"))
    assert code == 1, err
    assert "line 4" in err


@pytest.mark.parametrize("steepness", [float("nan"), float("inf"), "abc", [1], True])
@pytest.mark.parametrize("command", [
    ["calibrate", "--regime", "static", "--out"],
    ["study", "--policy", "stoch", "--out"],
])
def test_bad_vcl_steepness_is_input_error(generated_loads, tmp_path, capsys, command,
                                          steepness):
    config = json.loads(json.dumps(DEFAULT_TARIFF_CONFIG))
    config["dynamic_cs"]["vcl_steepness"] = steepness
    tariff = tmp_path / "tariff.json"
    tariff.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, *command, str(tmp_path / "out"), "--loads",
                           str(generated_loads), "--tariff", str(tariff))
    assert code == 1, err
    assert "dynamic_cs.vcl_steepness" in err


UNREADABLE_JSON = {
    "bad_json": b'{"consumer_count": ',
    "not_utf8": b'{"consumer_count": "\xff"}',
    "nested_too_deep": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
@pytest.mark.parametrize("command, what", [
    (["generate", "--out", "{out}", "--spec"], "population spec"),
    (["calibrate", "--loads", "{loads}", "--regime", "static", "--out", "{out}", "--tariff"],
     "tariff config"),
    (["study", "--out", "{out}", "--from-manifest"], "manifest"),
], ids=["spec", "tariff", "manifest"])
def test_unreadable_json_is_input_error(generated_loads, tmp_path, capsys, command, what,
                                        content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    argv = [arg.format(out=tmp_path / "out", loads=generated_loads) for arg in command]
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 1, err
    assert err.startswith(f"error: {what} {path}: invalid JSON (")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", [0, 2], ids=["consumer_id", "load"])
@pytest.mark.parametrize("command", [
    ["calibrate", "--regime", "static", "--out"],
    ["study", "--policy", "stoch", "--out"],
])
def test_undecodable_load_csv_is_input_error(generated_loads, tmp_path, capsys, command, field):
    lines = generated_loads.read_bytes().split(b"\n")
    fields = lines[4].split(b",")
    fields[field] = fields[field][:1] + b"\xff" + fields[field][1:]
    lines[4] = b",".join(fields)
    loads = tmp_path / "loads.csv"
    loads.write_bytes(b"\n".join(lines))
    code, _, err = run_cli(capsys, *command, str(tmp_path / "out"), "--loads", str(loads))
    assert code == 1, err
    assert err.startswith("error: line 5: load CSV ")
    assert f"{loads.name} is not UTF-8" in err


def drop_last_consumer_year(loads_csv, year, out):
    """A copy of ``loads_csv`` in which the last consumer has no rows for ``year``."""
    lines = loads_csv.read_text().splitlines(keepends=True)
    last = lines[-1].split(",")[0]
    out.write_text("".join(line for line in lines if not line.startswith(f"{last},{year}")))
    return out


@pytest.mark.parametrize("command", [
    ["calibrate", "--regime", "dynamic", "--out"],
    ["study", "--policy", "stoch", "--out"],
])
def test_consumer_missing_a_year_is_input_error(generated_loads, tmp_path, capsys, command):
    loads = drop_last_consumer_year(generated_loads, "2016", tmp_path / "loads.csv")
    code, _, err = run_cli(capsys, *command, str(tmp_path / "out"), "--loads", str(loads),
                           "--threshold-kw", "18.0")
    assert code == 1
    assert "covers years" in err


@pytest.fixture(scope="module")
def det_manifest(generated_loads, tmp_path_factory):
    out = tmp_path_factory.mktemp("det_study")
    assert main(["study", "--loads", str(generated_loads), "--policy", "det", "--regime", "static",
                 "--threshold-kw", "18.0", "--out", str(out)]) == 0
    return out / "study.json"


class TestStudy:
    def test_singleton_population_end_to_end(self, tmp_path, capsys):
        spec = small_spec_file(tmp_path, consumer_count=1)
        run_cli(capsys, "generate", "--spec", str(spec), "--out", str(tmp_path))
        out = tmp_path / "study"
        code, _, _ = run_cli(capsys, "study", "--loads", str(tmp_path / "loads.csv"),
                             "--policy", "stoch", "--threshold-kw", "5.0",
                             "--out", str(out))
        assert code == 0
        assert (out / "study.json").exists()
        assert (out / "aggregate_revenue.csv").exists()

    def test_requires_policy(self, generated_loads, tmp_path, capsys):
        code, _, err = run_cli(capsys, "study", "--loads", str(generated_loads),
                               "--out", str(tmp_path / "s"))
        assert code == 1
        assert "policy" in err

    def test_missing_loads_file(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "study", "--loads", str(tmp_path / "none.csv"),
                             "--policy", "stoch", "--out", str(tmp_path / "s"))
        assert code == 1

    def test_manifest_rerun_any_jobs_byte_identical(self, tmp_path, capsys, small_pools):
        # 5 consumers are 2 chunks of 4, and with a minimum of one consumer-year per
        # worker the --jobs 2 rerun starts a pool of 2
        spec = small_spec_file(tmp_path, consumer_count=5)
        assert run_cli(capsys, "generate", "--spec", str(spec), "--out", str(tmp_path))[0] == 0
        out1 = tmp_path / "run1"
        code, _, _ = run_cli(capsys, "study", "--loads", str(tmp_path / "loads.csv"),
                             "--policy", "stoch", "--policy", "reactive",
                             "--policy", "det",
                             "--threshold-kw", "18.0", "--out", str(out1))
        assert code == 0
        assert small_pools == []
        out2 = tmp_path / "run2"
        code, _, _ = run_cli(capsys, "study", "--from-manifest", str(out1 / "study.json"),
                             "--jobs", "2", "--out", str(out2))
        assert code == 0
        assert small_pools == [2]
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("flag, value", [
        ("--loads", "missing.csv"), ("--tariff", "tariff.json"), ("--regime", "static"),
        ("--policy", "reactive"), ("--threshold-kw", "1"), ("--vcl-segments", "3"),
        ("--seed", "5"),
    ])
    def test_from_manifest_rejects_recorded_arguments(self, det_manifest, tmp_path, capsys,
                                                      flag, value):
        code, _, err = run_cli(capsys, "study", "--from-manifest", str(det_manifest),
                               "--out", str(tmp_path / "rerun"), flag, value)
        assert code == 1
        assert f"{flag} cannot be combined with --from-manifest" in err
        assert not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_input_error(self, det_manifest, tmp_path, capsys, jobs):
        code, _, err = run_cli(capsys, "study", "--from-manifest", str(det_manifest),
                               "--jobs", jobs, "--out", str(tmp_path / "rerun"))
        assert code == 1
        assert f"jobs: must be >= 1, got {jobs}" in err
        assert not (tmp_path / "rerun").exists()

    def test_options_do_not_carry_into_the_next_call(self, generated_loads, tmp_path, capsys,
                                                      monkeypatch):
        def rebuild():
            raise AssertionError("main rebuilt the argument parser")
        monkeypatch.setattr(cli, "_build_parser", rebuild)
        code, _, err = run_cli(capsys, "study", "--loads", str(generated_loads),
                               "--policy", "det", "--regime", "static", "--threshold-kw", "18.0",
                               "--out", str(tmp_path / "first"))
        assert code == 0, err
        code, _, err = run_cli(capsys, "study", "--loads", str(generated_loads),
                               "--out", str(tmp_path / "second"))
        assert code == 1
        assert "at least one --policy is required" in err

    def test_bad_regime_flag_is_input_error(self, generated_loads, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "study", "--loads", str(generated_loads),
                             "--policy", "stoch", "--regime", "fancy",
                             "--out", str(tmp_path / "s"))
        assert code == 1



class TestTwin:
    """A load CSV's binary twin changes no output, and serves later processes."""

    def pipeline(self, capsys, loads, out, cold):
        """calibrate both regimes, study, and rerun at --jobs 1 and 2; returns the outputs."""
        twin = loads.with_name("loads.csv.twin")
        commands = [
            ["calibrate", "--loads", str(loads), "--regime", "static",
             "--out", str(out / "static.json")],
            ["calibrate", "--loads", str(loads), "--regime", "dynamic", "--tariff",
             str(out / "static.json"), "--threshold-kw", "22.5", "--out", str(out / "tariff.json")],
            ["study", "--loads", str(loads), "--tariff", str(out / "tariff.json"),
             "--policy", "det", "--policy", "stoch", "--policy", "reactive",
             "--threshold-kw", "22.5", "--out", str(out / "study")],
        ] + [["study", "--from-manifest", str(out / "study" / "study.json"),
              "--jobs", jobs, "--out", str(out / f"rerun{jobs}")] for jobs in ("1", "2")]
        for argv in commands:
            if cold:
                twin.unlink(missing_ok=True)
            assert twin.exists() is not cold
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
            assert twin.exists()
        return {path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}

    def test_cold_and_warm_runs_are_byte_identical(self, tmp_path, capsys, small_pools):
        # 5 consumers are 2 chunks of 4, and with a minimum of one consumer-year per
        # worker the --jobs 2 rerun starts a pool
        spec = small_spec_file(tmp_path, consumer_count=5)
        assert run_cli(capsys, "generate", "--spec", str(spec), "--out", str(tmp_path))[0] == 0
        loads = tmp_path / "loads.csv"
        cold = self.pipeline(capsys, loads, tmp_path / "cold", cold=True)
        warm = self.pipeline(capsys, loads, tmp_path / "warm", cold=False)
        assert small_pools == [2, 2]
        assert cold == warm
        study = {path.name: data for path, data in cold.items() if path.parts[0] == "study"}
        for jobs in ("1", "2"):
            assert {path.name: data for path, data in cold.items()
                    if path.parts[0] == f"rerun{jobs}"} == study

    def test_twin_serves_a_process_that_cannot_parse_text(self, generated_loads, tmp_path,
                                                          capsys):
        argv = ["calibrate", "--loads", str(generated_loads), "--regime", "dynamic",
                "--threshold-kw", "18.0"]
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "here.json"))
        assert code == 0, err
        script = ("import sys\n"
                  "from capsub import cli, ingest\n"
                  "def fail(path):\n"
                  "    raise AssertionError(f'{path} was parsed as text')\n"
                  "ingest._parse_blocks = ingest._parse_rows = fail\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        src = str(Path(capsub.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, *argv,
                               "--out", str(tmp_path / "there.json")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "there.json").read_bytes() == (tmp_path / "here.json").read_bytes()
