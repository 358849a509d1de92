import csv
import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capsub import (ConfigError, HourlyLoadSeries, MalformedRow, MissingHours, NegativeLoad,
                    SyntheticPopulationSpec, default_study_spec, generate_population,
                    ingest, parse_load_csv, scenario_sets_from_series, write_load_csv)


def small_spec(**overrides):
    fields = dict(
        consumer_count=3,
        years=("2015", "2016"),  # 2016 is a leap year
        rng_seed=99,
        base_load_kw=1.0,
        seasonal_amplitude=2.0,
        daily_amplitude=0.8,
        spike_rate=20.0,
        spike_magnitude=2.0,
        noise_amplitude=0.2,
        cold_year_factor=(1.0, 1.2),
    )
    fields.update(overrides)
    return SyntheticPopulationSpec(**fields)


class TestSpecValidation:
    def test_consumer_count(self):
        with pytest.raises(ConfigError, match="consumer_count"):
            small_spec(consumer_count=0)

    def test_negative_amplitude(self):
        with pytest.raises(ConfigError, match="seasonal_amplitude"):
            small_spec(seasonal_amplitude=-1.0)

    def test_cold_factor_length(self):
        with pytest.raises(ConfigError, match="cold_year_factor"):
            small_spec(cold_year_factor=(1.0,))

    def test_duplicate_years(self):
        with pytest.raises(ConfigError, match="years"):
            small_spec(years=("2015", "2015"))

    def test_non_calendar_year(self):
        with pytest.raises(ConfigError, match="years"):
            small_spec(years=("warm", "cold"))

    def test_json_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert SyntheticPopulationSpec.from_json(path) == spec

    def test_json_missing_field(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"consumer_count": 2}')
        with pytest.raises(ConfigError, match="missing"):
            SyntheticPopulationSpec.from_json(path)

    def test_json_unknown_field(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"consumer_count": 1, "years": ["2015"], "rng_seed": 1, '
                        '"base_load_kw": 1.0, "wind_speed": 3}')
        with pytest.raises(ConfigError, match="wind_speed"):
            SyntheticPopulationSpec.from_json(path)


class TestGenerator:
    def test_flat_degenerate_spec(self):
        spec = small_spec(seasonal_amplitude=0.0, daily_amplitude=0.0, spike_rate=0.0,
                          spike_magnitude=0.0, noise_amplitude=0.0, base_load_kw=1.5)
        population = generate_population(spec)
        for consumer in population:
            for scenario in consumer.scenarios:
                assert np.all(scenario.series.loads == 1.5)

    def test_deterministic_for_same_seed(self):
        a = generate_population(small_spec())
        b = generate_population(small_spec())
        for ca, cb in zip(a, b):
            for sa, sb in zip(ca.scenarios, cb.scenarios):
                assert np.array_equal(sa.series.loads, sb.series.loads)

    def test_seed_changes_output(self):
        a = generate_population(small_spec())
        b = generate_population(small_spec(rng_seed=100))
        assert not np.array_equal(a[0].scenarios[0].series.loads,
                                  b[0].scenarios[0].series.loads)

    def test_leap_year_lengths(self):
        population = generate_population(small_spec())
        for consumer in population:
            assert consumer.scenario_for("2015").series.hours_count == 8760
            assert consumer.scenario_for("2016").series.hours_count == 8784

    def test_equiprobable_scenarios(self):
        population = generate_population(small_spec())
        for consumer in population:
            for scenario in consumer.scenarios:
                assert scenario.probability == pytest.approx(0.5)

    def test_cold_factor_raises_winter_peak(self):
        # noise bounded well below the seasonal step, no spikes
        spec = small_spec(spike_rate=0.0, noise_amplitude=0.1,
                          cold_year_factor=(1.0, 1.3), seasonal_amplitude=2.0)
        for consumer in generate_population(spec):
            mild = consumer.scenario_for("2015").series.peak_kw
            cold = consumer.scenario_for("2016").series.peak_kw
            assert cold >= mild

    def test_aggregate_peak_varies_with_cold_factor(self):
        spec = small_spec(consumer_count=10, cold_year_factor=(0.9, 1.3))
        population = generate_population(spec)
        peaks = {}
        for year in ("2015", "2016"):
            agg = np.sum([c.scenario_for(year).series.loads[:8760] for c in population], axis=0)
            peaks[year] = agg.max()
        assert peaks["2016"] > peaks["2015"] * 1.05


class TestCsvRoundTrip:
    def test_generate_write_parse_identical(self, tmp_path):
        population = generate_population(small_spec())
        series = [sc.series for c in population for sc in c.scenarios]
        path = tmp_path / "loads.csv"
        write_load_csv(series, path)
        parsed = parse_load_csv(path)
        assert len(parsed) == len(series)
        by_key = {(s.consumer_id, s.year_label): s for s in series}
        for got in parsed:
            want = by_key[(got.consumer_id, got.year_label)]
            assert np.array_equal(got.loads, want.loads)

    def test_write_is_deterministic(self, tmp_path):
        population = generate_population(small_spec())
        series = [sc.series for c in population for sc in c.scenarios]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_load_csv(series, p1)
        write_load_csv(series, p2)
        assert p1.read_bytes() == p2.read_bytes()


def write_rows(path, rows, header="consumer_id,timestamp,load_kwh"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def full_year_rows(consumer="a", year=2015, skip_hour=None, override=None):
    from datetime import datetime, timedelta
    rows = []
    start = datetime(year, 1, 1)
    hours = 8784 if year % 4 == 0 and (year % 100 != 0 or year % 400 == 0) else 8760
    for h in range(hours):
        if h == skip_hour:
            continue
        value = "1.0" if override is None or h != override[0] else override[1]
        ts = (start + timedelta(hours=h)).strftime("%Y-%m-%dT%H:%M")
        rows.append(f"{consumer},{ts},{value}")
    return rows


class TestCsvValidation:
    def test_two_consumers_one_year(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_rows(path, full_year_rows("a") + full_year_rows("b"))
        parsed = parse_load_csv(path)
        assert [(s.consumer_id, s.hours_count) for s in parsed] == [("a", 8760), ("b", 8760)]

    def test_missing_hour_names_timestamp(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_rows(path, full_year_rows(skip_hour=5))
        with pytest.raises(MissingHours, match="2015-01-01T05:00"):
            parse_load_csv(path)

    def test_negative_load(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_rows(path, full_year_rows(override=(7, "-0.3")))
        with pytest.raises(NegativeLoad):
            parse_load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_rows(path, ["a,2015-01-01T00:00,1.0"], header="id,time,load")
        with pytest.raises(MalformedRow, match="line 1"):
            parse_load_csv(path)

    def test_bad_float_names_line(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_rows(path, full_year_rows(override=(2, "one")))
        with pytest.raises(MalformedRow, match="line 4"):
            parse_load_csv(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_rows(path, ["a,2015-01-01 00:00,1.0"])
        with pytest.raises(MalformedRow, match="timestamp"):
            parse_load_csv(path)

    def test_sub_hour_timestamp(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_rows(path, ["a,2015-01-01T00:30,1.0"])
        with pytest.raises(MalformedRow, match="hour resolution"):
            parse_load_csv(path)

    def test_duplicate_hour(self, tmp_path):
        path = tmp_path / "loads.csv"
        rows = full_year_rows()
        rows.append("a,2015-01-01T00:00,2.0")
        write_rows(path, rows)
        with pytest.raises(MalformedRow, match="duplicate"):
            parse_load_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_rows(path, ["a,2015-01-01T00:00"])
        with pytest.raises(MalformedRow, match="3 columns"):
            parse_load_csv(path)

    def test_non_finite_load(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_rows(path, full_year_rows(override=(3, "nan")))
        with pytest.raises(MalformedRow, match="non-finite"):
            parse_load_csv(path)


class TestScenarioGrouping:
    def test_groups_by_consumer_sorted(self):
        population = generate_population(small_spec())
        series = [sc.series for c in population for sc in c.scenarios]
        grouped = scenario_sets_from_series(series)
        assert [g.consumer_id for g in grouped] == sorted(g.consumer_id for g in grouped)
        for g in grouped:
            assert g.year_labels == ("2015", "2016")


# ---------------------------------------------------------------------------
# Block-wise fast path against the row parser
# ---------------------------------------------------------------------------

def csv_writer_reference(series_list, path):
    """The row-by-row writer the block-wise one replaced (years >= 1000)."""
    from datetime import datetime, timedelta
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["consumer_id", "timestamp", "load_kwh"])
        for series in sorted(series_list, key=lambda s: (s.consumer_id, s.year_label)):
            start = datetime(int(series.year_label), 1, 1)
            for hour, load in enumerate(series.loads.tolist()):
                ts = (start + timedelta(hours=hour)).strftime("%Y-%m-%dT%H:%M")
                writer.writerow([series.consumer_id, ts, repr(load)])


def parse_outcome(parse, path):
    try:
        return [(s.consumer_id, s.year_label, s.loads) for s in parse(path)]
    except Exception as exc:  # the two parsers must fail alike
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert [(c, y) for c, y, _ in got] == [(c, y) for c, y, _ in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        assert np.array_equal(a, b)


MUTATIONS = ("none", "swap", "drop", "duplicate", "negate", "nan", "inf", "1e400", "1_0",
             " 2.5", "quote", "crlf", "blank", "no_final_newline", "interleave",
             "noncanonical", "rename", "repeat_block", "shift")
LOAD_REPLACEMENTS = {"nan", "inf", "1e400", "1_0", " 2.5"}


def mutate(lines, mutation, at):
    """Apply one mutation to the data rows of ``lines`` (header first, no newlines)."""
    rows = lines[1:]
    i = at % len(rows)
    end = "\n"
    if mutation == "swap":
        j = (i + 1) % len(rows)
        rows[i], rows[j] = rows[j], rows[i]
    elif mutation == "drop":
        del rows[i]
    elif mutation == "duplicate":
        rows.insert(i, rows[i])
    elif mutation == "negate" or mutation in LOAD_REPLACEMENTS:
        cid, ts, load = rows[i].split(",")
        rows[i] = f"{cid},{ts},{'-' + load if mutation == 'negate' else mutation}"
    elif mutation == "quote":
        fields = rows[i].split(",")
        fields[at % 3] = f'"{fields[at % 3]}"'
        rows[i] = ",".join(fields)
    elif mutation == "crlf":
        end = "\r\n"
    elif mutation == "blank":
        rows.insert(i, "")
    elif mutation == "interleave":
        # alternate the rows of the first block with those of the one after it
        n = next((k for k, row in enumerate(rows)
                  if row.split(",")[0] != rows[0].split(",")[0]
                  or row.split(",")[1][:4] != rows[0].split(",")[1][:4]), len(rows))
        first, second = rows[:n], rows[n:2 * n]
        mixed = [row for pair in zip(first, second) for row in pair]
        rows = mixed + first[len(second):] + rows[n + len(second):]
    elif mutation == "rename":
        rows[i] = "x" + rows[i]
    elif mutation == "repeat_block":
        first_year = rows[0].split(",")[1][:4]
        rows += [row for row in rows if row.split(",")[1][:4] == first_year
                 and row.split(",")[0] == rows[0].split(",")[0]]
    elif mutation == "shift":
        # the next row's id moves to the end of this row: 4 fields, then 2
        i = min(i, len(rows) - 2)
        cid, rest = rows[i + 1].split(",", 1)
        rows[i], rows[i + 1] = f"{rows[i]},{cid}", rest
    elif mutation == "noncanonical":
        cid, ts, load = rows[i].split(",")
        rows[i] = f"{cid},{ts[:5]}{int(ts[5:7])}{ts[7:]},{load}"
    text = end.join([lines[0]] + rows)
    return text if mutation == "no_final_newline" else text + end


def population_series(consumers, years, seed, kind="uniform"):
    rng = np.random.default_rng(seed)
    series = []
    for c in range(consumers):
        for year in years:
            loads = rng.uniform(0.0, 5.0, ingest.hours_in_year(year))
            if kind == "rounded":
                loads = np.round(loads, 3)
            elif kind == "zeros":
                loads[rng.random(loads.size) < 0.5] = 0.0
            elif kind == "integers":
                loads = np.floor(loads)
            series.append(HourlyLoadSeries(f"c{c}", str(year), loads))
    return series


def check_against_row_parser(series, mutation, at):
    """Both parsers agree on the written file after ``mutation``; returns the file's text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loads.csv"
        write_load_csv(series, path)
        if mutation == "none":
            assert ingest._parse_blocks(path) is not None
        else:
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_bytes(mutate(lines, mutation, at).encode("utf-8"))
        want = parse_outcome(ingest._parse_rows, path)
        assert_same_outcome(parse_outcome(parse_load_csv, path), want)
        text = path.read_bytes()
    if mutation == "none":
        ordered = sorted(series, key=lambda s: (s.consumer_id, int(s.year_label)))
        assert_same_outcome(want, [(s.consumer_id, s.year_label, s.loads) for s in ordered])
    return text


class TestBlockParser:
    @pytest.mark.parametrize("mutation", MUTATIONS[1:])
    def test_each_mutation(self, mutation):
        # two blocks only where the mutation needs them: the row parser is slow
        series = population_series(2 if mutation == "interleave" else 1, [2016], seed=1)
        original = check_against_row_parser(series, "none", at=0)
        assert check_against_row_parser(series, mutation, at=8790) != original

    @settings(max_examples=25, deadline=None)
    @given(consumers=st.integers(1, 3),
           years=st.lists(st.sampled_from([999, 1900, 2000, 2015, 2016]),
                          min_size=1, max_size=2, unique=True),
           seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "rounded", "zeros", "integers"]),
           mutation=st.sampled_from(MUTATIONS),
           at=st.integers(0, 10 ** 6))
    def test_matches_row_parser(self, consumers, years, seed, kind, mutation, at):
        check_against_row_parser(population_series(consumers, years, seed, kind), mutation, at)

    @pytest.mark.parametrize("year", [1, 999, 2015, 2016, 9999])
    def test_hour_stamps_match_minute_arange(self, year):
        start = np.datetime64(f"{year:04d}-01-01T00:00", "m")
        step = np.timedelta64(60, "m")
        length = ingest.hours_in_year(year)
        # the writer passes a series' own length, which may run past the year
        for hours in (1, 24, 25, length, length + 25):
            oracle = np.arange(start, start + hours * step, step).astype(str).tolist()
            assert ingest._hour_stamps(year, hours) == oracle, hours

    def test_year_zero_left_to_row_parser(self, tmp_path):
        # numpy formats year 0, strptime rejects it
        path = tmp_path / "loads.csv"
        write_rows(path, [f"a,{ts},1.0" for ts in ingest._hour_stamps(0, 8784)])
        want = parse_outcome(ingest._parse_rows, path)
        assert want[0] is MalformedRow
        assert parse_outcome(parse_load_csv, path) == want

    def test_field_beyond_csv_limit_left_to_row_parser(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_load_csv(population_series(1, [2015], seed=2), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        cid, ts, load = lines[5].split(",")
        lines[5] = f"{cid},{ts},{'0' * csv.field_size_limit()}{load}"  # a valid float
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = parse_outcome(ingest._parse_rows, path)
        assert want[0] is MalformedRow
        assert parse_outcome(parse_load_csv, path) == want

    @pytest.mark.parametrize("consumer_id", ["c0", "7"])
    @pytest.mark.parametrize("fields", [4, 2])
    def test_rows_with_shifted_fields_left_to_row_parser(self, tmp_path, consumer_id, fields):
        # line 2 gets ``fields`` fields and line 3 the rest, so the chunk's fields
        # still line up; with a numeric id a shifted id would even parse as a load
        path = tmp_path / "loads.csv"
        write_load_csv(population_series(1, [2015], seed=5), path)
        lines = path.read_text(encoding="utf-8").replace("c0,", f"{consumer_id},").splitlines()
        joined = f"{lines[1]},{lines[2]}".split(",")
        lines[1:3] = [",".join(joined[:fields]), ",".join(joined[fields:])]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert ingest._parse_blocks(path) is None
        with pytest.raises(MalformedRow, match=f"line 2: expected 3 columns, got {fields}"):
            parse_load_csv(path)

    def test_missing_hour_stamp_is_zero_padded(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_load_csv([HourlyLoadSeries("a", "999", np.ones(8760))], path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:6] + lines[7:]), encoding="utf-8")
        with pytest.raises(MissingHours, match="missing hour 0999-01-01T05:00 "):
            parse_load_csv(path)


class TestBlockWriter:
    @pytest.mark.parametrize("consumer_id", ["a,b", 'say "hi"', "a\nb"])
    def test_quoted_ids_match_csv_writer(self, tmp_path, consumer_id):
        # the file's other block is plain, so the parse must see through the quoting
        rng = np.random.default_rng(3)
        series = [HourlyLoadSeries(consumer_id, "2015", rng.uniform(0.0, 4.0, 8760)),
                  HourlyLoadSeries("c0", "2016", rng.uniform(0.0, 4.0, 8784))]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_load_csv(series, got)
        csv_writer_reference(series, want)
        assert got.read_bytes() == want.read_bytes()
        parsed = {(s.consumer_id, s.year_label): s.loads for s in parse_load_csv(got)}
        assert sorted(parsed) == sorted((s.consumer_id, s.year_label) for s in series)
        for s in series:
            assert np.array_equal(parsed[(s.consumer_id, s.year_label)], s.loads)

    def test_id_with_lone_carriage_return_round_trips(self, tmp_path):
        # csv.writer with a "\n" line terminator leaves a lone "\r" unquoted,
        # and the reader then ends the row inside the id
        rng = np.random.default_rng(4)
        series = [HourlyLoadSeries("a\rb", "2015", rng.uniform(0.0, 4.0, 8760)),
                  HourlyLoadSeries("c0", "2015", rng.uniform(0.0, 4.0, 8760))]
        path = tmp_path / "loads.csv"
        write_load_csv(series, path)
        parsed = parse_load_csv(path)
        assert [(s.consumer_id, s.year_label) for s in parsed] == [("a\rb", "2015"),
                                                                  ("c0", "2015")]
        for got, want in zip(parsed, series):
            assert np.array_equal(got.loads, want.loads)

    def test_series_not_spanning_one_year_match_csv_writer(self, tmp_path):
        # the longer series runs on into the next year's timestamps
        series = [HourlyLoadSeries("short", "2015", np.arange(30.0)),
                  HourlyLoadSeries("long", "2015", np.arange(8790.0))]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_load_csv(series, got)
        csv_writer_reference(series, want)
        assert got.read_bytes() == want.read_bytes()

    def test_bundled_recipe_bytes_are_pinned(self, tmp_path):
        # the benchmark's bundled workload at seed 1; digest of the row-by-row writer's output
        spec = replace(default_study_spec(), rng_seed=1, consumer_count=6,
                       years=("2015", "2016"), cold_year_factor=(1.25, 0.95))
        path = tmp_path / "loads.csv"
        write_load_csv([sc.series for c in generate_population(spec) for sc in c.scenarios],
                       path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "dc4f7165f6a621f6f576e629e41a1cb0f2db062b9e62c6236e1d3e9ebb85b4d9")


# ---------------------------------------------------------------------------
# The binary twin beside a parsed CSV
# ---------------------------------------------------------------------------

def forbid_text_parse(monkeypatch):
    def fail(path):
        raise AssertionError(f"{path} was parsed as text")
    monkeypatch.setattr(ingest, "_parse_blocks", fail)
    monkeypatch.setattr(ingest, "_parse_rows", fail)


class TestTwin:
    @pytest.fixture
    def loads_csv(self, tmp_path):
        path = tmp_path / "loads.csv"
        write_load_csv(population_series(2, [2015, 2016], seed=6), path)
        return path

    def test_second_parse_reads_the_twin(self, loads_csv, monkeypatch):
        first = parse_outcome(parse_load_csv, loads_csv)
        assert sorted(p.name for p in loads_csv.parent.iterdir()) == ["loads.csv",
                                                                     "loads.csv.twin"]
        forbid_text_parse(monkeypatch)
        assert_same_outcome(parse_outcome(parse_load_csv, loads_csv), first)
        digest = hashlib.sha256(loads_csv.read_bytes()).hexdigest()
        assert_same_outcome(parse_outcome(lambda p: parse_load_csv(p, digest), loads_csv), first)

    def test_stale_twin_is_ignored_and_replaced(self, loads_csv, monkeypatch):
        parse_load_csv(loads_csv)
        write_load_csv(population_series(2, [2015], seed=7), loads_csv)
        want = parse_outcome(ingest._parse_rows, loads_csv)
        assert_same_outcome(parse_outcome(parse_load_csv, loads_csv), want)
        forbid_text_parse(monkeypatch)
        assert_same_outcome(parse_outcome(parse_load_csv, loads_csv), want)

    @pytest.mark.parametrize("damage", ["truncated", "short_by_one", "garbage",
                                        "other_csv", "flipped_load", "index_order"])
    def test_damaged_twin_is_ignored(self, loads_csv, monkeypatch, damage):
        want = parse_outcome(ingest._parse_rows, loads_csv)
        twin = loads_csv.with_name("loads.csv.twin")
        parse_load_csv(loads_csv)
        good = twin.read_bytes()
        if damage == "truncated":
            twin.write_bytes(good[:10])
        elif damage == "short_by_one":
            twin.write_bytes(good[:-1])
        elif damage == "garbage":
            twin.write_bytes(np.random.default_rng(0).bytes(len(good)))
        elif damage == "other_csv":
            other = loads_csv.with_name("other.csv")
            write_load_csv(population_series(2, [2015, 2016], seed=8), other)
            parse_load_csv(other)
            other.with_name("other.csv.twin").replace(twin)
        elif damage == "flipped_load":
            twin.write_bytes(good[:-3] + bytes([good[-3] ^ 1]) + good[-2:])
        else:  # the same keys in another order: the loads no longer belong to them
            twin.write_bytes(good.replace(b'["c0", 2015], ["c0", 2016]',
                                          b'["c0", 2016], ["c0", 2015]'))
            assert twin.read_bytes() != good
        assert_same_outcome(parse_outcome(parse_load_csv, loads_csv), want)
        assert twin.read_bytes() == good
        forbid_text_parse(monkeypatch)
        assert_same_outcome(parse_outcome(parse_load_csv, loads_csv), want)

    def test_digest_of_other_bytes_writes_no_twin(self, loads_csv):
        # as from a manifest whose input has since changed
        want = parse_outcome(ingest._parse_rows, loads_csv)
        stale = hashlib.sha256(b"other bytes").hexdigest()
        assert_same_outcome(parse_outcome(lambda p: parse_load_csv(p, stale), loads_csv), want)
        assert [p.name for p in loads_csv.parent.iterdir()] == ["loads.csv"]

    def test_failed_replace_changes_nothing(self, loads_csv, monkeypatch):
        def fail(src, dst):
            raise PermissionError(f"cannot replace {dst}")
        want = parse_outcome(ingest._parse_rows, loads_csv)
        monkeypatch.setattr(ingest.os, "replace", fail)
        for _ in range(2):
            assert_same_outcome(parse_outcome(parse_load_csv, loads_csv), want)
        assert [p.name for p in loads_csv.parent.iterdir()] == ["loads.csv"]

    @pytest.mark.parametrize("rows", [
        full_year_rows(skip_hour=5),
        full_year_rows(override=(7, "-0.3")),
        full_year_rows(override=(2, "one")),
    ])
    def test_bad_csv_fails_alike_twice_and_leaves_no_twin(self, tmp_path, rows):
        path = tmp_path / "loads.csv"
        write_rows(path, rows)
        first = parse_outcome(parse_load_csv, path)
        assert isinstance(first, tuple) and issubclass(first[0], Exception)
        assert parse_outcome(parse_load_csv, path) == first
        assert [p.name for p in tmp_path.iterdir()] == ["loads.csv"]

    @pytest.mark.parametrize("mutation", ["crlf", "swap"])
    def test_non_canonical_csv_reads_the_same_twice(self, loads_csv, monkeypatch, mutation):
        lines = loads_csv.read_text(encoding="utf-8").splitlines()
        loads_csv.write_bytes(mutate(lines, mutation, at=100).encode("utf-8"))
        assert ingest._parse_blocks(loads_csv) is None
        first = parse_outcome(parse_load_csv, loads_csv)
        assert not isinstance(first, tuple)
        forbid_text_parse(monkeypatch)
        assert_same_outcome(parse_outcome(parse_load_csv, loads_csv), first)
