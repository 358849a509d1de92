"""Load-data ingestion: CSV parsing/validation and synthetic population generation.

The CSV wire format is UTF-8 with the exact header
``consumer_id,timestamp,load_kwh``, one row per consumer-hour, ISO-8601
hour-resolution timestamps (``2015-01-31T17:00``) and plain decimal points.
Every (consumer, calendar-year) pair must cover the full year; gaps are
rejected rather than imputed because cost sums and quantile-based optima are
silently corrupted by imputation.

Files are written and read one (consumer, year) block at a time, in chunks
of 1,024 rows. The writer builds each year's timestamp strings once per call
and formats a chunk as one string. The reader takes a block's length from the
year of its first row, splits each chunk once, and compares its ids and
timestamps with the expected ones as whole lists. A file it does not recognise in every detail
is read again by the row parser: a header or field-count mismatch, a quote,
carriage return or blank line, a missing final newline, a non-canonical
timestamp, rows out of order or not contiguous per consumer-year, a gap or
duplicate, or a load that is unparsable, non-finite or negative. The row
parser accepts such a file if it is valid, and is the only code that raises
MalformedRow, MissingHours and NegativeLoad, so error types, messages and
line numbers do not depend on the fast path.

A parsed file leaves a binary twin beside it (``loads.csv.twin``) that
records the CSV's SHA-256, the (consumer, year) keys and the loads as
little-endian float64. A later parse of the same bytes reads the twin in
place of the text. A twin is a cache: it is used only when it records the
CSV's hash and is consistent in every detail, and a twin that is missing,
stale, truncated or corrupt, or cannot be written, costs one text parse.
"""

from __future__ import annotations

import calendar
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import struct
import sys
import zlib
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data_model import HourlyLoadSeries, ScenarioSet
from .errors import ConfigError, MalformedRow, MissingHours, NegativeLoad

CSV_HEADER = ["consumer_id", "timestamp", "load_kwh"]
_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
TIMESTAMP_FMT = "%Y-%m-%dT%H:%M"
# Rows handled at once within a (consumer, year) block when writing or parsing;
# bounds the temporaries to a few hundred kB without slowing either down.
_CHUNK_HOURS = 1024
_HOUR_SUFFIXES = tuple(f"T{hour:02d}:00" for hour in range(24))


def hours_in_year(year: int) -> int:
    return 8784 if calendar.isleap(year) else 8760


def _parse_year(label: str) -> int:
    try:
        year = int(label)
    except ValueError as exc:
        raise ConfigError(f"years: {label!r} is not a calendar year") from exc
    if not 1 <= year <= 9999:
        raise ConfigError(f"years: {year} outside the supported calendar range")
    return year


def checked_number(value, field: str, integer: bool = False) -> float | int:
    """``value`` as a finite float, or an int if ``integer``; else ConfigError naming ``field``."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, kind) and not isinstance(value, bool) \
            and (integer or abs(value) <= sys.float_info.max):  # false for inf, NaN, too-large ints
        return int(value) if integer else float(value)
    raise ConfigError(
        f"{field} must be {'an integer' if integer else 'a finite number'}, got {value!r}")


# ---------------------------------------------------------------------------
# Synthetic population generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticPopulationSpec:
    """Recipe for a reproducible synthetic consumer population.

    Hourly loads are base + winter-peaking seasonal sinusoid (scaled by the
    year's cold factor) + evening-peaking daily sinusoid + Poisson demand
    spikes + bounded uniform noise, clamped at zero. The same seed and spec
    always produce a bit-identical population; per-consumer and per-year
    randomness comes from independent streams derived from
    (seed, consumer index, year index).
    """

    consumer_count: int
    years: tuple[str, ...]
    rng_seed: int
    base_load_kw: float
    seasonal_amplitude: float = 0.0
    daily_amplitude: float = 0.0
    spike_rate: float = 0.0
    spike_magnitude: float = 0.0
    noise_amplitude: float = 0.0
    cold_year_factor: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if checked_number(self.consumer_count, "consumer_count", integer=True) < 1:
            raise ConfigError(f"consumer_count: must be >= 1, got {self.consumer_count}")
        for name in ("years", "cold_year_factor"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name}: must be a list, got {getattr(self, name)!r}")
        years = tuple(str(y) for y in self.years)
        if not years:
            raise ConfigError("years: must not be empty")
        if len(set(years)) != len(years):
            raise ConfigError("years: labels must be distinct")
        for label in years:
            _parse_year(label)
        object.__setattr__(self, "years", years)
        factors = tuple(checked_number(f, f"cold_year_factor[{i}]")
                        for i, f in enumerate(self.cold_year_factor)) or (1.0,) * len(years)
        if len(factors) != len(years):
            raise ConfigError(
                f"cold_year_factor: {len(factors)} entries for {len(years)} years")
        for f in factors:
            if f < 0.0:
                raise ConfigError(f"cold_year_factor: entries must be >= 0, got {f}")
        object.__setattr__(self, "cold_year_factor", factors)
        for name in ("base_load_kw", "seasonal_amplitude", "daily_amplitude",
                     "spike_rate", "spike_magnitude", "noise_amplitude"):
            value = checked_number(getattr(self, name), name)
            if value < 0.0:
                raise ConfigError(f"{name}: must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        if not 0 <= checked_number(self.rng_seed, "rng_seed", integer=True) < 2 ** 64:
            raise ConfigError(f"rng_seed: must be an integer in [0, 2^64), got {self.rng_seed}")

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticPopulationSpec":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"population spec {path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"population spec {path}: expected a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"population spec: unknown fields {sorted(unknown)}")
        missing = {"consumer_count", "years", "rng_seed", "base_load_kw"} - set(raw)
        if missing:
            raise ConfigError(f"population spec: missing fields {sorted(missing)}")
        return cls(**raw)

    def to_json(self, path: str | Path) -> None:
        data = asdict(self)
        data["years"] = list(self.years)
        data["cold_year_factor"] = list(self.cold_year_factor)
        Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _consumer_traits(seed: int, consumer_index: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, consumer_index])
    return {
        "seasonal_scale": rng.uniform(0.7, 1.3),
        "daily_scale": rng.uniform(0.7, 1.3),
        "seasonal_phase_h": rng.uniform(-360.0, 360.0),
        "daily_peak_hour": rng.uniform(17.0, 20.0),
    }


def _generate_year(spec: SyntheticPopulationSpec, traits: dict[str, float],
                   consumer_index: int, year_index: int) -> np.ndarray:
    year = _parse_year(spec.years[year_index])
    n = hours_in_year(year)
    t = np.arange(n, dtype=np.float64)
    cold = spec.cold_year_factor[year_index]

    seasonal = (spec.seasonal_amplitude * cold * traits["seasonal_scale"]
                * 0.5 * (1.0 + np.cos(2.0 * np.pi * (t - traits["seasonal_phase_h"]) / n)))
    hour_of_day = t % 24.0
    daily = (spec.daily_amplitude * traits["daily_scale"]
             * 0.5 * (1.0 + np.cos(2.0 * np.pi * (hour_of_day - traits["daily_peak_hour"]) / 24.0)))

    rng = np.random.default_rng([spec.rng_seed, consumer_index, year_index])
    noise = spec.noise_amplitude * rng.uniform(-1.0, 1.0, n) if spec.noise_amplitude else 0.0
    spikes = np.zeros(n)
    if spec.spike_rate > 0.0 and spec.spike_magnitude > 0.0:
        count = rng.poisson(spec.spike_rate)
        if count:
            # spikes (heating bursts, EV charging) cluster in high-demand hours
            envelope = np.asarray(seasonal + daily, dtype=np.float64)
            if envelope.max() > 0.0:
                weights = envelope + 0.05 * envelope.max()
                weights /= weights.sum()
                where = rng.choice(n, size=count, p=weights)
            else:
                where = rng.integers(0, n, count)
            magnitude = spec.spike_magnitude * rng.uniform(0.5, 1.5, count)
            np.add.at(spikes, where, magnitude)

    return np.clip(spec.base_load_kw + seasonal + daily + noise + spikes, 0.0, None)


def generate_population(spec: SyntheticPopulationSpec) -> list[ScenarioSet]:
    """Deterministically generate one equiprobable ScenarioSet per consumer."""
    population = []
    width = len(str(spec.consumer_count - 1)) if spec.consumer_count > 1 else 1
    for i in range(spec.consumer_count):
        traits = _consumer_traits(spec.rng_seed, i)
        consumer_id = f"c{i:0{width}d}"
        series = [
            HourlyLoadSeries(consumer_id, spec.years[y],
                             _generate_year(spec, traits, i, y))
            for y in range(len(spec.years))
        ]
        population.append(ScenarioSet.equiprobable(series))
    return population


# ---------------------------------------------------------------------------
# CSV parsing and writing
# ---------------------------------------------------------------------------

def _hour_stamps(year: int, hours: int) -> list[str]:
    """Wire timestamps of the first ``hours`` hours from the start of ``year``.

    Years are zero-padded to four digits, as ``strptime``'s ``%Y`` requires.
    numpy formats only the days; each day string takes the 24 hour suffixes.
    """
    start = np.datetime64(f"{year:04d}-01-01", "D")
    days = np.arange(start, start + -(-hours // 24)).astype(str).tolist()
    return [day + hour for day in days for hour in _HOUR_SUFFIXES][:hours]


def _csv_id(consumer_id: str) -> str:
    """``consumer_id`` as csv.writer writes it as the first field of a row.

    csv.writer quotes a field that holds a character of its line terminator;
    with "\r\n" that covers a lone "\r", which the reader ends a row at.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([consumer_id, ""])
    return buf.getvalue()[:-3]


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of the file at ``path``.

    The file is read into one reused 64 KiB buffer. Reading it as a new
    1 MiB bytes object per block raised a process's peak RSS by a few
    hundred kB once calibrate hashed its input too.
    """
    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def parse_load_csv(path: str | Path, sha256: str | None = None) -> list[HourlyLoadSeries]:
    """Parse and validate a load CSV into full-year series.

    Returns one series per (consumer, year), each sorted by hour and fully
    covering its calendar year. Raises MissingHours for gaps, NegativeLoad
    for negative values and MalformedRow (with the line number) for anything
    unparseable.

    ``sha256`` is the CSV's hex SHA-256 if the caller has just computed it;
    otherwise the file is hashed here. The series come from the CSV's twin
    when it records that hash; else the text is parsed and the twin written.
    """
    digest = file_sha256(path) if sha256 is None else sha256
    twin = Path(path).with_name(Path(path).name + ".twin")
    series_list = _read_twin(twin, digest)
    if series_list is None:
        series_list = _parse_blocks(path)
        if series_list is None:
            series_list = _parse_rows(path)
        # the hash must still be the file's, or the twin would record other bytes
        if file_sha256(path) == digest:
            _write_twin(twin, digest, series_list)
    return series_list


# ---------------------------------------------------------------------------
# The binary twin of a load CSV
# ---------------------------------------------------------------------------

_TWIN_MAGIC = b"capsubtw"
_TWIN_VERSION = 1
# magic, format version, hex SHA-256 of the CSV, index bytes, CRC-32 of the loads
_TWIN_HEAD = struct.Struct("<8sI64sQI")
_TWIN_LOADS = np.dtype("<f8")


def _read_twin(twin: Path, sha256: str) -> list[HourlyLoadSeries] | None:
    """The series ``twin`` holds for the CSV with hash ``sha256``; None unless it is consistent.

    The loads are read straight into one array, which the series view.
    """
    try:
        with open(twin, "rb") as fh:
            head = fh.read(_TWIN_HEAD.size)
            if len(head) != _TWIN_HEAD.size:
                return None
            magic, version, recorded, index_size, crc = _TWIN_HEAD.unpack(head)
            if (magic, version, recorded) != (_TWIN_MAGIC, _TWIN_VERSION, sha256.encode()):
                return None
            size = os.fstat(fh.fileno()).st_size - _TWIN_HEAD.size
            if index_size > size:
                return None
            keys = [tuple(key) for key in json.loads(fh.read(index_size))]
            if not all(len(key) == 2 and isinstance(key[0], str) and key[0]
                       and type(key[1]) is int and 1 <= key[1] <= 9999 for key in keys):
                return None
            if keys != sorted(set(keys)):
                return None
            bounds = np.cumsum([0] + [hours_in_year(year) for _, year in keys]).tolist()
            if size != index_size + bounds[-1] * _TWIN_LOADS.itemsize:
                return None
            loads = np.empty(bounds[-1], dtype=_TWIN_LOADS)
            if fh.readinto(loads) != loads.nbytes or zlib.crc32(loads) != crc:
                return None
        # HourlyLoadSeries rejects non-finite and negative loads with ValueError
        return [HourlyLoadSeries(consumer_id, str(year), loads[start:end])
                for (consumer_id, year), start, end in zip(keys, bounds, bounds[1:])]
    except (OSError, ValueError, TypeError):
        return None


def _write_twin(twin: Path, sha256: str, series_list: Sequence[HourlyLoadSeries]) -> None:
    """Write the twin through a temporary file and os.replace; skipped on any OSError."""
    index = json.dumps([[s.consumer_id, int(s.year_label)] for s in series_list]).encode()
    crc = 0
    for series in series_list:
        crc = zlib.crc32(series.loads.astype(_TWIN_LOADS, copy=False), crc)
    tmp = twin.with_name(f"{twin.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError:  # also when another thread of this process is writing it
        return
    try:
        with fh:
            fh.write(_TWIN_HEAD.pack(_TWIN_MAGIC, _TWIN_VERSION, sha256.encode(), len(index),
                                     crc))
            fh.write(index)
            for series in series_list:
                fh.write(series.loads.astype(_TWIN_LOADS, copy=False))
        os.replace(tmp, twin)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _parse_blocks(path: str | Path) -> list[HourlyLoadSeries] | None:
    """Fast path: parse a well-formed file one (consumer, year) block at a time.

    Returns None at the first anomaly, so that the row parser re-reads the
    file and either accepts it (blank lines, CRLF, quoting, unordered rows,
    non-canonical timestamps) or raises its own error.
    """
    stamps: dict[int, list[str]] = {}
    blocks: dict[tuple[str, int], np.ndarray] = {}
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if fh.readline() != _HEADER_LINE:
                return None
            for first in fh:
                consumer_id, _, rest = first.partition(",")
                if not (consumer_id and rest[:4].isdecimal()):
                    return None
                year = int(rest[:4])
                if year == 0 or (consumer_id, year) in blocks:
                    return None
                if year not in stamps:
                    stamps[year] = _hour_stamps(year, hours_in_year(year))
                loads = _read_block(fh, first, consumer_id, stamps[year])
                if loads is None:
                    return None
                blocks[(consumer_id, year)] = loads
    except UnicodeDecodeError:
        return None
    return [HourlyLoadSeries(consumer_id, str(year), loads)
            for (consumer_id, year), loads in sorted(blocks.items())]


def _read_block(fh: Iterable[str], first: str, consumer_id: str,
                stamps: list[str]) -> np.ndarray | None:
    """Loads of the block that starts with line ``first``; None unless it is canonical."""
    limit = csv.field_size_limit()  # csv.reader rejects longer fields; leave that to it
    if len(consumer_id) > limit:
        return None
    lines = itertools.chain((first,), fh)
    loads = np.empty(len(stamps))
    for start in range(0, len(stamps), _CHUNK_HOURS):
        expected = stamps[start:start + _CHUNK_HOURS]
        count = len(expected)
        text = "".join(itertools.islice(lines, count))
        if '"' in text or "\r" in text:
            return None
        # each "\n" becomes a field of its own, so that every line must have three fields;
        # a chunk of complete lines ends in "\n", which leaves one empty field at the end
        fields = text.replace("\n", ",\n,").split(",")
        if (fields.pop() or len(fields) != 4 * count or fields[3::4] != ["\n"] * count
                or fields[0::4] != [consumer_id] * count or fields[1::4] != expected
                or max(map(len, fields[2::4])) > limit):
            return None
        try:
            loads[start:start + count] = np.array(fields[2::4], dtype=np.float64)
        except ValueError:
            return None
    if np.isfinite(loads).all() and (loads >= 0.0).all():
        return loads
    return None


def _csv_rows(reader) -> Iterator[list[str]]:
    """The rows of a csv.reader, with a row it rejects raised as a MalformedRow.

    csv.reader rejects, for one, a field longer than ``csv.field_size_limit()``.
    """
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from exc


def _parse_rows(path: str | Path) -> list[HourlyLoadSeries]:
    """Row-by-row parser: accepts any valid file and raises every ingest error."""
    groups: dict[tuple[str, int], dict[int, float]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = _csv_rows(csv.reader(fh))
        header = next(rows, None)
        if header != CSV_HEADER:
            raise MalformedRow(
                f"line 1: expected header {','.join(CSV_HEADER)!r}, got {header}")
        for line_no, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise MalformedRow(f"line {line_no}: expected 3 columns, got {len(row)}")
            consumer_id, ts_text, load_text = row
            if not consumer_id:
                raise MalformedRow(f"line {line_no}: empty consumer_id")
            try:
                ts = datetime.strptime(ts_text, TIMESTAMP_FMT)
            except ValueError as exc:
                raise MalformedRow(f"line {line_no}: bad timestamp {ts_text!r}") from exc
            if ts.minute != 0:
                raise MalformedRow(
                    f"line {line_no}: timestamp {ts_text!r} is not at hour resolution")
            try:
                load = float(load_text)
            except ValueError as exc:
                raise MalformedRow(f"line {line_no}: bad load value {load_text!r}") from exc
            if not math.isfinite(load):
                raise MalformedRow(f"line {line_no}: non-finite load value {load_text!r}")
            if load < 0.0:
                raise NegativeLoad(
                    f"line {line_no}: negative load {load} for consumer {consumer_id} at {ts_text}")
            hour_index = int((ts - datetime(ts.year, 1, 1)).total_seconds() // 3600)
            hours = groups.setdefault((consumer_id, ts.year), {})
            if hour_index in hours:
                raise MalformedRow(
                    f"line {line_no}: duplicate hour {ts_text} for consumer {consumer_id}")
            hours[hour_index] = load

    series_list = []
    for (consumer_id, year), hours in sorted(groups.items()):
        expected = hours_in_year(year)
        if len(hours) != expected:
            missing = next(h for h in range(expected) if h not in hours)
            stamp = _hour_stamps(year, missing + 1)[-1]
            raise MissingHours(
                f"consumer {consumer_id} year {year}: missing hour "
                f"{stamp} ({len(hours)} of {expected} hours present)")
        loads = np.empty(expected)
        for hour_index, load in hours.items():
            loads[hour_index] = load
        series_list.append(HourlyLoadSeries(consumer_id, str(year), loads))
    return series_list


def write_load_csv(series_list: Sequence[HourlyLoadSeries], path: str | Path) -> None:
    """Write series in the wire format; floats keep full round-trip precision.

    Rows are formatted _CHUNK_HOURS at a time into one string. An id that
    needs quoting is quoted once per series, by csv.writer.
    """
    ordered = sorted(series_list, key=lambda s: (s.consumer_id, s.year_label))
    stamps: dict[tuple[int, int], list[str]] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER_LINE)
        for series in ordered:
            # a series need not span exactly one year; it is written hour by hour regardless
            key = (_parse_year(series.year_label), series.hours_count)
            if key not in stamps:
                stamps[key] = _hour_stamps(*key)
            cid = _csv_id(series.consumer_id)
            for start in range(0, series.hours_count, _CHUNK_HOURS):
                chunk = slice(start, start + _CHUNK_HOURS)
                fh.write("".join(f"{cid},{ts},{load!r}\n" for ts, load in
                                 zip(stamps[key][chunk], series.loads[chunk].tolist())))


def scenario_sets_from_series(series_list: Iterable[HourlyLoadSeries]) -> list[ScenarioSet]:
    """Group per-year series by consumer into equiprobable scenario sets."""
    by_consumer: dict[str, list[HourlyLoadSeries]] = {}
    for series in series_list:
        by_consumer.setdefault(series.consumer_id, []).append(series)
    return [
        ScenarioSet.equiprobable(sorted(series, key=lambda s: s.year_label))
        for _, series in sorted(by_consumer.items())
    ]
