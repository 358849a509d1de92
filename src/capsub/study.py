"""End-to-end multi-year study runner over a consumer population.

Derives activation schedules from the aggregate population load, takes each
consumer's subscription levels under the requested policies (perfect-foresight
deterministic, stochastic, reactive) from the optimizer, prices every (regime,
policy, year) combination once with ``annual_cost`` and writes the reporting
tables plus a manifest sufficient to reproduce the run exactly.

Per-consumer work is independent and runs in worker processes when requested
and the population holds enough consumer-years (``MIN_CONSUMER_YEARS_PER_WORKER``
per worker) to pay for starting more than one of them; the collected results
and all file output are ordered canonically so the output bytes do not depend
on the degree of parallelism.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import __version__
from .activation import ActivationSchedule, derive_schedules, write_schedules_csv
from .config import TariffBundle, bundle_from_dict, bundle_to_dict
from .data_model import (CostBreakdown, PolicyKind, ScenarioSet, TariffRegime, full_load_hours,
                         load_factor)
from .errors import ConfigError, DomainError
from .ingest import checked_number, file_sha256, parse_load_csv, scenario_sets_from_series
from .optimizer import optimize_expected, prepare_years
from .reporting import (aggregate_revenue_table, write_aggregate_revenue_csv,
                        write_annual_costs_csv, write_fullloadhours_csv,
                        write_loadfactor_scatter_csv, write_relative_cost_csv,
                        write_subscription_levels_csv)
from .tariff_engine import annual_cost, cost_energy_tariff
from .vcl import DEFAULT_SEGMENT_COUNT, VclCurveParams, stacks_for_scenarios

MANIFEST_VERSION = 1
MANIFEST_NAME = "study.json"

CS_REGIMES = (TariffRegime.STATIC_CS, TariffRegime.DYNAMIC_CS)
BASELINE_POLICY = "baseline"
# consumers handed to a pool worker at a time
_CHUNK_CONSUMERS = 4
# consumer-years a worker must get to pay for its start (measured crossover on
# two CPUs: below about this many per worker, in-process runs are as fast)
MIN_CONSUMER_YEARS_PER_WORKER = 48


@dataclass(frozen=True)
class ConsumerStudy:
    """All study results of a single consumer."""

    consumer_id: str
    years: tuple[str, ...]
    full_load_hours: dict[str, float]
    load_factors: dict[str, float]
    # (regime, policy) -> [(year_label or "" for set-wide levels, level_kw)]
    levels: dict[tuple[str, str], tuple[tuple[str, float], ...]]
    # (regime, policy, year_label) -> breakdown; regime "energy" uses policy "baseline"
    breakdowns: dict[tuple[str, str, str], CostBreakdown]


@dataclass(frozen=True)
class StudyResult:
    consumers: tuple[ConsumerStudy, ...]
    schedules: dict[str, ActivationSchedule]
    policies: tuple[PolicyKind, ...]
    regimes: tuple[TariffRegime, ...]

    @property
    def years(self) -> tuple[str, ...]:
        return self.consumers[0].years


def _consumer_worker(args: tuple) -> ConsumerStudy:
    (scenario_set, bundle, schedules, policies, regimes, vcl_segments) = args
    det, stoch, reactive = PolicyKind.DETERMINISTIC, PolicyKind.STOCHASTIC, PolicyKind.REACTIVE
    years = scenario_set.year_labels
    series = {sc.series.year_label: sc.series for sc in scenario_set.scenarios}
    flh = {year: full_load_hours(series[year]) for year in years}
    lf = {year: load_factor(series[year]) for year in years}
    levels: dict[tuple[str, str], tuple[tuple[str, float], ...]] = {}
    breakdowns: dict[tuple[str, str, str], CostBreakdown] = {
        ("energy", BASELINE_POLICY, year): cost_energy_tariff(series[year], bundle.energy)
        for year in years
    }

    params = VclCurveParams(bundle.dynamic.voll, bundle.vcl_steepness)
    stacks = stacks_for_scenarios(scenario_set, params, vcl_segments) \
        if TariffRegime.DYNAMIC_CS in regimes else {}

    for regime in regimes:
        book = bundle.book(regime)
        name = regime.value

        # perfect-foresight levels of the years that det or reactive use; each
        # year optimized under any policy is prepared once for all of them
        det_years = years if det in policies else years[:-1] if reactive in policies else ()
        prepared = prepare_years([series[year] for year in
                                  (years if stoch in policies else det_years)],
                                 book, schedules, stacks)
        det_levels = {year: optimize_expected(ScenarioSet.equiprobable((series[year],)), book,
                                              schedules, stacks, prepared)
                      for year in det_years}
        if det in policies:
            levels[(name, det.value)] = tuple(det_levels.items())
        if stoch in policies:
            levels[(name, stoch.value)] = (
                ("", optimize_expected(scenario_set, book, schedules, stacks, prepared)),)
        if reactive in policies:
            # the previous year's perfect-foresight level, applied to the next year
            levels[(name, reactive.value)] = tuple(
                (year, det_levels[prev]) for prev, year in zip(years, years[1:]))

        # each row priced once; a set-wide level ("") is priced in every year
        for policy in policies:
            for row_year, level in levels[(name, policy.value)]:
                for year in (row_year,) if row_year else years:
                    breakdowns[(name, policy.value, year)] = annual_cost(
                        series[year], book, level, schedules, stacks)

    return ConsumerStudy(scenario_set.consumer_id, years, flh, lf, levels, breakdowns)


def _member(allowed, name, unknown: str):
    for member in allowed:
        if name in (member, member.value):
            return member
    raise ConfigError(f"{unknown} {name!r}")


def _policies(names) -> tuple[PolicyKind, ...]:
    return tuple(dict.fromkeys(_member(PolicyKind, p, "policies: unknown policy") for p in names))


def _regimes(names) -> tuple[TariffRegime, ...]:
    return tuple(dict.fromkeys(
        _member(CS_REGIMES, r, "regimes: unknown capacity-subscription regime") for r in names))


def _worker_count(jobs: int, consumer_years: int, consumers: int) -> int:
    """Workers worth starting: each gets a chunk and its minimum of consumer-years."""
    return min(jobs, consumer_years // MIN_CONSUMER_YEARS_PER_WORKER,
               -(-consumers // _CHUNK_CONSUMERS))


def run_study(population: Sequence[ScenarioSet], bundle: TariffBundle, *,
              policies: Sequence[str | PolicyKind],
              regimes: Sequence[str | TariffRegime] = CS_REGIMES,
              threshold_kw: float, vcl_segments: int = DEFAULT_SEGMENT_COUNT,
              jobs: int = 1) -> StudyResult:
    """Run the full comparison study; deterministic for given inputs.

    ``policies`` and ``regimes`` (capacity-subscription only) are named as the
    manifest records them, or given as PolicyKind and TariffRegime members.
    ``jobs`` bounds the worker processes: at most one is started per
    ``MIN_CONSUMER_YEARS_PER_WORKER`` consumer-years and per chunk of
    ``_CHUNK_CONSUMERS`` consumers, and the study runs in-process when that
    allows only one (see ``_worker_count``). The result is the same for any
    ``jobs``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs: must be >= 1, got {jobs}")
    if not population:
        raise DomainError("population must not be empty")
    policies = _policies(policies)
    if not policies:
        raise ConfigError(f"policies: at least one of {[p.value for p in PolicyKind]} is required")
    regimes = _regimes(regimes)
    if vcl_segments < 1:
        raise ConfigError(f"vcl_segments: must be >= 1, got {vcl_segments}")

    schedules = derive_schedules(population, threshold_kw)

    ordered = sorted(population, key=lambda s: s.consumer_id)
    work = [(consumer, bundle, schedules, policies, regimes, vcl_segments)
            for consumer in ordered]
    workers = _worker_count(jobs, sum(len(consumer.year_labels) for consumer in ordered),
                            len(ordered))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            consumers = tuple(pool.map(_consumer_worker, work, chunksize=_CHUNK_CONSUMERS))
    else:
        consumers = tuple(map(_consumer_worker, work))

    return StudyResult(consumers, schedules, policies, regimes)


# ---------------------------------------------------------------------------
# Manifest and output files
# ---------------------------------------------------------------------------

def build_manifest(loads_csv: str | Path, bundle: TariffBundle, *,
                   policies: Sequence[str | PolicyKind],
                   regimes: Sequence[str | TariffRegime],
                   threshold_kw: float, vcl_segments: int,
                   seed: int | None = None) -> dict:
    """The manifest of a study; records the SHA-256 of ``loads_csv``.

    Policies and regimes are recorded by name, each once, in the order given.
    """
    loads_path = Path(loads_csv)
    return {
        "manifest_version": MANIFEST_VERSION,
        "capsub_version": __version__,
        "inputs": {
            "loads_csv": str(loads_path.resolve()),
            "loads_csv_sha256": file_sha256(loads_path),
        },
        "tariff": bundle_to_dict(bundle),
        "params": {
            "policies": [p.value for p in _policies(policies)],
            "regimes": [r.value for r in _regimes(regimes)],
            "threshold_kw": threshold_kw,
            "vcl_segments": vcl_segments,
            "seed": seed,
        },
    }


def _typed(value, kind: type, field: str, source: str):
    if not isinstance(value, kind):
        raise ConfigError(f"{source}: {field} must be a {kind.__name__}, got {value!r}")
    return value


def run_manifest(manifest: dict, jobs: int = 1, *, source: str,
                 verify_input: bool = False) -> StudyResult:
    """Run the study a manifest records, parsing its loads CSV once.

    Every field is checked first, so a malformed manifest raises ConfigError
    naming ``source``. With ``verify_input`` the loads CSV must still have
    the recorded SHA-256; without it the caller vouches for the recorded
    hash, as for a manifest fresh from ``build_manifest``. Either way the
    parse takes the recorded hash to find the CSV's twin, not a new one.
    """
    _typed(manifest, dict, "the manifest", source)
    if manifest.get("manifest_version") != MANIFEST_VERSION:
        raise ConfigError(f"{source}: manifest_version must be {MANIFEST_VERSION}, "
                          f"got {manifest.get('manifest_version')!r}")
    try:
        inputs = _typed(manifest["inputs"], dict, "inputs", source)
        loads_csv = Path(_typed(inputs["loads_csv"], str, "inputs.loads_csv", source))
        recorded_hash = _typed(inputs["loads_csv_sha256"], str, "inputs.loads_csv_sha256",
                               source)
        bundle = bundle_from_dict(manifest["tariff"])
        params = _typed(manifest["params"], dict, "params", source)
        policies = _typed(params["policies"], list, "params.policies", source)
        regimes = _typed(params["regimes"], list, "params.regimes", source)
        threshold_kw = checked_number(params["threshold_kw"], f"{source} threshold_kw")
        vcl_segments = checked_number(params["vcl_segments"], f"{source} vcl_segments",
                                      integer=True)
    except KeyError as exc:
        raise ConfigError(f"{source}: missing field {exc}") from exc
    # older manifests record a subscription floor, which is gone; all of them hold 0.0
    if params.get("min_level", 0.0) != 0.0:
        raise ConfigError(f"{source}: min_level must be 0.0, got {params['min_level']!r}")
    if verify_input:
        if not loads_csv.exists():
            raise ConfigError(f"manifest input {loads_csv} does not exist")
        actual_hash = file_sha256(loads_csv)
        if actual_hash != recorded_hash:
            raise ConfigError(f"manifest input {loads_csv} changed: sha256 {actual_hash} "
                              f"!= recorded {recorded_hash}")
    population = scenario_sets_from_series(parse_load_csv(loads_csv, recorded_hash))
    return run_study(population, bundle, policies=policies, regimes=regimes,
                     threshold_kw=threshold_kw, vcl_segments=vcl_segments, jobs=jobs)


def run_study_from_manifest(manifest_path: str | Path, jobs: int = 1) -> tuple[StudyResult, dict]:
    """Re-run a study exactly as recorded; verifies the input file hash."""
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest {manifest_path}: invalid JSON ({exc})") from exc
    result = run_manifest(manifest, jobs, source=f"manifest {manifest_path}", verify_input=True)
    return result, manifest


def _policy_cost_total(consumer: ConsumerStudy, regime: str, policy: str,
                       years: Sequence[str]) -> float:
    """Payments plus discomfort; only dynamic rows carry discomfort, the rest add 0.0."""
    total = 0.0
    for year in years:
        total += consumer.breakdowns[(regime, policy, year)].total_welfare
    return total


def write_study_outputs(result: StudyResult, out_dir: str | Path,
                        manifest: dict | None = None) -> list[Path]:
    """Write all reporting files; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def record(name: str) -> Path:
        path = out / name
        written.append(path)
        return path

    if manifest is not None:
        path = record(MANIFEST_NAME)
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    years = result.years
    consumers = result.consumers

    write_fullloadhours_csv(
        ((c.consumer_id, year, c.full_load_hours[year], c.load_factors[year])
         for c in consumers for year in years),
        record("fullloadhours.csv"))

    write_schedules_csv((result.schedules[year] for year in years),
                        record("activations.csv"))

    level_rows = []
    for c in consumers:
        for (regime, policy), rows in sorted(c.levels.items()):
            for year, level in rows:
                level_rows.append((c.consumer_id, regime, policy, year, level))
    write_subscription_levels_csv(level_rows, record("subscription_levels.csv"))

    annual_rows = [(c.consumer_id, year, regime, policy, bd) for c in consumers
                   for (regime, policy, year), bd in sorted(c.breakdowns.items())]
    write_annual_costs_csv(annual_rows, record("annual_costs.csv"))
    write_aggregate_revenue_csv(aggregate_revenue_table(annual_rows),
                                record("aggregate_revenue.csv"))

    consumer_ids = [c.consumer_id for c in consumers]
    energy_totals = [
        _policy_cost_total(c, "energy", BASELINE_POLICY, years) for c in consumers
    ]

    mean_lf = [sum(c.load_factors[y] for y in years) / len(years) for c in consumers]
    stoch, reactive = PolicyKind.STOCHASTIC, PolicyKind.REACTIVE
    for regime in (r.value for r in result.regimes):
        if stoch in result.policies:
            stoch_totals = [_policy_cost_total(c, regime, stoch.value, years) for c in consumers]
            write_relative_cost_csv(
                consumer_ids, stoch_totals, energy_totals,
                record(f"relative_cost_{regime}_stoch_vs_energy.csv"),
                f"{regime} CS stochastic-level cost", "energy tariff cost")
            ratios = [a / b for a, b in zip(stoch_totals, energy_totals)]
            write_loadfactor_scatter_csv(
                consumer_ids, mean_lf, ratios,
                record(f"loadfactor_scatter_{regime}.csv"),
                f"{regime} CS stochastic-level cost / energy tariff cost")
        if reactive in result.policies and stoch in result.policies and len(years) > 1:
            reactive_years = years[1:]
            reactive_totals = [
                _policy_cost_total(c, regime, reactive.value, reactive_years) for c in consumers
            ]
            stoch_same_years = [
                _policy_cost_total(c, regime, stoch.value, reactive_years) for c in consumers
            ]
            write_relative_cost_csv(
                consumer_ids, reactive_totals, stoch_same_years,
                record(f"relative_cost_{regime}_reactive_vs_stoch.csv"),
                f"{regime} CS reactive-level cost", f"{regime} CS stochastic-level cost")

    return written
