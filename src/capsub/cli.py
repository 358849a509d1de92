"""Command-line entry points: generate, calibrate and study.

Exit codes: 0 success, 1 input error, 2 calibration failure, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .activation import derive_schedules
from .calibration import calibrate_capacity_price, energy_reference_revenue
from .config import (DEFAULT_THRESHOLD_KW, bundle_to_dict, default_study_spec,
                     default_tariff_bundle, load_tariff_config)
from .data_model import PolicyKind, TariffRegime
from .errors import CalibrationFailed, CapsubError, ConfigError
from .ingest import (SyntheticPopulationSpec, generate_population, parse_load_csv,
                     scenario_sets_from_series, write_load_csv)
from .study import (CS_REGIMES, MIN_CONSUMER_YEARS_PER_WORKER, build_manifest, run_manifest,
                    run_study_from_manifest, write_study_outputs)
from .vcl import DEFAULT_SEGMENT_COUNT, VclCurveParams, stacks_for_scenarios

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CALIBRATION = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; map those to input errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="capsub",
                     description="Capacity-subscription grid tariff studies")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic population CSV")
    gen.add_argument("--spec", help="population spec JSON (omit for the bundled default)")
    gen.add_argument("--seed", type=int, help="override the spec's RNG seed")
    gen.add_argument("--out", required=True, help="writes loads.csv and population_spec.json here")

    cal = sub.add_parser("calibrate", help="find the revenue-neutral capacity price")
    cal.add_argument("--loads", required=True, help="population load CSV")
    cal.add_argument("--tariff", help="tariff config JSON (omit for bundled defaults)")
    cal.add_argument("--regime", required=True, choices=[r.value for r in CS_REGIMES],
                     help="which capacity-subscription book to calibrate")
    cal.add_argument("--tolerance", type=float, default=1e-4,
                     help="relative revenue gap to accept (default 1e-4)")
    cal.add_argument("--threshold-kw", type=float, default=DEFAULT_THRESHOLD_KW,
                     help="aggregate activation threshold for the dynamic regime")
    cal.add_argument("--vcl-segments", type=int, default=DEFAULT_SEGMENT_COUNT)
    cal.add_argument("--out", required=True, help="output tariff config JSON path")

    stu = sub.add_parser("study", help="run the full multi-year comparison study")
    stu.add_argument("--loads", help="population load CSV")
    stu.add_argument("--tariff", help="tariff config JSON (omit for bundled defaults)")
    stu.add_argument("--regime", choices=[r.value for r in TariffRegime],
                     help="restrict the study to one regime (default: both CS regimes)")
    stu.add_argument("--policy", action="append", choices=[p.value for p in PolicyKind],
                     help="subscription policy to evaluate (repeatable)")
    stu.add_argument("--threshold-kw", type=float,
                     help=f"aggregate activation threshold (default {DEFAULT_THRESHOLD_KW})")
    stu.add_argument("--vcl-segments", type=int,
                     help=f"discomfort-curve segments (default {DEFAULT_SEGMENT_COUNT})")
    stu.add_argument("--seed", type=int, help="recorded in the manifest for provenance")
    stu.add_argument("--jobs", type=int, default=1,
                     help=f"upper bound on worker processes: at most one per "
                          f"{MIN_CONSUMER_YEARS_PER_WORKER} consumer-years and per 4 consumers, "
                          f"in-process below {2 * MIN_CONSUMER_YEARS_PER_WORKER} consumer-years "
                          "(output is identical for any value)")
    stu.add_argument("--out", required=True, help="output directory")
    stu.add_argument("--from-manifest",
                     help="re-run a previous study from its study.json (with --jobs, --out only)")

    return parser


def _cmd_generate(args) -> int:
    spec = SyntheticPopulationSpec.from_json(args.spec) if args.spec else default_study_spec()
    if args.seed is not None:
        spec = replace(spec, rng_seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    population = generate_population(spec)
    series = [sc.series for consumer in population for sc in consumer.scenarios]
    csv_path = out / "loads.csv"
    write_load_csv(series, csv_path)
    spec.to_json(out / "population_spec.json")
    print(f"wrote {csv_path} ({spec.consumer_count} consumers x {len(spec.years)} years)")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    bundle = load_tariff_config(args.tariff) if args.tariff else default_tariff_bundle()
    population = scenario_sets_from_series(parse_load_csv(args.loads))
    reference = energy_reference_revenue(population, bundle.energy)

    regime = TariffRegime(args.regime)
    schedules = stacks = None
    if regime is TariffRegime.DYNAMIC_CS:
        schedules = derive_schedules(population, args.threshold_kw)
        params = VclCurveParams(bundle.dynamic.voll, bundle.vcl_steepness)
        stacks = [stacks_for_scenarios(c, params, args.vcl_segments) for c in population]

    outcome = calibrate_capacity_price(population, bundle.book(regime), reference,
                                       args.tolerance, schedules=schedules,
                                       stacks_by_consumer=stacks)

    bundle = bundle.with_book(outcome.book)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    payload = bundle_to_dict(bundle)
    payload["calibration"] = {
        "regime": regime.value,
        "capacity_price_eur_per_kw_year": outcome.capacity_price,
        "reference_revenue_eur": outcome.reference_revenue,
        "achieved_aggregate_eur": outcome.achieved_aggregate,
        "relative_gap": outcome.relative_gap,
        "iterations": outcome.iterations,
        "tolerance": args.tolerance,
    }
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"calibrated {args.regime} capacity price: {outcome.capacity_price:.6g} "
          f"EUR/kW-year (relative gap {outcome.relative_gap:.3g})")
    return EXIT_OK


# the study arguments a manifest records; a rerun takes them from the manifest
_RECORDED = ("loads", "tariff", "regime", "policy", "threshold_kw", "vcl_segments", "seed")


def _cmd_study(args) -> int:
    if args.from_manifest:
        for name in _RECORDED:
            if getattr(args, name) is not None:
                raise ConfigError(f"study: --{name.replace('_', '-')} cannot be combined with "
                                  f"--from-manifest, which records it")
        result, manifest = run_study_from_manifest(args.from_manifest, jobs=args.jobs)
    else:
        if not args.loads:
            raise ConfigError("study: --loads is required (or --from-manifest)")
        if not args.policy:
            raise ConfigError("study: at least one --policy is required")
        # both CS regimes by default; "--regime energy" leaves only the baseline
        regimes = CS_REGIMES if args.regime is None else \
            tuple(r for r in CS_REGIMES if r is TariffRegime(args.regime))
        bundle = load_tariff_config(args.tariff) if args.tariff else default_tariff_bundle()
        manifest = build_manifest(
            args.loads, bundle, policies=args.policy, regimes=regimes,
            threshold_kw=DEFAULT_THRESHOLD_KW if args.threshold_kw is None else args.threshold_kw,
            vcl_segments=DEFAULT_SEGMENT_COUNT if args.vcl_segments is None else args.vcl_segments,
            seed=args.seed)
        result = run_manifest(manifest, jobs=args.jobs, source="study")
    written = write_study_outputs(result, args.out, manifest)
    print(f"study complete: {len(written)} files in {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        return _cmd_study(args)
    except CalibrationFailed as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except CapsubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - invariant violations surface as exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
