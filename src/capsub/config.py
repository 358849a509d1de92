"""Tariff configuration files and bundled defaults.

Config JSON labels every price with its unit (EUR vs EUR-cent) so the two
never get mixed; all in-memory arithmetic is EUR and kWh. The bundled
default prices reproduce a Norwegian-style constellation: an incumbent
volumetric tariff and capacity-subscription books whose energy term covers
marginal grid losses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .data_model import TariffBook, TariffRegime
from .errors import ConfigError
from .ingest import SyntheticPopulationSpec, checked_number
from .vcl import DEFAULT_STEEPNESS

DEFAULT_TARIFF_CONFIG: dict = {
    "energy_only": {
        "fixed_annual_eur": 204.6,
        "energy_price_eurct_per_kwh": 1.859,
    },
    "static_cs": {
        "fixed_annual_eur": 135.0,
        "capacity_price_eur_per_kw_year": 67.5,
        "energy_price_eurct_per_kwh": 0.5,
        "excess_price_eurct_per_kwh": 10.0,
    },
    "dynamic_cs": {
        "fixed_annual_eur": 135.0,
        "capacity_price_eur_per_kw_year": 54.0,
        "energy_price_eurct_per_kwh": 0.5,
        "voll_eur_per_kwh": 5.0,
        "vcl_steepness": 8.0,
    },
}


# The TariffBundle field that holds each regime's book.
_BOOK_FIELDS = {TariffRegime.ENERGY_ONLY: "energy", TariffRegime.STATIC_CS: "static",
                TariffRegime.DYNAMIC_CS: "dynamic"}


@dataclass(frozen=True)
class TariffBundle:
    """The three tariff books of one study plus the discomfort-curve steepness."""

    energy: TariffBook
    static: TariffBook
    dynamic: TariffBook
    vcl_steepness: float = DEFAULT_STEEPNESS

    def book(self, regime: TariffRegime) -> TariffBook:
        """The bundle's book for ``regime``."""
        return getattr(self, _BOOK_FIELDS[regime])

    def with_book(self, book: TariffBook) -> "TariffBundle":
        """A copy with ``book`` in place of the bundle's book of the same regime."""
        return replace(self, **{_BOOK_FIELDS[book.regime]: book})


def _number(section: str, data: dict, key: str) -> float:
    if key not in data:
        raise ConfigError(f"tariff config: {section}.{key} is missing")
    return checked_number(data[key], f"tariff config: {section}.{key}")


def bundle_from_dict(raw: dict) -> TariffBundle:
    if not isinstance(raw, dict):
        raise ConfigError("tariff config: expected a JSON object")
    for section in ("energy_only", "static_cs", "dynamic_cs"):
        if section not in raw or not isinstance(raw[section], dict):
            raise ConfigError(f"tariff config: section {section!r} is missing")
    energy_raw, static_raw, dynamic_raw = raw["energy_only"], raw["static_cs"], raw["dynamic_cs"]
    try:
        energy = TariffBook.energy_only(
            _number("energy_only", energy_raw, "fixed_annual_eur"),
            _number("energy_only", energy_raw, "energy_price_eurct_per_kwh") / 100.0)
        static = TariffBook.static_cs(
            _number("static_cs", static_raw, "fixed_annual_eur"),
            _number("static_cs", static_raw, "capacity_price_eur_per_kw_year"),
            _number("static_cs", static_raw, "energy_price_eurct_per_kwh") / 100.0,
            _number("static_cs", static_raw, "excess_price_eurct_per_kwh") / 100.0)
        dynamic = TariffBook.dynamic_cs(
            _number("dynamic_cs", dynamic_raw, "fixed_annual_eur"),
            _number("dynamic_cs", dynamic_raw, "capacity_price_eur_per_kw_year"),
            _number("dynamic_cs", dynamic_raw, "energy_price_eurct_per_kwh") / 100.0,
            _number("dynamic_cs", dynamic_raw, "voll_eur_per_kwh"))
    except ValueError as exc:
        raise ConfigError(f"tariff config: {exc}") from exc
    steepness = _number("dynamic_cs", dynamic_raw, "vcl_steepness") \
        if "vcl_steepness" in dynamic_raw else DEFAULT_STEEPNESS
    if steepness <= 0.0:
        raise ConfigError(f"tariff config: dynamic_cs.vcl_steepness must be > 0, got {steepness}")
    return TariffBundle(energy, static, dynamic, steepness)


def bundle_to_dict(bundle: TariffBundle) -> dict:
    return {
        "energy_only": {
            "fixed_annual_eur": bundle.energy.fixed_annual,
            "energy_price_eurct_per_kwh": bundle.energy.energy_price * 100.0,
        },
        "static_cs": {
            "fixed_annual_eur": bundle.static.fixed_annual,
            "capacity_price_eur_per_kw_year": bundle.static.capacity_price,
            "energy_price_eurct_per_kwh": bundle.static.energy_price * 100.0,
            "excess_price_eurct_per_kwh": bundle.static.excess_price * 100.0,
        },
        "dynamic_cs": {
            "fixed_annual_eur": bundle.dynamic.fixed_annual,
            "capacity_price_eur_per_kw_year": bundle.dynamic.capacity_price,
            "energy_price_eurct_per_kwh": bundle.dynamic.energy_price * 100.0,
            "voll_eur_per_kwh": bundle.dynamic.voll,
            "vcl_steepness": bundle.vcl_steepness,
        },
    }


def load_tariff_config(path: str | Path) -> TariffBundle:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"tariff config {path}: invalid JSON ({exc})") from exc
    return bundle_from_dict(raw)


def default_tariff_bundle() -> TariffBundle:
    return bundle_from_dict(DEFAULT_TARIFF_CONFIG)


def default_study_spec() -> SyntheticPopulationSpec:
    """The bundled 84-consumer, six-weather-year synthetic study population.

    Winter-peaking, spiky household-style profiles whose per-year cold
    factors make activation counts vary strongly between years.
    """
    return SyntheticPopulationSpec(
        consumer_count=84,
        years=("2013", "2014", "2015", "2016", "2017", "2018"),
        rng_seed=20130101,
        base_load_kw=0.9,
        seasonal_amplitude=2.2,
        daily_amplitude=1.2,
        spike_rate=80.0,
        spike_magnitude=3.0,
        noise_amplitude=0.3,
        cold_year_factor=(1.05, 0.9, 1.25, 0.95, 1.15, 1.08),
    )


# Aggregate-load threshold [kW] paired with the default study population; set so
# that activations stay rare overall (~1.4% of hours) but differ strongly
# between weather years, including years without any scarcity.
DEFAULT_THRESHOLD_KW = 385.0
