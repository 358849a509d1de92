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


# The config format: each regime's JSON section, the TariffBook factory that
# takes its prices by field name, and per price (JSON key, field, JSON units per
# EUR). Reading divides by the scale and writing multiplies, so 1.0 is exact.
_SECTIONS = {
    TariffRegime.ENERGY_ONLY: ("energy_only", TariffBook.energy_only, (
        ("fixed_annual_eur", "fixed_annual", 1.0),
        ("energy_price_eurct_per_kwh", "energy_price", 100.0))),
    TariffRegime.STATIC_CS: ("static_cs", TariffBook.static_cs, (
        ("fixed_annual_eur", "fixed_annual", 1.0),
        ("capacity_price_eur_per_kw_year", "capacity_price", 1.0),
        ("energy_price_eurct_per_kwh", "energy_price", 100.0),
        ("excess_price_eurct_per_kwh", "excess_price", 100.0))),
    TariffRegime.DYNAMIC_CS: ("dynamic_cs", TariffBook.dynamic_cs, (
        ("fixed_annual_eur", "fixed_annual", 1.0),
        ("capacity_price_eur_per_kw_year", "capacity_price", 1.0),
        ("energy_price_eurct_per_kwh", "energy_price", 100.0),
        ("voll_eur_per_kwh", "voll", 1.0))),
}


@dataclass(frozen=True)
class TariffBundle:
    """The three tariff books of one study plus the discomfort-curve steepness.

    Each book's field is named by its regime's value.
    """

    energy: TariffBook
    static: TariffBook
    dynamic: TariffBook
    vcl_steepness: float = DEFAULT_STEEPNESS

    def book(self, regime: TariffRegime) -> TariffBook:
        """The bundle's book for ``regime``."""
        return getattr(self, regime.value)

    def with_book(self, book: TariffBook) -> "TariffBundle":
        """A copy with ``book`` in place of the bundle's book of the same regime."""
        return replace(self, **{book.regime.value: book})


def _number(section: str, data: dict, key: str) -> float:
    if key not in data:
        raise ConfigError(f"tariff config: {section}.{key} is missing")
    return checked_number(data[key], f"tariff config: {section}.{key}")


def bundle_from_dict(raw: dict) -> TariffBundle:
    if not isinstance(raw, dict):
        raise ConfigError("tariff config: expected a JSON object")
    for section, _factory, _prices in _SECTIONS.values():
        if section not in raw or not isinstance(raw[section], dict):
            raise ConfigError(f"tariff config: section {section!r} is missing")
    books = {}
    for regime, (section, factory, prices) in _SECTIONS.items():
        data = raw[section]
        fields = {field: _number(section, data, key) / scale for key, field, scale in prices}
        try:
            books[regime.value] = factory(**fields)
        except ValueError as exc:
            raise ConfigError(f"tariff config: {exc}") from exc
    dynamic_raw = raw["dynamic_cs"]
    steepness = _number("dynamic_cs", dynamic_raw, "vcl_steepness") \
        if "vcl_steepness" in dynamic_raw else DEFAULT_STEEPNESS
    if steepness <= 0.0:
        raise ConfigError(f"tariff config: dynamic_cs.vcl_steepness must be > 0, got {steepness}")
    return TariffBundle(**books, vcl_steepness=steepness)


def bundle_to_dict(bundle: TariffBundle) -> dict:
    raw = {section: {key: getattr(bundle.book(regime), field) * scale
                     for key, field, scale in prices}
           for regime, (section, _factory, prices) in _SECTIONS.items()}
    raw["dynamic_cs"]["vcl_steepness"] = bundle.vcl_steepness
    return raw


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
