import copy
import json

import pytest
from hypothesis import given, strategies as st

from capsub import (ConfigError, TariffBook, TariffRegime, default_tariff_bundle,
                    load_tariff_config)
from capsub.config import DEFAULT_TARIFF_CONFIG, TariffBundle, bundle_from_dict, bundle_to_dict

EUR = st.floats(min_value=0.0, max_value=1e4, allow_subnormal=False)
POSITIVE_EUR = st.floats(min_value=1e-3, max_value=1e4)
# a price in EUR/kWh as the config gives it: a EUR-cent value divided by 100
CENTS = st.floats(min_value=0.0, max_value=1e4, allow_subnormal=False).map(lambda ct: ct / 100.0)


@st.composite
def bundles(draw):
    energy_price, excess_price = sorted(draw(st.lists(CENTS, min_size=2, max_size=2,
                                                      unique=True)))
    return TariffBundle(
        TariffBook.energy_only(draw(EUR), draw(CENTS)),
        TariffBook.static_cs(draw(EUR), draw(EUR), energy_price, excess_price),
        TariffBook.dynamic_cs(draw(EUR), draw(EUR), draw(CENTS), draw(POSITIVE_EUR)),
        draw(POSITIVE_EUR))


class TestBundleBookLookup:
    @pytest.mark.parametrize("regime", list(TariffRegime))
    def test_book_of_each_regime(self, regime):
        book = default_tariff_bundle().book(regime)
        assert book.regime is regime

    def test_with_book_replaces_only_that_regime(self):
        bundle = default_tariff_bundle()
        cheaper = bundle.with_book(TariffBook.static_cs(135.0, 1.0, 0.005, 0.10))
        assert cheaper.static.capacity_price == 1.0
        assert (cheaper.energy, cheaper.dynamic, cheaper.vcl_steepness) == \
            (bundle.energy, bundle.dynamic, bundle.vcl_steepness)


class TestTariffConfig:
    def test_default_bundle_writes_the_default_config(self):
        assert bundle_to_dict(default_tariff_bundle()) == DEFAULT_TARIFF_CONFIG

    @given(bundles())
    def test_json_round_trip(self, bundle):
        assert bundle_from_dict(json.loads(json.dumps(bundle_to_dict(bundle)))) == bundle

    def test_each_book_is_checked_before_the_next_section_is_read(self):
        raw = copy.deepcopy(DEFAULT_TARIFF_CONFIG)
        static = raw["static_cs"]
        static["excess_price_eurct_per_kwh"] = static["energy_price_eurct_per_kwh"]
        del raw["dynamic_cs"]["voll_eur_per_kwh"]
        with pytest.raises(ConfigError, match="^tariff config: static CS tariff requires "):
            bundle_from_dict(raw)

    @pytest.mark.parametrize("raw", [5, [], None, "static_cs"])
    def test_non_object_rejected_in_one_place(self, tmp_path, raw):
        path = tmp_path / "tariff.json"
        path.write_text(json.dumps(raw))
        for load in (lambda: bundle_from_dict(raw), lambda: load_tariff_config(path)):
            with pytest.raises(ConfigError, match="^tariff config: expected a JSON object$"):
                load()
