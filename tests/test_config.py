import json

import pytest

from capsub import (ConfigError, TariffBook, TariffRegime, default_tariff_bundle,
                    load_tariff_config)
from capsub.config import bundle_from_dict


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
    @pytest.mark.parametrize("raw", [5, [], None, "static_cs"])
    def test_non_object_rejected_in_one_place(self, tmp_path, raw):
        path = tmp_path / "tariff.json"
        path.write_text(json.dumps(raw))
        for load in (lambda: bundle_from_dict(raw), lambda: load_tariff_config(path)):
            with pytest.raises(ConfigError, match="^tariff config: expected a JSON object$"):
                load()
