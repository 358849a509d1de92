import pytest

from capsub import TariffBook, TariffRegime, default_tariff_bundle


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
