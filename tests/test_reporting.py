import numpy as np
import pytest

from capsub import (CostBreakdown, DomainError, aggregate_revenue_table, ols_fit,
                    relative_cost_curve)
from capsub.reporting import (write_aggregate_revenue_csv, write_fullloadhours_csv,
                              write_relative_cost_csv)


class TestRelativeCostCurve:
    def test_identical_vectors(self):
        ratios = relative_cost_curve([3.0, 4.0], [3.0, 4.0])
        assert np.allclose(ratios, 1.0)

    def test_uniform_scaling(self):
        b = np.array([2.0, 5.0, 9.0])
        ratios = relative_cost_curve(1.1 * b, b)
        assert ratios == pytest.approx([1.1, 1.1, 1.1], rel=1e-12)

    def test_sorted_ascending(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(1, 10, 50)
        b = rng.uniform(1, 10, 50)
        ratios = relative_cost_curve(a, b)
        assert np.all(np.diff(ratios) >= 0.0)

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(DomainError):
            relative_cost_curve([1.0], [0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            relative_cost_curve([1.0, 2.0], [1.0])


class TestOlsFit:
    def test_recovers_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        slope, intercept = ols_fit(x, 2.0 * x + 0.5)
        assert slope == pytest.approx(2.0, rel=1e-9)
        assert intercept == pytest.approx(0.5, rel=1e-9)


class TestAggregateRevenueTable:
    def test_single_consumer_row_equals_breakdown(self):
        bd = CostBreakdown(135.0, 67.5, 12.0, 3.0, 8.0)
        rows = aggregate_revenue_table([("2015", "static", "stoch", "c0", bd)])
        assert len(rows) == 1
        assert rows[0].monetary_eur == pytest.approx(bd.total_monetary)
        assert rows[0].discomfort_eur == pytest.approx(8.0)

    def test_sums_over_consumers(self):
        rng = np.random.default_rng(4)
        entries = []
        total = 0.0
        for i in range(30):
            bd = CostBreakdown(*rng.uniform(1, 100, 4), discomfort=float(rng.uniform(0, 10)))
            total += bd.total_monetary
            entries.append(("2015", "static", "stoch", f"c{i}", bd))
        rows = aggregate_revenue_table(entries)
        assert rows[0].monetary_eur == pytest.approx(total, rel=1e-6)

    def test_groups_by_year_regime_policy(self):
        bd = CostBreakdown(1.0, 1.0, 1.0)
        rows = aggregate_revenue_table([
            ("2015", "static", "stoch", "c0", bd),
            ("2016", "static", "stoch", "c0", bd),
            ("2015", "energy", "baseline", "c0", bd),
        ])
        keys = [(r.year_label, r.regime, r.policy) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 3


class TestWriters:
    def test_fullloadhours_starts_with_column_header(self, tmp_path):
        # the file holds no box-plot statistics, so it carries no whisker note
        path = tmp_path / "flh.csv"
        write_fullloadhours_csv([("c0", "2015", 2300.0, 0.26)], path)
        assert path.read_text() == \
            "consumer_id,year_label,full_load_hours,load_factor\nc0,2015,2300.0,0.26\n"

    def test_relative_cost_csv_deterministic(self, tmp_path):
        ids = ["a", "b", "c"]
        costs_a = [3.0, 1.0, 2.0]
        costs_b = [1.0, 1.0, 1.0]
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_relative_cost_csv(ids, costs_a, costs_b, p1, "x", "y")
        write_relative_cost_csv(ids, costs_a, costs_b, p2, "x", "y")
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[2].startswith("1,b")  # smallest ratio first

    def test_aggregate_revenue_roundtrip_values(self, tmp_path):
        from capsub import RevenueRow
        rows = [RevenueRow("2015", "static", "stoch", 1234.5, 6.25)]
        path = tmp_path / "rev.csv"
        write_aggregate_revenue_csv(rows, path)
        assert "2015,static,stoch,1234.5,6.25" in path.read_text()
