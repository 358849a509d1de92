"""Machine-readable study tables: cost ratios, OLS fits and revenue totals.

All emitted files are deterministic given the study inputs. Floats are
written with full round-trip precision (repr), so identical studies produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data_model import CostBreakdown
from .errors import DomainError


def _fmt(value: float) -> str:
    return repr(float(value))


def relative_cost_curve(costs_a: Sequence[float], costs_b: Sequence[float]) -> np.ndarray:
    """Per-consumer cost ratios a/b, sorted ascending (rank = position + 1)."""
    a = np.asarray(costs_a, dtype=np.float64)
    b = np.asarray(costs_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError("cost vectors must be 1-D and of equal length")
    if np.any(b <= 0.0):
        raise DomainError("denominator costs must all be > 0")
    return np.sort(a / b)


def ols_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Ordinary least squares line; returns (slope, intercept)."""
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.size < 2:
        raise DomainError("an OLS line needs at least two points")
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class RevenueRow:
    year_label: str
    regime: str
    policy: str
    monetary_eur: float
    discomfort_eur: float


def aggregate_revenue_table(
        annual_breakdowns: Iterable[tuple[str, str, str, str, CostBreakdown]],
) -> list[RevenueRow]:
    """Sum per-consumer breakdowns into (year, regime, policy) totals.

    Input tuples are (consumer_id, year_label, regime, policy, breakdown), the
    rows of ``write_annual_costs_csv``; the monetary column corresponds to the
    grid operator's income, the discomfort column to the non-monetary welfare
    loss stacked on top.
    """
    totals: dict[tuple[str, str, str], list[float]] = {}
    for _consumer, year, regime, policy, breakdown in annual_breakdowns:
        entry = totals.setdefault((year, regime, policy), [0.0, 0.0])
        entry[0] += breakdown.total_monetary
        entry[1] += breakdown.discomfort
    return [
        RevenueRow(year, regime, policy, monetary, discomfort)
        for (year, regime, policy), (monetary, discomfort) in sorted(totals.items())
    ]


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def csv_field(text: str) -> str:
    """``text`` as csv.writer writes it as a field of a "\r\n"-terminated row.

    A field that holds a comma, a quote, "\r" or "\n" is quoted with its
    quotes doubled; with "\r\n" that covers a lone "\r", which the reader
    ends a row at. Plain text is returned as it is.
    """
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow([text])
        return buf.getvalue()[:-2]
    return text


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]],
                comments: Sequence[str] = ()) -> None:
    """Write ``# `` comment lines, the header and the rows with one ``write``.

    Fields are joined by commas and rows end in "\n". If the joined text shows
    a field that holds a quote, a "\r", or a comma or "\n" beyond the
    separators, the table is joined again with each field through ``csv_field``.
    """
    table = [header, *rows]
    body = "\n".join(map(",".join, table)) + "\n"
    if ('"' in body or "\r" in body or body.count("\n") != len(table)
            or body.count(",") != sum(map(len, table)) - len(table)):
        body = "".join(",".join(map(csv_field, row)) + "\n" for row in table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in comments) + body)


def write_fullloadhours_csv(rows: Iterable[tuple[str, str, float, float]],
                            path: str | Path) -> None:
    """Rows of (consumer_id, year_label, full_load_hours, load_factor)."""
    write_table(path, ["consumer_id", "year_label", "full_load_hours", "load_factor"],
                ((consumer_id, year, _fmt(flh), _fmt(lf)) for consumer_id, year, flh, lf in rows))


def write_relative_cost_csv(consumer_ids: Sequence[str], costs_a: Sequence[float],
                            costs_b: Sequence[float], path: str | Path,
                            label_a: str, label_b: str) -> None:
    """Sorted cost-ratio curve with consumer rank and the underlying costs."""
    a = np.asarray(costs_a, dtype=np.float64)
    b = np.asarray(costs_b, dtype=np.float64)
    ratios = relative_cost_curve(a, b)
    order = np.argsort(a / b, kind="stable")
    write_table(path, ["rank", "consumer_id", "cost_a_eur", "cost_b_eur", "ratio"],
                ((str(rank), consumer_ids[idx], _fmt(a[idx]), _fmt(b[idx]), _fmt(ratio))
                 for rank, (idx, ratio) in enumerate(zip(order.tolist(), ratios), start=1)),
                [f"ratio = {label_a} / {label_b}, sorted ascending"])


def write_aggregate_revenue_csv(rows: Sequence[RevenueRow], path: str | Path) -> None:
    write_table(path, ["year_label", "regime", "policy", "monetary_eur", "discomfort_eur"],
                ((row.year_label, row.regime, row.policy,
                  _fmt(row.monetary_eur), _fmt(row.discomfort_eur)) for row in rows),
                ["monetary_eur corresponds to DSO income; discomfort_eur is "
                 "the non-monetary welfare loss of cut load"])


def write_subscription_levels_csv(
        rows: Iterable[tuple[str, str, str, str, float]], path: str | Path) -> None:
    """Rows of (consumer_id, regime, policy, year_label, level_kw)."""
    write_table(path, ["consumer_id", "regime", "policy", "year_label", "level_kw"],
                ((consumer_id, regime, policy, year, _fmt(level))
                 for consumer_id, regime, policy, year, level in rows))


def write_annual_costs_csv(
        rows: Iterable[tuple[str, str, str, str, CostBreakdown]], path: str | Path) -> None:
    """Rows of (consumer_id, year_label, regime, policy, breakdown)."""
    write_table(path, ["consumer_id", "year_label", "regime", "policy",
                       "fixed_eur", "capacity_eur", "energy_eur", "excess_eur",
                       "discomfort_eur", "total_monetary_eur", "total_welfare_eur"],
                ((consumer_id, year, regime, policy,
                  _fmt(bd.fixed), _fmt(bd.capacity), _fmt(bd.energy_below),
                  _fmt(bd.excess), _fmt(bd.discomfort),
                  _fmt(bd.total_monetary), _fmt(bd.total_welfare))
                 for consumer_id, year, regime, policy, bd in rows))


def write_loadfactor_scatter_csv(consumer_ids: Sequence[str],
                                 load_factors: Sequence[float],
                                 cost_ratios: Sequence[float],
                                 path: str | Path, ratio_label: str) -> None:
    """(load_factor, cost_ratio) pairs with an OLS fit recorded in the header."""
    if len(load_factors) >= 2:
        slope, intercept = ols_fit(load_factors, cost_ratios)
        fit_note = f"ols_slope={_fmt(slope)} ols_intercept={_fmt(intercept)}"
    else:
        fit_note = "ols fit omitted: fewer than two consumers"
    write_table(path, ["consumer_id", "load_factor", "cost_ratio"],
                ((consumer_id, _fmt(lf), _fmt(ratio))
                 for consumer_id, lf, ratio in zip(consumer_ids, load_factors, cost_ratios)),
                [f"ratio = {ratio_label}", fit_note])
