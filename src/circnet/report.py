"""Comparison tables and ratio summaries against a torus baseline.

Diameter and MPL ratios are inverted (baseline over topology) so that bigger
is always better; bisection keeps the direct topology-over-baseline ratio.
Ratios are exact rationals; only rendering rounds to two decimals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol, Sequence


class MetricsLike(Protocol):
    n: int
    degree: int
    diameter: int

    @property
    def mpl(self) -> Fraction: ...

    bisection: int | None


@dataclass(frozen=True)
class TableEntry:
    """Minimal metrics carrier, for rows quoted from printed tables."""

    n: int
    degree: int
    diameter: int
    mpl: Fraction
    bisection: int


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    k: int
    label: str
    diameter: int
    mpl: Fraction
    bisection: int
    d_inv: Fraction  # D_baseline / D
    mpl_inv: Fraction  # MPL_baseline / MPL
    bw_ratio: Fraction  # BW / BW_baseline


def build_table(
    records: Sequence[tuple[str, MetricsLike]], baseline_label: str
) -> list[ComparisonRow]:
    """One ComparisonRow per record, ratios against the baseline row.

    All records must share a vertex count; output is sorted by label, so the
    input order never matters.
    """
    by_label = dict(records)
    if len(by_label) != len(records):
        raise ValueError("duplicate labels")
    if baseline_label not in by_label:
        raise ValueError(f"baseline {baseline_label!r} missing from records")
    sizes = {m.n for _, m in records}
    if len(sizes) != 1:
        raise ValueError(f"records mix vertex counts: {sorted(sizes)}")
    base = by_label[baseline_label]
    if base.bisection is None:
        raise ValueError("baseline has no bisection width")
    rows = []
    for label, m in records:
        if m.bisection is None:
            raise ValueError(f"record {label!r} has no bisection width")
        rows.append(
            ComparisonRow(
                n=m.n,
                k=m.degree,
                label=label,
                diameter=m.diameter,
                mpl=Fraction(m.mpl),
                bisection=m.bisection,
                d_inv=Fraction(base.diameter, m.diameter),
                mpl_inv=Fraction(base.mpl) / Fraction(m.mpl),
                bw_ratio=Fraction(m.bisection, base.bisection),
            )
        )
    rows.sort(key=lambda r: r.label)
    return rows


def average_ratios(
    tables: Sequence[Sequence[ComparisonRow]], label: str
) -> tuple[Fraction, Fraction, Fraction]:
    """Arithmetic mean of (d_inv, mpl_inv, bw_ratio) for one topology label
    across a family of same-label tables (one per graph size)."""
    if not tables:
        raise ValueError("no tables to average")
    picked = []
    for table in tables:
        matches = [r for r in table if r.label == label]
        if not matches:
            raise ValueError(f"label {label!r} missing from a table")
        picked.append(matches[0])
    m = len(picked)
    return (
        sum((r.d_inv for r in picked), Fraction(0)) / m,
        sum((r.mpl_inv for r in picked), Fraction(0)) / m,
        sum((r.bw_ratio for r in picked), Fraction(0)) / m,
    )


def percent_increase(ratio: Fraction) -> float:
    """How much larger than baseline, in percent: ratio 3.35 -> 235%."""
    return (float(ratio) - 1.0) * 100.0


def percent_reduction(ratio: Fraction) -> float:
    """How much smaller than baseline given an inverse ratio: 1.58 -> ~37%."""
    return (1.0 - 1.0 / float(ratio)) * 100.0


CSV_HEADER = "n,k,label,D,MPL,BW,d_inv,mpl_inv,bw_ratio"


def _cells(r: ComparisonRow) -> tuple:
    """One row's values in CSV_HEADER order; the ratios and MPL are Fractions."""
    return (r.n, r.k, r.label, r.diameter, r.mpl, r.bisection, r.d_inv, r.mpl_inv, r.bw_ratio)


def to_csv(rows: Sequence[ComparisonRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(f"{float(x):.2f}" if isinstance(x, Fraction) else str(x) for x in _cells(r))
        )
    return "\n".join(lines) + "\n"


def to_json(rows: Sequence[ComparisonRow]) -> str:
    keys = CSV_HEADER.split(",")
    return json.dumps(
        [
            {
                k: round(float(x), 2) if isinstance(x, Fraction) else x
                for k, x in zip(keys, _cells(r))
            }
            for r in rows
        ],
        sort_keys=True,
    )
