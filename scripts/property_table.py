#!/usr/bin/env python3
"""Recompute the full topology comparison: D, MPL, and bisection width for
the optimal circulants, their products with the 4-vertex complete graph,
tori, and hypercubes at sizes 32..1024, normalized against the torus, with
the cross-size ratio averages.

The rows measured are the published ones, `PROPERTY_TABLE` in
tests/reference_data.py, so this script needs a full checkout. The optimal
circulant jump sets there are the search results for each (n, k); reading
them spares hours of re-searching the large sizes (scripts/find_optima.py
re-derives the small ones on demand).

Runtime: 11.7-12.7 s on a 2-vCPU host (nproc 2) at the default 64 restarts,
most of it the bisection heuristic on n >= 512.
"""

import argparse
import sys
from pathlib import Path

from circnet.cli import parse_spec
from circnet.metrics import DEFAULT_RESTARTS, compute_metrics
from circnet.report import average_ratios, build_table, percent_increase, percent_reduction, to_csv

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_data import PROPERTY_TABLE  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--max-n", type=int, default=1024, help="largest size to include"
    )
    args = ap.parse_args()
    if args.restarts < 1:
        ap.error(f"--restarts must be >= 1, got {args.restarts}")

    tables = []
    for n, rows in PROPERTY_TABLE.items():
        if n > args.max_n:
            continue
        records = []
        for row in rows:
            m = compute_metrics(parse_spec(row.spec), restarts=args.restarts, seed=args.seed)
            records.append((row.label, m))
        table = build_table(records, "torus")
        tables.append(table)
        print(to_csv(table), end="")

    print()
    for label in ("oc-low", "oc-high", "product", "hypercube"):
        d_inv, mpl_inv, bw = average_ratios(tables, label)
        print(
            f"{label:>10}: mean D inverse ratio {float(d_inv):.2f} "
            f"({percent_reduction(d_inv):.0f}% smaller), "
            f"mean MPL inverse ratio {float(mpl_inv):.2f} "
            f"({percent_reduction(mpl_inv):.0f}% smaller), "
            f"mean BW ratio {float(bw):.2f} "
            f"({percent_increase(bw):.0f}% larger)"
        )


if __name__ == "__main__":
    main()
