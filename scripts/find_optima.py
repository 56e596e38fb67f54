#!/usr/bin/env python3
"""Run the exhaustive search over a grid of (n, k) pairs and print the
discovered optimal circulants with their metrics.

Examples:
    python scripts/find_optima.py                   # fast grid, sizes 16..128
    python scripts/find_optima.py --sizes 256 512 --degrees 6 8
    python scripts/find_optima.py --sizes 32 --degrees 4 5 --workers 4
"""

import argparse
import time

from circnet.metrics import DEFAULT_RESTARTS
from circnet.search import SearchConfig, run_search
from circnet.topology import InfeasibleDegreeError


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64, 128])
    ap.add_argument("--degrees", type=int, nargs="+", default=[4, 5, 6])
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    args = ap.parse_args()
    if args.restarts < 1:
        ap.error(f"--restarts must be >= 1, got {args.restarts}")

    print(f"{'n':>5} {'k':>3} {'jumps':<24} {'D':>3} {'MPL':>6} {'BW':>5} {'exact':>5} {'s':>7}")
    for n in args.sizes:
        for k in args.degrees:
            config = SearchConfig(workers=args.workers, restarts=args.restarts)
            t0 = time.perf_counter()
            try:
                records, merged = run_search(n, k, config)
            except InfeasibleDegreeError:
                continue
            dt = time.perf_counter() - t0
            for rec in records:
                m = rec.metrics
                jumps = ",".join(str(j) for j in rec.jumps.jumps)
                bw = "-" if m.bisection is None else m.bisection
                print(
                    f"{n:>5} {k:>3} {jumps:<24} {m.diameter:>3} {float(m.mpl):>6.2f} "
                    f"{bw:>5} {str(m.bisection_exact):>5} {dt:>7.2f}"
                )


if __name__ == "__main__":
    main()
