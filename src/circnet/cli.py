"""Command-line interface.

Subcommands: search (optimal circulants for a size/degree), metrics (D, MPL,
BW of one topology), compare (ratio table against a baseline), traffic
(flow-level load evaluation), generate (edge-list export), route (routing
table export).

Topology spec grammar:

    circulant:<n>:<j1,j2,...> | ring:<n> | complete:<n> | hypercube:<d>
    | torus:<d1,d2,...> | product:<specA>*<specB>[*<specC>...]

Exit codes: 0 success, 2 usage or parse error, 3 infeasible input,
4 corrupt checkpoint. Timing lives under its own output key so result
payloads can be compared byte-for-byte across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from . import metrics as metrics_mod
from . import report as report_mod
from . import traffic as traffic_mod
from .routing import route_table
from .search import (
    CheckpointError,
    SearchConfig,
    count_scan_ranks,
    record_to_dict,
    run_search,
    write_results,
)
from .topology import (
    InfeasibleDegreeError,
    JumpSet,
    Topology,
    cartesian_product,
    circulant,
    complete,
    hypercube,
    ring,
    torus,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_CHECKPOINT = 4


class SpecError(ValueError):
    """Topology or pattern spec string does not parse."""


def parse_spec(spec: str) -> Topology:
    """Build a topology from its spec string."""
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    try:
        if head == "circulant":
            n_text, _, jumps_text = rest.partition(":")
            n = int(n_text)
            jumps = tuple(int(x) for x in jumps_text.split(",") if x)
            if not jumps:
                raise SpecError(f"no jumps in {spec!r}")
            return circulant(JumpSet(n, jumps))
        if head == "ring":
            return ring(int(rest))
        if head == "complete":
            return complete(int(rest))
        if head == "hypercube":
            return hypercube(int(rest))
        if head == "torus":
            dims = [int(x) for x in rest.split(",") if x]
            if not dims:
                raise SpecError(f"no dimensions in {spec!r}")
            return torus(dims)
        if head == "product":
            parts = rest.split("*")
            if len(parts) < 2:
                raise SpecError(f"product needs at least two factors: {spec!r}")
            t = parse_spec(parts[0])
            for part in parts[1:]:
                t = cartesian_product(t, parse_spec(part))
            return t
    except SpecError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecError(f"bad topology spec {spec!r}: {exc}") from exc
    raise SpecError(f"unknown topology kind {head!r}")


def _spec_from_descriptor(desc: dict[str, Any]) -> str:
    kind = desc["kind"]
    params = desc["params"]
    if kind == "circulant":
        return f"circulant:{params['n']}:{','.join(str(j) for j in params['jumps'])}"
    if kind in ("ring", "complete"):
        return f"{kind}:{params['n']}"
    if kind == "hypercube":
        return f"hypercube:{params['d']}"
    if kind == "torus":
        return f"torus:{','.join(str(d) for d in params['dims'])}"
    if kind == "product":
        # a nested product's operands join the flat `*` list, which is the
        # only form parse_spec reads
        operands = (_spec_from_descriptor(f).removeprefix("product:") for f in params["factors"])
        return "product:" + "*".join(operands)
    raise SpecError(f"descriptor kind {kind!r} has no spec form")


def format_spec(t: Topology) -> str:
    """Canonical spec string of a constructed topology."""
    return _spec_from_descriptor(t.descriptor())


def parse_pattern(t: Topology, pattern: str, seed: int) -> traffic_mod.TrafficPattern:
    """`all2all`, `random:<pairs>`, or `shift:<distance>`."""
    head, _, rest = pattern.partition(":")
    try:
        if head in ("all2all", "all-to-all"):
            return traffic_mod.pattern_all_to_all(t.n)
        if head == "random":
            return traffic_mod.pattern_random_pairs(t.n, int(rest), seed)
        if head == "shift":
            return traffic_mod.pattern_ring_shift(t.n, int(rest))
    except (ValueError, TypeError) as exc:
        raise SpecError(f"bad pattern spec {pattern!r}: {exc}") from exc
    raise SpecError(f"unknown pattern kind {head!r}")


def _write(text: str, out: str | None) -> None:
    """Write text to the file `out`, or to stdout when no file is named."""
    if out:
        Path(out).write_text(text)
    else:
        print(text, end="")


def cmd_search(args: argparse.Namespace) -> int:
    config = SearchConfig(
        workers=args.workers,
        reduced=not args.full_space,
        exact_bisection_limit=args.exact_bisection_limit,
        restarts=args.restarts,
        seed=args.seed,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
    )
    t0 = time.perf_counter()
    records, merged = run_search(args.n, args.k, config)
    wall = time.perf_counter() - t0
    if args.out:
        write_results(args.out, records)
    # Ranks walked per second of scan time, not the requested space's size
    # (`scanned`); None when no scan time was recorded (a resumed finished
    # checkpoint).
    ranks = count_scan_ranks(args.n, args.k)
    rate = ranks / merged.elapsed if merged.elapsed > 0 else None
    payload = {
        "config": {
            "subcommand": "search",
            "n": args.n,
            "k": args.k,
            "workers": config.resolved_workers(),
            "reduced": config.reduced,
            "exact_bisection_limit": config.exact_bisection_limit,
            "restarts": config.restarts,
            "seed": config.seed,
            "checkpoint": args.checkpoint,
            "checkpoint_every": args.checkpoint_every,
            "out": args.out,
        },
        "results": [record_to_dict(r) for r in records],
        "scanned": merged.scanned,
        "timing": {"wall_s": wall, "scan_rate_per_core": rate},
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    shown = "n/a" if rate is None else f"{rate:.0f} graphs/s/core"
    print(f"scan rate: {shown}", file=sys.stderr)
    return EXIT_OK


def cmd_metrics(args: argparse.Namespace) -> int:
    t = parse_spec(args.spec)
    partition = None
    if args.partition:
        partition = metrics_mod.parse_partition(Path(args.partition).read_text())
    t0 = time.perf_counter()
    m = metrics_mod.compute_metrics(
        t,
        exact_limit=args.exact_bisection_limit,
        restarts=args.restarts,
        seed=args.seed,
        partition=partition,
    )
    payload = {
        "config": {
            "subcommand": "metrics",
            "spec": format_spec(t),
            "exact_bisection_limit": args.exact_bisection_limit,
            "restarts": args.restarts,
            "seed": args.seed,
        },
        "result": m.to_dict(),
        "timing": {"wall_s": time.perf_counter() - t0},
    }
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    topologies = [(spec, parse_spec(spec)) for spec in args.specs]
    baseline = args.baseline
    if baseline not in dict(topologies):
        topologies.insert(0, (baseline, parse_spec(baseline)))
    records = []
    for label, t in topologies:
        m = metrics_mod.compute_metrics(
            t,
            exact_limit=args.exact_bisection_limit,
            restarts=args.restarts,
            seed=args.seed,
        )
        records.append((label, m))
    rows = report_mod.build_table(records, baseline)
    if args.format == "json":
        print(report_mod.to_json(rows))
    else:
        print(report_mod.to_csv(rows), end="")
    return EXIT_OK


def cmd_traffic(args: argparse.Namespace) -> int:
    t = parse_spec(args.spec)
    pattern = parse_pattern(t, args.pattern, args.seed)
    table = route_table(t)
    t0 = time.perf_counter()
    rep = traffic_mod.evaluate(t, table, pattern)
    if args.links_csv:
        Path(args.links_csv).write_text(rep.links_csv())
    payload = {
        "config": {
            "subcommand": "traffic",
            "spec": format_spec(t),
            "pattern": args.pattern,
            "seed": args.seed,
            "routing": table.scheme,
        },
        "result": rep.to_dict(),
        "timing": {"wall_s": time.perf_counter() - t0},
    }
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    t = parse_spec(args.spec)
    _write(t.edge_list_text(), args.out)
    if args.descriptor:
        print(json.dumps(t.descriptor(), sort_keys=True), file=sys.stderr)
    return EXIT_OK


def cmd_route(args: argparse.Namespace) -> int:
    t = parse_spec(args.spec)
    _write(route_table(t).to_json() + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circnet",
        description="Circulant interconnect topology search and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bisection_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--exact-bisection-limit", type=int, default=metrics_mod.DEFAULT_EXACT_LIMIT)
        p.add_argument("--restarts", type=int, default=metrics_mod.DEFAULT_RESTARTS)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search", help="find optimal circulants for (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--full-space",
        action="store_true",
        help="for a power of two, return every optimal jump set, not only those with "
        "jump 1; the scan walks the same ranks either way",
    )
    p.add_argument("--out", help="results file, one JSON record per line")
    p.add_argument("--checkpoint", help="checkpoint file; resumed when present")
    p.add_argument("--checkpoint-every", type=int, default=SearchConfig.checkpoint_every)
    add_bisection_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("metrics", help="diameter, MPL, bisection of one topology")
    p.add_argument("spec")
    p.add_argument("--partition", help="two-line partition file replacing the heuristic")
    p.add_argument("--out")
    add_bisection_flags(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare", help="ratio table of topologies against a baseline")
    p.add_argument("specs", nargs="+")
    p.add_argument("--baseline", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_bisection_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("traffic", help="flow-level load evaluation")
    p.add_argument("spec")
    p.add_argument("--pattern", required=True, help="all2all | random:<pairs> | shift:<k>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--links-csv", help="write per-link loads as CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser("generate", help="export an edge list")
    p.add_argument("spec")
    p.add_argument("--out")
    p.add_argument("--descriptor", action="store_true", help="print the JSON descriptor to stderr")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("route", help="export a routing table as JSON")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(func=cmd_route)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (InfeasibleDegreeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
