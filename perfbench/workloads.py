"""Job lists and output checks of the three benchmark workloads.

A job is one call into the public circnet API. A workload is an ordered list
of jobs; one pass runs them in order with a fresh context dict, through which
later jobs of the pass consume what earlier ones produced (checkpoint bytes,
the metrics records behind the ratio table, routing tables). Jobs look up
every circnet function as a module attribute at call time, so the traced run
can wrap those attributes. Checks run outside the timed region and raise
CheckFailed on any mismatch.

The seed is the only input that varies: it feeds SearchConfig.seed, the
compute_metrics seed and the random-pairs seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from circnet import cli, metrics, report, routing, search, traffic
from circnet.combinatorics import successor_inplace
from circnet.report import TableEntry
from circnet.search import RankRange, SearchConfig, count_space, scan_range, write_results
from circnet.topology import circulant, jump_space

# Bound at import, before any wrapping, so checks never open trace spans.
from circnet.metrics import diameter_mpl
from circnet.report import average_ratios, build_table

from reference_data import KNOWN_OPTIMAL_JUMPS, PROPERTY_TABLE

# Odd orders only: no balanced bisection exists, so these runs are pure scan.
SCAN_SPACES = ((257, 6), (255, 6), (127, 8))
CHECKPOINT_EVERY = 50_000

# (diameter, distance sum, tie count, sha256 of the write_results bytes) of
# each scan space. Computed once with run_search and cross-checked against a
# single-process full-space scan_range; every traced scan run repeats that
# cross-check.
SCAN_EXPECTED = {
    (257, 6): (6, 1092, 128, "2e9eed321346a79c46fae7ae707d9dc1b8e4c654b697e873c5d3dd5e93b9f280"),
    (255, 6): (6, 1078, 64, "1805a0d746fe82f7ca55907b57572a9bdbaa02ca9f02f3c2dbf8daa69349025f"),
    (127, 8): (4, 342, 315, "e2bc5e8c4d752f14ecc7a2b94a16f9ac5a73ecdd397fbc0b9a9fea0a2653e8bf"),
}

TABLE_SIZES = (32, 128)
# Heuristic restarts at n = 128, both in the search's bisection filter and in
# compute_metrics. The library default of 64 makes one pass of this workload
# take about 25 s; at 16 a 30 s run holds about three passes, and seeds 0-39
# all still meet every published width.
TABLE_RESTARTS = 16
TABLE_LABELS = ("torus", "oc-low", "product", "hypercube")

# The n = 512 rows rather than n = 1024: a pass at 1024 (4n(n-1) flows routed
# in Python) takes about 20 s, so a 30 s run held one or two samples per job;
# at 512 a pass takes about 4 s.
TRAFFIC_SIZE = 512
TRAFFIC_LABELS = ("oc-high", "torus")
# All-to-all max link load under the committed routing schemes.
ALL2ALL_MAX_LOAD = {"oc-high": 268, "torus": 640}


class CheckFailed(AssertionError):
    """A job's output differs from what it must be."""


@dataclass(frozen=True)
class Job:
    name: str
    stage: str  # the stage time this job adds to: search, metrics, report, route, all2all, random
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], None]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def build(workload: str, seed: int, workers: int, tmp: Path) -> list[Job]:
    """The job list of one workload; `tmp` holds checkpoints and results files."""
    if workload == "scan":
        return _scan_jobs(seed, workers, tmp)
    if workload == "table":
        return _table_jobs(seed, workers)
    if workload == "traffic":
        return _traffic_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def new_pass() -> dict:
    return {"widths": 0, "width_hits": 0}


def _row(n: int, label: str):
    return next(row for row in PROPERTY_TABLE[n] if row.label == label)


# --- scan -------------------------------------------------------------------


def _scan_jobs(seed: int, workers: int, tmp: Path) -> list[Job]:
    remeasured: dict = {}  # JumpSet -> (diameter, dist_sum), measured once per run
    checkpoint = tmp / "scan-127-8.ckpt"

    def config(**extra) -> SearchConfig:
        return SearchConfig(workers=workers, seed=seed, **extra)

    def check(n: int, k: int, keep: str | None = None, same_as: str | None = None):
        def check_search(ctx: dict, out) -> None:
            records, merged = out
            diameter, dist_sum, ties, digest = SCAN_EXPECTED[(n, k)]
            expect(merged.scanned == count_space(n, k), f"({n},{k}) scanned {merged.scanned}")
            got = (merged.best_diameter, merged.best_dist_sum, len(merged.candidates), len(records))
            expect(got == (diameter, dist_sum, ties, ties), f"({n},{k}) optimum {got}")
            for rec in records:
                if rec.jumps not in remeasured:
                    d, s, _ = diameter_mpl(circulant(rec.jumps))
                    remeasured[rec.jumps] = (d, s)
                expect(
                    remeasured[rec.jumps] == (rec.metrics.diameter, rec.metrics.dist_sum),
                    f"record {rec.jumps.jumps} does not re-measure",
                )
            data = results_bytes(records, tmp)
            expect(hashlib.sha256(data).hexdigest() == digest, f"({n},{k}) results bytes changed")
            if keep:
                ctx[keep] = data
            if same_as:
                expect(data == ctx.get(same_as), "resumed results differ from the checkpointed run")

        return check_search

    def fresh_checkpointed(ctx: dict):
        checkpoint.unlink(missing_ok=True)
        return search.run_search(
            127, 8, config(checkpoint_path=checkpoint, checkpoint_every=CHECKPOINT_EVERY)
        )

    def resume(ctx: dict):
        expect("checkpointed" in ctx, "no finished checkpoint from this pass")
        return search.run_search(
            127, 8, config(checkpoint_path=checkpoint, checkpoint_every=CHECKPOINT_EVERY)
        )

    jobs = [
        Job(f"search {n},{k}", "search",
            lambda ctx, n=n, k=k: search.run_search(n, k, config()), check(n, k))
        for n, k in SCAN_SPACES[:2]
    ]
    jobs.append(Job("search 127,8 checkpointed", "search", fresh_checkpointed,
                    check(127, 8, keep="checkpointed")))
    jobs.append(Job("resume 127,8", "search", resume, check(127, 8, same_as="checkpointed")))
    return jobs


def results_bytes(records, tmp: Path) -> bytes:
    path = tmp / "results.jsonl"
    write_results(path, records)
    return path.read_bytes()


def kernel_probes() -> dict[str, float]:
    """Single-process kernel rates over the scan spaces.

    Returns successor steps per second over the (127,8) space, scan_range
    graphs per second on one core, and the total single-core scan time. The
    scans re-derive the stored optimum and tie count of every space.
    """
    plan = jump_space(127, 8)
    elems = list(range(plan.lo, plan.lo + plan.r))
    steps = 0
    t0 = time.perf_counter()
    while successor_inplace(elems, plan.lo, plan.hi):
        steps += 1
    walk_s = time.perf_counter() - t0
    expect(steps == plan.size - 1, f"successor walk took {steps} steps, not {plan.size - 1}")

    scanned = 0
    scan_s = 0.0
    for n, k in SCAN_SPACES:
        total = count_space(n, k)
        t0 = time.perf_counter()
        res = scan_range(n, k, RankRange(0, total))
        scan_s += time.perf_counter() - t0
        scanned += res.scanned
        diameter, dist_sum, ties, _ = SCAN_EXPECTED[(n, k)]
        got = (res.best_diameter, res.best_dist_sum, len(res.candidates))
        expect(got == (diameter, dist_sum, ties), f"scan_range ({n},{k}) gives {got}")
    return {
        "successor_per_s": steps / walk_s,
        "scan_graphs_per_s": scanned / scan_s,
        "single_core_scan_s": scan_s,
    }


# --- table ------------------------------------------------------------------


def _check_row(ctx: dict, n: int, label: str, m) -> None:
    """D, MPL (two decimals, as published) and BW against the published row."""
    row = _row(n, label)
    ctx["widths"] += 1
    if m.bisection == row.bisection:
        ctx["width_hits"] += 1
    got = (m.diameter, f"{float(m.mpl):.2f}", m.bisection)
    expect(got == (row.diameter, row.mpl_2dp, row.bisection),
           f"{row.spec}: (D, MPL, BW) = {got}, published {(row.diameter, row.mpl_2dp, row.bisection)}")
    ctx[(n, label)] = m


def _table_jobs(seed: int, workers: int) -> list[Job]:
    def check_optimum(n: int, k: int):
        def check(ctx: dict, out) -> None:
            records, _ = out
            published = KNOWN_OPTIMAL_JUMPS[(n, k)]
            found = {rec.jumps.jumps: rec for rec in records}
            expect(published in found, f"({n},{k}) optima {sorted(found)} miss {published}")
            _check_row(ctx, n, "oc-low", found[published].metrics)

        return check

    def check_metrics(n: int, label: str):
        return lambda ctx, m: _check_row(ctx, n, label, m)

    jobs = []
    for n in TABLE_SIZES:
        k = _row(n, "oc-low").k
        jobs.append(Job(
            f"search {n},{k}", "search",
            lambda ctx, n=n, k=k: search.run_search(
                n, k, SearchConfig(workers=workers, seed=seed, restarts=TABLE_RESTARTS)
            ),
            check_optimum(n, k),
        ))
        for label in ("torus", "product", "hypercube"):
            spec = _row(n, label).spec
            jobs.append(Job(
                f"metrics {spec}", "metrics",
                lambda ctx, spec=spec: metrics.compute_metrics(
                    cli.parse_spec(spec), restarts=TABLE_RESTARTS, seed=seed
                ),
                check_metrics(n, label),
            ))
    jobs.append(Job("report", "report", _report, _check_report))
    return jobs


def _report(ctx: dict):
    tables = [
        report.build_table([(label, ctx[(n, label)]) for label in TABLE_LABELS], "torus")
        for n in TABLE_SIZES
    ]
    return tables, [report.average_ratios(tables, label) for label in TABLE_LABELS[1:]]


def _two_decimals(ratios) -> tuple[str, ...]:
    return tuple(f"{float(x):.2f}" for x in ratios)


def _check_report(ctx: dict, out) -> None:
    """Ratio rows and averages equal those built from the published rows.

    D and BW ratios are exact; MPL ratios match at the two decimals the
    published MPLs carry.
    """
    tables, averages = out
    published = []
    for n in TABLE_SIZES:
        rows = [(label, _row(n, label)) for label in TABLE_LABELS]
        entries = [(label, TableEntry(n, r.k, r.diameter, r.mpl, r.bisection)) for label, r in rows]
        published.append(build_table(entries, "torus"))
    for got_rows, want_rows in zip(tables, published):
        expect(len(got_rows) == len(want_rows), "ratio table has the wrong rows")
        for got, want in zip(got_rows, want_rows):
            expect(
                (got.label, got.d_inv, got.bw_ratio) == (want.label, want.d_inv, want.bw_ratio)
                and _two_decimals([got.mpl_inv]) == _two_decimals([want.mpl_inv]),
                f"ratio row {got.n} {got.label} differs from the published one",
            )
    for label, got in zip(TABLE_LABELS[1:], averages):
        want = average_ratios(published, label)
        expect(
            (got[0], got[2]) == (want[0], want[2]) and _two_decimals(got) == _two_decimals(want),
            f"average ratios of {label} differ from the published ones",
        )


# --- traffic ----------------------------------------------------------------


def _traffic_jobs(seed: int) -> list[Job]:
    measured: dict = {}  # label -> diameter_mpl of its topology, once per run

    def distances(label: str, t) -> tuple:
        if label not in measured:
            measured[label] = diameter_mpl(t)
        return measured[label]

    jobs = []
    for label in TRAFFIC_LABELS:
        spec = _row(TRAFFIC_SIZE, label).spec

        def route(ctx: dict, spec=spec):
            t = cli.parse_spec(spec)
            return t, routing.route_table(t)

        def check_route(ctx: dict, out, label=label) -> None:
            t, table = out
            expect(table.n == t.n == TRAFFIC_SIZE, f"{label}: table for n={table.n}")
            expect(all(table.rows[v][v] == v for v in range(t.n)), f"{label}: bad diagonal")
            ctx[label] = out

        def all2all(ctx: dict, label=label):
            t, table = ctx[label]
            return traffic.evaluate(t, table, traffic.pattern_all_to_all(t.n))

        def check_all2all(ctx: dict, rep, label=label) -> None:
            t, _ = ctx[label]
            diameter, _, mpl = distances(label, t)
            _check_loads(t, rep, label, diameter)
            expect(rep.mean_hops == mpl, f"{label}: all-to-all mean hops {rep.mean_hops} != MPL")
            expect(rep.max_load == ALL2ALL_MAX_LOAD[label], f"{label}: all-to-all max load {rep.max_load}")

        def random_pairs(ctx: dict, label=label):
            t, table = ctx[label]
            pattern = traffic.pattern_random_pairs(t.n, t.n * (t.n - 1), seed)
            return traffic.evaluate(t, table, pattern)

        def check_random(ctx: dict, rep, label=label) -> None:
            t, _ = ctx[label]
            _check_loads(t, rep, label, distances(label, t)[0])

        jobs += [
            Job(f"route {spec}", "route", route, check_route),
            Job(f"all2all {spec}", "all2all", all2all, check_all2all),
            Job(f"random {spec}", "random", random_pairs, check_random),
        ]
    return jobs


def _check_loads(t, rep, label: str, diameter: int) -> None:
    """Identities every pattern of n(n-1) unit flows obeys, whatever its seed."""
    flows = t.n * (t.n - 1)
    directed_links = sum(len(nbrs) for nbrs in t.adjacency)
    expect(rep.total_demand == flows, f"{label}: total demand {rep.total_demand} != {flows}")
    expect(sum(rep.loads.values()) == rep.weighted_hops, f"{label}: loads do not sum to weighted hops")
    expect(all(v in t.adjacency[u] for u, v in rep.loads), f"{label}: load on a missing link")
    expect(flows <= rep.weighted_hops <= diameter * flows, f"{label}: weighted hops out of range")
    expect(rep.mean_load == Fraction(rep.weighted_hops, directed_links), f"{label}: mean load")
    expect(rep.max_load * directed_links >= rep.weighted_hops, f"{label}: max load below mean")
