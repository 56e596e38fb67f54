"""Acceptance suite.

Each test is one exit check; conftest prints a PASS/FAIL line per test.
Fast tier runs by default; multi-minute searches carry the `slow` marker
(select with `pytest -m slow`), and the hours-long search is `extended`.
"""

import itertools
import random

import pytest

import oracles
from circnet.cli import parse_spec
from circnet.combinatorics import colex_next, rank, space_size, unrank
from circnet.metrics import (
    bfs_distances,
    bisection_exact,
    bisection_heuristic,
    diameter_mpl,
)
from circnet.report import average_ratios, percent_reduction
from circnet.routing import path, route_table
from circnet.search import (
    RankRange,
    SearchConfig,
    count_space,
    partition_ranks,
    run_search,
    save_checkpoint,
    scan_range,
    search_optimal,
    write_results,
    _RangeState,
)
from circnet.topology import JumpSet, circulant
from circnet.traffic import evaluate, pattern_all_to_all
from reference_data import (
    HEADLINE_BW_INCREASE_OC_HIGH,
    HEADLINE_BW_INCREASE_OC_HIGH_QUOTED,
    HEADLINE_D_INV_OC_LOW,
    HEADLINE_D_INV_PRODUCT,
    HEADLINE_D_REDUCTION_OC_HIGH,
    HEADLINE_MPL_INV_OC_LOW,
    HEADLINE_MPL_INV_PRODUCT,
    HEADLINE_MPL_REDUCTION_OC_HIGH,
    KNOWN_OPTIMAL_JUMPS,
    PROPERTY_TABLE,
    analytic_hypercube_bw,
    analytic_torus_bw,
)


def property_row(n, k, label_prefix="oc"):
    for row in PROPERTY_TABLE.get(n, []):
        if row.k == k and row.label.startswith(label_prefix):
            return row
    return None


def check_search_case(n, k, config):
    """Shared check: published jump set among optima; metrics match the
    published row when one exists (MPL compared after 2-decimal rounding)."""
    records = search_optimal(n, k, config)
    assert records, (n, k)
    jumps = [rec.jumps.jumps for rec in records]
    assert KNOWN_OPTIMAL_JUMPS[(n, k)] in jumps, (n, k, jumps)
    row = property_row(n, k)
    if row is not None:
        m = records[0].metrics
        assert m.diameter == row.diameter, (n, k)
        assert abs(round(float(m.mpl), 2) - float(row.mpl)) <= 0.005, (n, k)
        assert m.bisection == row.bisection, (n, k, m.bisection)


# published optima, fast tier
@pytest.mark.parametrize(
    "n,k", [(32, 4), (32, 5), (64, 4), (64, 5), (64, 6), (128, 6), (128, 7)]
)
def test_known_optima_fast_tier(n, k):
    check_search_case(n, k, SearchConfig(workers=2))


# published optima, slow tier
@pytest.mark.slow
@pytest.mark.parametrize(
    "n,k", [(256, 6), (256, 7), (256, 8), (512, 8), (512, 9), (1024, 8)]
)
def test_known_optima_slow_tier(n, k):
    check_search_case(n, k, SearchConfig())


@pytest.mark.extended
def test_known_optima_extended_1024_10():
    check_search_case(1024, 10, SearchConfig())


# property-table reproduction for every row
@pytest.mark.parametrize("n", sorted(PROPERTY_TABLE))
def test_property_table_rows(n):
    for row in PROPERTY_TABLE[n]:
        t = parse_spec(row.spec)
        assert t.n == n
        diameter, _, mpl = diameter_mpl(t)
        assert diameter == row.diameter, row
        assert abs(round(float(mpl), 2) - float(row.mpl)) <= 0.005, row
        if row.label in ("torus", "hypercube"):
            if row.label == "torus":
                analytic = analytic_torus_bw(t.params["dims"])
            else:
                analytic = analytic_hypercube_bw(t.params["d"])
            assert analytic == row.bisection, row
            if n <= 32:
                bw = bisection_exact(t)
            else:
                bw = bisection_heuristic(t, restarts=64, seed=0)
            assert bw == analytic, row
        else:
            bw = bisection_heuristic(t, restarts=64, seed=0)
            if n <= 512:
                assert bw == row.bisection, (row, bw)
            else:
                assert bw <= row.bisection, (row, bw)


# the published circulant widths at n >= 128 are reached at every seed, not
# only at the seed the property table uses
@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "row",
    [
        row
        for n, rows in sorted(PROPERTY_TABLE.items())
        if n >= 128
        for row in rows
        if row.label in ("oc-low", "oc-high")
    ],
    ids=lambda row: row.spec,
)
def test_circulant_widths_at_several_seeds(row, seed):
    assert bisection_heuristic(parse_spec(row.spec), 64, seed) == row.bisection


# headline ratio averages from the printed table
def test_headline_low_degree_and_product_averages():
    tables = oracles.printed_tables()
    d_low, mpl_low, _ = average_ratios(tables, "oc-low")
    d_prod, mpl_prod, _ = average_ratios(tables, "product")
    assert abs(float(d_low) - HEADLINE_D_INV_OC_LOW) <= 0.01
    assert abs(float(d_prod) - HEADLINE_D_INV_PRODUCT) <= 0.01
    assert abs(float(mpl_low) - HEADLINE_MPL_INV_OC_LOW) <= 0.01
    assert abs(float(mpl_prod) - HEADLINE_MPL_INV_PRODUCT) <= 0.01


def test_headline_high_degree_reductions():
    tables = oracles.printed_tables()
    d_high, mpl_high, _ = average_ratios(tables, "oc-high")
    assert abs(percent_reduction(d_high) - HEADLINE_D_REDUCTION_OC_HIGH) <= 1.0
    assert abs(percent_reduction(mpl_high) - HEADLINE_MPL_REDUCTION_OC_HIGH) <= 1.0


def test_headline_bw_increase_oc_high():
    # The mean high-degree BW ratio of the printed table (exactly 3.3359375,
    # checked term by term in test_report) matches the table-supported 234%
    # headline, ratio 3.34, within +-0.01. The paper's quoted 235% (ratio 3.35)
    # is an erratum that no correct table can reach (see reference_data); it
    # must stay out of reach by more than the tolerance, or the erratum needs
    # another look.
    tables = oracles.printed_tables()
    _, _, bw_high = average_ratios(tables, "oc-high")
    target_ratio = 1.0 + HEADLINE_BW_INCREASE_OC_HIGH / 100.0
    assert abs(float(bw_high) - target_ratio) <= 0.01, (
        f"mean high-degree BW ratio from printed values is {float(bw_high):.7f} "
        f"({(float(bw_high) - 1) * 100:.1f}% increase), not {target_ratio} +- 0.01"
    )
    quoted_ratio = 1.0 + HEADLINE_BW_INCREASE_OC_HIGH_QUOTED / 100.0
    assert float(bw_high) < quoted_ratio - 0.01, (
        f"mean high-degree BW ratio from printed values is {float(bw_high):.7f}, "
        f"within 0.01 of the quoted erratum ratio {quoted_ratio}; re-examine it"
    )


# full agreement with the nested-loop enumeration oracle
def enumeration_oracle(n, k):
    r = k // 2
    fixed = (n // 2,) if k % 2 else ()
    best = None
    ties = []
    for combo in itertools.combinations(range(1, (n - 1) // 2 + 1), r):
        jumps = tuple(sorted(fixed + combo))
        profile = oracles.bfs_profile_oracle(n, jumps)
        if profile is None:
            continue
        if best is None or profile < best:
            best, ties = profile, [jumps]
        elif profile == best:
            ties.append(jumps)
    if n % 2:  # no strictly balanced bisection exists; keep all ties
        return sorted(ties)
    scored = [(bisection_exact(circulant(JumpSet(n, j)), limit=32), j) for j in ties]
    top = max(bw for bw, _ in scored)
    return sorted(j for bw, j in scored if bw == top)


def test_search_matches_enumeration_oracle():
    checked = 0
    for k in (3, 4, 5):
        for n in range(k + 1, 21):
            if k % 2 == 1 and n % 2 == 1:
                continue
            got = [
                rec.jumps.jumps
                for rec in search_optimal(n, k, SearchConfig(workers=1, reduced=False))
            ]
            assert got == enumeration_oracle(n, k), (n, k)
            checked += 1
    assert checked >= 30


# bit-identical results for any worker count and a forced resume
def test_determinism_worker_matrix_and_resume(tmp_path):
    outputs = {}
    for workers in (1, 2, 7, 16):
        records, _ = run_search(64, 6, SearchConfig(workers=workers))
        out = tmp_path / f"results_w{workers}.jsonl"
        write_results(out, records)
        outputs[workers] = out.read_bytes()
    assert len(set(outputs.values())) == 1

    total = count_space(64, 6)
    states = []
    for rng in partition_ranks(total, 4):
        mid = (rng.start + rng.end) // 2
        part = scan_range(64, 6, RankRange(rng.start, mid))
        states.append(
            _RangeState(
                rank_range=rng,
                cursor=mid,
                best_d=part.best_diameter,
                best_s=part.best_dist_sum,
                candidates=[js.jumps for js in part.candidates],
                elapsed=part.elapsed,
            )
        )
    ck = tmp_path / "ck.jsonl"
    save_checkpoint(ck, 64, 6, total, states)
    records, merged = run_search(64, 6, SearchConfig(workers=4, checkpoint_path=ck))
    assert merged.scanned == total
    resumed = tmp_path / "resumed.jsonl"
    write_results(resumed, records)
    assert resumed.read_bytes() == outputs[1]


# rank/unrank round-trip and co-lex ordering at scale
def test_rank_unrank_bulk_roundtrip():
    rnd = random.Random(2024)
    checked = 0
    while checked < 100_000:
        lo = rnd.randrange(1, 40)
        width = rnd.randrange(1, 24)
        hi = lo + width - 1
        r = rnd.randrange(0, min(width, 9) + 1)
        total = space_size(lo, hi, r)
        if total == 0:
            continue
        idx = rnd.randrange(total)
        c = unrank(idx, lo, hi, r)
        assert rank(c) == idx
        succ = colex_next(c)
        if idx + 1 < total:
            assert succ is not None and rank(succ) == idx + 1
        else:
            assert succ is None
        checked += 1
    assert checked == 100_000


# routed paths equal BFS distances, loop-free, exhaustively
@pytest.mark.parametrize(
    "spec", ["circulant:256:1,9,74,103", "torus:8,8,4"]
)
def test_routing_shortest_paths_exhaustive(spec):
    t = parse_spec(spec)
    table = route_table(t)
    for s in range(t.n):
        dist = bfs_distances(t, s)
        for d in range(t.n):
            seq = path(table, s, d)
            assert len(seq) - 1 == dist[d], (spec, s, d)
            assert len(set(seq)) == len(seq), (spec, s, d)


# flow conservation and the all-to-all mean-hops == MPL identity
@pytest.mark.parametrize(
    "spec",
    [
        "circulant:32:1,7",
        "torus:8,4",
        "hypercube:5",
        "product:ring:8*complete:4",
        "circulant:64:1,4,25",
    ],
)
def test_traffic_conservation_and_mpl_tieback(spec):
    t = parse_spec(spec)
    rep = evaluate(t, route_table(t), pattern_all_to_all(t.n))
    assert sum(rep.loads.values()) == rep.weighted_hops
    _, _, mpl = diameter_mpl(t)
    assert rep.mean_hops == mpl


# sustained scan rate on one core
def test_scan_throughput_floor():
    n, k = 64, 6
    total = count_space(n, k, reduced=False)
    assert total == 4495
    best_rate = 0.0
    for _ in range(3):
        res = scan_range(n, k, RankRange(0, total), reduced=False)
        best_rate = max(best_rate, res.scanned / res.elapsed)
    assert best_rate >= 10_000, f"scan rate {best_rate:.0f}/s below floor"
