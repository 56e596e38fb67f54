"""Search pipeline tests.

The oracle enumerates every jump set by nested loops, measures each with an
independent queue BFS, and sorts by (diameter, distance sum, -bisection).
"""

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import Future
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

import oracles
from circnet import metrics, search
from circnet.cli import EXIT_CHECKPOINT, main
from circnet.combinatorics import binomial
from circnet.metrics import DEFAULT_RESTARTS, bisection_exact
from circnet.search import (
    CheckpointError,
    RankRange,
    SearchConfig,
    count_space,
    load_checkpoint,
    merge,
    partition_ranks,
    run_search,
    save_checkpoint,
    scan_range,
    search_optimal,
    write_results,
    _RangeState,
)
from circnet.topology import (
    JumpSet, adam_canonical, adam_multiply, circulant, jump_space, unit_image,
)


def all_jump_sets(n, k):
    """Every degree-k jump set on n vertices, by nested enumeration."""
    r = k // 2
    hi = (n - 1) // 2
    fixed = (n // 2,) if k % 2 else ()
    for combo in itertools.combinations(range(1, hi + 1), r):
        yield tuple(sorted(fixed + combo))


def enumeration_oracle(n, k, exact_limit=32):
    """Optimal jump sets by full enumeration: minimize (D, dist sum), then
    keep the maximum exact bisection width among the ties."""
    best = None
    ties = []
    for jumps in all_jump_sets(n, k):
        profile = oracles.bfs_profile_oracle(n, jumps)
        if profile is None:
            continue
        if best is None or profile < best:
            best = profile
            ties = [jumps]
        elif profile == best:
            ties.append(jumps)
    scored = [(bisection_exact(circulant(JumpSet(n, j)), exact_limit), j) for j in ties]
    top = max(bw for bw, _ in scored)
    return best, sorted(j for bw, j in scored if bw == top)


class TestCountSpace:
    def test_large_reduced(self):
        assert count_space(1024, 10, reduced=True) == 2_785_790_085

    def test_small_reduced(self):
        assert count_space(32, 4, reduced=True) == 14

    def test_small_unreduced(self):
        assert count_space(8, 4, reduced=False) == 3

    def test_consistent_with_plan(self):
        plan = jump_space(128, 7)
        assert count_space(128, 7) == binomial(plan.hi - plan.lo + 1, plan.r)


class TestPartitionRanks:
    def test_remainder_first(self):
        assert partition_ranks(10, 3) == [
            RankRange(0, 4), RankRange(4, 7), RankRange(7, 10),
        ]

    def test_unit_ranges(self):
        assert partition_ranks(6, 6) == [RankRange(i, i + 1) for i in range(6)]

    def test_more_workers_than_work(self):
        ranges = partition_ranks(5, 8)
        assert [r.size for r in ranges] == [1, 1, 1, 1, 1, 0, 0, 0]
        assert ranges[-1] == RankRange(5, 5)

    def test_tiles_the_space(self):
        for total, workers in [(0, 3), (17, 4), (100, 7), (3, 1)]:
            ranges = partition_ranks(total, workers)
            assert ranges[0].start == 0 and ranges[-1].end == total
            for a, b in zip(ranges, ranges[1:]):
                assert a.end == b.start

    def test_workers_positive(self):
        with pytest.raises(ValueError):
            partition_ranks(5, 0)


class TestScanRange:
    def test_full_scan_32_4(self):
        res = scan_range(32, 4, RankRange(0, count_space(32, 4)))
        assert (res.best_diameter, res.best_dist_sum) == (4, 84)
        assert any(js.jumps == (1, 7) for js in res.candidates)
        assert res.scanned == 14

    def test_small_space_brute(self):
        res = scan_range(8, 4, RankRange(0, 3), reduced=False)
        assert any(js.jumps == (1, 3) for js in res.candidates)
        assert res.best_diameter == 2

    def test_empty_range(self):
        res = scan_range(32, 4, RankRange(5, 5))
        assert res.scanned == 0 and res.candidates == () and res.best_diameter is None

    def test_disconnected_candidates_skipped_but_counted(self):
        # unreduced (8,4): {2,3} is counted, {1,2},{1,3},{2,3} all scanned
        res = scan_range(8, 4, RankRange(0, 3), reduced=False)
        assert res.scanned == 3

    def test_profiles_match_oracle(self):
        for jumps in all_jump_sets(20, 4):
            res = scan_range(20, 4, RankRange(0, count_space(20, 4, False)), reduced=False)
            break
        oracle_best = min(
            p for j in all_jump_sets(20, 4) if (p := oracles.bfs_profile_oracle(20, j))
        )
        assert (res.best_diameter, res.best_dist_sum) == oracle_best


@st.composite
def st_scan_case(draw):
    """(n, k, reduced, start, stop, cursor, end): a feasible space with
    n <= 64, a rank range [start, stop) of at most 300 ranks in it, a
    cursor the range has been scanned up to, and a chunk end."""
    n = draw(st.integers(4, 64))
    k = draw(st.integers(3, min(n - 1, 8)))
    assume(k % 2 == 0 or n % 2 == 0)
    reduced = draw(st.booleans())
    size = jump_space(n, k, reduced).size
    start = draw(st.integers(0, size))
    stop = draw(st.integers(start, min(size, start + 300)))
    cursor = draw(st.integers(start, stop))
    end = draw(st.integers(cursor, stop))
    return n, k, reduced, start, stop, cursor, end


def _scan_fields(st_):
    """Everything a `_RangeState` carries but its scan time."""
    return st_.rank_range, st_.cursor, st_.best_d, st_.best_s, st_.candidates


class TestGroupedScan:
    """`search._scan_chunk`, which walks whole co-lex groups and skips those
    its group floor rules out, against the per-candidate co-lex loop it
    replaced (`oracles.scan_chunk`)."""

    @given(st_scan_case())
    # r = 0: the fixed set (1, 8) is the space's one candidate
    @example((16, 3, True, 0, 1, 0, 1))
    # r = 1: one free jump in [2, 7] beside the fixed jump 1
    @example((16, 4, True, 0, 6, 2, 5))
    # r = 1: one free jump in [1, 14] beside the fixed jump 15
    @example((30, 3, True, 1, 14, 3, 11))
    # r = 3: the range, the resumed cursor and the chunk end all mid-group
    @example((40, 6, False, 17, 300, 24, 251))
    def test_matches_per_candidate_loop(self, case):
        n, k, reduced, start, stop, cursor, end = case
        plan = jump_space(n, k, reduced)
        fresh = _RangeState(RankRange(start, stop), start)
        # The incoming state is what the plain loop leaves at the cursor, as
        # a resume from a checkpoint written there would carry it.
        resumed = oracles.scan_chunk(n, plan, fresh, cursor)
        got = search._scan_chunk(n, plan, resumed, end)
        assert _scan_fields(got) == _scan_fields(oracles.scan_chunk(n, plan, resumed, end))
        got = search._scan_chunk(n, plan, got, stop)
        assert _scan_fields(got) == _scan_fields(oracles.scan_chunk(n, plan, fresh, stop))


class TestMerge:
    def test_partition_merge_equals_full_scan(self):
        total = count_space(64, 6)
        full = scan_range(64, 6, RankRange(0, total))
        for workers in (1, 2, 5, 16):
            parts = [scan_range(64, 6, r) for r in partition_ranks(total, workers)]
            merged = merge(parts)
            assert (merged.best_diameter, merged.best_dist_sum) == (
                full.best_diameter, full.best_dist_sum,
            )
            assert merged.candidates == full.candidates
            assert merged.scanned == total

    def test_identity(self):
        r = scan_range(32, 4, RankRange(0, 14))
        m = merge([r])
        assert (m.best_diameter, m.best_dist_sum, m.candidates) == (
            r.best_diameter, r.best_dist_sum, r.candidates,
        )

    def test_tie_union(self):
        a = scan_range(32, 4, RankRange(0, 7))
        b = scan_range(32, 4, RankRange(7, 14))
        m = merge([a, b])
        assert set(m.candidates) >= set(a.candidates) or set(m.candidates) >= set(
            b.candidates
        )

    def test_mixed_spaces_rejected(self):
        a = scan_range(32, 4, RankRange(0, 1))
        b = scan_range(64, 4, RankRange(0, 1))
        with pytest.raises(ValueError):
            merge([a, b])


class TestSearchOptimal:
    def test_32_4(self):
        recs = search_optimal(32, 4, SearchConfig(workers=1))
        jumps = [r.jumps.jumps for r in recs]
        assert (1, 7) in jumps
        m = recs[0].metrics
        assert m.diameter == 4 and round(float(m.mpl), 2) == 2.71 and m.bisection == 16

    def test_16_4(self):
        recs = search_optimal(16, 4, SearchConfig(workers=1))
        assert (1, 6) in [r.jumps.jumps for r in recs]

    def test_complete_graph_degree(self):
        recs = search_optimal(8, 7, SearchConfig(workers=1))
        assert [r.jumps.jumps for r in recs] == [(1, 2, 3, 4)]
        assert recs[0].metrics.diameter == 1

    def test_oracle_equivalence_small(self):
        for n, k in [(10, 4), (12, 4), (12, 5), (14, 4), (16, 5)]:
            recs = search_optimal(n, k, SearchConfig(workers=1, reduced=False))
            (want_d, want_s), want_jumps = enumeration_oracle(n, k)
            assert [r.jumps.jumps for r in recs] == want_jumps, (n, k)
            assert recs[0].metrics.diameter == want_d
            assert recs[0].metrics.dist_sum == want_s

    def test_reduction_soundness(self):
        for n, k in [(16, 4), (16, 5), (32, 4), (32, 5), (64, 4), (64, 5)]:
            total_r = count_space(n, k, True)
            total_f = count_space(n, k, False)
            red = merge([scan_range(n, k, r) for r in partition_ranks(total_r, 3)])
            full = merge(
                [scan_range(n, k, r, reduced=False) for r in partition_ranks(total_f, 3)]
            )
            assert (red.best_diameter, red.best_dist_sum) == (
                full.best_diameter, full.best_dist_sum,
            )
            reduced_set = {js.jumps for js in red.candidates}
            for js in full.candidates:
                odd = [s for s in js.jumps if s % 2 == 1]
                images = {
                    adam_multiply(js, pow(s, -1, n)).jumps for s in odd
                }
                assert images & reduced_set, (n, k, js.jumps)

    def test_progress_accounting(self):
        _, merged = run_search(64, 6, SearchConfig(workers=5, restarts=4))
        assert merged.scanned == count_space(64, 6)

    def test_infeasible_degree_propagates(self):
        with pytest.raises(Exception):
            search_optimal(9, 5)


class TestChunkingIndependence:
    def test_records_identical_for_any_chunking_and_workers(self, tmp_path):
        # (35, 6) has 106 ties; chunk sizes of 1 and 7 restart the bounded
        # kernel from many different running bests. (64, 7) fixes jumps 1
        # and 32, which the scan passes last, so the kernel's cached balls
        # of jumps[1:] end in them; chunks of 1 and 7 start inside runs of
        # candidates that share those balls. Four restarts keep its
        # bisections (n = 64) quick.
        for n, k, restarts, ties in ((35, 6, DEFAULT_RESTARTS, 106), (64, 7, 4, 8)):
            outputs = {}
            for every in (1, 7, SearchConfig().checkpoint_every):
                for workers in (1, 3):
                    records, merged = run_search(
                        n, k,
                        SearchConfig(workers=workers, checkpoint_every=every, restarts=restarts),
                    )
                    out = tmp_path / f"{n}-{k}-r{every}-{workers}.jsonl"
                    write_results(out, records)
                    outputs[(every, workers)] = (
                        records, merged.best_diameter, merged.best_dist_sum,
                        merged.candidates, out.read_bytes(),
                    )
            assert len(outputs[(1, 1)][0]) == ties
            first = outputs[(1, 1)]
            for key, got in outputs.items():
                assert got == first, (n, k, key)


# Every prime power from 4 to 64 (3 has no feasible degree): the odd primes,
# 9, 25, 27, 49 and the powers of two.
_PRIME_POWERS = (
    4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    37, 41, 43, 47, 49, 53, 59, 61, 64,
)


@st.composite
def st_prime_power_case(draw):
    """(n, k, reduced, workers): a prime power n <= 64, a feasible odd or
    even degree k, either at most 10 with a requested space of at most 1000
    candidates or n - 2 or more (every jump but at most one), and 1 or 3
    workers. `reduced` is ignored for odd n; for a power of two, False
    leaves jump 1 free and True pins it already."""
    n = draw(st.sampled_from(_PRIME_POWERS))
    ks = [
        k for k in range(3, n)
        if (k % 2 == 0 or n % 2 == 0)
        and (k <= 10 and jump_space(n, k, False).size <= 1000 or k >= n - 2)
    ]
    return n, draw(st.sampled_from(ks)), draw(st.booleans()), draw(st.sampled_from((1, 3)))


class _InlinePool:
    """Stands in for the scan's ProcessPoolExecutor: runs each submitted
    chunk at once and hands back a finished future, so an example with 3
    workers walks `_run_states`' pool path without starting a process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@lru_cache(maxsize=None)
def _class_metrics(js, exact_limit, restarts, seed):
    return metrics.compute_metrics(circulant(js), exact_limit, restarts, seed)


def _remembered_metrics(t, exact_limit, restarts, seed, workers=None):
    """`compute_metrics` measured once per class and setting over all the
    examples, for both sides alike; it is deterministic, and the bisection
    heuristic would otherwise take most of each example's time."""
    return _class_metrics(t.jumps, exact_limit, restarts, seed)


def _results_bytes(records) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "results.jsonl"
        write_results(out, records)
        return out.read_bytes()


class TestPrimePowerPinning:
    """For prime-power n, `run_search` scans the plan with jump 1 pinned and
    recovers the rest of the ties by unit multiplication; the outcome must
    be the full space's, scanned plainly and put through the same class
    step."""

    @given(st_prime_power_case())
    # pinning leaves r = 0: the scan plan's one candidate is (1, 8)
    @example((16, 3, False, 1))
    @example((16, 3, False, 3))
    # both plans hold one candidate, every jump of [1, 6] (the complete
    # graph): the pinned plan draws all five free jumps of [2, 6]
    @example((13, 12, False, 3))
    # not prime powers: the scan plan is the requested plan; (3, 5, 6) is one
    # of the 31 ties at (15, 6) and holds no unit, so pinning would lose it
    @example((35, 6, False, 3))
    @example((15, 4, False, 1))
    @example((15, 6, True, 3))
    def test_matches_full_space_scan(self, case):
        n, k, reduced, workers = case
        # One restart, and the heuristic from n = 17 up, keep examples quick;
        # both sides get the same settings.
        config = SearchConfig(
            workers=workers, reduced=reduced, restarts=1, exact_bisection_limit=16
        )
        total = count_space(n, k, reduced)
        full = merge([scan_range(n, k, r, reduced) for r in partition_ranks(total, workers)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "compute_metrics", _remembered_metrics)
            want = search._optimal_records(n, k, full, config)
            mp.setattr(search, "ProcessPoolExecutor", _InlinePool)
            got, merged = run_search(n, k, config)
        assert (merged.best_diameter, merged.best_dist_sum, merged.scanned) == (
            full.best_diameter, full.best_dist_sum, total,
        )
        assert merged.candidates == full.candidates
        assert _results_bytes(got) == _results_bytes(want)

    @pytest.mark.parametrize(
        "n, k, reduced, requested, scanned",
        [
            (257, 6, True, 341_376, 8_001),
            (127, 8, True, 595_665, 37_820),
            (255, 6, True, 333_375, 10_292),  # 255 = 3 * 5 * 17
            (35, 6, False, 680, 126),
            (105, 6, True, binomial(52, 3), 1_777),  # 105 = 3 * 5 * 7
            (210, 6, True, binomial(104, 3), 12_101),  # 210 = 2 * 3 * 5 * 7
            (1000, 10, True, binomial(499, 5), 2_940_667_465),  # 1000 = 2^3 * 5^3
            (960, 10, True, binomial(479, 5), 3_231_912_066),  # 960 = 2^6 * 3 * 5
            (1024, 10, False, binomial(511, 5), binomial(510, 4)),
            (1024, 10, True, binomial(510, 4), binomial(510, 4)),
        ],
    )
    def test_scan_plan_sizes(self, n, k, reduced, requested, scanned):
        plan = jump_space(n, k, reduced)
        assert (plan.size, search._scan_plan(n, plan).size) == (requested, scanned)


# Every n from 6 to 66 with two or more prime factors.
_MULTI_PRIME = (
    6, 10, 12, 14, 15, 18, 20, 21, 22, 24, 26, 28, 30, 33, 34, 35, 36, 38, 39,
    40, 42, 44, 45, 46, 48, 50, 51, 52, 54, 55, 56, 57, 58, 60, 62, 63, 65, 66,
)


@st.composite
def st_multi_prime_case(draw):
    """(n, k, reduced, workers, every): an n <= 66 with two or more prime
    factors, a feasible odd or even degree k, either at most 10 with a
    requested space of at most 1000 candidates or n - 2 or more, 1 to 3
    workers, and a chunk size from 1 to the scan plan's size, so that chunk
    ends fall before, at and after the first rank of the divisor parts.
    `reduced` is ignored for these n."""
    n = draw(st.sampled_from(_MULTI_PRIME))
    ks = [
        k for k in range(3, n)
        if (k % 2 == 0 or n % 2 == 0)
        and (k <= 10 and jump_space(n, k).size <= 1000 or k >= n - 2)
    ]
    k = draw(st.sampled_from(ks))
    total = search._scan_plan(n, jump_space(n, k)).size
    return (
        n, k, draw(st.booleans()), draw(st.integers(1, 3)),
        draw(st.integers(1, max(total, 1))),
    )


class TestUnitFreePlan:
    """For n with two or more prime factors, `run_search` scans the pinned
    plan and then the divisor parts in one rank space, and recovers the
    rest of the ties by unit multiplication; the outcome must be the full
    space's, scanned plainly and put through the same class step."""

    @given(st_multi_prime_case())
    # (3, 5, 6) is one of the 31 ties at (15, 6) and holds no unit: it is
    # the one candidate of the divisor part of 3, at rank P = 15
    @example((15, 6, True, 3, 15))
    @example((15, 6, False, 1, 1))
    # P = 120 of 126 ranks; chunks of 7 end at 119 and 126 in one range and
    # in the third of three ranges, [84, 126)
    @example((35, 6, False, 1, 7))
    @example((35, 6, False, 3, 7))
    @example((35, 6, True, 2, 130))
    # P = 6 of 8 ranks: (3, 5) and (3, 6); (5, 6) is 8 * (3, 5)
    @example((15, 4, False, 1, 4))
    # P = 1275 of 1,777 ranks
    @example((105, 6, True, 2, 1000))
    # odd degree: jump 9 fixed, P = 7 of 11 ranks
    @example((18, 5, True, 3, 3))
    @example((18, 5, False, 1, 1))
    def test_matches_full_space_scan(self, case):
        n, k, reduced, workers, every = case
        config = SearchConfig(
            workers=workers, reduced=reduced, restarts=1, exact_bisection_limit=16,
            checkpoint_every=every,
        )
        total = count_space(n, k, reduced)
        full = merge([scan_range(n, k, r, reduced) for r in partition_ranks(total, workers)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "compute_metrics", _remembered_metrics)
            want = search._optimal_records(n, k, full, config)
            mp.setattr(search, "ProcessPoolExecutor", _InlinePool)
            got, merged = run_search(n, k, config)
        assert (merged.best_diameter, merged.best_dist_sum, merged.scanned) == (
            full.best_diameter, full.best_dist_sum, total,
        )
        assert merged.candidates == full.candidates
        assert _results_bytes(got) == _results_bytes(want)


@st.composite
def st_small_search_case(draw):
    """(n, k, reduced): n from 4 to 48 and a feasible odd or even degree k
    whose full space holds at most 1000 candidates."""
    n = draw(st.integers(4, 48))
    ks = [
        k for k in range(3, n)
        if (k % 2 == 0 or n % 2 == 0) and jump_space(n, k, False).size <= 1000
    ]
    return n, draw(st.sampled_from(ks)), draw(st.booleans())


class TestOneCanonicalisationPerClass:
    """`_optimal_records` calls `adam_canonical` on the first tie of each
    unit-multiplication class only and finds the rest of the class by one
    walk of that tie's unit orbit; the classes measured and the records must
    be those of one `adam_canonical` call per tie (`oracles.optimal_records`)."""

    @pytest.mark.parametrize("n, k, ties, calls", [(127, 8, 315, 5), (257, 6, 128, 1)])
    def test_calls_per_class(self, n, k, ties, calls, monkeypatch):
        seen = []

        def spy(js):
            seen.append(js)
            return adam_canonical(js)

        monkeypatch.setattr(search, "adam_canonical", spy)
        _, merged = run_search(n, k, SearchConfig(workers=1))
        assert (len(merged.candidates), len(seen)) == (ties, calls)

    @given(st_small_search_case())
    # (3, 5, 6) is one of the 31 ties at (15, 6) and holds no unit
    @example((15, 6, True))
    @example((32, 4, False))
    # reduced powers of two: jump 1 pinned, and jump 32 as well at odd k
    @example((32, 4, True))
    @example((64, 7, True))
    def test_matches_per_tie_canonicalisation(self, case):
        n, k, reduced = case
        config = SearchConfig(workers=1, reduced=reduced, restarts=1, exact_bisection_limit=16)
        measured = []

        def spy(t, *args, **kwargs):
            measured.append(t.jumps)
            return _remembered_metrics(t, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "compute_metrics", spy)
            got, merged = run_search(n, k, config)
        assert len(set(measured)) == len(measured)
        assert set(measured) == {adam_canonical(js) for js in merged.candidates}
        want = oracles.optimal_records(n, k, merged, config, _remembered_metrics)
        assert _results_bytes(got) == _results_bytes(want)


@lru_cache(maxsize=None)
def _full_space_ties(n, k):
    """The ties of a whole-range scan of the (n, k) full space."""
    scan = scan_range(n, k, RankRange(0, count_space(n, k, False)), reduced=False)
    return tuple(js.jumps for js in scan.candidates)


@st.composite
def st_closure_case(draw):
    """(n, k, reduced, picks): n from 4 to 64, a feasible odd or even degree
    k up to 10 whose full space holds at most 1000 candidates, and indices
    that pick ties of the full-space scan lying in the requested plan."""
    n = draw(st.integers(4, 64))
    ks = [
        k for k in range(3, min(n, 11))
        if (k % 2 == 0 or n % 2 == 0) and jump_space(n, k, False).size <= 1000
    ]
    k = draw(st.sampled_from(ks))
    picks = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
    return n, k, draw(st.booleans()), picks


class TestUnitClosure:
    """`_unit_closure` keeps every unit image of a tie that holds the plan's
    fixed jumps; for ties that lie in the plan that is every image
    `_in_plan` accepts (`oracles.unit_closure`)."""

    @given(st_closure_case())
    # powers of two: jump 1 pinned when reduced (lo = 2), free otherwise
    @example((16, 4, True, [0, 1]))
    @example((16, 4, False, [0]))
    # odd degree: jump n/2 fixed, beside jump 1 when reduced
    @example((32, 5, True, [0, 2]))
    @example((18, 5, False, [1]))
    # odd and even composite n; (3, 5, 6) at (15, 6) holds no unit
    @example((15, 6, False, [0, 3, 7]))
    @example((36, 4, True, [0, 5]))
    def test_matches_in_plan_filter(self, case):
        n, k, reduced, picks = case
        plan = jump_space(n, k, reduced)
        ties = [c for c in _full_space_ties(n, k) if search._in_plan(plan, c)]
        picked = sorted({ties[i % len(ties)] for i in picks})
        assert search._unit_closure(n, plan, picked) == oracles.unit_closure(n, plan, picked)


class TestDivisorParts:
    """For n with two or more prime factors, the scan plan's parts after the
    pinned one are its divisor parts, one for each smallest gcd g of a
    unit-free set's free jumps with n. Checked by brute force over every
    feasible space of at most 1,000 sets."""

    @pytest.mark.parametrize("n", _MULTI_PRIME)
    def test_each_connected_unit_free_set_covered_once(self, n):
        units = [u for u in range(1, n // 2 + 1) if math.gcd(u, n) == 1]
        spaces = 0
        for k in range(3, n):
            if k % 2 == 1 and n % 2 == 1:
                continue
            plan = jump_space(n, k)
            if plan.size > 1000:
                continue
            spaces += 1
            pinned, *parts = search._scan_plan(n, plan).parts
            assert 1 in pinned.fixed
            for part in parts:
                (g,) = set(part.fixed) - set(plan.fixed)
                assert n % g == 0 and part.r == plan.r - 1, (k, part)
            members = [
                {tuple(sorted((*part.fixed, *free)))
                 for free in itertools.combinations(part.ground, part.r)}
                for part in parts
            ]
            # Every set of a part is unit-free and lies in the requested
            # plan, and no set lies in two parts.
            for sets in members:
                for c in sets:
                    assert search._in_plan(plan, c), (k, c)
                    assert all(math.gcd(s, n) > 1 for s in c), (k, c)
            assert sum(map(len, members)) == len(set().union(*members))
            # Every connected unit-free set has a unit multiple in exactly
            # one part.
            for free in itertools.combinations(plan.ground, plan.r):
                c = (*plan.fixed, *free)
                if math.gcd(n, *c) > 1 or any(math.gcd(s, n) == 1 for s in c):
                    continue
                images = {unit_image(n, c, u) for u in units}
                assert sum(bool(images & sets) for sets in members) == 1, (k, c)
        assert spaces


class TestOneScanRule:
    """Every scan plan is one divisor part per value g of gcd(s, n), g = 1
    first, for primes, prime powers, powers of two and multi-prime n alike,
    and the reduced and the full space give the same plan."""

    @pytest.mark.parametrize("n", range(4, 67))
    def test_each_connected_set_covered_once(self, n):
        units = [u for u in range(1, n // 2 + 1) if math.gcd(u, n) == 1]
        spaces = 0
        for k in range(3, n):
            if k % 2 == 1 and n % 2 == 1:
                continue
            full = jump_space(n, k, False)
            if full.size > 1000:
                continue
            spaces += 1
            scan = search._scan_plan(n, full)
            assert search._scan_plan(n, jump_space(n, k, True)) == scan
            assert 1 in scan.parts[0].fixed
            members = [
                {tuple(sorted((*part.fixed, *free)))
                 for free in itertools.combinations(part.ground, part.r)}
                for part in scan.parts
            ]
            # Every set of every part lies in the requested plan.
            for reduced in (False, True):
                plan = jump_space(n, k, reduced)
                for sets in members:
                    assert all(search._in_plan(plan, c) for c in sets), (k, reduced)
            # Every connected set has a unit multiple in exactly one part.
            for free in itertools.combinations(full.ground, full.r):
                c = (*full.fixed, *free)
                if math.gcd(n, *c) > 1:
                    continue
                images = {unit_image(n, c, u) for u in units}
                assert sum(bool(images & sets) for sets in members) == 1, (k, c)
        assert spaces

    # (fixed, ground, r) of each part, in rank order. A checkpoint's cursors
    # index these ranks, so a reordered part or ground would point a written
    # checkpoint at other sets while its total still matched.
    PARTS = {
        (35, 6): [((1,), tuple(range(2, 18)), 2), ((5,), (7, 10, 14, 15), 2)],
        (18, 5): [((1, 9), tuple(range(2, 9)), 1), ((2, 9), (3, 4, 6, 8), 1)],
        (15, 6): [((1,), tuple(range(2, 8)), 2), ((3,), (5, 6), 2)],
        (32, 5): [((1, 16), tuple(range(2, 16)), 1)],
    }

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("n, k", sorted(PARTS))
    def test_rank_order_of_parts(self, n, k, reduced):
        parts = search._scan_plan(n, jump_space(n, k, reduced)).parts
        assert [(p.fixed, tuple(p.ground), p.r) for p in parts] == self.PARTS[(n, k)]


class TestDisconnectedSetsSkipped:
    """The scan drops a free jump s from a co-lex group when (s, *tail) shares
    a factor with n, so the kernel measures connected sets only, and the
    results are those of a scan that measured every set."""

    # sha256 of the results file and (scanned, ties, best) for
    # SearchConfig(workers=1), as when the kernel measured every set
    EXPECTED = {
        (255, 6): (
            "1805a0d746fe82f7ca55907b57572a9bdbaa02ca9f02f3c2dbf8daa69349025f",
            333_375, 64, (6, 1078),
        ),
        (105, 6): (
            "ef6b7f01e50caaef2125a8cd7dd3a8f779ef2125ec48982a27c299403e512fb5",
            binomial(52, 3), 72, (4, 328),
        ),
    }

    @pytest.mark.parametrize("n, k", sorted(EXPECTED))
    def test_kernel_sees_connected_sets_only(self, n, k, monkeypatch):
        measured = []
        kernel = search.circulant_group_profiles

        def recording(n_, tail, free, bound=None):
            measured.extend((s, *tail) for s in free)
            return kernel(n_, tail, free, bound)

        monkeypatch.setattr(search, "circulant_group_profiles", recording)
        records, merged = run_search(n, k, SearchConfig(workers=1))
        assert measured
        assert [j for j in measured if math.gcd(n, *j) != 1] == []
        digest, scanned, ties, best = self.EXPECTED[(n, k)]
        assert hashlib.sha256(_results_bytes(records)).hexdigest() == digest
        assert (merged.scanned, len(merged.candidates)) == (scanned, ties)
        assert (merged.best_diameter, merged.best_dist_sum) == best


def _forged(tmp_path, best_d, best_s, candidates):
    """A finished one-range (32, 4) checkpoint carrying the given best."""
    total = count_space(32, 4)
    state = _RangeState(
        RankRange(0, total), cursor=total, best_d=best_d, best_s=best_s,
        candidates=candidates,
    )
    ck = tmp_path / "ck.jsonl"
    save_checkpoint(ck, 32, 4, total, [state])
    return ck


class _Interrupted(Exception):
    """Stops a search part way, as a killed run would stop."""


class TestPinnedCheckpoint:
    """At n = 37, a prime, checkpoints hold the ranks of the scan plan: jump
    1 pinned and two free jumps from [2, 18], C(17, 2) = 136 ranks, where
    the requested space has C(18, 3) = 816."""

    def test_full_space_checkpoint_refused_and_pinned_one_resumed(
        self, tmp_path, monkeypatch, capsys
    ):
        plan = jump_space(37, 6)
        assert (plan.size, search._scan_plan(37, plan).size) == (816, 136)
        # A one-range checkpoint of the full space, walked up to rank 400.
        walked = search._scan_chunk(37, plan, _RangeState(RankRange(0, 816), 0), 400)
        stale = tmp_path / "full.jsonl"
        save_checkpoint(stale, 37, 6, 816, [walked])
        stale_bytes = stale.read_bytes()

        real_scan = search._scan_chunk

        def no_scan(*args):
            raise AssertionError("a candidate was scanned")

        monkeypatch.setattr(search, "_scan_chunk", no_scan)
        with pytest.raises(CheckpointError, match=r"total=816\), not \(.*total=136\)"):
            run_search(37, 6, SearchConfig(workers=1, checkpoint_path=stale))
        rc = main(
            ["search", "--n", "37", "--k", "6", "--workers", "1", "--checkpoint", str(stale)]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_CHECKPOINT and "total=816" in err and "total=136" in err
        assert stale.read_bytes() == stale_bytes

        # A pinned search stopped after five chunks of 10 ranks resumes to
        # the bytes of an uninterrupted one.
        calls = 0

        def stop_after_five(*args):
            nonlocal calls
            calls += 1
            if calls > 5:
                raise _Interrupted
            return real_scan(*args)

        ck = tmp_path / "pinned.jsonl"
        config = SearchConfig(workers=1, checkpoint_every=10, checkpoint_path=ck)
        monkeypatch.setattr(search, "_scan_chunk", stop_after_five)
        with pytest.raises(_Interrupted):
            run_search(37, 6, config)
        (state,) = load_checkpoint(ck, 37, 6)
        assert state.cursor == 50 and state.candidates
        assert all(1 in c for c in state.candidates)
        monkeypatch.setattr(search, "_scan_chunk", real_scan)
        resumed, merged = run_search(37, 6, config)
        fresh, _ = run_search(37, 6, SearchConfig(workers=1))
        assert merged.scanned == 816
        assert _results_bytes(resumed) == _results_bytes(fresh)

        # A genuine tie of the full space that lacks jump 1 is not a jump set
        # of the scan plan.
        unpinned = next(js.jumps for js in merged.candidates if 1 not in js.jumps)
        forged = _RangeState(
            RankRange(0, 136), 136, merged.best_diameter, merged.best_dist_sum, [unpinned]
        )
        save_checkpoint(ck, 37, 6, 136, [forged])
        with pytest.raises(CheckpointError, match="not in the search space"):
            run_search(37, 6, config)


class TestUnitFreeCheckpoint:
    """At (35, 6), checkpoints hold the ranks of both parts of the scan plan:
    the pinned plan's C(16, 2) = 120 ranks [0, 120), then the divisor part
    of g = 5, jump 5 pinned and two free jumps from the non-units 7, 10, 14
    and 15, C(4, 2) = 6 ranks [120, 126). The part of g = 7 would draw its
    two free jumps from 14 alone and is dropped. The requested space has
    C(17, 3) = 680."""

    @staticmethod
    def _assert_refused(stale, stale_total, monkeypatch, capsys):
        """A (35, 6) checkpoint of `stale_total` ranks is refused before any
        scanning, by `run_search` and by the CLI (exit 4, naming both
        totals), and left byte-identical."""
        stale_bytes = stale.read_bytes()

        def no_scan(*args):
            raise AssertionError("a candidate was scanned")

        monkeypatch.setattr(search, "_scan_chunk", no_scan)
        with pytest.raises(
            CheckpointError, match=rf"total={stale_total}\), not \(.*total=126\)"
        ):
            run_search(35, 6, SearchConfig(workers=1, checkpoint_path=stale))
        rc = main(
            ["search", "--n", "35", "--k", "6", "--workers", "1", "--checkpoint", str(stale)]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_CHECKPOINT and f"total={stale_total}" in err and "total=126" in err
        assert stale.read_bytes() == stale_bytes

    def test_full_space_checkpoint_refused(self, tmp_path, monkeypatch, capsys):
        plan = jump_space(35, 6)
        walked = search._scan_chunk(35, plan, _RangeState(RankRange(0, 680), 0), 400)
        stale = tmp_path / "full.jsonl"
        save_checkpoint(stale, 35, 6, 680, [walked])
        self._assert_refused(stale, 680, monkeypatch, capsys)

    def test_two_part_checkpoint_refused(self, tmp_path, monkeypatch, capsys):
        # A finished checkpoint of the earlier two-part plan: the pinned plan,
        # then one unit-free plan of three free jumps from all the non-units,
        # C(5, 3) = 10 ranks [120, 130).
        pinned = search._scan_plan(35, jump_space(35, 6)).parts[0]
        two_part = search._ScanPlan(
            (pinned, search._GroundPlan((), (5, 7, 10, 14, 15), 3))
        )
        assert two_part.size == 130
        walked = search._scan_chunk(35, two_part, _RangeState(RankRange(0, 130), 0), 130)
        assert walked.candidates
        stale = tmp_path / "two_part.jsonl"
        save_checkpoint(stale, 35, 6, 130, [walked])
        self._assert_refused(stale, 130, monkeypatch, capsys)

    def test_interrupted_across_both_parts_resumes(self, tmp_path, monkeypatch):
        # Two ranges, [0, 63) and [63, 126), in chunks of 60: the first round
        # walks [0, 60) and [63, 123), which crosses into the divisor part.
        # The fourth chunk is refused after the checkpoint that holds both
        # first-round states, whichever order the pool hands them back in.
        real_scan = search._scan_chunk
        calls = 0

        def stop_at_fourth(*args):
            nonlocal calls
            calls += 1
            if calls == 4:
                raise _Interrupted
            return real_scan(*args)

        ck = tmp_path / "ck.jsonl"
        config = SearchConfig(workers=2, checkpoint_every=60, checkpoint_path=ck)
        monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(search, "_scan_chunk", stop_at_fourth)
        with pytest.raises(_Interrupted):
            run_search(35, 6, config)
        states = load_checkpoint(ck, 35, 6)
        assert [st_.cursor for st_ in states] == [60, 123]
        assert all(st_.candidates for st_ in states)
        monkeypatch.setattr(search, "_scan_chunk", real_scan)
        resumed, merged = run_search(35, 6, config)
        fresh, _ = run_search(35, 6, SearchConfig(workers=1))
        assert merged.scanned == 680
        assert _results_bytes(resumed) == _results_bytes(fresh)

    def test_candidate_outside_both_parts_rejected(self, tmp_path):
        _, merged = run_search(35, 6, SearchConfig(workers=1))
        best = (merged.best_diameter, merged.best_dist_sum)
        # A genuine tie without jump 1 whose jump 2 is a unit: neither pinned
        # nor in a divisor part.
        stray = next(
            js.jumps for js in merged.candidates if 1 not in js.jumps and 2 in js.jumps
        )
        ck = tmp_path / "ck.jsonl"
        forged = _RangeState(RankRange(0, 126), 126, *best, [stray])
        save_checkpoint(ck, 35, 6, 126, [forged])
        with pytest.raises(CheckpointError, match="not in the search space"):
            run_search(35, 6, SearchConfig(workers=1, checkpoint_path=ck))

    def test_unit_free_candidate_accepted(self, tmp_path):
        # At (15, 6) the unit-free tie (3, 5, 6) lies in the second part, the
        # divisor part of g = 3.
        _, merged = run_search(15, 6, SearchConfig(workers=1))
        best = (merged.best_diameter, merged.best_dist_sum)
        ck = tmp_path / "ck.jsonl"
        carried = _RangeState(RankRange(0, 16), 16, *best, [(3, 5, 6)])
        save_checkpoint(ck, 15, 6, 16, [carried])
        (state,) = load_checkpoint(ck, 15, 6)
        assert state.candidates == [(3, 5, 6)]


class TestCheckpointAcrossFullSpace:
    """The scan plan depends on (n, k) alone, and `reduced` (`--full-space`
    off) only filters the ties after the merge, so a checkpoint written with
    one setting resumes under the other, to the results and `scanned` of a
    fresh run under the resuming one."""

    @pytest.mark.parametrize("written", [True, False])
    @pytest.mark.parametrize("n, k", [(32, 4), (35, 6)])
    def test_partial_checkpoint_resumes_under_the_other_setting(
        self, n, k, written, tmp_path, monkeypatch
    ):
        real_scan = search._scan_chunk
        calls = 0

        def stop_after_one(*args):
            nonlocal calls
            calls += 1
            if calls > 1:
                raise _Interrupted
            return real_scan(*args)

        ck = tmp_path / "ck.jsonl"
        config = SearchConfig(workers=1, checkpoint_every=5, checkpoint_path=ck)
        monkeypatch.setattr(search, "_scan_chunk", stop_after_one)
        with pytest.raises(_Interrupted):
            run_search(n, k, replace(config, reduced=written))
        (state,) = load_checkpoint(ck, n, k)
        assert state.cursor == 5 and state.candidates
        monkeypatch.setattr(search, "_scan_chunk", real_scan)
        resumed, merged = run_search(n, k, replace(config, reduced=not written))
        fresh, fresh_merged = run_search(n, k, SearchConfig(workers=1, reduced=not written))
        assert _results_bytes(resumed) == _results_bytes(fresh)
        assert merged.scanned == fresh_merged.scanned == count_space(n, k, not written)


class TestCheckpointVerification:
    @pytest.mark.parametrize(
        "best_d, best_s, candidates",
        [
            (1, 31, [(1, 2)]),  # claims the complete-graph optimum
            (4, 83, [(1, 7)]),  # true optimum, distance sum off by one
            (5, 84, [(1, 7)]),  # diameter off by one
            (4, 84, []),  # best without candidates
            (None, None, [(1, 7)]),  # candidates without a best
            (4, 84, [(7, 9)]),  # misses the fixed jump 1
            (4, 84, [(1, 16)]),  # free jump above hi = 15
            (4, 84, [(1, 7, 9)]),  # one free jump too many
            (4, 84, [(1, 1)]),  # duplicate jump
            (4.0, 84, [(1, 7)]),  # non-integral best
        ],
    )
    def test_forged_checkpoint_rejected(self, tmp_path, best_d, best_s, candidates):
        ck = _forged(tmp_path, best_d, best_s, candidates)
        with pytest.raises(CheckpointError):
            run_search(32, 4, SearchConfig(workers=1, checkpoint_path=ck))

    def test_genuine_finished_checkpoint_accepted(self, tmp_path):
        full = scan_range(32, 4, RankRange(0, count_space(32, 4)))
        ck = _forged(
            tmp_path, full.best_diameter, full.best_dist_sum,
            [js.jumps for js in full.candidates],
        )
        resumed = run_search(32, 4, SearchConfig(workers=1, checkpoint_path=ck))[0]
        assert resumed == run_search(32, 4, SearchConfig(workers=1))[0]


class TestCheckpointDurability:
    def test_temp_file_synced_before_it_replaces_the_checkpoint(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            # the written lines must be flushed before the sync
            calls.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", Path(src).name, Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        ck = _forged(tmp_path, 4, 84, [(1, 7)])
        assert calls == [
            ("fsync", ck.stat().st_size), ("replace", "ck.jsonl.tmp", "ck.jsonl"),
        ]
        assert ck.stat().st_size > 0 and not (tmp_path / "ck.jsonl.tmp").exists()


class TestConfigValidation:
    """Settings no search can run with are refused before any candidate is
    scanned: the scan kernel is replaced by one that fails if it is called."""

    @pytest.fixture(autouse=True)
    def no_scan(self, monkeypatch):
        def scan(*args):
            raise AssertionError("a candidate was scanned")

        monkeypatch.setattr(search, "_scan_chunk", scan)

    @pytest.mark.parametrize("name", ["restarts", "checkpoint_every", "workers"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_rejected_when_built(self, name, value):
        with pytest.raises(ValueError, match=name):
            run_search(64, 4, SearchConfig(**{"workers": 1, name: value}))

    @pytest.mark.parametrize("name", ["restarts", "checkpoint_every", "workers"])
    def test_rejected_by_run_search_after_mutation(self, name):
        config = SearchConfig(workers=1)
        setattr(config, name, 0)
        with pytest.raises(ValueError, match=name):
            run_search(64, 4, config)

    def test_odd_n_still_validates_restarts(self):
        # odd n never reaches the heuristic, but the setting is still invalid
        with pytest.raises(ValueError, match="restarts"):
            run_search(63, 4, SearchConfig(workers=1, restarts=0))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unwritable_checkpoint_fails_before_the_scan(self, workers, tmp_path):
        path = tmp_path / "missing" / "ck.jsonl"
        with pytest.raises(OSError):
            run_search(64, 4, SearchConfig(workers=workers, checkpoint_path=path))


class TestRecordsAreReMeasured:
    def test_unverified_record_is_never_emitted(self, monkeypatch):
        # A scan kernel that reports every distance sum one too low: the
        # merged best is then one no class re-measures to, and run_search
        # must refuse it rather than return it.
        kernel = search.circulant_group_profiles

        def low_by_one(n, tail, free, bound=None):
            if bound is not None:
                bound = (bound[0], bound[1] + 1)
            return [(s, (d, total - 1)) for s, (d, total) in kernel(n, tail, free, bound)]

        monkeypatch.setattr(search, "circulant_group_profiles", low_by_one)
        with pytest.raises(AssertionError, match="re-measures"):
            run_search(32, 4, SearchConfig(workers=1))


# The rank fields of a checkpoint line, as (key, nested key or None).
_RANK_FIELDS = (
    ("n", None), ("k", None), ("total", None),
    ("range", "start"), ("range", "end"), ("cursor_rank", None),
)


@lru_cache(maxsize=None)
def _genuine_checkpoint() -> str:
    """The checkpoint a finished (32, 4) search leaves behind."""
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "ck.jsonl"
        run_search(32, 4, SearchConfig(workers=1, checkpoint_every=5, checkpoint_path=ck))
        return ck.read_text()


class TestCheckpointFieldTypes:
    def test_genuine_checkpoint_loads(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        ck.write_text(_genuine_checkpoint())
        states = load_checkpoint(ck, 32, 4)
        assert states[0].cursor == count_space(32, 4)

    @pytest.mark.parametrize("reduced", [True, False])
    def test_reduced_key_of_older_checkpoints_ignored(self, tmp_path, reduced):
        genuine = tmp_path / "ck.jsonl"
        genuine.write_text(_genuine_checkpoint())
        recs = [json.loads(line) for line in _genuine_checkpoint().splitlines()]
        assert all("reduced" not in rec for rec in recs)
        older = tmp_path / "older.jsonl"
        older.write_text(
            "".join(json.dumps({**rec, "reduced": reduced}, sort_keys=True) + "\n" for rec in recs)
        )
        assert load_checkpoint(older, 32, 4) == load_checkpoint(genuine, 32, 4)

    @given(
        field=st.sampled_from(_RANK_FIELDS),
        value=st.one_of(
            st.integers(-1, 40).map(float),  # an integral float such as 14.0
            st.floats(),
            st.booleans(),
            st.text(max_size=3),
            st.none(),
        ),
    )
    def test_mistyped_field_rejected(self, field, value):
        rec = json.loads(_genuine_checkpoint())
        key, sub = field
        holder = rec if sub is None else rec[key]
        name = key if sub is None else sub
        original = holder[name]
        assume(not (type(value) is type(original) and value == original))
        holder[name] = value
        with tempfile.TemporaryDirectory() as tmp:
            ck = Path(tmp) / "ck.jsonl"
            ck.write_text(json.dumps(rec, sort_keys=True) + "\n")
            with pytest.raises(CheckpointError):
                load_checkpoint(ck, 32, 4)


def _one_range(start, end, cursor):
    """Rewrites the one-range genuine checkpoint's range and cursor."""

    def edit(text):
        rec = json.loads(text)
        rec["range"], rec["cursor_rank"] = {"start": start, "end": end}, cursor
        return json.dumps(rec, sort_keys=True) + "\n"

    return edit


class TestCheckpointRefusals:
    """Well-typed (32, 4) checkpoints whose ranges cannot be resumed: the
    scan plan has 14 ranks, held by the genuine checkpoint in one range."""

    @pytest.mark.parametrize(
        "edit, match",
        [
            (_one_range(0, 14, 15), r"cursor 15 outside range"),
            (lambda text: "\n  \n\n", "holds no ranges"),
            (_one_range(1, 14, 14), r"do not tile \[0, total\)"),
            (_one_range(0, 10, 10), "do not cover the space"),
        ],
        ids=["cursor-outside-range", "blank-lines", "not-tiling", "short-of-total"],
    )
    def test_refused(self, tmp_path, edit, match):
        ck = tmp_path / "ck.jsonl"
        ck.write_text(edit(_genuine_checkpoint()))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(ck, 32, 4)

    def test_missing_path_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path / "absent.jsonl", 32, 4)


# An `elapsed` key left out of a checkpoint line.
_MISSING = object()


class TestCheckpointElapsed:
    """`elapsed`, when present, is a finite non-negative JSON number; a line
    without it (an older checkpoint) counts as no scan time."""

    def _load(self, tmp_path, value):
        rec = json.loads(_genuine_checkpoint())
        if value is _MISSING:
            del rec["elapsed"]
        else:
            rec["elapsed"] = value
        ck = tmp_path / "ck.jsonl"
        ck.write_text(json.dumps(rec, sort_keys=True) + "\n")
        return load_checkpoint(ck, 32, 4)

    @pytest.mark.parametrize(
        "value",
        ["nan", "1e400", "1.5", -5, -0.5, True, False, None, [1], float("nan"), float("inf")],
    )
    def test_bad_elapsed_rejected(self, tmp_path, value):
        with pytest.raises(CheckpointError, match="'elapsed' must be"):
            self._load(tmp_path, value)

    @pytest.mark.parametrize("value, expected", [(_MISSING, 0.0), (0, 0.0), (3, 3.0), (2.5, 2.5)])
    def test_good_elapsed_kept(self, tmp_path, value, expected):
        (state,) = self._load(tmp_path, value)
        assert state.elapsed == expected and type(state.elapsed) is float


class TestWorkerCount:
    def test_default_is_the_cores_this_process_may_use(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert metrics.available_cores() == 1
        assert SearchConfig().resolved_workers() == 1
        assert SearchConfig(workers=3).resolved_workers() == 3

    def test_one_worker_starts_no_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(metrics, "ProcessPoolExecutor", no_pool)
        # n = 128: the optimal classes' bisections take the heuristic
        records, _ = run_search(128, 6, SearchConfig(workers=1, restarts=3))
        assert records and all(not r.metrics.bisection_exact for r in records)


class TestScanPoolFailure:
    """A failed chunk ends the pooled scan without running the queued ones."""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched kernel reaches pool workers only through fork",
    )
    def test_queued_chunks_are_cancelled_after_a_chunk_fails(self, tmp_path, monkeypatch):
        # (64, 4) pins jump 1 and scans two free jumps: one kernel call per
        # chunk, and range 0's first chunk is the group with free jumps (2, 3)
        real = search.circulant_group_profiles

        def recorded(n, tail, free, bound=None):
            os.close(tempfile.mkstemp(dir=tmp_path)[0])
            if bound is None and free[0] == 2:
                raise RuntimeError("chunk failed")
            time.sleep(0.2)
            return real(n, tail, free, bound)

        monkeypatch.setattr(search, "circulant_group_profiles", recorded)
        plan = search._scan_plan(64, jump_space(64, 4, True))
        ranges = partition_ranks(plan.size, 12)
        assert len(ranges) == 12
        states = [_RangeState(rank_range=r, cursor=r.start) for r in ranges]
        config = SearchConfig(workers=2, checkpoint_every=2)
        with pytest.raises(RuntimeError, match="chunk failed"):
            search._run_states(64, 4, plan, states, config)
        # all 12 first chunks are submitted at once; the queued ones must not run
        assert len(list(tmp_path.iterdir())) < 12
