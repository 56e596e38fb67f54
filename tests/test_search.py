"""Search pipeline tests.

The oracle enumerates every jump set by nested loops, measures each with an
independent queue BFS, and sorts by (diameter, distance sum, -bisection).
"""

import itertools
import json
import tempfile
from collections import deque
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from circnet import search
from circnet.combinatorics import binomial
from circnet.metrics import bisection_exact
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
from circnet.topology import JumpSet, adam_multiply, circulant, jump_space


def bfs_profile_oracle(n, jumps):
    """(diameter, dist sum) by deque BFS on explicit adjacency, or None."""
    adj = [set() for _ in range(n)]
    for i in range(n):
        for s in jumps:
            adj[i].add((i + s) % n)
            adj[i].add((i - s) % n)
    dist = {0: 0}
    q = deque([0])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    if len(dist) != n:
        return None
    return max(dist.values()), sum(dist.values())


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
        profile = bfs_profile_oracle(n, jumps)
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
            p for j in all_jump_sets(20, 4) if (p := bfs_profile_oracle(20, j))
        )
        assert (res.best_diameter, res.best_dist_sum) == oracle_best


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
        # kernel from many different running bests.
        outputs = {}
        for every in (1, 7, SearchConfig().checkpoint_every):
            for workers in (1, 3):
                records, merged = run_search(
                    35, 6, SearchConfig(workers=workers, checkpoint_every=every)
                )
                out = tmp_path / f"r{every}-{workers}.jsonl"
                write_results(out, records)
                outputs[(every, workers)] = (
                    records, merged.best_diameter, merged.best_dist_sum,
                    merged.candidates, out.read_bytes(),
                )
        assert len(outputs[(1, 1)][0]) == 106
        first = outputs[(1, 1)]
        for key, got in outputs.items():
            assert got == first, key


def _forged(tmp_path, best_d, best_s, candidates):
    """A finished one-range (32, 4) checkpoint carrying the given best."""
    total = count_space(32, 4)
    state = _RangeState(
        RankRange(0, total), cursor=total, best_d=best_d, best_s=best_s,
        candidates=candidates,
    )
    ck = tmp_path / "ck.jsonl"
    save_checkpoint(ck, 32, 4, True, total, [state])
    return ck


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


class TestRecordsAreReMeasured:
    def test_unverified_record_is_never_emitted(self, monkeypatch):
        # A scan kernel that reports every distance sum one too low: the
        # merged best is then one no class re-measures to, and run_search
        # must refuse it rather than return it.
        kernel = search.circulant_distance_profile

        def low_by_one(n, jumps, bound=None):
            if bound is not None:
                bound = (bound[0], bound[1] + 1)
            profile = kernel(n, jumps, bound)
            return None if profile is None else (profile[0], profile[1] - 1)

        monkeypatch.setattr(search, "circulant_distance_profile", low_by_one)
        with pytest.raises(AssertionError, match="re-measures"):
            run_search(32, 4, SearchConfig(workers=1))


# The rank fields of a checkpoint line, as (key, nested key or None).
_RANK_FIELDS = (
    ("n", None), ("k", None), ("reduced", None), ("total", None),
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
        states = load_checkpoint(ck, 32, 4, True, count_space(32, 4))
        assert states[0].cursor == count_space(32, 4)

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
                load_checkpoint(ck, 32, 4, True, count_space(32, 4))
