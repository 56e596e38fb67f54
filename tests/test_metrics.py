"""Metrics tests.

Oracles: Floyd-Warshall for distances, pure-python bipartition enumeration
for small bisections, and the analytic hypercube/complete/torus cut values.
"""

import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from circnet import metrics
from circnet.cli import parse_spec
from circnet.metrics import (
    BisectionInfeasibleError,
    DisconnectedError,
    ExactLimitError,
    MetricsRecord,
    PartitionFileError,
    balanced_partition_cut,
    bfs_distances,
    bisection_exact,
    bisection_heuristic,
    bisection_lower_bound,
    bisection_method,
    circulant_distance_profile,
    compute_metrics,
    cut_size,
    diameter_mpl,
    parse_partition,
    _GainBuckets,
    _WorkGraph,
    _best_balanced_side,
    _best_swap,
    _contract,
    _kl_refine,
    _window,
)
from circnet.topology import (
    JumpSet,
    cartesian_product,
    circulant,
    complete,
    from_edges,
    hypercube,
    is_connected_circulant,
    ring,
    torus,
)
from reference_data import PROPERTY_TABLE


def floyd_warshall(adjacency):
    n = len(adjacency)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0
        for w in adjacency[u]:
            dist[u][w] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def brute_bisection(t):
    best = None
    for rest in itertools.combinations(range(1, t.n), t.n // 2 - 1):
        cut = cut_size(t, set((0,) + rest))
        if best is None or cut < best:
            best = cut
    return best


def random_graph(rnd, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
    return from_edges(n, edges)


st_graph = st.tuples(
    st.integers(2, 16), st.floats(0.25, 0.9), st.integers(0, 10_000)
)


class TestBfsDistances:
    def test_ring8(self):
        assert bfs_distances(ring(8), 0) == [0, 1, 2, 3, 4, 3, 2, 1]

    def test_hypercube_hamming(self):
        t = hypercube(5)
        dist = bfs_distances(t, 0)
        assert dist == [v.bit_count() for v in range(32)]

    def test_reference_circulant_diameter(self):
        assert max(bfs_distances(circulant(JumpSet(32, (1, 7))), 0)) == 4

    def test_disconnected_marks_unreached(self):
        t = circulant(JumpSet(8, (2,)))
        dist = bfs_distances(t, 0)
        assert dist.count(-1) == 4 and dist[2] == 1

    @given(st_graph)
    def test_matches_floyd_warshall(self, params):
        n, p, seed = params
        t = random_graph(random.Random(seed), n, p)
        fw = floyd_warshall(t.adjacency)
        for s in range(n):
            got = bfs_distances(t, s)
            want = [-1 if d == float("inf") else d for d in fw[s]]
            assert got == want


class TestCirculantProfile:
    @given(st.integers(2, 64), st.lists(st.integers(0, 500), min_size=1, max_size=4))
    def test_matches_bfs(self, n, picks):
        jumps = tuple(sorted({1 + (p % (n // 2)) for p in picks}))
        js = JumpSet(n, jumps)
        profile = circulant_distance_profile(n, jumps)
        dist = bfs_distances(circulant(js), 0)
        if -1 in dist:
            assert profile is None
        else:
            assert profile == (max(dist), sum(dist))

    def test_disconnected_is_none(self):
        assert circulant_distance_profile(8, (2, 4)) is None

    @given(
        st.integers(2, 64),
        st.lists(st.integers(0, 500), min_size=1, max_size=4),
        st.integers(-2, 2),
        st.integers(-6, 6),
    )
    def test_bounded_keeps_exactly_the_profiles_within_bound(self, n, picks, dd, ds):
        # Bounds drawn around the true profile, so ties (dd = ds = 0), near
        # misses on either side and whole-level differences all occur.
        jumps = tuple(sorted({1 + (p % (n // 2)) for p in picks}))
        dist = bfs_distances(circulant(JumpSet(n, jumps)), 0)
        if -1 in dist:
            bound = (n + dd, n * n + ds)
            assert circulant_distance_profile(n, jumps, bound) is None
            return
        profile = (max(dist), sum(dist))
        bound = (profile[0] + dd, profile[1] + ds)
        want = profile if profile <= bound else None
        assert circulant_distance_profile(n, jumps, bound) == want

    def test_bound_tie_survives_and_worse_is_dropped(self):
        assert circulant_distance_profile(32, (1, 7), (4, 84)) == (4, 84)
        assert circulant_distance_profile(32, (1, 7), (5, 0)) == (4, 84)
        assert circulant_distance_profile(32, (1, 7), (4, 83)) is None
        assert circulant_distance_profile(32, (1, 7), (3, 10**6)) is None
        assert circulant_distance_profile(1, (), (0, 0)) == (0, 0)


class TestDiameterMpl:
    def test_hypercube5(self):
        d, s, mpl = diameter_mpl(hypercube(5))
        assert (d, s) == (5, 80) and mpl == Fraction(80, 31)

    def test_torus_8x4(self):
        d, s, mpl = diameter_mpl(torus([8, 4]))
        assert (d, s) == (6, 96) and round(float(mpl), 2) == 3.10

    def test_reference_512_circulant(self):
        d, _, mpl = diameter_mpl(circulant(JumpSet(512, (1, 15, 56, 149))))
        assert d == 6 and round(float(mpl), 2) == 4.04

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedError):
            diameter_mpl(circulant(JumpSet(8, (2,))))

    @given(st.integers(2, 64), st.lists(st.integers(0, 500), min_size=1, max_size=4))
    def test_symmetric_fast_path_equals_general(self, n, picks):
        jumps = tuple(sorted({1 + (p % (n // 2)) for p in picks}))
        js = JumpSet(n, jumps)
        assume(is_connected_circulant(js))
        t = circulant(js)
        plain = from_edges(t.n, t.edges())  # same graph, no symmetry tag
        assert not plain.vertex_symmetric
        assert diameter_mpl(t) == diameter_mpl(plain)

    @given(st_graph)
    def test_dist_sum_never_grows_under_edge_addition(self, params):
        n, p, seed = params
        rnd = random.Random(seed)
        t = random_graph(rnd, n, p)
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if v not in t.adjacency[u]
        ]
        assume(non_edges)
        try:
            _, s0, _ = diameter_mpl(t)
        except DisconnectedError:
            assume(False)
        extra = rnd.choice(non_edges)
        _, s1, _ = diameter_mpl(from_edges(n, t.edges() + [extra]))
        assert s1 <= s0


class TestBisectionMethod:
    def test_policy(self):
        assert bisection_method(33, 64) is None
        assert bisection_method(32) == "exact"
        assert bisection_method(34) == "heuristic"
        assert bisection_method(40, 64) == "exact"
        assert bisection_method(42, 64) == "heuristic"
        assert bisection_method(64, 64) == "heuristic"

    def test_compute_metrics_follows_policy_above_the_cap(self):
        m = compute_metrics(circulant(JumpSet(64, (1, 14))), exact_limit=64, restarts=4)
        assert m.bisection is not None and not m.bisection_exact


class TestBisectionExact:
    def test_complete4(self):
        assert bisection_exact(complete(4)) == 4

    def test_ring8(self):
        assert bisection_exact(ring(8)) == 2

    def test_reference_32(self):
        assert bisection_exact(circulant(JumpSet(32, (1, 7)))) == 16

    def test_odd_n_rejected(self):
        with pytest.raises(BisectionInfeasibleError):
            bisection_exact(ring(7))

    def test_over_limit_refused(self):
        with pytest.raises(ExactLimitError):
            bisection_exact(circulant(JumpSet(64, (1, 2))), limit=32)

    @given(st_graph)
    @settings(max_examples=40)
    def test_matches_brute_enumeration(self, params):
        n, p, seed = params
        assume(n % 2 == 0)
        t = random_graph(random.Random(seed), n, p)
        assert bisection_exact(t, limit=16) == brute_bisection(t)


def halves_biclique(n):
    """K_{n/2,n/2} whose parts are the low and the high index halves."""
    h = n // 2
    return from_edges(n, [(u, v) for u in range(h) for v in range(h, n)])


def disjoint_cliques(n):
    """Two cliques, on the multiples of 3 and on the other labels."""
    a = [v for v in range(n) if v % 3 == 0]
    b = [v for v in range(n) if v % 3]
    return from_edges(n, list(itertools.combinations(a, 2)) + list(itertools.combinations(b, 2)))


class TestBisectionExactExtremes:
    """Graphs where the per-half cut bound never prunes or prunes at once."""

    @pytest.mark.parametrize("n", [2, 4, 8, 14, 16])
    def test_empty_graph(self, n):
        t = from_edges(n, [])
        assert bisection_exact(t, limit=16) == 0 == brute_bisection(t)

    @pytest.mark.parametrize("n", [2, 4, 6, 10, 16])
    def test_biclique_across_the_halves(self, n):
        # no edge lies inside a half, so every per-half cut is 0
        t = halves_biclique(n)
        assert bisection_exact(t, limit=16) == brute_bisection(t)

    @pytest.mark.parametrize("n", [2, 4, 8, 12, 16])
    def test_complete_graph(self, n):
        assert bisection_exact(complete(n), limit=16) == (n // 2) ** 2
        assert bisection_exact(complete(n), limit=16) == brute_bisection(complete(n))

    @pytest.mark.parametrize("n", [4, 8, 10, 16])
    def test_disconnected(self, n):
        t = disjoint_cliques(n)
        assert bisection_exact(t, limit=16) == brute_bisection(t)
        two_rings = from_edges(n, [(v, (v + 2) % n) for v in range(n)])
        assert bisection_exact(two_rings, limit=16) == brute_bisection(two_rings)


st_sparse_graph = st.tuples(
    st.sampled_from([4, 6, 8, 10, 12, 14, 16]), st.floats(0.02, 0.25), st.integers(0, 10_000)
)


class TestBisectionExactSparse:
    @given(st_sparse_graph)
    @settings(max_examples=60)
    def test_matches_brute_enumeration(self, params):
        # Sparse graphs often have a minimum cut made only of edges inside
        # the two halves, where the per-half bound is tight.
        n, p, seed = params
        t = random_graph(random.Random(seed), n, p)
        assert bisection_exact(t, limit=16) == brute_bisection(t)

    def test_tight_bound_case(self):
        # Both edges join the halves, so the zero cut A = {0, 1, 3, 4, 9}
        # meets the per-half bound exactly.
        t = from_edges(10, [(1, 9), (2, 8)])
        assert bisection_exact(t, limit=16) == 0 == brute_bisection(t)


st_work_graph = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, 10_000),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )
)


class TestBestSwap:
    @given(st_work_graph)
    @settings(max_examples=150)
    def test_returns_a_maximum_gain_unlocked_cross_pair(self, params):
        # D drawn from 7 values so ties are everywhere; status 0 and 1 are
        # the unlocked vertices of side A and side B, 2 is locked.
        n, wseed, d, status = params
        rnd = random.Random(wseed)
        w = [rnd.choice((0, 0, 1, 2, 3)) for _ in range(n * n)]
        weights = np.triu(np.array(w, dtype=np.int32).reshape(n, n), 1)
        g = _WorkGraph(weights + weights.T)
        D = np.array(d, dtype=np.int64)
        avail_a = np.flatnonzero(np.array(status) == 0)
        avail_b = np.flatnonzero(np.array(status) == 1)
        pick = _best_swap(g, D, avail_a, avail_b)
        if len(avail_a) == 0 or len(avail_b) == 0:
            assert pick is None
            return
        u, v, gain = pick
        assert status[u] == 0 and status[v] == 1
        assert gain == D[u] + D[v] - 2 * g.weights[u, v]
        assert gain == max(
            D[a] + D[b] - 2 * g.weights[a, b] for a in avail_a for b in avail_b
        )

    @pytest.mark.parametrize("flip", [False, True])
    def test_best_pair_beyond_a_heavy_top_window(self, flip):
        # Side X: 8 vertices with D = 1, each tied to the top vertex of side Y
        # by weight 3, and 12 free vertices with D = 0. Side Y: one vertex
        # with D = 5 and 11 with D = -5. Every pair among the top eight of X
        # gains at most 0, while a free X vertex with the top of Y gains 5.
        x = np.arange(20)
        y = np.arange(20, 32)
        D = np.array([1] * 8 + [0] * 12 + [5] + [-5] * 11, dtype=np.int64)
        weights = np.zeros((32, 32), dtype=np.int32)
        weights[:8, 20] = weights[20, :8] = 3
        g = _WorkGraph(weights)
        if flip:
            v, u, gain = _best_swap(g, D, y, x)
        else:
            u, v, gain = _best_swap(g, D, x, y)
        assert gain == 5 and v == 20 and 8 <= u < 20


def _work_state(n, wseed, d, status):
    """An st_work_graph draw as (graph, D, avail_a, avail_b): status 0 and 1
    are the unlocked vertices of side A and side B, 2 is locked."""
    rnd = random.Random(wseed)
    w = [rnd.choice((0, 0, 1, 2, 3)) for _ in range(n * n)]
    weights = np.triu(np.array(w, dtype=np.int32).reshape(n, n), 1)
    status = np.array(status)
    return (
        _WorkGraph(weights + weights.T),
        np.array(d, dtype=np.int64),
        np.flatnonzero(status == 0),
        np.flatnonzero(status == 1),
    )


class TestGainBuckets:
    @given(st_work_graph)
    @settings(max_examples=150)
    # draws where an index-order window picks another pair than _best_swap
    @example((
        26, 7272,
        [0, 1, 2, 3, -2, -2, 1, 2, 1, 2, -3, 2, 2, 1, 2, 0, -3, 2, -1, 3, 2, 3, 3, -1, -3, 0],
        [2, 1, 2, 1, 2, 2, 0, 1, 1, 1, 0, 0, 1, 1, 1, 2, 2, 1, 0, 2, 1, 1, 1, 2, 1, 2],
    ))
    @example((
        36, 6994,
        [1, -3, -2, 0, 0, 0, -2, 2, 1, 1, -1, 3, 1, 0, -3, 1, 1, 3,
         -2, -3, 1, -3, 2, 1, 1, 1, 1, -2, -1, 1, 2, 0, -3, -3, 3, -2],
        [0, 0, 0, 2, 1, 2, 2, 1, 0, 1, 2, 1, 0, 2, 1, 2, 0, 1,
         0, 0, 2, 1, 1, 0, 1, 2, 1, 1, 1, 1, 1, 2, 0, 0, 0, 2],
    ))
    def test_picks_best_swap_pair_through_a_swap_sequence(self, params):
        # After each pick, u and v are locked and every unlocked vertex's D
        # moves as the dense update moves it; the next pick must still be
        # _best_swap's.
        g, D, avail_a, avail_b = _work_state(*params)
        buckets = _GainBuckets(g, D, avail_a, avail_b)
        sign = np.zeros(g.n, dtype=np.int64)
        sign[avail_a], sign[avail_b] = 1, -1
        while True:
            pick = buckets.best()
            assert pick == _best_swap(g, D, avail_a, avail_b)
            if pick is None:
                return
            u, v, _ = pick
            buckets.swap(u, v)
            D = D + 2 * sign * (g.weights[u] - g.weights[v])
            avail_a, avail_b = avail_a[avail_a != u], avail_b[avail_b != v]

    def test_boundary_tie_follows_argpartition(self):
        # Side A is vertices 0-8 with D = 0, 0, 0, 0, 0, 0, 1, 1, 1; the
        # width-8 window holds all but one of the six D = 0 vertices. By
        # index that leaves out 5, but argpartition leaves out 4. Every A
        # vertex except 4 and 5 is joined to B's only vertex 9, so the pair
        # is (5, 9) where an index-order window would give (4, 9).
        D = np.array([0] * 6 + [1] * 3 + [0], dtype=np.int64)
        weights = np.zeros((10, 10), dtype=np.int32)
        weights[[0, 1, 2, 3, 6, 7, 8], 9] = weights[9, [0, 1, 2, 3, 6, 7, 8]] = 1
        g = _WorkGraph(weights)
        avail_a, avail_b = np.arange(9), np.array([9])
        by_index = avail_a[np.lexsort((avail_a, -D[avail_a]))][:8]
        top, rest = _window(avail_a, D, 8)
        assert rest == D[top[-1]] == 0
        assert 4 in by_index and 5 not in by_index
        assert 5 in top and 4 not in top
        assert _best_swap(g, D, avail_a, avail_b) == (5, 9, 0)
        assert _GainBuckets(g, D, avail_a, avail_b).best() == (5, 9, 0)


# A symmetric graph with weights 0-3 and a balanced side. Each graph draws
# one weight palette and density, so the uniform dense ones tie on D almost
# everywhere and widen their windows past 8.
st_refine_case = st.tuples(
    st.integers(1, 40).map(lambda h: 2 * h),
    st.sampled_from([(1,), (2,), (3,), (1, 2, 3), (0, 1, 2, 3)]),
    st.sampled_from([0.05, 0.2, 0.5, 0.9, 1.0]),
    st.integers(0, 10_000),
)


class TestKlRefine:
    @given(st_refine_case)
    # cases whose side changes when windows break boundary ties by index
    @example((60, (3,), 0.9, 9058))
    @example((70, (1,), 0.9, 2814))
    def test_matches_dense_refinement(self, case):
        n, palette, density, seed = case
        rnd = random.Random(seed)
        w = [rnd.choice(palette) if rnd.random() < density else 0 for _ in range(n * n)]
        weights = np.triu(np.array(w, dtype=np.int32).reshape(n, n), 1)
        g = _WorkGraph(weights + weights.T)
        side = np.ones(n, dtype=np.int8)
        side[rnd.sample(range(n), n // 2)] = 0
        expected = side.copy()
        assert _kl_refine(g, side) == oracles.kl_refine(g, expected)
        assert side.tobytes() == expected.tobytes()


class TestContract:
    @given(st_refine_case, st.integers(0, 10_000))
    @settings(max_examples=150)
    def test_matches_dense_row_matching(self, case, rng_seed):
        # Few weight values, so the heaviest-neighbor choice ties often;
        # contracting twice also covers coarse weights above the palette.
        n, palette, density, seed = case
        rnd = random.Random(seed)
        w = [rnd.choice(palette) if rnd.random() < density else 0 for _ in range(n * n)]
        weights = np.triu(np.array(w, dtype=np.int32).reshape(n, n), 1)
        g = expected = _WorkGraph(weights + weights.T)
        rng, rng_expected = random.Random(rng_seed), random.Random(rng_seed)
        while g.n % 2 == 0 and g.n > 1:
            g, cid = _contract(g, rng)
            expected, cid_expected = oracles.contract(expected, rng_expected)
            assert cid.tolist() == cid_expected.tolist()
            assert np.array_equal(g.weights, expected.weights)
            assert g.adj == expected.adj


class TestBisectionHeuristic:
    def test_never_below_exact(self):
        rnd = random.Random(7)
        for _ in range(10):
            t = random_graph(rnd, 12, 0.4)
            assert bisection_heuristic(t, restarts=4, seed=1) >= bisection_exact(t)

    def test_equals_exact_on_32vertex_reference_rows(self):
        rows = [
            circulant(JumpSet(32, (1, 7))),
            circulant(JumpSet(32, (1, 6, 16))),
            torus([8, 4]),
            hypercube(5),
        ]
        for t in rows:
            assert bisection_heuristic(t, restarts=16, seed=0) == bisection_exact(t)

    def test_hypercube_analytic(self):
        for d in range(2, 7):
            assert bisection_heuristic(hypercube(d), restarts=16, seed=0) == 2 ** (d - 1)

    def test_complete_analytic(self):
        for m in (4, 6, 8):
            assert bisection_heuristic(complete(m), restarts=8, seed=0) == (m // 2) ** 2

    def test_deterministic_given_seed(self):
        t = circulant(JumpSet(48, (1, 9, 17)))
        a = bisection_heuristic(t, restarts=8, seed=3)
        b = bisection_heuristic(t, restarts=8, seed=3)
        assert a == b

    def test_odd_n_rejected(self):
        with pytest.raises(BisectionInfeasibleError):
            bisection_heuristic(ring(9))


# Leaves of the small graphs the lower bound is checked on: single edges,
# rings, complete graphs and even-order circulants; their products take the
# longest prefix of the drawn leaves that stays within 24 vertices.
st_bound_leaf = st.one_of(
    st.just(complete(2)),
    st.integers(3, 12).map(ring),
    st.integers(2, 8).map(complete),
    st.integers(2, 12).flatmap(
        lambda h: st.sets(st.integers(1, h), min_size=1, max_size=4).map(
            lambda js: circulant(JumpSet(2 * h, tuple(js)))
        )
    ),
)


def _product_within(leaves, limit=24):
    t = leaves[0]
    for leaf in leaves[1:]:
        if t.n * leaf.n > limit:
            break
        t = cartesian_product(t, leaf)
    return t


ALL_ROWS = [row for rows in PROPERTY_TABLE.values() for row in rows]


class TestBisectionLowerBound:
    @pytest.mark.parametrize("row", ALL_ROWS, ids=lambda row: row.spec)
    def test_never_above_published_width(self, row):
        assert 0 < bisection_lower_bound(parse_spec(row.spec)) <= row.bisection

    @pytest.mark.parametrize(
        "row",
        [row for row in ALL_ROWS if row.label in ("torus", "hypercube")]
        + [row for row in ALL_ROWS if row.spec == "product:ring:8*complete:4"],
        ids=lambda row: row.spec,
    )
    def test_tight_on_tori_hypercubes_and_ring_times_k4(self, row):
        assert bisection_lower_bound(parse_spec(row.spec)) == row.bisection

    @given(st.lists(st_bound_leaf, min_size=1, max_size=3))
    @settings(max_examples=150)
    @example([complete(2), complete(2), complete(2)])  # the ring formula would give 8
    @example([complete(2), ring(4)])
    @example([ring(6), ring(4)])
    def test_never_above_exact_width(self, leaves):
        t = _product_within(leaves)
        assume(t.n % 2 == 0)
        # the exact solver with no floor to stop at is full enumeration
        with mock.patch.object(metrics, "bisection_lower_bound", return_value=0):
            width = bisection_exact(t)
        assert 0 <= bisection_lower_bound(t) <= width
        assert bisection_exact(t) == width

    def test_single_edges_are_not_rings(self):
        # K2 routes all-to-all with load 1, not the ring formula's 1/2
        assert bisection_lower_bound(complete(2)) == 1
        assert bisection_lower_bound(hypercube(3)) == 4 == bisection_exact(hypercube(3))

    def test_zero_without_a_jump_set(self):
        cycle = from_edges(8, [(v, (v + 1) % 8) for v in range(8)])
        assert bisection_exact(cycle) == 2
        assert bisection_lower_bound(cycle) == 0
        assert bisection_lower_bound(cartesian_product(cycle, ring(4))) == 0
        assert bisection_lower_bound(cartesian_product(complete(4), cycle)) == 0
        three = functools.reduce(cartesian_product, [ring(4), cycle, complete(2)])
        assert bisection_lower_bound(three) == 0

    def test_zero_when_disconnected(self):
        assert bisection_lower_bound(circulant(JumpSet(12, (2, 4)))) == 0

    # (spec, restarts, seed); the bound is met by the first cut on the tori,
    # hypercube and products, after a few rounds or restarts on the rings,
    # and never on the circulants and the circulant product.
    ORACLE_CASES = [
        ("hypercube:6", 16, 1),
        ("torus:8,4,4", 8, 2),
        ("torus:6,4", 8, 3),
        ("product:ring:8*complete:4", 8, 0),
        ("product:ring:6*complete:2", 8, 0),
        ("ring:64", 4, 1),
        ("ring:100", 4, 0),
        ("circulant:64:1,14", 8, 0),
        ("circulant:48:1,9,17", 8, 3),
        ("product:circulant:16:1,8*complete:4", 8, 0),
    ]

    @pytest.mark.parametrize("spec, restarts, seed", ORACLE_CASES)
    def test_early_stop_keeps_the_full_loops_side(self, spec, restarts, seed):
        t = parse_spec(spec)
        cut, side = _best_balanced_side(t, restarts, seed)
        want_cut, want_side = oracles.best_balanced_side(t, restarts, seed)
        assert cut == want_cut and cut >= bisection_lower_bound(t)
        assert side.dtype == want_side.dtype == np.int8
        assert side.tobytes() == want_side.tobytes()


def _partition_text(perm, fault, i, j):
    """A balanced split of ring(8)'s vertices as partition-file text, with at
    most one fault: i and j pick the vertices it touches."""
    a, b = [str(v) for v in perm[:4]], [str(v) for v in perm[4:]]
    if fault == "move":  # a cover, unbalanced
        b.append(a.pop(i))
    elif fault == "overlap":  # a balanced cover, with a vertex on both sides
        a, b = a + [b[i]], b + [a[j]]
    elif fault == "repeat":
        a[i] = a[j]
    elif fault == "stray":
        a[i] = ("-1", "8")[j % 2]
    elif fault == "token":
        a[i] = "x"
    lines = [" ".join(a), " ".join(b)] + (["0"] if fault == "third line" else [])
    return "\n".join(lines) + "\n"


# Partition-file text: arbitrary, or a split of ring(8) with one fault.
st_partition_text = st.one_of(
    st.text(),
    st.builds(
        _partition_text,
        st.permutations(range(8)),
        st.sampled_from(["", "move", "overlap", "repeat", "stray", "token", "third line"]),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
)


class TestPartitionImport:
    def test_cut_recomputed(self):
        t = ring(8)
        cut = balanced_partition_cut(t, ((0, 1, 2, 3), (4, 5, 6, 7)))
        assert cut == 2

    def test_parse_two_lines(self):
        a, b = parse_partition("0 1 2 3\n4 5 6 7\n")
        assert a == (0, 1, 2, 3) and b == (4, 5, 6, 7)

    def test_unbalanced_rejected(self):
        with pytest.raises(PartitionFileError):
            balanced_partition_cut(ring(8), ((0, 1, 2), (3, 4, 5, 6, 7)))

    def test_overlap_rejected(self):
        with pytest.raises(PartitionFileError):
            balanced_partition_cut(ring(8), ((0, 1, 2, 3), (3, 4, 5, 6)))

    def test_incomplete_cover_rejected(self):
        with pytest.raises(PartitionFileError):
            balanced_partition_cut(ring(8), ((0, 1, 2, 3), (4, 5, 6, 6)))

    def test_bad_text(self):
        with pytest.raises(PartitionFileError):
            parse_partition("0 1\n2 x\n")
        with pytest.raises(PartitionFileError):
            parse_partition("0 1 2 3\n")

    @given(st_partition_text)
    def test_fuzzed_text(self, text):
        # anything is either refused as a partition file or is a balanced
        # disjoint cover whose cut is counted again here, edge by edge
        try:
            a, b = parse_partition(text)
            cut = balanced_partition_cut(ring(8), (a, b))
        except PartitionFileError:
            return
        assert len([ln for ln in text.splitlines() if ln.strip()]) == 2
        assert len(a) == len(b) and sorted(a + b) == list(range(8))
        assert cut == sum((v in a) != ((v + 1) % 8 in a) for v in range(8))


class TestMetricsRecord:
    def test_mpl_exact_rational(self):
        m = compute_metrics(circulant(JumpSet(32, (1, 7))))
        assert m.dist_sum == 84 and m.mpl == Fraction(84, 31)
        assert m.mpl * (m.n - 1) == m.dist_sum
        assert m.bisection == 16 and m.bisection_exact

    def test_heuristic_flagged_above_limit(self):
        m = compute_metrics(circulant(JumpSet(64, (1, 14))), restarts=8)
        assert not m.bisection_exact

    def test_odd_n_has_no_bisection(self):
        m = compute_metrics(ring(9))
        assert m.bisection is None

    def test_partition_supplied(self):
        m = compute_metrics(ring(8), partition=((0, 1, 2, 3), (4, 5, 6, 7)))
        assert m.bisection == 2 and not m.bisection_exact

    def test_inconsistent_record_rejected(self):
        with pytest.raises(ValueError):
            MetricsRecord(
                n=8, degree=2, diameter=1, dist_sum=Fraction(16),
                bisection=2, bisection_exact=True,
            )
