"""Metrics tests.

Oracles: Floyd-Warshall for distances, pure-python bipartition enumeration
for small bisections, and the analytic hypercube/complete/torus cut values.
"""

import functools
import itertools
import multiprocessing
import random
import time
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
    _half_tables,
    _kl_refine,
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
from oracles import _best_swap
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


# Connected leaves of the products the distance fast path is checked on.
st_distance_leaf = st.one_of(
    st.integers(3, 8).map(ring),
    st.integers(2, 6).map(complete),
    st.integers(4, 16).flatmap(
        lambda n: st.sets(st.integers(1, n // 2), min_size=1, max_size=3)
        .map(lambda js: JumpSet(n, tuple(js)))
        .filter(is_connected_circulant)
        .map(circulant)
    ),
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


@st.composite
def st_circulant_case(draw):
    """(n, jumps) with n in [1, 300] and 0 to 5 jumps in [1, n - 1], n/2
    drawn often when n is even."""
    n = draw(st.integers(1, 300))
    if n == 1:
        return n, ()
    jump = st.integers(1, n - 1)
    if n % 2 == 0:
        jump = st.one_of(st.just(n // 2), jump)
    return n, tuple(draw(st.lists(jump, max_size=5)))


class TestBallKernel:
    """The ball-recurrence kernel against the per-jump frontier kernel it
    replaced (`oracles.circulant_distance_profile`)."""

    @given(st_circulant_case(), st.integers(-2, 2), st.integers(-6, 6))
    def test_matches_frontier_kernel_in_every_jump_order(self, case, dd, ds):
        n, jumps = case
        bounds = [None, (-1, 0), (0, 0), (0, 10**6), (n + 1, 0), (n + 5, n * n)]
        profile = oracles.circulant_distance_profile(n, jumps)
        if profile is not None:
            bounds.append((profile[0] + dd, profile[1] + ds))
        for order in set(itertools.permutations(jumps)):
            for bound in bounds:
                want = oracles.circulant_distance_profile(n, order, bound)
                assert circulant_distance_profile(n, order, bound) == want, (order, bound)

    @given(st.data())
    def test_interleaved_calls_never_read_stale_balls(self, data):
        # A few sizes and a few jumps valid at all of them, so consecutive
        # calls share jumps[1:] at one n, then meet it again at another n or
        # with a bound that needs deeper balls than the cached ones.
        ns = data.draw(st.lists(st.integers(3, 300), min_size=2, max_size=3, unique=True))
        pool = data.draw(
            st.lists(st.integers(1, min(ns) - 1), min_size=2, max_size=4, unique=True)
        )
        calls = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ns),
                    st.lists(st.sampled_from(pool), min_size=1, max_size=4),
                    st.integers(-1, 3),
                ),
                min_size=2,
                max_size=30,
            )
        )
        for n, jumps, dd in calls:
            jumps = tuple(jumps)
            profile = oracles.circulant_distance_profile(n, jumps)
            if dd < 0:
                bound = None
            elif profile is None:
                bound = (n + dd, n * n)
            else:
                bound = (profile[0] - 1 + dd, profile[1])
            want = oracles.circulant_distance_profile(n, jumps, bound)
            assert circulant_distance_profile(n, jumps, bound) == want, (n, jumps, bound)

    def test_same_rest_at_another_n_and_depth(self):
        # jumps[1:] = (5, 7) at n = 64, at n = 65, then back at n = 64 with
        # no bound, so the shallow balls cached first must be extended.
        calls = [
            (64, (3, 5, 7), (3, 10**6)),
            (65, (2, 5, 7), None),
            (64, (9, 5, 7), (4, 10**6)),
            (64, (1, 5, 7), None),
            (65, (1, 5, 7), (1, 0)),
            (65, (11, 5, 7), None),
        ]
        for n, jumps, bound in calls:
            want = oracles.circulant_distance_profile(n, jumps, bound)
            assert circulant_distance_profile(n, jumps, bound) == want, (n, jumps, bound)

    @pytest.mark.parametrize(
        "n, jumps, bad",
        [
            (8, (1, 8), 8),
            (8, (8, 1), 8),
            (8, (0, 3), 0),
            (8, (-1,), -1),
            (8, (9,), 9),
            (8, (3, 1, 12), 12),
            (1, (1,), 1),
        ],
    )
    def test_jump_outside_range_is_refused(self, n, jumps, bad):
        # Also when the bound would drop the candidate before any level,
        # and again after the refusal (nothing half-built is cached).
        for bound in (None, (0, 0), (0, 0)):
            with pytest.raises(ValueError, match=rf"jump {bad} is outside \[1, {n - 1}\]"):
                circulant_distance_profile(n, jumps, bound)


class TestGroupFloor:
    """`metrics.group_floor` bounds (diameter, distance sum) for every jump
    set (s, *tail) at once, so a group it puts above a bound holds no
    member at or below that bound."""

    @given(st_circulant_case(), st.data())
    def test_no_member_at_or_below_a_bound_the_floor_exceeds(self, case, data):
        n, tail = case
        assume(n >= 2)
        member = data.draw(st.integers(1, n - 1))
        profile = oracles.circulant_distance_profile(n, (member, *tail))
        assume(profile is not None)
        # at, just above or just below the member's own profile
        dd = data.draw(st.integers(-1, 1))
        ds = data.draw(st.integers(-3, 3))
        bound = (profile[0] + dd, profile[1] + ds)
        if metrics.group_floor(n, tail, min(bound[0], n)) > bound:
            # s and n - s give the same graph
            for s in range(1, n // 2 + 1):
                assert oracles.circulant_distance_profile(n, (s, *tail), bound) is None, s

    def test_tight_at_the_degree_four_moore_bound(self):
        # {1, 5} on 13 vertices reaches 4 vertices at distance 1 and the
        # other 8 at distance 2, the most any 4-regular circulant can: every
        # U_d of tail (1,) is a true ball size, so the floor is attained.
        assert oracles.circulant_distance_profile(13, (5, 1)) == (2, 20)
        assert metrics.group_floor(13, (1,), 2) == (2, 20)
        assert metrics.group_floor(13, (1,), 1) == (2, 20)
        assert metrics.group_floor(13, (1,), 0) == (1, 12)


@st.composite
def st_group_case(draw):
    """(n, tail, free, bound) for `metrics.circulant_group_profiles`.

    The tail is made of multiples of a divisor g of n, so members that are
    multiples of g too are disconnected; an empty tail makes one-member
    groups like the scan's r = 0 case. Free jumps come ascending from a
    small pool and its negatives, so members repeat graphs and tie. The
    bound is None, one drawn around a member's own profile, or an arbitrary
    pair."""
    n = draw(st.integers(2, 120))
    g = draw(st.sampled_from([g for g in range(1, n) if n % g == 0]))
    multiple = st.integers(1, (n - 1) // g).map(lambda x: g * x)
    tail = tuple(draw(st.lists(multiple, max_size=4)))
    pool = draw(st.lists(st.one_of(st.integers(1, n - 1), multiple), min_size=1, max_size=5))
    members = st.sampled_from(pool + [n - s for s in pool])
    free = tuple(sorted(draw(st.lists(members, max_size=10))))
    profiles = [oracles.circulant_distance_profile(n, (s, *tail)) for s in free]
    profiles = [p for p in profiles if p is not None]
    kind = draw(st.sampled_from(["none", "member", "any"]))
    if kind == "member" and profiles:
        d, s = draw(st.sampled_from(profiles))
        bound = (d + draw(st.integers(-1, 1)), s + draw(st.integers(-3, 3)))
    elif kind == "any":
        bound = (draw(st.integers(-1, n + 1)), draw(st.integers(0, n * n)))
    else:
        bound = None
    return n, tail, free, bound


class TestGroupProfiles:
    """`metrics.circulant_group_profiles` against a per-candidate loop over
    the frontier kernel (`oracles.circulant_distance_profile`) that carries
    the running best from one member to the next."""

    @given(st_group_case())
    # The first member sets the bound and a later one ties it ({1, 8} is
    # {1, 5} multiplied by -1 mod 13).
    @example((13, (1,), (5, 8), None))
    # {1, 2} sets the bound, {1, 5} beats it and {1, 8} ties the new best.
    @example((13, (1,), (2, 5, 8), None))
    @example((13, (1,), (2, 5, 8), (3, 40)))
    # The ring {1} sets (2, 6), K5 = {1, 3} beats it at diameter 1, and then
    # the ring {1, 4} must be dropped at level 1, not expanded to level 2.
    @example((5, (1,), (1, 3, 4), None))
    # {4, 2} and {4, 6} are disconnected; {4, 1} sets the bound, {4, 11} ties.
    @example((12, (4,), (1, 2, 6, 11), None))
    # One-member groups with no tail: rings.
    @example((5, (), (1,), None))
    @example((2, (), (1,), (1, 1)))
    def test_matches_per_candidate_loop(self, case):
        n, tail, free, bound = case
        want = []
        running = bound
        for s in free:
            profile = oracles.circulant_distance_profile(n, (s, *tail), running)
            if profile is not None:
                want.append((s, profile))
                running = profile
        assert metrics.circulant_group_profiles(n, tail, free, bound) == want

    def test_examples_tie_and_tighten(self):
        assert metrics.circulant_group_profiles(13, (1,), (5, 8)) == [
            (5, (2, 20)), (8, (2, 20)),
        ]
        found = metrics.circulant_group_profiles(13, (1,), (2, 5, 8))
        assert [s for s, _ in found] == [2, 5, 8] and found[0][1] > found[1][1] == found[2][1]
        assert metrics.circulant_group_profiles(12, (4,), (1, 2, 6, 11)) == [
            (1, (3, 19)), (11, (3, 19)),
        ]

    @pytest.mark.parametrize(
        "n, tail, free, bad",
        [
            (8, (1,), (3, 8), 8),
            (8, (1,), (0, 3), 0),
            (8, (1,), (9,), 9),
            (8, (12,), (3,), 12),
            (8, (1, 9), (3, 5), 9),
            (8, (0,), (), 0),
            (1, (), (1,), 1),
        ],
    )
    def test_jump_outside_range_is_refused(self, n, tail, free, bad):
        # Also when the bound would drop the whole group by its floor, and
        # again after the refusal (nothing half-built is cached).
        for bound in (None, (0, 0), (0, 0)):
            with pytest.raises(ValueError, match=rf"jump {bad} is outside \[1, {n - 1}\]"):
                metrics.circulant_group_profiles(n, tail, free, bound)


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

    @given(st.lists(st_distance_leaf, min_size=2, max_size=4))
    def test_product_fast_path_equals_general(self, leaves):
        t = _product_within(leaves, 64)
        assume(t.factors is not None)
        plain = from_edges(t.n, t.edges())
        assert t.vertex_symmetric and not plain.vertex_symmetric
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


class TestHalfTables:
    @given(st_graph)
    def test_matches_brute_force_over_both_halves(self, params):
        n, p, seed = params
        assume(n <= 12)
        t = random_graph(random.Random(seed), n, p)
        for base, size in ((0, n // 2), (n // 2, n - n // 2)):
            cin, share = _half_tables(t, base, size)
            assert cin.shape == share.shape == (1 << size,)
            half = set(range(base, base + size))
            for mask in range(1 << size):
                s = {base + i for i in range(size) if mask >> i & 1}
                inside = sum(1 for u in s for w in t.adjacency[u] if w in half - s)
                assert cin[mask] == inside
                assert share[mask] == cut_size(t, s)


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
    def test_matches_brute_enumeration(self, params):
        # Sparse graphs often have a minimum cut made only of edges inside
        # the two halves, where the per-half bound is tight, and their
        # edge-list form has a lower bound of 0, so nothing stops the search
        # before it has ruled every smaller cut out.
        n, p, seed = params
        t = random_graph(random.Random(seed), n, p)
        assert bisection_exact(t, limit=16) == brute_bisection(t)

    def test_tight_bound_case(self):
        # Both edges join the halves, so the zero cut A = {0, 1, 3, 4, 9}
        # meets the per-half bound exactly.
        t = from_edges(10, [(1, 9), (2, 8)])
        assert bisection_exact(t, limit=16) == 0 == brute_bisection(t)


def _start_cut(t):
    """The Kernighan-Lin cut `bisection_exact` starts from."""
    return metrics._random_cut(_WorkGraph(t), random.Random(0))[0]


def _edge_copy(t):
    """t rebuilt from its edge list: same width, lower bound 0."""
    return from_edges(t.n, t.edges())


class TestBisectionExactProof:
    """The exact solver proves its starting Kernighan-Lin cut optimal or
    finds a smaller one, splitting the halves along that cut."""

    @pytest.mark.parametrize("spec", ["circulant:12:1,2,4", "circulant:16:1,2,6"])
    def test_start_cut_above_the_width(self, spec):
        t = parse_spec(spec)
        width = brute_bisection(t)
        assert _start_cut(t) > width
        assert bisection_exact(t) == width
        # with no floor to stop at, the search runs until nothing can beat it
        copy = _edge_copy(t)
        assert bisection_lower_bound(copy) == 0 and _start_cut(copy) > width
        assert bisection_exact(copy) == width

    def test_edge_list_graph_with_a_zero_lower_bound(self):
        t = _edge_copy(circulant(JumpSet(32, (1, 7))))
        assert bisection_lower_bound(t) == 0
        assert bisection_exact(t) == 16

    # more than 64 crossing edges: two and four 64-bit words per mask (K32
    # itself stops at its lower bound, which equals the width)
    @pytest.mark.parametrize(
        "t, width",
        [(halves_biclique(32), 128), (_edge_copy(complete(32)), 256), (complete(32), 256)],
        ids=["halves_biclique32", "complete32_edges", "complete32"],
    )
    def test_wide_crossing_masks(self, t, width):
        assert bisection_exact(t) == width

    def test_wide_crossing_masks_from_a_poor_start(self):
        # From the index split all 81 edges of K_{9,9} cross, and the edges
        # at low vertices 7 and 8 are the ones past the first 64-bit word.
        # The triangle {0, 7, 8} puts both in every minimum side, so the
        # width 41 is found only when the second word is counted.
        t = from_edges(18, halves_biclique(18).edges() + [(0, 7), (0, 8), (7, 8)])
        side = np.repeat(np.array([0, 1], dtype=np.int8), 9)
        with mock.patch.object(metrics, "_random_cut", return_value=(81, side)):
            assert bisection_exact(t, limit=18) == brute_bisection(t) == 41

    @given(st_graph, st.randoms(use_true_random=False))
    def test_any_starting_side_gives_the_width(self, params, rnd):
        # the relabelling and the search hold for every balanced start, not
        # only for the one Kernighan-Lin finds
        n, p, seed = params
        assume(n % 2 == 0)
        t = random_graph(random.Random(seed), n, p)
        side = np.ones(n, dtype=np.int8)
        side[rnd.sample(range(n), n // 2)] = 0
        start = (cut_size(t, set(np.flatnonzero(side == 0).tolist())), side)
        with mock.patch.object(metrics, "_random_cut", return_value=start):
            assert bisection_exact(t, limit=16) == brute_bisection(t)

    @pytest.mark.parametrize("chunk", [1, 5])
    def test_small_blocks(self, chunk):
        t = _edge_copy(circulant(JumpSet(16, (1, 2, 6))))
        with mock.patch.object(metrics, "_EXACT_CHUNK", chunk):
            assert bisection_exact(t) == brute_bisection(t) == 16


st_work_graph = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, 10_000),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )
)


def _work_state(n, gseed, d, status):
    """An st_work_graph draw as (graph, 0/1 adjacency matrix, D, avail_a,
    avail_b): a random graph with edge probability 0.6 drawn from gseed;
    status 0 and 1 are the unlocked vertices of side A and side B, 2 is
    locked."""
    t = random_graph(random.Random(gseed), n, 0.6)
    status = np.array(status)
    return (
        _WorkGraph(t),
        t.matrix().astype(np.int64),
        np.array(d, dtype=np.int64),
        np.flatnonzero(status == 0),
        np.flatnonzero(status == 1),
    )


class TestBestSwap:
    @given(st_work_graph)
    @settings(max_examples=150)
    def test_returns_a_maximum_gain_unlocked_cross_pair(self, params):
        # D drawn from 7 values so ties are everywhere
        _, m, D, avail_a, avail_b = _work_state(*params)
        pick = _best_swap(m, D, avail_a, avail_b)
        if len(avail_a) == 0 or len(avail_b) == 0:
            assert pick is None
            return
        u, v, gain = pick
        assert u in avail_a and v in avail_b
        assert gain == D[u] + D[v] - 2 * m[u, v]
        assert gain == max(D[a] + D[b] - 2 * m[a, b] for a in avail_a for b in avail_b)

    @pytest.mark.parametrize("flip", [False, True])
    def test_best_pair_below_a_heavy_top(self, flip):
        # Side X: 8 vertices with D = 1, each joined to the top vertex of
        # side Y, and 12 free vertices with D = 0. Side Y: one vertex with
        # D = 5 and 11 with D = -5. Every pair among the top eight of X
        # gains at most 4, while a free X vertex with the top of Y gains 5.
        x = np.arange(20)
        y = np.arange(20, 32)
        D = np.array([1] * 8 + [0] * 12 + [5] + [-5] * 11, dtype=np.int64)
        t = from_edges(32, [(a, 20) for a in range(8)])
        sides = (y, x) if flip else (x, y)
        pick = _GainBuckets(_WorkGraph(t), D, *sides).best()
        assert pick == _best_swap(t.matrix(), D, *sides)
        assert pick == ((20, 8, 5) if flip else (8, 20, 5))


class TestGainBuckets:
    @given(st_work_graph)
    @settings(max_examples=150)
    # draws where D ties decide the pair: both fail if ties go to the
    # higher index
    @example((
        36, 1496,
        [-3, 2, -2, -3, 2, 3, 0, 2, 3, -1, -3, 3, 1, -1, 1, 0, 2, -1,
         -1, 1, 3, 1, -1, 1, 2, 3, 2, 1, 1, -3, 2, 1, 0, -3, 1, 3],
        [1, 0, 2, 1, 1, 2, 1, 1, 1, 1, 0, 2, 2, 0, 2, 1, 1, 1,
         0, 0, 0, 1, 2, 1, 1, 1, 1, 0, 2, 0, 1, 1, 2, 0, 1, 1],
    ))
    @example((
        39, 5116,
        [-2, -2, 2, 0, -1, 2, 3, -3, -1, 3, 3, -3, 3, 3, -2, 0, -3, 3, -3, -1,
         2, -2, 1, -1, 1, 3, -3, 0, 2, 1, 2, 3, 2, 2, -3, -1, -2, 1, 2],
        [2, 2, 1, 1, 2, 0, 2, 0, 0, 1, 1, 1, 2, 2, 0, 2, 0, 2, 0, 1,
         1, 1, 1, 1, 1, 1, 2, 2, 1, 0, 0, 0, 1, 1, 2, 0, 2, 2, 1],
    ))
    def test_picks_best_swap_pair_through_a_swap_sequence(self, params):
        # After each pick, u and v are locked and every unlocked vertex's D
        # moves as the dense update moves it; the next pick must still be
        # _best_swap's.
        g, m, D, avail_a, avail_b = _work_state(*params)
        buckets = _GainBuckets(g, D, avail_a, avail_b)
        sign = np.zeros(g.n, dtype=np.int64)
        sign[avail_a], sign[avail_b] = 1, -1
        while True:
            pick = buckets.best()
            assert pick == _best_swap(m, D, avail_a, avail_b)
            if pick is None:
                return
            u, v, _ = pick
            buckets.swap(u, v)
            D = D + 2 * sign * (m[u] - m[v])
            avail_a, avail_b = avail_a[avail_a != u], avail_b[avail_b != v]

    def test_boundary_tie_goes_to_the_lower_index(self):
        # Side A is vertices 0-8 with D = 0, 0, 0, 0, 0, 0, 1, 1, 1, so its
        # (-D, index) order is 6, 7, 8, 0, 1, 2, 3, 4, 5. Every A vertex
        # except 4 and 5 is joined to B's only vertex 9, so 4 and 5 tie at
        # gain 0 and the pair is (4, 9).
        D = np.array([0] * 6 + [1] * 3 + [0], dtype=np.int64)
        t = from_edges(10, [(a, 9) for a in (0, 1, 2, 3, 6, 7, 8)])
        avail_a, avail_b = np.arange(9), np.array([9])
        assert _best_swap(t.matrix(), D, avail_a, avail_b) == (4, 9, 0)
        assert _GainBuckets(_WorkGraph(t), D, avail_a, avail_b).best() == (4, 9, 0)


# A random graph and the seed of its balanced side. Each graph draws one
# density, so the dense ones tie on D almost everywhere and scan deep into
# both orders.
st_refine_case = st.tuples(
    st.integers(1, 40).map(lambda h: 2 * h),
    st.sampled_from([0.05, 0.2, 0.5, 0.9, 1.0]),
    st.integers(0, 10_000),
).map(lambda c: (random_graph(random.Random(c[2]), c[0], c[1]), c[2]))


class TestKlRefine:
    @given(st_refine_case)
    # cases whose side depends on how D ties are broken
    @example((random_graph(random.Random(0), 60, 0.9), 0))
    @example((random_graph(random.Random(3), 70, 0.9), 3))
    # a pair in an earlier row than the best of a prefix window, but with
    # its column outside that window, ties it: the first row-major maximum
    # over the whole orders takes that pair (cut 625; a scan of doubling
    # prefix windows, which stops at the first window whose best nothing
    # outside beats, gives 628)
    @example((random_graph(random.Random(180), 54, 0.9), 180))
    # sizes the heuristic refines: jump n/2 gives single edges; a product
    @example((parse_spec("circulant:128:1,12,30,64"), 0))
    @example((parse_spec("product:circulant:32:1,7*complete:4"), 0))
    def test_matches_dense_refinement(self, case):
        t, seed = case
        side = np.ones(t.n, dtype=np.int8)
        side[random.Random(seed).sample(range(t.n), t.n // 2)] = 0
        expected = side.copy()
        assert _kl_refine(_WorkGraph(t), side) == oracles.kl_refine(t, expected)
        assert side.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("spec, width", [("circulant:32:1,12", 14), ("circulant:32:1,7", 16)])
    def test_floor_below_the_width_keeps_the_full_loops_side(self, spec, width):
        # the spectral floor is below the width, so no restart stops early;
        # the full restart loop picks the same cut and side
        t = parse_spec(spec)
        assert bisection_lower_bound(t) < width == bisection_exact(t)
        assert bisection_heuristic(t, restarts=16, seed=0) == width
        cut, side = _best_balanced_side(t, 16, 0)
        want_cut, want_side = oracles.best_balanced_side(t, 16, 0)
        assert (cut, side.tobytes()) == (want_cut, want_side.tobytes())

    @given(st_graph, st.integers(0, 3))
    @example((16, 0.25, 6), 0)  # restart 0 reaches 5 before restart 1 reaches the width 4
    def test_random_graphs_keep_the_full_loops_side(self, params, seed):
        n, p, graph_seed = params
        assume(n % 2 == 0)
        t = random_graph(random.Random(graph_seed), n, p)
        cut, side = _best_balanced_side(t, 4, seed)
        want_cut, want_side = oracles.best_balanced_side(t, 4, seed)
        assert (cut, side.tobytes()) == (want_cut, want_side.tobytes())

    def test_floor_needs_no_exact_solve(self, monkeypatch):
        # the floor is `bisection_lower_bound` for every n: neither a
        # product's 32-vertex factor nor a 32-vertex circulant is solved
        # exactly inside the heuristic
        def no_exact(*args, **kwargs):
            raise AssertionError("the heuristic ran the exact solver")

        monkeypatch.setattr(metrics, "bisection_exact", no_exact)
        t = parse_spec("product:circulant:32:1,7*complete:4")
        cut, side = _best_balanced_side(t, 4, 0, 1)
        want_cut, want_side = oracles.best_balanced_side(t, 4, 0)
        assert (cut, side.tobytes()) == (want_cut, want_side.tobytes())
        t = parse_spec("circulant:32:1,12")
        assert bisection_heuristic(t, restarts=4) == oracles.best_balanced_side(t, 4, 0)[0]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unseeded_restarts_match_the_full_loop(self, seed):
        # an edge list has no jumps, so no quotient seeds, and a lower bound
        # of 0, so all 4 restarts start from random balanced sides
        t = _edge_copy(parse_spec("circulant:128:1,8,54"))
        assert metrics._quotient_seeds(t) == [] and bisection_lower_bound(t) == 0
        cut, side = _best_balanced_side(t, 4, seed)
        want_cut, want_side = oracles.best_balanced_side(t, 4, seed)
        assert (cut, side.tobytes()) == (want_cut, want_side.tobytes())

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


class TestQuotientSeeds:
    # jumps n/2 (32:1,6,16 and 512:...,256), a ring, a complete graph, and a
    # circulant with fewer than 8 quotient-arc sides
    @pytest.mark.parametrize(
        "spec",
        [
            "circulant:32:1,6,16",
            "circulant:512:1,23,31,119,256",
            "circulant:128:1,8,54",
            "ring:100",
            "complete:8",
            "circulant:4:1,2",
        ],
    )
    def test_closed_form_cuts_rank_as_counted_cuts(self, spec):
        t = parse_spec(spec)
        got, want = metrics._quotient_seeds(t), oracles.quotient_seeds(t)
        assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
        assert all(np.count_nonzero(s) == t.n // 2 for s in got)

    def test_products_and_edge_lists_get_none(self):
        assert metrics._quotient_seeds(parse_spec("torus:8,4")) == []
        assert metrics._quotient_seeds(from_edges(4, [(0, 1), (2, 3)])) == []


def _two_rings():
    """Rings with jumps {1, 2} on 64 and 66 vertices, joined by two bridges.
    Every balanced split cuts at least 4 ring edges and 1 bridge: width 5."""
    edges = [(0, 64), (32, 97)]
    for base, m in ((0, 64), (64, 66)):
        edges += [(base + i, base + (i + j) % m) for i in range(m) for j in (1, 2)]
    return from_edges(130, edges)


class TestBalancedSides:
    """Every side is a bisection, also for sizes not divisible by 4 (whose
    halving once reached an odd level of a contraction scheme and gave
    unbalanced sides)."""

    @pytest.mark.parametrize(
        "spec",
        [
            "circulant:66:1,14",
            "circulant:102:1,9,29",
            "circulant:126:1,6,26",
            "circulant:130:1,7",
            "circulant:132:1,5,21",
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_side_is_a_bisection(self, spec, seed):
        t = parse_spec(spec)
        cut, side = _best_balanced_side(t, 2, seed)
        assert np.count_nonzero(side == 0) == t.n // 2
        assert cut == cut_size(t, set(np.flatnonzero(side == 0).tolist()))

    def test_width_of_two_bridged_rings(self):
        t = _two_rings()
        assert bisection_heuristic(t, 16, 13) == 5
        assert compute_metrics(t, restarts=16, seed=13).bisection == 5


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
    # and never on the circulants, the circulant product and ring:9 x K4
    # (whose odd factor lifts no seed side).
    ORACLE_CASES = [
        ("hypercube:6", 16, 1),
        ("torus:8,4,4", 8, 2),
        ("torus:6,4", 8, 3),
        ("product:ring:8*complete:4", 8, 0),
        ("product:ring:6*complete:2", 8, 0),
        ("product:ring:9*complete:4", 8, 0),
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


class TestPooledRestarts:
    """Restarts 1.. on a process pool give the sequential loop's cut and side
    for any worker count, and the pool never outlives the call."""

    # (spec, restarts, seed): a floor hit at restart 1 (the 10 x 16 torus),
    # one at restart 0, factor-lifted seeds (the product), a single restart,
    # fewer restarts than workers, and one n = 1024 circulant.
    CASES = [
        ("torus:10,16", 4, 0),
        ("ring:100", 4, 0),
        ("product:circulant:32:1,7*complete:4", 4, 0),
        ("circulant:128:1,8,54", 1, 0),
        ("circulant:128:1,8,54", 2, 3),
        ("circulant:128:1,8,54", 3, 2),
        ("circulant:1024:1,144,258,276", 4, 0),
    ]

    @pytest.mark.parametrize("spec, restarts, seed", CASES)
    def test_same_cut_and_side_for_any_worker_count(self, spec, restarts, seed):
        t = parse_spec(spec)
        want_cut, want_side = oracles.best_balanced_side(t, restarts, seed)
        for workers in (1, 2, 3):
            cut, side = _best_balanced_side(t, restarts, seed, workers)
            assert (cut, side.tobytes()) == (want_cut, want_side.tobytes()), workers

    def test_torus_meets_the_floor_after_restart_zero(self):
        # what makes the torus case above test the pool's early stop
        t = parse_spec("torus:10,16")
        floor = bisection_lower_bound(t)
        assert _best_balanced_side(t, 1, 0, 1)[0] > floor
        assert _best_balanced_side(t, 2, 0, 1)[0] == floor

    def test_pool_used_above_the_threshold_only(self, monkeypatch):
        calls = []
        pooled = metrics._pooled_restarts
        monkeypatch.setattr(
            metrics, "_pooled_restarts", lambda *args: calls.append(args[-1]) or pooled(*args)
        )
        _best_balanced_side(parse_spec("circulant:64:1,14"), 4, 0, 2)
        _best_balanced_side(parse_spec("circulant:128:1,8,54"), 4, 0, 1)
        _best_balanced_side(parse_spec("torus:8,4,4"), 4, 0, 2)  # restart 0 meets the floor
        assert calls == []
        _best_balanced_side(parse_spec("circulant:128:1,8,54"), 4, 0, 8)
        assert calls == [3]  # min(workers, restarts - 1) processes

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched restart reaches pool workers only through fork",
    )
    def test_restart_error_reaches_the_caller_and_the_pool_is_shut_down(self, monkeypatch):
        restart = metrics._restart

        def failing(g, seed_side, i, *rest):
            if i == 2:
                raise RuntimeError("restart 2 failed")
            return restart(g, seed_side, i, *rest)

        monkeypatch.setattr(metrics, "_restart", failing)
        with pytest.raises(RuntimeError) as info:
            _best_balanced_side(parse_spec("circulant:128:1,8,54"), 4, 0, 2)
        assert type(info.value) is RuntimeError
        assert info.value.args == ("restart 2 failed",)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched restart reaches pool workers only through fork",
    )
    def test_restart_after_the_floor_hit_neither_counts_nor_raises(self, monkeypatch):
        # restart 1 meets the floor late, restarts 2 and 3 fail at once: one
        # worker never runs them, so a pool must not raise their errors
        restart = metrics._restart

        def patched(g, seed_side, i, seed, floor):
            if i == 0:
                return restart(g, seed_side, i, seed, floor)
            if i == 1:
                time.sleep(0.3)
                return floor, (np.arange(g.n) % 2).astype(np.int8)
            raise RuntimeError(f"restart {i} failed")

        monkeypatch.setattr(metrics, "_restart", patched)
        t = parse_spec("circulant:128:1,8,54")
        cut, side = _best_balanced_side(t, 4, 0, 1)
        assert cut == bisection_lower_bound(t)
        got_cut, got_side = _best_balanced_side(t, 4, 0, 2)
        assert (got_cut, got_side.tobytes()) == (cut, side.tobytes())
        assert multiprocessing.active_children() == []

    def test_one_worker_starts_no_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(metrics, "ProcessPoolExecutor", no_pool)
        t = parse_spec("circulant:128:1,8,54")
        assert compute_metrics(t, restarts=3, workers=1).bisection > 0
        with pytest.raises(AssertionError, match="pool was started"):
            compute_metrics(t, restarts=3, workers=2)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_fewer_than_one_worker_is_refused(self, workers):
        # refused before any work, even where no heuristic would run
        with pytest.raises(ValueError, match="workers must be >= 1"):
            compute_metrics(parse_spec("ring:7"), workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            bisection_heuristic(parse_spec("circulant:128:1,8,54"), 2, 0, workers)


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
