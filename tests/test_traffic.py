"""Traffic evaluation tests: conservation is an exact integer identity, the
ring(4) all-to-all loads come from an independent hand enumeration, the
all-to-all mean hop count ties back to the MPL exactly, and the array
builders and evaluator match the per-flow oracles in tests/oracles.py."""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from circnet.cli import main, parse_spec
from circnet.metrics import diameter_mpl
from circnet.routing import RoutingTable, circulant_routes, path, route_table
from circnet.topology import JumpSet, cartesian_product, circulant, complete, ring, torus
from circnet.traffic import (
    FLOW_BLOCK,
    WORD_BLOCK,
    TrafficPattern,
    evaluate,
    pattern_all_to_all,
    pattern_random_pairs,
    pattern_ring_shift,
)


class TestPatterns:
    def test_all_to_all_counts(self):
        assert len(pattern_all_to_all(4).flows) == 12
        assert len(pattern_all_to_all(2).flows) == 2
        assert pattern_all_to_all(9).total_demand == 72

    def test_all_to_all_endpoints_distinct(self):
        assert all(s != d for s, d, _ in pattern_all_to_all(6).flows)

    def test_random_pairs_deterministic(self):
        a = pattern_random_pairs(8, 3, seed=7)
        b = pattern_random_pairs(8, 3, seed=7)
        assert a.flows == b.flows

    def test_random_pairs_distinct_endpoints(self):
        p = pattern_random_pairs(5, 200, seed=1)
        assert all(s != d for s, d, _ in p.flows)

    def test_random_pairs_count(self):
        assert len(pattern_random_pairs(1024, 1024, seed=0).flows) == 1024

    def test_ring_shift(self):
        p = pattern_ring_shift(8, 1)
        assert p.flows == tuple((i, (i + 1) % 8, 1) for i in range(8))
        assert pattern_ring_shift(8, 4).flows[0] == (0, 4, 1)
        assert pattern_ring_shift(8, 3).total_demand == 8

    def test_shift_bounds(self):
        with pytest.raises(ValueError):
            pattern_ring_shift(8, 0)
        with pytest.raises(ValueError):
            pattern_ring_shift(8, 8)

    def test_empty_pattern_is_refused(self):
        with pytest.raises(ValueError, match="at least one flow"):
            evaluate(ring(4), route_table(ring(4)), TrafficPattern("x", []))

    @pytest.mark.parametrize(
        "flows, message",
        [
            (((0, 1, 1), (2, 2, 1), (1, 3, 0)), r"^flow with equal endpoints: 2$"),
            (((0, 1, 1), (1, 3, 0), (2, 2, 1)), r"^non-positive demand on flow 1->3$"),
            (((0, 1, 1), (1, 3, -(2**70))), r"^non-positive demand on flow 1->3$"),
            (((0, 1, 1), (10**30, 10**30, 1)), rf"^flow with equal endpoints: {10**30}$"),
        ],
    )
    def test_construction_names_the_first_bad_flow(self, flows, message):
        with pytest.raises(ValueError, match=message):
            TrafficPattern(kind="x", flows=flows)

    @pytest.mark.parametrize(
        "flows, bad",
        [
            (((0, 1, 1), (0, 1, 2.9)), "(0, 1, 2.9)"),
            (((0.9, 1, 1),), "(0.9, 1, 1)"),
            ((("0", "1", "1"),), "('0', '1', '1')"),
            (((0, 1, Fraction(3, 2)),), "(0, 1, Fraction(3, 2))"),
            (((0, 1, 1), (2, 10**30, np.float64(2.0))), f"(2, {10**30}, {np.float64(2.0)!r})"),
            (((0, 1), (2, 3), (1, 2)), "(0, 1)"),
            (((0, 1, 1), (0, 1, 2, 3)), "(0, 1, 2, 3)"),
        ],
    )
    def test_non_integer_triples_are_refused(self, flows, bad):
        with pytest.raises(ValueError, match=f"^flow {re.escape(bad)} is not a triple of integers$"):
            TrafficPattern(kind="x", flows=flows)

    def test_integers_of_any_type_are_kept_exactly(self):
        p = TrafficPattern(kind="x", flows=((np.int64(0), np.int32(1), 2), (1, 0, 2**62)))
        assert p.flows == ((0, 1, 2), (1, 0, 2**62)) and p.demand.dtype == np.int64
        assert all(type(x) is int for flow in p.flows for x in flow)
        big = TrafficPattern(kind="x", flows=((0, 1, 10**30),))
        assert big.flows == ((0, 1, 10**30),) and big.demand.dtype == object

    @pytest.mark.parametrize(
        "pattern",
        [
            pattern_all_to_all(5),
            pattern_random_pairs(5, 9, seed=2),
            pattern_ring_shift(5, 2),
            TrafficPattern(kind="x", flows=((0, 1, 3), (1, 0, 4))),
            TrafficPattern(kind="x", flows=((0, 1, 3), (1, 10**30, 4))),
        ],
    )
    def test_arrays_are_read_only(self, pattern):
        for name in ("src", "dst", "demand"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(pattern, name)[0] = 1


vertex_counts = st.one_of(st.integers(2, 1100), st.sampled_from([2**k for k in range(1, 11)]))


class TestBuildersAgainstOracle:
    """The numpy builders against one tuple per flow and one randrange call
    per endpoint. Powers of two make randrange(n) reject about half its
    words, and pair counts up to a few WORD_BLOCKs of words carry the draw
    state across blocks."""

    @given(
        vertex_counts,
        st.one_of(st.integers(1, 64), st.integers(1, WORD_BLOCK)),
        st.one_of(st.just(0), st.integers(-(2**80), -1), st.integers(0, 2**32), st.integers(2**64, 2**100)),
    )
    @example(n=2, pairs=2 * WORD_BLOCK, seed=-1)
    @example(n=1024, pairs=3 * WORD_BLOCK, seed=2**64 + 1)
    @settings(max_examples=40)
    def test_random_pairs(self, n, pairs, seed):
        assert pattern_random_pairs(n, pairs, seed).flows == oracles.random_pairs_flows(n, pairs, seed)

    @given(st.integers(2, 160))
    @settings(max_examples=20)
    def test_all_to_all(self, n):
        assert pattern_all_to_all(n).flows == oracles.all_to_all_flows(n)

    @given(st.data())
    @settings(max_examples=40)
    def test_ring_shift(self, data):
        n = data.draw(vertex_counts)
        shift = data.draw(st.integers(1, n - 1))
        assert pattern_ring_shift(n, shift).flows == oracles.ring_shift_flows(n, shift)


def ring4_oracle_loads():
    """Hand enumeration of the 12 all-to-all routed paths on ring(4).

    The vertex-0 tree (smallest-index parents) routes 0->2 via 1; shifting
    gives i -> i+2 via i+1, so each forward link carries its own unit flow
    plus two distance-2 flows, and each backward link carries one unit.
    """
    loads = {}
    for i in range(4):
        paths = [
            [i, (i + 1) % 4],
            [i, (i + 1) % 4, (i + 2) % 4],
            [i, (i + 3) % 4],
        ]
        for seq in paths:
            for u, v in zip(seq, seq[1:]):
                loads[(u, v)] = loads.get((u, v), 0) + 1
    return loads


class TestEvaluate:
    def test_complete4_all_to_all(self):
        t = complete(4)
        rep = evaluate(t, route_table(t), pattern_all_to_all(4))
        assert rep.max_load == 1
        assert all(load == 1 for load in rep.loads.values())
        assert len(rep.loads) == 12
        assert rep.eb_proxy == 12

    def test_ring4_hand_oracle(self):
        t = ring(4)
        rep = evaluate(t, route_table(t), pattern_all_to_all(4))
        assert rep.loads == ring4_oracle_loads()
        assert rep.max_load == 3
        assert rep.weighted_hops == 16
        assert sum(rep.loads.values()) == 16

    def test_conservation_identity(self):
        for t, pat in [
            (ring(8), pattern_all_to_all(8)),
            (circulant(JumpSet(32, (1, 7))), pattern_random_pairs(32, 100, seed=3)),
            (torus([4, 4]), pattern_ring_shift(16, 5)),
        ]:
            rep = evaluate(t, route_table(t), pat)
            assert sum(rep.loads.values()) == rep.weighted_hops

    def test_mean_hops_equals_mpl_all_to_all(self):
        for t in [
            circulant(JumpSet(32, (1, 7))),
            torus([8, 4]),
            cartesian_product(ring(8), complete(4)),
        ]:
            rep = evaluate(t, route_table(t), pattern_all_to_all(t.n))
            _, _, mpl = diameter_mpl(t)
            assert rep.mean_hops == mpl

    def test_eb_proxy_complete_graphs(self):
        for m in (4, 6, 8):
            t = complete(m)
            rep = evaluate(t, route_table(t), pattern_all_to_all(m))
            assert rep.eb_proxy == m * (m - 1)

    def test_circulant_loads_uniform_per_directed_step(self):
        # shift covariance: every link (u, u+s) carries the same load
        t = circulant(JumpSet(32, (1, 7)))
        rep = evaluate(t, route_table(t), pattern_all_to_all(32))
        by_step = {}
        for (u, v), load in rep.loads.items():
            by_step.setdefault((v - u) % 32, set()).add(load)
        assert all(len(loads) == 1 for loads in by_step.values())
        assert len(by_step) == 4  # +-1 and +-7

    def test_circulant_beats_torus_congestion(self):
        c = circulant(JumpSet(32, (1, 7)))
        t = torus([8, 4])
        rc = evaluate(c, route_table(c), pattern_all_to_all(32))
        rt = evaluate(t, route_table(t), pattern_all_to_all(32))
        assert rc.max_load < rt.max_load

    def test_shift_pattern_all_direct_on_matching_jump(self):
        t = ring(8)
        table = route_table(t)
        rep = evaluate(t, table, pattern_ring_shift(8, 4))
        assert all(len(path(table, s, d)) - 1 == 4 for s, d, _ in pattern_ring_shift(8, 4).flows)
        assert rep.mean_hops == 4

    def test_endpoint_out_of_range(self):
        t = ring(4)
        table = route_table(t)
        from circnet.traffic import TrafficPattern

        bad = TrafficPattern(kind="x", flows=((0, 9, 1),))
        with pytest.raises(ValueError):
            evaluate(t, table, bad)

    def test_table_topology_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(ring(8), circulant_routes(ring(4)), pattern_all_to_all(8))


class TestReportFormats:
    def test_links_csv(self):
        t = complete(2)
        rep = evaluate(t, circulant_routes(t), pattern_all_to_all(2))
        assert rep.links_csv() == "src,dst,load\n0,1,1\n1,0,1\n"

    def test_json_keys(self):
        import json

        t = ring(4)
        rep = evaluate(t, route_table(t), pattern_all_to_all(4))
        d = json.loads(rep.to_json())
        assert set(d) == {
            "max_load", "mean_load", "mean_hops", "eb_proxy",
            "total_demand", "weighted_hops", "num_loaded_links",
        }
        assert d["mean_load"] == pytest.approx(16 / 8)


class TestDemandBound:
    """Total demand times n must stay below 2**63 so the int64 sums are exact."""

    def test_just_under_the_bound_is_exact(self):
        t = ring(4)
        a = 2**60 - 1
        b = (2**63 - 1) // 4 - a  # 4 * (a + b) < 2**63
        pat = TrafficPattern(kind="x", flows=((0, 2, a), (1, 2, b)))
        rep = evaluate(t, route_table(t), pat)
        assert rep.loads == {(0, 1): a, (1, 2): a + b}
        assert rep.weighted_hops == 2 * a + b
        assert rep.total_demand == a + b
        assert rep.max_load == a + b

    def test_at_the_bound_raises_before_routing(self):
        t = ring(4)
        table = route_table(t)
        # The table loops on 0 -> 2 and the last endpoint is out of range;
        # the bound must be refused before either is met.
        loop = table.rows.copy()
        loop[0, 2], loop[1, 2] = 1, 0
        forged = RoutingTable(n=4, scheme="x", rows=loop)
        pat = TrafficPattern(kind="x", flows=((0, 2, 2**60), (1, 2, 2**60 - 1), (0, 9, 1)))
        with pytest.raises(ValueError, match="does not fit in int64"):
            evaluate(t, forged, pat)

    def test_total_is_exact_where_an_int64_sum_wraps(self):
        t = ring(4)
        # Four demands of 2**62 sum to 0 in int64. The table loops on 1 -> 2,
        # so the bound must be refused before routing.
        loop = route_table(t).rows.copy()
        loop[0, 2], loop[1, 2] = 1, 0
        forged = RoutingTable(n=4, scheme="x", rows=loop)
        pat = TrafficPattern(kind="x", flows=tuple((i, (i + 1) % 4, 2**62) for i in range(4)))
        assert pat.demand.dtype == np.int64
        assert pat.total_demand == 2**64
        with pytest.raises(ValueError, match=f"total demand {2**64} times n=4 does not fit in int64"):
            evaluate(t, forged, pat)


class TestEndpointsOutOfRange:
    def test_names_the_first_bad_flow(self):
        t = ring(4)
        pat = TrafficPattern(kind="x", flows=((0, 1, 1), (2, -1, 1), (0, 9, 1)))
        with pytest.raises(ValueError, match=r"out of range: 2->-1$"):
            evaluate(t, route_table(t), pat)

    def test_beyond_int64_in_a_later_block(self):
        t = ring(4)
        ok = pattern_all_to_all(4).flows * (FLOW_BLOCK // 12 + 1)
        pat = TrafficPattern(kind="x", flows=ok + ((1, 10**30, 1), (0, 9, 1)))
        with pytest.raises(ValueError, match=f"out of range: 1->{10**30}$"):
            evaluate(t, route_table(t), pat)


class TestForgedTables:
    def forge(self, t, entries):
        rows = route_table(t).rows.copy()
        for (s, d), v in entries.items():
            rows[s, d] = v
        return RoutingTable(n=t.n, scheme="forged", rows=rows)

    def test_hop_over_a_non_edge(self):
        t = ring(8)
        forged = self.forge(t, {(0, 4): 4})  # 0 -> 4 is not a ring link
        with pytest.raises(ValueError, match="0->4 toward 4 is not a link"):
            evaluate(t, forged, pattern_ring_shift(8, 1))

    def test_diagonal_must_be_identity(self):
        t = ring(8)
        with pytest.raises(ValueError, match="sends 3 toward itself to 4"):
            evaluate(t, self.forge(t, {(3, 3): 4}), pattern_ring_shift(8, 1))

    def test_vertex_out_of_range(self):
        t = ring(8)
        with pytest.raises(ValueError, match="outside"):
            evaluate(t, self.forge(t, {(2, 5): 8}), pattern_ring_shift(8, 1))

    def test_two_vertex_loop(self):
        t = ring(8)
        forged = self.forge(t, {(0, 4): 1, (1, 4): 0})  # both hops are links
        with pytest.raises(RuntimeError, match="between 0 and 4"):
            path(forged, 0, 4)
        pat = TrafficPattern(kind="x", flows=((2, 3, 1), (1, 4, 1), (0, 4, 1)))
        with pytest.raises(RuntimeError, match="between 1 and 4"):
            evaluate(t, forged, pat)


@st.composite
def small_connected_circulants(draw, max_n):
    n = draw(st.integers(2, max_n))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    assume(math.gcd(n, *jumps) == 1)
    return circulant(JumpSet(n, tuple(jumps)))


@st.composite
def routable_topologies(draw):
    """Circulants, and products of two or three circulant factors, n <= 40."""
    if draw(st.booleans()):
        return draw(small_connected_circulants(40))
    t = draw(small_connected_circulants(10))
    for _ in range(draw(st.integers(1, 2))):
        if t.n * 2 > 40:
            break
        t = cartesian_product(t, draw(small_connected_circulants(40 // t.n)))
    return t


@st.composite
def demand_patterns(draw, n):
    kind = draw(st.sampled_from(["all-to-all", "random-pairs", "ring-shift"]))
    if kind == "all-to-all":
        base = pattern_all_to_all(n)
    elif kind == "random-pairs":
        base = pattern_random_pairs(n, draw(st.integers(1, 3 * n)), draw(st.integers(0, 99)))
    else:
        base = pattern_ring_shift(n, draw(st.integers(1, n - 1)))
    demands = st.one_of(st.integers(1, 9), st.integers(1, 2**40))
    flows = tuple((s, d, draw(demands)) for s, d, _ in base.flows)
    return TrafficPattern(kind=kind, flows=flows)


class TestAgainstPerFlowOracle:
    """The array tables and the hop-synchronous walk against the pure-Python
    builders and the one-flow-at-a-time loop."""

    @given(st.data())
    @settings(max_examples=60)
    def test_identical_reports(self, data):
        t = data.draw(routable_topologies())
        pat = data.draw(demand_patterns(t.n))
        table = route_table(t)
        want_rows = oracles.route_rows(t)
        assert table.rows.tolist() == [list(r) for r in want_rows]
        got, want = evaluate(t, table, pat), oracles.evaluate(t, want_rows, pat)
        for name in ("loads", "max_load", "mean_load", "mean_hops", "eb_proxy",
                     "total_demand", "weighted_hops"):
            assert getattr(got, name) == getattr(want, name), name
        assert all(type(k[0]) is type(k[1]) is type(v) is int for k, v in got.loads.items())
        assert got.to_json() == want.to_json()
        assert got.links_csv() == want.links_csv()


# sha256 of route_table(t).to_json() and of the all-to-all report's to_json()
# and links_csv(), as produced by the per-flow evaluator and the tuple-of-tuples
# tables before the array rewrite.
PINNED = {
    "circulant:512:1,23,31,119,256": (
        "6ea687bbb36ecdfb019045c138132a4a4277c991b53d9e3d8f6d06fab57c42e2",
        "1e9784f4a161c4e257260d04590988c3ac118645d6f4d6b5fdb912aafc9a14d1",
        "578ba54394cbb24a25aebadf432c2ee96299fbc6ff0d080f62d2f443563a4165",
    ),
    "torus:8,4,4,4": (
        "5bfdca4e4dea3d60569e0987f6e6194fe6652d34c85902e274dd3cc25a90d934",
        "d97772614e56d0aaf67b226e814757f44a2f2fc51490bd639467c29b39cf7261",
        "e5abcfa07760a3e5efc260a3f04cb9a07d0d5c612627c4ffa05a463d3f944e82",
    ),
}


@pytest.mark.parametrize("spec", sorted(PINNED))
def test_pinned_digests(spec):
    t = parse_spec(spec)
    table = route_table(t)
    rep = evaluate(t, table, pattern_all_to_all(t.n))
    got = tuple(hashlib.sha256(s.encode()).hexdigest() for s in (table.to_json(), rep.to_json(), rep.links_csv()))
    assert got == PINNED[spec]


# sha256 of the report's to_json() and links_csv() for 512 * 511 random pairs
# at seed 800 on the n = 512 oc-high circulant, and of the result object of
# `circnet traffic torus:8,4 --pattern random:200 --seed 7` (json.dumps with
# sorted keys), as produced by one random.Random randrange call per endpoint.
RANDOM_PAIRS_PINNED = (
    "1526e94d83187cd0d1178c236b7b6ce85c68b126dd39a61c35adbdfc1aa89408",
    "a6249c98164036cfcc3ba44f4b23905a506bf2e8df44fbe061a6e3ca0ed65833",
    "067d167ed1fedb5cdfeb85affc329ff7ad31f5d84ed16cdcb56db24c3ee991e8",
)


def test_pinned_random_pairs_digests(capsys):
    t = parse_spec("circulant:512:1,23,31,119,256")
    rep = evaluate(t, route_table(t), pattern_random_pairs(512, 512 * 511, 800))
    assert main(["traffic", "torus:8,4", "--pattern", "random:200", "--seed", "7"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    texts = (rep.to_json(), rep.links_csv(), json.dumps(result, sort_keys=True))
    assert tuple(hashlib.sha256(s.encode()).hexdigest() for s in texts) == RANDOM_PAIRS_PINNED
