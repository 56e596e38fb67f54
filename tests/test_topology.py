"""Topology constructor tests: structure, tags, search-space shapes, and the
unit-multiplier isomorphism (checked at the metric level via BFS profiles)."""

import json
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from circnet import topology
from circnet.cli import SpecError, format_spec
from circnet.topology import (
    InfeasibleDegreeError,
    JumpSet,
    Topology,
    adam_canonical,
    adam_multiply,
    cartesian_product,
    circulant,
    complete,
    from_edges,
    hypercube,
    is_connected_circulant,
    jump_space,
    mixed_radix,
    ring,
    torus,
)


def bfs_oracle(adjacency, source):
    """Independent queue-based BFS (no bit tricks)."""
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def jump_sets(max_n=64):
    def build(draw_tuple):
        n, picks = draw_tuple
        jumps = sorted({1 + (p % (n // 2)) for p in picks})
        return JumpSet(n, tuple(jumps))

    return st.tuples(
        st.integers(3, max_n), st.lists(st.integers(0, 1000), min_size=1, max_size=5)
    ).map(build)


class TestJumpSet:
    def test_degree_counting(self):
        assert JumpSet(16, (1, 6)).degree == 4
        assert JumpSet(16, (1, 3, 8)).degree == 5  # 8 is the half jump
        assert JumpSet(9, (1, 4)).degree == 4  # floor(9/2)=4 is not n/2

    def test_rejects_out_of_range_jump(self):
        with pytest.raises(ValueError):
            JumpSet(16, (9,))
        with pytest.raises(ValueError):
            JumpSet(16, (0,))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            JumpSet(16, (3, 3))

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError, match="vertex count must be positive"):
            JumpSet(0, ())


class TestTopologyValidation:
    @pytest.mark.parametrize(
        "n, adjacency, match",
        [
            (0, (), "empty topology"),
            (3, ((1,), (0,)), "adjacency length"),
            (2, ((1, 1), (0,)), "duplicate edges at vertex 0"),
            (2, ((1, 2), (0,)), "neighbor 2 out of range at vertex 0"),
            (2, ((0,), ()), "self-loop at vertex 0"),
            (3, ((1, 2), (0,), ()), "edge 0->2 missing its reverse"),
        ],
    )
    def test_malformed_adjacency_rejected(self, n, adjacency, match):
        with pytest.raises(ValueError, match=match):
            Topology(n=n, adjacency=adjacency)


class TestCirculant:
    def test_fig_degree4_16(self):
        t = circulant(JumpSet(16, (1, 6)))
        assert t.n == 16 and t.degree == 4 and t.is_regular()
        assert t.vertex_symmetric and t.jumps.jumps == (1, 6)

    def test_all_jumps_is_complete(self):
        t = circulant(JumpSet(5, (1, 2)))
        assert all(len(nbrs) == 4 for nbrs in t.adjacency)

    def test_single_jump_is_ring(self):
        t = circulant(JumpSet(8, (1,)))
        assert all(len(nbrs) == 2 for nbrs in t.adjacency)
        assert t.adjacency[0] == (1, 7)

    @given(jump_sets())
    def test_regular_of_implied_degree(self, js):
        t = circulant(js)
        assert all(len(nbrs) == js.degree for nbrs in t.adjacency)

    @given(jump_sets())
    def test_connectivity_matches_bfs(self, js):
        t = circulant(js)
        reached = len(bfs_oracle(t.adjacency, 0))
        assert is_connected_circulant(js) == (reached == js.n)

    @given(jump_sets(max_n=40), st.integers(1, 39))
    def test_vertex_symmetry_of_distance_profile(self, js, i):
        assume(is_connected_circulant(js))
        t = circulant(js)
        d0 = sorted(bfs_oracle(t.adjacency, 0).values())
        di = sorted(bfs_oracle(t.adjacency, i % js.n).values())
        assert d0 == di


class TestConnectivity:
    def test_gcd_two_components(self):
        assert not is_connected_circulant(JumpSet(8, (2, 4)))

    def test_gcd_one(self):
        assert is_connected_circulant(JumpSet(8, (2, 3)))
        assert is_connected_circulant(JumpSet(32, (1, 7)))


class TestAdamMultiply:
    def test_maps_odd_jump_to_one(self):
        assert adam_multiply(JumpSet(16, (3, 8)), 11).jumps == (1, 8)

    def test_identity_unit(self):
        js = JumpSet(20, (3, 7, 10))
        assert adam_multiply(js, 1) == js

    def test_inverse_of_7_mod_32(self):
        mapped = adam_multiply(JumpSet(32, (1, 7)), pow(7, -1, 32))
        assert 1 in mapped.jumps

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            adam_multiply(JumpSet(16, (1, 5)), 4)

    @given(jump_sets(max_n=48), st.integers(1, 47))
    def test_preserves_distance_multiset(self, js, u):
        assume(math.gcd(u, js.n) == 1)
        assume(is_connected_circulant(js))
        a = circulant(js)
        b = circulant(adam_multiply(js, u))
        da = sorted(bfs_oracle(a.adjacency, 0).values())
        db = sorted(bfs_oracle(b.adjacency, 0).values())
        assert da == db

    def test_canonical_form_of_equivalent_sets(self):
        assert adam_canonical(JumpSet(32, (1, 9))).jumps == (1, 7)
        assert adam_canonical(JumpSet(32, (1, 7))).jumps == (1, 7)
        assert adam_canonical(JumpSet(512, (1, 168, 189, 237))).jumps == (1, 15, 56, 149)

    @given(jump_sets(max_n=40), st.integers(1, 39))
    def test_canonical_constant_on_class(self, js, u):
        assume(math.gcd(u, js.n) == 1)
        assert adam_canonical(adam_multiply(js, u)) == adam_canonical(js)
        assert adam_canonical(js).jumps <= js.jumps

    @given(jump_sets(max_n=120))
    def test_canonical_is_smallest_unit_image(self, js):
        assert adam_canonical(js).jumps == canonical_oracle(js)

    @pytest.mark.parametrize(
        "js",
        [JumpSet(30, (6, 10, 15)), JumpSet(36, (2, 3, 18)), JumpSet(60, (4, 6, 10, 15)), JumpSet(1, ())],
    )
    def test_canonical_without_unit_jumps(self, js):
        assert adam_canonical(js).jumps == canonical_oracle(js)


def canonical_oracle(js):
    """The definition: the smallest image over every unit multiplier."""
    units = [u for u in range(1, js.n) if math.gcd(u, js.n) == 1]
    return min([js.jumps] + [adam_multiply(js, u).jumps for u in units])


class TestJumpSpace:
    def test_large_reduced(self):
        plan = jump_space(1024, 10, reduced=True)
        assert plan.fixed == (1,) and (plan.lo, plan.hi, plan.r) == (2, 511, 4)

    def test_odd_degree_with_reduction(self):
        plan = jump_space(32, 5, reduced=True)
        assert plan.fixed == (1, 16) and (plan.lo, plan.hi, plan.r) == (2, 15, 1)

    def test_unreduced(self):
        plan = jump_space(8, 4, reduced=False)
        assert plan.fixed == () and (plan.lo, plan.hi, plan.r) == (1, 3, 2)

    def test_reduction_ignored_off_power_of_two(self):
        plan = jump_space(24, 4, reduced=True)
        assert plan.fixed == () and (plan.lo, plan.hi, plan.r) == (1, 11, 2)

    def test_odd_k_odd_n_infeasible(self):
        with pytest.raises(InfeasibleDegreeError):
            jump_space(9, 5)

    def test_degree_bounds(self):
        with pytest.raises(InfeasibleDegreeError):
            jump_space(8, 2)
        with pytest.raises(InfeasibleDegreeError):
            jump_space(8, 8)


class TestReferenceTopologies:
    def test_hypercube5(self):
        t = hypercube(5)
        assert t.n == 32 and t.degree == 5 and t.is_regular()
        assert t.vertex_symmetric
        # neighbors of 0 are the powers of two
        assert t.adjacency[0] == (1, 2, 4, 8, 16)

    def test_torus_8x4(self):
        t = torus([8, 4])
        assert t.n == 32 and t.degree == 4 and t.is_regular()
        assert len(t.factors) == 2

    def test_complete4(self):
        t = complete(4)
        assert t.n == 4 and t.degree == 3

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            ring(2)

    def test_torus_small_dims_rejected(self):
        with pytest.raises(ValueError):
            torus([8, 2])


class TestCartesianProduct:
    def test_ring8_x_complete4(self):
        t = cartesian_product(ring(8), complete(4))
        assert t.n == 32 and t.degree == 5 and t.is_regular()
        assert t.kind == "product"

    def test_product_identity(self):
        single = circulant(JumpSet(1, ()))
        a = ring(5)
        t = cartesian_product(a, single)
        assert t.n == 5
        assert [tuple(r) for r in t.adjacency] == [tuple(r) for r in a.adjacency]

    def test_large_product_degree(self):
        t = cartesian_product(circulant(JumpSet(256, (1, 13, 33, 128))), complete(4))
        assert t.n == 1024 and t.degree == 10

    def test_vertex_indexing_row_major(self):
        t = cartesian_product(ring(4), complete(3))
        # (u, v) -> u*3 + v; (0,0) neighbors: v-edges (0,1),(0,2); u-edges (1,0),(3,0)
        assert t.adjacency[0] == (1, 2, 3, 9)

    @given(st.integers(3, 6), st.integers(2, 5))
    def test_degree_additivity(self, m, c):
        t = cartesian_product(ring(m), complete(c))
        assert t.degree == 2 + (c - 1)

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    def test_mixed_radix_digits_rebuild_the_index(self, sizes):
        weights, coords = mixed_radix(sizes)
        assert weights[-1] == 1 and len(coords) == math.prod(sizes)
        for v, digits in enumerate(coords):
            assert all(0 <= d < m for d, m in zip(digits, sizes))
            assert sum(d * w for d, w in zip(digits, weights)) == v

    def test_mixed_radix_matches_product_edges(self):
        # a product edge changes exactly one digit, by a factor edge
        a, b = ring(4), complete(3)
        t = cartesian_product(a, b)
        _, coords = mixed_radix([a.n, b.n])
        for u, v in t.edges():
            diff = [p for p in range(2) if coords[u][p] != coords[v][p]]
            assert len(diff) == 1
            p = diff[0]
            assert coords[v][p] in (a, b)[p].adjacency[coords[u][p]]


def build(recipe, lib):
    """Build a recipe with the torus, hypercube and cartesian_product of
    `lib` (the library, or the binary-fold oracles)."""
    kind, arg = recipe
    if kind == "product":
        return lib.cartesian_product(*(build(r, lib) for r in arg))
    if kind in ("torus", "hypercube"):
        return getattr(lib, kind)(arg)
    if kind == "edges":
        return from_edges(*arg)
    return {"ring": ring, "complete": complete}[kind](arg)


def recipe_size(recipe) -> int:
    kind, arg = recipe
    if kind == "product":
        return math.prod(recipe_size(r) for r in arg)
    if kind == "torus":
        return math.prod(arg)
    if kind == "hypercube":
        return 2**arg
    return arg[0] if kind == "edges" else arg


def spec_or_error(t):
    try:
        return format_spec(t)
    except SpecError as exc:
        return f"SpecError: {exc}"


def assert_same_as_fold(t, expected):
    assert t.n == expected.n
    assert t.adjacency == expected.adjacency
    assert json.dumps(t.descriptor()) == json.dumps(expected.descriptor())
    assert len(t.factors) == len(expected.factors)
    for leaf, expected_leaf in zip(t.factors, expected.factors):
        assert json.dumps(leaf.descriptor()) == json.dumps(expected_leaf.descriptor())
        assert leaf.adjacency == expected_leaf.adjacency
    assert t.jumps == expected.jumps
    assert t.vertex_symmetric == expected.vertex_symmetric
    assert spec_or_error(t) == spec_or_error(expected)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, draw(st.lists(st.sampled_from(pairs), max_size=8))


st_operand = st.one_of(
    st.tuples(st.just("ring"), st.integers(3, 6)),
    st.tuples(st.just("complete"), st.integers(2, 5)),
    st.tuples(st.just("torus"), st.lists(st.integers(3, 4), min_size=1, max_size=2)),
    st.tuples(st.just("hypercube"), st.integers(1, 3)),
    st.tuples(st.just("edges"), edge_lists()),
)


@st.composite
def product_recipes(draw):
    """Products of two or three operands, nested either way."""
    a, b, c = draw(st_operand), draw(st_operand), draw(st_operand)
    shape = draw(st.sampled_from(["ab", "(ab)c", "a(bc)", "(ab)(ca)"]))
    if shape == "ab":
        return "product", (a, b)
    if shape == "(ab)c":
        return "product", (("product", (a, b)), c)
    if shape == "a(bc)":
        return "product", (a, ("product", (b, c)))
    return "product", (("product", (a, b)), ("product", (c, a)))


class TestProductsAgainstFold:
    """The one mixed-radix product builder against the binary fold it
    replaced (tests/oracles.py): same adjacency, descriptors, leaves, jump
    set, vertex symmetry and spec string."""

    @given(st.lists(st.integers(3, 5), min_size=1, max_size=4))
    def test_torus(self, dims):
        assert_same_as_fold(topology.torus(dims), oracles.torus(dims))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_hypercube(self, d):
        assert_same_as_fold(topology.hypercube(d), oracles.hypercube(d))

    def test_single_leaf_keeps_its_jump_set(self):
        assert topology.torus([3]).jumps == JumpSet(3, (1,))
        assert topology.hypercube(1).jumps == JumpSet(2, (1,))

    @given(product_recipes())
    def test_products(self, recipe):
        assume(recipe_size(recipe) <= 400)
        assert_same_as_fold(build(recipe, topology), build(recipe, oracles))


st_jump_set = st.integers(2, 200).flatmap(
    lambda n: st.lists(st.integers(1, n // 2), min_size=1, max_size=5, unique=True).map(
        lambda jumps: JumpSet(n, tuple(jumps))
    )
)


class TestCirculantAdjacency:
    @given(st_jump_set)
    @settings(max_examples=300)
    def test_rows_follow_the_definition(self, js):
        n = js.n
        t = circulant(js)
        for i in range(n):
            expected = sorted({(i + s) % n for s in js.jumps} | {(i - s) % n for s in js.jumps})
            assert t.adjacency[i] == tuple(expected)
        assert t.degree == js.degree

    def test_single_vertex(self):
        t = circulant(JumpSet(1, ()))
        assert t.adjacency == ((),)


class TestExports:
    def test_edge_list_format(self):
        text = ring(4).edge_list_text()
        assert text == "0 1\n0 3\n1 2\n2 3\n"

    def test_descriptor(self):
        d = torus([8, 4]).descriptor()
        assert d == {"n": 32, "kind": "torus", "params": {"dims": [8, 4]}}

    @pytest.mark.parametrize(
        "edges, vertex",
        [([(0, 7)], 7), ([(7, 7)], 7), ([(0, 1), (4, 2)], 4), ([(0, -1)], -1)],
    )
    def test_from_edges_refuses_endpoints_outside_n(self, edges, vertex):
        with pytest.raises(ValueError, match=rf"^edge endpoint {vertex} outside \[0, 4\)$"):
            from_edges(4, edges)

    @given(st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 10_000))
    def test_matrix_is_the_adjacency(self, n, p, seed):
        rnd = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p]
        for t in (from_edges(n, edges), torus([4, 3]), circulant(JumpSet(12, (1, 6)))):
            m = t.matrix()
            assert m.dtype == np.bool_ and m.shape == (t.n, t.n)
            assert (m == m.T).all() and not m.diagonal().any()
            assert m.sum(axis=1).tolist() == [len(nbrs) for nbrs in t.adjacency]
            assert [tuple(np.flatnonzero(row).tolist()) for row in m] == list(t.adjacency)

    def test_from_edges_validates(self):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 0)])
        t = from_edges(3, [(0, 1), (1, 2)])
        assert t.adjacency == ((1,), (0, 2), (1,))
