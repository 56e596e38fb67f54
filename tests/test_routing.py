"""Routing table tests: shortest-path and loop-freedom against BFS, shift
covariance for circulant tables, factor additivity for dimension order."""

import numpy as np
import pytest

from circnet.metrics import bfs_distances, diameter_mpl
from circnet.routing import (
    RoutingTable,
    circulant_routes,
    dimension_order_routes,
    path,
    route_table,
)
from circnet.topology import (
    JumpSet,
    cartesian_product,
    circulant,
    complete,
    from_edges,
    hypercube,
    ring,
    torus,
)


def assert_shortest_and_loop_free(t, table):
    for s in range(t.n):
        dist = bfs_distances(t, s)
        for d in range(t.n):
            seq = path(table, s, d)
            assert len(seq) - 1 == dist[d], (s, d)
            assert len(set(seq)) == len(seq), (s, d)
            assert seq[0] == s and seq[-1] == d


class TestCirculantRoutes:
    def test_route_0_to_8_has_length_2(self):
        t = circulant(JumpSet(32, (1, 7)))
        table = circulant_routes(t)
        assert len(path(table, 0, 8)) - 1 == 2

    def test_shifted_route_same_length(self):
        t = circulant(JumpSet(32, (1, 7)))
        table = circulant_routes(t)
        assert len(path(table, 5, 13)) - 1 == 2

    def test_ring_antipodal(self):
        table = circulant_routes(ring(8))
        assert len(path(table, 0, 4)) - 1 == 4

    def test_neighbor_is_single_edge(self):
        t = circulant(JumpSet(32, (1, 7)))
        table = circulant_routes(t)
        assert path(table, 0, 7) == [0, 7]
        assert path(table, 3, 4) == [3, 4]

    def test_shift_covariance(self):
        t = circulant(JumpSet(24, (1, 5, 9)))
        table = circulant_routes(t)
        n = t.n
        for i in (1, 7, 13):
            for j in range(n):
                if i == j:
                    continue
                base = path(table, 0, (j - i) % n)
                shifted = [(v + i) % n for v in base]
                assert path(table, i, j) == shifted

    def test_shortest_exhaustive(self):
        t = circulant(JumpSet(64, (1, 14)))
        assert_shortest_and_loop_free(t, circulant_routes(t))

    def test_non_circulant_rejected(self):
        t = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            circulant_routes(t)

    def test_next_hop_is_adjacent(self):
        t = circulant(JumpSet(20, (1, 6)))
        table = circulant_routes(t)
        for s in range(t.n):
            for d in range(t.n):
                if s != d:
                    assert table.next_hop(s, d) in t.adjacency[s]


class TestDimensionOrderRoutes:
    def test_hypercube_flips_low_bits_first(self):
        table = dimension_order_routes(hypercube(5))
        assert path(table, 0, 0b10110) == [0, 0b10, 0b110, 0b10110]

    def test_torus_rightmost_factor_first(self):
        table = dimension_order_routes(torus([8, 4]))
        # (0,0) -> (5,3): one hop back in the 4-ring, three back in the 8-ring
        assert path(table, 0, 5 * 4 + 3) == [0, 3, 31, 27, 23]

    def test_ring_complete_product_length(self):
        t = cartesian_product(ring(8), complete(4))
        table = dimension_order_routes(t)
        # (0,0) -> (4,2): 4 ring hops plus 1 complete hop
        assert len(path(table, 0, 4 * 4 + 2)) - 1 == 5

    def test_shortest_exhaustive_torus(self):
        t = torus([8, 4])
        assert_shortest_and_loop_free(t, dimension_order_routes(t))

    def test_shortest_exhaustive_product(self):
        t = cartesian_product(circulant(JumpSet(16, (1, 8))), complete(4))
        assert_shortest_and_loop_free(t, dimension_order_routes(t))

    def test_length_equals_factor_distance_sum(self):
        a, b = ring(8), complete(4)
        t = cartesian_product(a, b)
        table = dimension_order_routes(t)
        da = bfs_distances(a, 0)
        db = bfs_distances(b, 0)
        for u in range(8):
            for v in range(4):
                got = len(path(table, 0, u * 4 + v)) - 1
                assert got == da[u] + db[v]

    def test_non_product_rejected(self):
        with pytest.raises(ValueError):
            dimension_order_routes(ring(8))


class TestPath:
    def test_self_path(self):
        table = circulant_routes(ring(8))
        assert path(table, 3, 3) == [3]

    @pytest.mark.parametrize("s, d, bad", [(-1, 3, -1), (0, 8, 8), (8, 8, 8), (3, -8, -8)])
    def test_path_refuses_vertices_outside_the_table(self, s, d, bad):
        with pytest.raises(ValueError, match=rf"^vertex {bad} outside \[0, 8\)$"):
            path(circulant_routes(ring(8)), s, d)

    @pytest.mark.parametrize("s, d, bad", [(-2, 0, -2), (0, -1, -1), (8, 0, 8), (0, 9, 9)])
    def test_next_hop_refuses_vertices_outside_the_table(self, s, d, bad):
        with pytest.raises(ValueError, match=rf"^vertex {bad} outside \[0, 8\)$"):
            circulant_routes(ring(8)).next_hop(s, d)

    def test_route_table_dispatch(self):
        assert route_table(torus([4, 4])).scheme == "dimension-order"
        assert route_table(ring(5)).scheme == "vertex-symmetric"


class TestExport:
    def test_json_shape(self):
        table = circulant_routes(ring(4))
        d = table.to_dict()
        assert d["scheme"] == "vertex-symmetric" and d["n"] == 4
        assert len(d["rows"]) == 4 and all(len(r) == 4 for r in d["rows"])

    def test_mean_route_length_equals_mpl(self):
        t = circulant(JumpSet(32, (1, 7)))
        table = circulant_routes(t)
        total = sum(
            len(path(table, s, d)) - 1
            for s in range(t.n)
            for d in range(t.n)
            if s != d
        )
        _, _, mpl = diameter_mpl(t)
        assert total == mpl * t.n * (t.n - 1)


class TestArrayTable:
    def test_rows_are_one_read_only_int32_array(self):
        table = route_table(torus([4, 3]))
        assert table.rows.dtype == np.int32 and table.rows.shape == (12, 12)
        with pytest.raises(ValueError):
            table.rows[0, 1] = 0

    def test_python_ints_out(self):
        table = route_table(circulant(JumpSet(16, (1, 6))))
        assert type(table.next_hop(0, 5)) is int
        assert all(type(v) is int for v in path(table, 0, 9))
        assert all(type(v) is int for r in table.to_dict()["rows"] for v in r)

    def test_rows_are_copied_in(self):
        rows = [[0, 1], [0, 1]]
        table = RoutingTable(n=2, scheme="x", rows=rows)
        rows[0][1] = 0
        assert table.next_hop(0, 1) == 1

    def test_shape_must_match_n(self):
        with pytest.raises(ValueError, match="shape"):
            RoutingTable(n=3, scheme="x", rows=[[0, 1], [0, 1]])

    def test_entries_must_be_integers_in_range(self):
        # An int32 copy would wrap 2**32 + 1 to 1 and truncate 1.5 to 1,
        # and both tables would then route ring(4) as its own table does.
        rows = route_table(ring(4)).rows.astype(np.int64)
        wrapped = rows.copy()
        wrapped[0, 1] = 2**32 + 1
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            RoutingTable(n=4, scheme="x", rows=wrapped)
        with pytest.raises(ValueError, match="dtype float64"):
            RoutingTable(n=4, scheme="x", rows=rows + 0.5)
        beyond_int32 = rows.tolist()
        beyond_int32[2][3] = 2**40
        with pytest.raises(ValueError, match="outside"):
            RoutingTable(n=4, scheme="x", rows=beyond_int32)
