"""Static shortest-path routing tables.

Circulant-structured graphs get the shift-generated table: a single BFS tree
from vertex 0 fixes the routes 0 -> j, and the route i -> j is the 0-route to
j - i rotated by i. Cartesian products (tori and hypercubes included) use
dimension-order routing: coordinates are corrected one factor at a time,
rightmost factor first, each factor traversed by its own shortest route.
Either way the table is a dense next-hop map and every routed path is a
shortest path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .metrics import DisconnectedError, bfs_distances
from .topology import Topology, mixed_radix


@dataclass(frozen=True)
class RoutingTable:
    """Dense next-hop map; rows[s][d] is the neighbor of s toward d."""

    n: int
    scheme: str
    rows: tuple[tuple[int, ...], ...]

    def next_hop(self, s: int, d: int) -> int:
        return self.rows[s][d]

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "n": self.n, "rows": [list(r) for r in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _first_hops_from_zero(t: Topology) -> list[int]:
    """next0[j]: first vertex after 0 on the canonical shortest path 0 -> j.

    The BFS parent of j is the smallest-index neighbor one level closer to 0,
    which pins a unique deterministic tree among the equal-length options.
    """
    dist = bfs_distances(t, 0)
    if -1 in dist:
        raise DisconnectedError("routing needs a connected graph")
    order = sorted(range(t.n), key=lambda v: (dist[v], v))
    next0 = [0] * t.n
    for j in order:
        if j == 0:
            continue
        parent = min(w for w in t.adjacency[j] if dist[w] == dist[j] - 1)
        next0[j] = j if parent == 0 else next0[parent]
    return next0


def circulant_routes(t: Topology) -> RoutingTable:
    """Shift-generated full table for a circulant-structured topology."""
    if t.jumps is None:
        raise ValueError("circulant_routes needs a circulant-structured topology")
    n = t.n
    next0 = _first_hops_from_zero(t)
    rows = []
    for i in range(n):
        row = [(i + next0[(d - i) % n]) % n for d in range(n)]
        row[i] = i
        rows.append(tuple(row))
    return RoutingTable(n=n, scheme="vertex-symmetric", rows=tuple(rows))


def dimension_order_routes(t: Topology) -> RoutingTable:
    """Dimension-order table for a Cartesian product topology.

    Destination coordinates are corrected rightmost factor first; inside a
    factor the hop comes from that factor's own shift-generated table, so
    route lengths add up factor-wise and stay shortest.
    """
    if t.factors is None:
        raise ValueError("dimension_order_routes needs a product topology")
    factors = t.factors
    for f in factors:
        if f.jumps is None:
            raise ValueError("every product factor needs circulant structure to route")
    weights, coords = mixed_radix([f.n for f in factors])
    tables = [circulant_routes(f).rows for f in factors]

    n = t.n
    m = len(factors)
    rows = []
    for s in range(n):
        cs = coords[s]
        row = [s] * n
        for d in range(n):
            if d == s:
                continue
            cd = coords[d]
            for p in range(m - 1, -1, -1):
                if cs[p] != cd[p]:
                    hop = tables[p][cs[p]][cd[p]]
                    row[d] = s + (hop - cs[p]) * weights[p]
                    break
        rows.append(tuple(row))
    return RoutingTable(n=n, scheme="dimension-order", rows=tuple(rows))


def route_table(t: Topology) -> RoutingTable:
    """Pick the scheme a topology supports: products go dimension-order,
    plain circulants go shift-generated."""
    if t.factors is not None:
        return dimension_order_routes(t)
    return circulant_routes(t)


def path(table: RoutingTable, s: int, d: int) -> list[int]:
    """Full vertex sequence from s to d; [s] when s == d."""
    seq = [s]
    cur = s
    while cur != d:
        cur = table.rows[cur][d]
        seq.append(cur)
        if len(seq) > table.n:
            raise RuntimeError(f"routing loop between {s} and {d}")
    return seq
