"""Static shortest-path routing tables.

Circulant-structured graphs get the shift-generated table: a single BFS tree
from vertex 0 fixes the routes 0 -> j, and the route i -> j is the 0-route to
j - i rotated by i. Cartesian products (tori and hypercubes included) use
dimension-order routing: coordinates are corrected one factor at a time,
rightmost factor first, each factor traversed by its own shortest route.
Either way the table is a dense next-hop map, held as one read-only n x n
int32 array (4n^2 bytes), and every routed path is a shortest path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .metrics import DisconnectedError, bfs_distances
from .topology import Topology, mixed_radix


@dataclass(frozen=True, eq=False)
class RoutingTable:
    """Dense next-hop map; rows[s, d] is the neighbor of s toward d.

    `rows` is stored as a private read-only n x n int32 copy of whatever
    array-like is passed in. Its entries must be integers in [0, n), so the
    copy neither wraps nor truncates one.
    """

    n: int
    scheme: str
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows)
        if rows.dtype.kind not in "iu":
            raise ValueError(f"routing table entries have dtype {rows.dtype}, need integers")
        if rows.shape != (self.n, self.n):
            raise ValueError(f"routing table rows have shape {rows.shape}, need ({self.n}, {self.n})")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n):
            raise ValueError(f"routing table names a vertex outside [0, {self.n})")
        rows = rows.astype(np.int32)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def next_hop(self, s: int, d: int) -> int:
        """The neighbor of s toward d; ValueError for a vertex outside [0, n)."""
        self._check(s, d)
        return int(self.rows[s, d])

    def _check(self, *vertices: int) -> None:
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} outside [0, {self.n})")

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "n": self.n, "rows": self.rows.tolist()}

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
    """Shift-generated full table for a circulant-structured topology:
    rows[i, d] = (i + next0[(d - i) mod n]) mod n, so rows[i, i] = i."""
    if t.jumps is None:
        raise ValueError("circulant_routes needs a circulant-structured topology")
    n = t.n
    next0 = np.array(_first_hops_from_zero(t), dtype=np.int32)
    i = np.arange(n, dtype=np.int32)
    rows = (i[:, None] + next0[(i[None, :] - i[:, None]) % n]) % n
    return RoutingTable(n=n, scheme="vertex-symmetric", rows=rows)


def dimension_order_routes(t: Topology) -> RoutingTable:
    """Dimension-order table for a Cartesian product topology.

    Destination coordinates are corrected rightmost factor first; inside a
    factor the hop comes from that factor's own shift-generated table, so
    route lengths add up factor-wise and stay shortest. Factors are applied
    left to right, each overwriting the pairs whose digits differ in it, so
    the rightmost differing factor decides every entry.
    """
    if t.factors is None:
        raise ValueError("dimension_order_routes needs a product topology")
    factors = t.factors
    for f in factors:
        if f.jumps is None:
            raise ValueError("every product factor needs circulant structure to route")
    weights, coords = mixed_radix([f.n for f in factors])
    digits = np.array(coords, dtype=np.int32)
    s = np.arange(t.n, dtype=np.int32)[:, None]
    rows = np.broadcast_to(s, (t.n, t.n))
    for p, f in enumerate(factors):
        cs, cd = digits[:, p, None], digits[None, :, p]
        hop = circulant_routes(f).rows[cs, cd]
        rows = np.where(cs != cd, s + (hop - cs) * weights[p], rows)
    return RoutingTable(n=t.n, scheme="dimension-order", rows=rows)


def route_table(t: Topology) -> RoutingTable:
    """Pick the scheme a topology supports: products go dimension-order,
    plain circulants go shift-generated."""
    if t.factors is not None:
        return dimension_order_routes(t)
    return circulant_routes(t)


def path(table: RoutingTable, s: int, d: int) -> list[int]:
    """Full vertex sequence from s to d, [s] when s == d; ValueError outside [0, n)."""
    table._check(s, d)
    seq = [s]
    cur = s
    while cur != d:
        cur = int(table.rows[cur, d])
        seq.append(cur)
        if len(seq) > table.n:
            raise RuntimeError(f"routing loop between {s} and {d}")
    return seq
