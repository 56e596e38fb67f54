"""Flow-level traffic evaluation.

Patterns are lists of (source, destination, demand) flows; evaluation pushes
each flow's demand along its single routed path and aggregates per directed
link. Max link load is the static congestion figure, and aggregate demand
divided by max load serves as an effective-bandwidth style comparison number
(in units of one link's bandwidth). Everything is exact integer/rational
arithmetic, so conservation and the all-to-all mean-hops == MPL identity hold
to full precision.

All flows of a pattern share one code path: `evaluate` walks them
hop-synchronously in fixed blocks, looking every next hop up in the routing
table's n x n array (4n^2 bytes) and summing demands into an int64 n x n link
accumulator (8n^2 bytes). Patterns whose total demand times n reaches 2**63
are refused so those int64 sums stay exact.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .routing import RoutingTable
from .topology import Topology

# Flows converted to arrays and walked together; bounds the walk's
# temporaries at a few hundred kB whatever the pattern size.
FLOW_BLOCK = 8192


@dataclass(frozen=True)
class TrafficPattern:
    kind: str
    flows: tuple[tuple[int, int, int], ...]  # (source, destination, demand)

    def __post_init__(self) -> None:
        for s, d, dem in self.flows:
            if s == d:
                raise ValueError(f"flow with equal endpoints: {s}")
            if dem <= 0:
                raise ValueError(f"non-positive demand on flow {s}->{d}")

    @property
    def total_demand(self) -> int:
        return sum(map(itemgetter(2), self.flows))


def pattern_all_to_all(n: int) -> TrafficPattern:
    """One unit-demand flow per ordered pair."""
    if n < 2:
        raise ValueError("all-to-all needs at least 2 vertices")
    flows = tuple((s, d, 1) for s in range(n) for d in range(n) if s != d)
    return TrafficPattern(kind="all-to-all", flows=flows)


def pattern_random_pairs(n: int, pairs: int, seed: int = 0) -> TrafficPattern:
    """`pairs` unit-demand flows with uniformly random distinct endpoints."""
    if pairs < 1:
        raise ValueError("need at least one pair")
    if n < 2:
        raise ValueError("random pairs need at least 2 vertices")
    rng = random.Random(seed)
    flows = []
    for _ in range(pairs):
        s = rng.randrange(n)
        d = rng.randrange(n - 1)
        if d >= s:
            d += 1
        flows.append((s, d, 1))
    return TrafficPattern(kind="random-pairs", flows=tuple(flows))


def pattern_ring_shift(n: int, shift: int) -> TrafficPattern:
    """One unit-demand flow i -> (i + shift) mod n for every vertex."""
    if not 1 <= shift < n:
        raise ValueError(f"shift must be in [1, {n - 1}], got {shift}")
    flows = tuple((i, (i + shift) % n, 1) for i in range(n))
    return TrafficPattern(kind="ring-shift", flows=flows)


@dataclass(frozen=True)
class LoadReport:
    """Per-directed-link loads and their summary statistics."""

    loads: dict[tuple[int, int], int]
    max_load: int
    mean_load: Fraction
    mean_hops: Fraction
    eb_proxy: Fraction
    total_demand: int
    weighted_hops: int  # sum over flows of demand * path length == sum of loads

    def to_dict(self) -> dict:
        return {
            "max_load": self.max_load,
            "mean_load": float(self.mean_load),
            "mean_hops": float(self.mean_hops),
            "eb_proxy": float(self.eb_proxy),
            "total_demand": self.total_demand,
            "weighted_hops": self.weighted_hops,
            "num_loaded_links": len(self.loads),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def links_csv(self) -> str:
        lines = ["src,dst,load"]
        for (u, v), load in sorted(self.loads.items()):
            lines.append(f"{u},{v},{load}")
        return "\n".join(lines) + "\n"


def _check_table(t: Topology, table: RoutingTable) -> None:
    """Refuse a table that could not have come from `t`: rows[s, s] must be s
    and rows[s, d] a neighbor of s for every d != s."""
    n = t.n
    rows = table.rows
    if rows.min() < 0 or rows.max() >= n:
        raise ValueError(f"routing table names a vertex outside [0, {n})")
    link = np.zeros((n, n), dtype=bool)
    for u, nbrs in enumerate(t.adjacency):
        link[u, list(nbrs)] = True
    vertex = np.arange(n)
    ok = link[vertex[:, None], rows]
    ok[vertex, vertex] = rows[vertex, vertex] == vertex
    if not ok.all():
        s, d = (int(x) for x in np.argwhere(~ok)[0])
        if s == d:
            raise ValueError(f"routing table sends {s} toward itself to {int(rows[s, s])}")
        raise ValueError(f"routing table hop {s}->{int(rows[s, d])} toward {d} is not a link")


def evaluate(t: Topology, table: RoutingTable, pattern: TrafficPattern) -> LoadReport:
    """Route every flow and accumulate demand on each directed link.

    Flows are walked hop-synchronously, FLOW_BLOCK at a time: each step
    advances every unfinished flow of the block by rows[cur, d] and adds the
    demands to an int64 n x n link accumulator (8n^2 bytes beside the
    table's 4n^2). A pattern whose total demand times n reaches 2**63 is
    refused up front, since loads and the weighted hop count could wrap; so
    is a table whose diagonal is not the identity or that hops over a
    non-link. An endpoint outside [0, n) raises ValueError naming the first
    such flow, and a flow that has not arrived after n hops raises
    RuntimeError.
    """
    n = t.n
    if table.n != n:
        raise ValueError(f"table is for n={table.n}, topology has n={n}")
    total_demand = pattern.total_demand
    if total_demand * n >= 2**63:
        raise ValueError(f"total demand {total_demand} times n={n} does not fit in int64")
    _check_table(t, table)
    hops = table.rows.reshape(-1)  # hops[s * n + d] == rows[s, d]
    acc = np.zeros(n * n, dtype=np.int64)
    for lo in range(0, len(pattern.flows), FLOW_BLOCK):
        block = pattern.flows[lo : lo + FLOW_BLOCK]
        try:
            flows = np.fromiter(itertools.chain.from_iterable(block), np.int64, 3 * len(block))
            cur, dst, dem = flows.reshape(-1, 3).T
            in_range = ((cur >= 0) & (cur < n) & (dst >= 0) & (dst < n)).all()
        except OverflowError:  # an endpoint beyond int64; demands fit by the bound above
            in_range = False
        if not in_range:
            s, d, _ = next(f for f in block if not (0 <= f[0] < n and 0 <= f[1] < n))
            raise ValueError(f"flow endpoint out of range: {s}->{d}")
        src = cur
        for _ in range(n):
            here = cur * n
            nxt = hops[here + dst]
            np.add.at(acc, here + nxt, dem)
            moving = np.flatnonzero(nxt != dst)
            if not len(moving):
                break
            cur, dst, dem, src = nxt[moving], dst[moving], dem[moving], src[moving]
        else:
            raise RuntimeError(f"routing loop between {src[0]} and {dst[0]}")
    links = np.flatnonzero(acc)
    u, v = np.divmod(links, n)
    loads = dict(zip(zip(u.tolist(), v.tolist()), acc[links].tolist()))
    weighted_hops = int(acc.sum())
    directed_links = sum(len(nbrs) for nbrs in t.adjacency)
    max_load = max(loads.values(), default=0)
    return LoadReport(
        loads=loads,
        max_load=max_load,
        mean_load=Fraction(weighted_hops, directed_links),
        mean_hops=Fraction(weighted_hops, total_demand),
        eb_proxy=Fraction(total_demand, max_load) if max_load else Fraction(0),
        total_demand=total_demand,
        weighted_hops=weighted_hops,
    )
