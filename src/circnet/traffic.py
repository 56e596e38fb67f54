"""Flow-level traffic evaluation.

A pattern is a sequence of (source, destination, demand) flows, stored only
as three read-only int64 arrays `src`, `dst` and `demand` (24 bytes per flow)
from which `flows` builds tuples on each access. Evaluation pushes each flow's
demand along its single routed path and aggregates per directed link. Max
link load is the static congestion figure, and aggregate demand divided by
max load serves as an effective-bandwidth style comparison number (in units
of one link's bandwidth). Everything is exact integer/rational arithmetic, so
conservation and the all-to-all mean-hops == MPL identity hold exactly.

The builders fill the arrays with numpy. Random pairs reproduce, draw for
draw, the per-pair `randrange` calls of `random.Random(seed)`: numpy's
MT19937 is started from that generator's state and its raw 32-bit words are
accepted or rejected exactly as CPython's `_randbelow` does.

All flows of a pattern share one code path: `evaluate` walks them
hop-synchronously in fixed blocks, looking every next hop up in the routing
table's n x n array (4n^2 bytes) and summing demands into an int64 n x n link
accumulator (8n^2 bytes). Patterns whose total demand times n reaches 2**63
are refused so those int64 sums stay exact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .routing import RoutingTable
from .topology import Topology

# Flows walked together; bounds the walk's temporaries at a few hundred kB
# whatever the pattern size.
FLOW_BLOCK = 8192

# Mersenne Twister words drawn at a time by `pattern_random_pairs`; bounds its
# temporaries at a few MB whatever the number of pairs.
WORD_BLOCK = 1 << 16


class TrafficPattern:
    """Flows (src[i], dst[i], demand[i]), stored only as three read-only arrays.

    `TrafficPattern(kind, flows)` takes (source, destination, demand) integer
    triples; a flow that is not one (another length, a float, a string, a
    Fraction) raises ValueError naming it. The arrays are int64 when every
    value fits, and object arrays of Python ints otherwise (`evaluate` refuses
    such a pattern before routing: a demand that large breaks the int64 bound
    and an endpoint that large is out of range). No flows, or a flow with
    equal endpoints or a non-positive demand, raises ValueError naming the
    first such flow.
    """

    def __init__(self, kind: str, flows) -> None:
        flows = tuple(flows)
        for flow in flows:
            if len(flow) != 3 or not all(isinstance(x, Integral) for x in flow):
                raise ValueError(f"flow {flow!r} is not a triple of integers")
        try:
            cols = np.array(flows, dtype=np.int64)
        except OverflowError:
            cols = np.array(flows, dtype=object)
        self._store(kind, *cols.reshape(-1, 3).T)

    @classmethod
    def _unit_flows(cls, kind: str, src: np.ndarray, dst: np.ndarray) -> TrafficPattern:
        """Unit-demand flows src[i] -> dst[i], owning both arrays as they are."""
        pattern = cls.__new__(cls)
        pattern._store(kind, src, dst, np.ones(len(src), dtype=np.int64))
        return pattern

    def _store(self, kind, src, dst, demand) -> None:
        if not len(src):
            raise ValueError("a pattern needs at least one flow")
        bad = (src == dst) | (demand <= 0)
        if bad.any():
            i = int(bad.argmax())
            if src[i] == dst[i]:
                raise ValueError(f"flow with equal endpoints: {src[i]}")
            raise ValueError(f"non-positive demand on flow {src[i]}->{dst[i]}")
        for col in (src, dst, demand):
            col.flags.writeable = False
        self.kind, self.src, self.dst, self.demand = kind, src, dst, demand

    @property
    def flows(self) -> tuple[tuple[int, int, int], ...]:
        """The flows as (source, destination, demand) tuples of Python ints,
        built from the arrays on each access."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.demand.tolist()))

    @property
    def total_demand(self) -> int:
        """Exact sum of the demands; summed as Python ints when an int64 sum
        could wrap."""
        demand = self.demand
        if demand.dtype == object or int(demand.max(initial=0)) * len(demand) >= 2**63:
            return sum(demand.tolist())
        return int(demand.sum())


def pattern_all_to_all(n: int) -> TrafficPattern:
    """One unit-demand flow per ordered pair, sources in order and each
    source's destinations in order."""
    if n < 2:
        raise ValueError("all-to-all needs at least 2 vertices")
    src = np.repeat(np.arange(n, dtype=np.int64), n - 1)
    dst = np.tile(np.arange(n - 1, dtype=np.int64), n)
    dst += dst >= src
    return TrafficPattern._unit_flows("all-to-all", src, dst)


def pattern_random_pairs(n: int, pairs: int, seed: int = 0) -> TrafficPattern:
    """`pairs` unit-demand flows with uniformly random distinct endpoints.

    Flow i is the i-th (s, d) of the loop `s = rng.randrange(n);
    d = rng.randrange(n - 1); d += d >= s` on `rng = random.Random(seed)`.
    CPython draws `randrange(m)` as 32-bit Mersenne Twister words w, taking
    w >> (32 - m.bit_length()) and drawing again while that is not below m.
    Here numpy's MT19937, started from `rng`'s state, supplies the words a
    block at a time. Whether a word is tried as an s or a d draw is a
    two-state scan: a word accepted as both flips the state, one accepted as
    exactly one sets it (to "d next" when it is a good s), and one accepted
    as neither keeps it. So the state after word i is the value of the last
    setting word, XOR the parity of the flips since it.
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    if n < 2:
        raise ValueError("random pairs need at least 2 vertices")
    if n >= 2**32:
        raise ValueError(f"random pairs draw endpoints from 32-bit words; n={n} is too large")
    state = random.Random(seed).getstate()[1]  # 624 key words, then the position
    mt = np.random.MT19937()
    mt.state = {"bit_generator": "MT19937", "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]}}
    shift_s, shift_d = 32 - n.bit_length(), 32 - (n - 1).bit_length()
    src = np.empty(pairs, dtype=np.int64)
    dst = np.empty(pairs, dtype=np.int64)
    # With flips[i] the parity of the flipping words up to word i, the state
    # after word i is setting[k] ^ flips[i], where k is one more than the last
    # setting word up to i (0 if none): setting[0] is the state before the
    # block, and setting[j + 1] = good_s[j] ^ flips[j] the state that setting
    # word j leaves, with the flips before it cancelled.
    setting = np.empty(WORD_BLOCK + 1, dtype=bool)
    mark = np.arange(1, WORD_BLOCK + 1, dtype=np.int32)
    wants_d = False  # the state: True while an s is drawn and its d is not
    ns = nd = 0
    while nd < pairs:
        w = mt.random_raw(WORD_BLOCK)
        s_draw, d_draw = w >> shift_s, w >> shift_d
        good_s, good_d = s_draw < n, d_draw < n - 1
        flips = np.logical_xor.accumulate(good_s & good_d)
        setting[0] = wants_d
        np.not_equal(good_s, flips, out=setting[1:])
        after = np.take(setting, np.maximum.accumulate(mark * (good_s != good_d))) ^ flips
        before = np.concatenate(([wants_d], after[:-1]))
        s_vals = np.compress(good_s & ~before, s_draw)[: pairs - ns]
        d_vals = np.compress(good_d & before, d_draw)[: pairs - nd]
        src[ns : ns + len(s_vals)] = s_vals
        dst[nd : nd + len(d_vals)] = d_vals
        ns, nd = ns + len(s_vals), nd + len(d_vals)
        wants_d = bool(after[-1])
    dst += dst >= src
    return TrafficPattern._unit_flows("random-pairs", src, dst)


def pattern_ring_shift(n: int, shift: int) -> TrafficPattern:
    """One unit-demand flow i -> (i + shift) mod n for every vertex."""
    if not 1 <= shift < n:
        raise ValueError(f"shift must be in [1, {n - 1}], got {shift}")
    src = np.arange(n, dtype=np.int64)
    return TrafficPattern._unit_flows("ring-shift", src, (src + shift) % n)


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
    non-link, and a pattern with an endpoint outside [0, n), naming the
    first such flow. A flow that has not arrived after n hops raises
    RuntimeError.
    """
    n = t.n
    if table.n != n:
        raise ValueError(f"table is for n={table.n}, topology has n={n}")
    total_demand = pattern.total_demand
    if total_demand * n >= 2**63:
        raise ValueError(f"total demand {total_demand} times n={n} does not fit in int64")
    _check_table(t, table)
    src, dst, demand = pattern.src, pattern.dst, pattern.demand
    outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if outside.any():
        i = int(outside.argmax())
        raise ValueError(f"flow endpoint out of range: {src[i]}->{dst[i]}")
    hops = table.rows.reshape(-1)  # hops[s * n + d] == rows[s, d]
    acc = np.zeros(n * n, dtype=np.int64)
    for lo in range(0, len(src), FLOW_BLOCK):
        block = slice(lo, lo + FLOW_BLOCK)
        cur, to, dem = src[block], dst[block], demand[block]
        start = cur
        for _ in range(n):
            here = cur * n
            nxt = hops[here + to]
            np.add.at(acc, here + nxt, dem)
            moving = np.flatnonzero(nxt != to)
            if not len(moving):
                break
            cur, to, dem, start = nxt[moving], to[moving], dem[moving], start[moving]
        else:
            raise RuntimeError(f"routing loop between {start[0]} and {to[0]}")
    links = np.flatnonzero(acc)
    u, v = np.divmod(links, n)
    loads = dict(zip(zip(u.tolist(), v.tolist()), acc[links].tolist()))
    weighted_hops = int(acc.sum())
    # every flow takes at least one hop, so some link carries load
    max_load = max(loads.values())
    return LoadReport(
        loads=loads,
        max_load=max_load,
        mean_load=Fraction(weighted_hops, 2 * t.num_edges),
        mean_hops=Fraction(weighted_hops, total_demand),
        eb_proxy=Fraction(total_demand, max_load),
        total_demand=total_demand,
        weighted_hops=weighted_hops,
    )
