"""Pure-Python reference implementations of the traffic patterns, the routing
tables and flow evaluation, kept only for tests to compare the array code
against.

The pattern builders make one tuple per flow, random pairs by one
`randrange` call per endpoint; the table builders fill one Python list per
source vertex; and `evaluate` routes one flow at a time along its path,
adding each hop's demand to a dict.
"""

import random
from fractions import Fraction

from circnet.routing import _first_hops_from_zero
from circnet.topology import Topology, mixed_radix
from circnet.traffic import LoadReport, TrafficPattern


def all_to_all_flows(n: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((s, d, 1) for s in range(n) for d in range(n) if s != d)


def random_pairs_flows(n: int, pairs: int, seed: int) -> tuple[tuple[int, int, int], ...]:
    rng = random.Random(seed)
    flows = []
    for _ in range(pairs):
        s = rng.randrange(n)
        d = rng.randrange(n - 1)
        if d >= s:
            d += 1
        flows.append((s, d, 1))
    return tuple(flows)


def ring_shift_flows(n: int, shift: int) -> tuple[tuple[int, int, int], ...]:
    return tuple((i, (i + shift) % n, 1) for i in range(n))


def circulant_rows(t: Topology) -> tuple[tuple[int, ...], ...]:
    """rows[i][d] = i + next0[d - i] (mod n), rows[i][i] = i."""
    n = t.n
    next0 = _first_hops_from_zero(t)
    rows = []
    for i in range(n):
        row = [(i + next0[(d - i) % n]) % n for d in range(n)]
        row[i] = i
        rows.append(tuple(row))
    return tuple(rows)


def dimension_order_rows(t: Topology) -> tuple[tuple[int, ...], ...]:
    """Correct the rightmost differing factor digit by that factor's hop."""
    factors = t.factors
    weights, coords = mixed_radix([f.n for f in factors])
    tables = [circulant_rows(f) for f in factors]
    rows = []
    for s in range(t.n):
        cs = coords[s]
        row = [s] * t.n
        for d in range(t.n):
            if d == s:
                continue
            cd = coords[d]
            for p in range(len(factors) - 1, -1, -1):
                if cs[p] != cd[p]:
                    row[d] = s + (tables[p][cs[p]][cd[p]] - cs[p]) * weights[p]
                    break
        rows.append(tuple(row))
    return tuple(rows)


def route_rows(t: Topology) -> tuple[tuple[int, ...], ...]:
    return dimension_order_rows(t) if t.factors is not None else circulant_rows(t)


def path(rows, s: int, d: int) -> list[int]:
    seq = [s]
    cur = s
    while cur != d:
        cur = rows[cur][d]
        seq.append(cur)
        if len(seq) > len(rows):
            raise RuntimeError(f"routing loop between {s} and {d}")
    return seq


def evaluate(t: Topology, rows, pattern: TrafficPattern) -> LoadReport:
    """Route every flow on its own and accumulate demand per directed link."""
    loads: dict[tuple[int, int], int] = {}
    weighted_hops = 0
    total_demand = 0
    for s, d, dem in pattern.flows:
        if not (0 <= s < t.n and 0 <= d < t.n):
            raise ValueError(f"flow endpoint out of range: {s}->{d}")
        seq = path(rows, s, d)
        weighted_hops += dem * (len(seq) - 1)
        total_demand += dem
        for u, v in zip(seq, seq[1:]):
            loads[(u, v)] = loads.get((u, v), 0) + dem
    directed_links = sum(len(nbrs) for nbrs in t.adjacency)
    max_load = max(loads.values(), default=0)
    return LoadReport(
        loads=loads,
        max_load=max_load,
        mean_load=Fraction(sum(loads.values()), directed_links),
        mean_hops=Fraction(weighted_hops, total_demand),
        eb_proxy=Fraction(total_demand, max_load) if max_load else Fraction(0),
        total_demand=total_demand,
        weighted_hops=weighted_hops,
    )
