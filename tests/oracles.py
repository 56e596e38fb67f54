"""Reference implementations of the traffic patterns, the routing tables,
flow evaluation and Kernighan-Lin refinement, kept only for tests to compare
the faster code against.

The pattern builders make one tuple per flow, random pairs by one
`randrange` call per endpoint; the table builders fill one Python list per
source vertex; `evaluate` routes one flow at a time along its path, adding
each hop's demand to a dict; `kl_refine` calls the dense `_best_swap`
on every step and updates D by a whole weight-matrix row per moved vertex;
`contract` picks each mate by scanning a masked dense weight row;
`best_balanced_side` runs every restart and every perturbation round, with
no lower bound to stop at; and
`cartesian_product`, `torus` and `hypercube` build products as a binary fold
with (u, v) -> u * b.n + v arithmetic of their own.
"""

import random
from dataclasses import replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from circnet.metrics import (
    _ILS_ROUNDS,
    _best_swap,
    _kl_refine,
    _multilevel_cut,
    _work_graph,
    _WorkGraph,
)
from circnet.routing import _first_hops_from_zero
from circnet.topology import Topology, complete, mixed_radix, ring
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


def kl_refine(g: _WorkGraph, side: np.ndarray) -> int:
    """Kernighan-Lin passes until no pass improves; side is refined in place.

    Each pass tentatively swaps vertex pairs (allowing negative interim
    gains), then keeps the prefix with the best cumulative gain. A pass is
    abandoned once the prefix maximum has stalled for max(48, n/16) steps;
    balance is preserved at every step.
    """
    n = g.n
    window = max(48, n // 16)
    while True:
        # ext[v]: weight from v to the other side
        to_b = g.weights @ side
        ext = np.where(side == 1, g.degw - to_b, to_b)
        cut = int(ext[side == 0].sum())
        D = 2 * ext - g.degw

        # When x changes side, each neighbor y moves by -2 w(x, y) sign[x]
        # sign[y], where sign is +1 on side 0 and -1 on side 1.
        sign = 1 - 2 * side.astype(np.int64)
        # unlocked vertices of each side: those not yet swapped in this pass
        avail_a = np.flatnonzero(side == 0)
        avail_b = np.flatnonzero(side == 1)
        swaps: list[tuple[int, int]] = []
        running = 0
        best_prefix = 0
        best_at = -1
        stall = 0
        for step in range(n // 2):
            pick = _best_swap(g, D, avail_a, avail_b)
            if pick is None:
                break
            u, v, gain = pick
            swaps.append((u, v))
            running += gain
            for x in (u, v):
                side[x] ^= 1
                sign[x] = -sign[x]
                D -= 2 * sign[x] * (g.weights[x] * sign)
                D[x] = -D[x]
            avail_a = avail_a[avail_a != u]
            avail_b = avail_b[avail_b != v]
            if running > best_prefix:
                best_prefix = running
                best_at = step
                stall = 0
            else:
                stall += 1
                if stall > window:
                    break

        if not swaps:
            return cut
        keep = best_at + 1 if best_prefix > 0 else 0
        for u, v in reversed(swaps[keep:]):
            side[u] ^= 1
            side[v] ^= 1
        if best_prefix <= 0:
            return cut


def contract(g: _WorkGraph, rng: random.Random) -> tuple[_WorkGraph, np.ndarray]:
    """Pair every vertex with a mate (heaviest unmatched neighbor first, then
    leftovers pair among themselves) and merge pairs into a half-size graph;
    returns the coarse graph and the vertex-to-cluster map."""
    n = g.n
    order = list(range(n))
    rng.shuffle(order)
    mate = np.full(n, -1)
    for u in order:
        if mate[u] != -1:
            continue
        # heaviest unmatched neighbor, the smallest index among equals
        row = np.where(mate == -1, g.weights[u], 0)
        v = int(row.argmax())
        if row[v] > 0:
            mate[u] = v
            mate[v] = u
    singles = [u for u in order if mate[u] == -1]
    for a, b in zip(singles[::2], singles[1::2]):
        mate[a] = b
        mate[b] = a
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    cid = np.unique(np.minimum(pos, pos[mate]), return_inverse=True)[1]
    a, b = np.argsort(cid, kind="stable").reshape(-1, 2).T  # each cluster's members
    rows = g.weights[a] + g.weights[b]
    coarse = rows[:, a] + rows[:, b]
    np.fill_diagonal(coarse, 0)  # edges inside a pair vanish
    return _WorkGraph(coarse), cid


def cartesian_product(a: Topology, b: Topology) -> Topology:
    """Cartesian product with vertex (u, v) indexed as u * b.n + v."""
    nb = b.n
    adjacency = []
    for u in range(a.n):
        for v in range(nb):
            row = [w * nb + v for w in a.adjacency[u]]
            row += [u * nb + w for w in b.adjacency[v]]
            adjacency.append(tuple(sorted(row)))
    factors = (a.factors or (a,)) + (b.factors or (b,))
    return Topology(
        n=a.n * nb,
        adjacency=tuple(adjacency),
        kind="product",
        params={"factors": [a.descriptor(), b.descriptor()]},
        factors=factors,
        vertex_symmetric=a.vertex_symmetric and b.vertex_symmetric,
    )


def torus(dims: Iterable[int]) -> Topology:
    """Iterated Cartesian product of rings, largest-first order preserved."""
    dims = list(dims)
    if not dims:
        raise ValueError("torus needs at least one dimension")
    for d in dims:
        if d < 3:
            raise ValueError(f"torus dimensions must be >= 3, got {d}")
    t = ring(dims[0])
    for d in dims[1:]:
        t = cartesian_product(t, ring(d))
    return replace(
        t,
        kind="torus",
        params={"dims": dims},
        factors=t.factors or (t,),
    )


def hypercube(d: int) -> Topology:
    """d-fold Cartesian product of single edges; 2**d vertices of degree d."""
    if d < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {d}")
    t = complete(2)
    for _ in range(d - 1):
        t = cartesian_product(t, complete(2))
    return replace(
        t,
        kind="hypercube",
        params={"d": d},
        factors=t.factors or (t,),
    )


def best_balanced_side(t: Topology, restarts: int, seed: int) -> tuple[int, np.ndarray]:
    """Every restart and every perturbation round of the iterated KL search,
    factor-lifted seeds included (themselves from this full loop)."""
    n = t.n
    if n == 2:
        return len(t.adjacency[0]), np.array([0, 1], dtype=np.int8)
    g = _work_graph(t)
    kicks = (8, max(8, n // 32), max(12, n // 16))
    seeds = []
    if t.factors is not None and len(t.factors) >= 2:
        digits = np.array(mixed_radix([f.n for f in t.factors])[1])
        for p, f in enumerate(t.factors):
            if f.n % 2 == 0:
                _, fside = best_balanced_side(f, restarts, seed + 7919 * (p + 1))
                seeds.append(fside[digits[:, p]].astype(np.int8))
    best = None
    for i in range(restarts):
        rng = random.Random(seed + i)
        if i < len(seeds):
            side = seeds[i].copy()
            cut = _kl_refine(g, side)
        elif i % 2 == 0:
            cut, side = _multilevel_cut(g, rng)
        else:
            side = np.ones(n, dtype=np.int8)
            side[rng.sample(range(n), n // 2)] = 0
            cut = _kl_refine(g, side)
        run_best, run_side = cut, side.copy()
        for r in range(_ILS_ROUNDS):
            side = run_side.copy()
            a = np.flatnonzero(side == 0)
            b = np.flatnonzero(side == 1)
            m = min(kicks[r % 3], len(a))
            side[a[rng.sample(range(len(a)), m)]] = 1
            side[b[rng.sample(range(len(b)), m)]] = 0
            cut = _kl_refine(g, side)
            if cut < run_best:
                run_best, run_side = cut, side.copy()
        if best is None or run_best < best[0]:
            best = (run_best, run_side)
    return best
