"""Reference implementations of the traffic patterns, the routing tables,
flow evaluation and Kernighan-Lin refinement, kept only for tests to compare
the faster code against.

The pattern builders make one tuple per flow, random pairs by one
`randrange` call per endpoint; the table builders fill one Python list per
source vertex; `evaluate` routes one flow at a time along its path, adding
each hop's demand to a dict; `_best_swap` sorts each side's whole
unlocked set by (-D, index) and takes the first maximum of the dense gain
matrix over the two orders, and `kl_refine` calls it on every step and
updates D by a whole adjacency-matrix row per moved vertex;
`best_balanced_side` runs every restart and every perturbation
round, with no lower bound to stop at, and ranks a circulant's quotient-arc
seed sides by cuts counted edge by edge;
`cartesian_product`, `torus` and `hypercube` build products as a binary fold
with (u, v) -> u * b.n + v arithmetic of their own;
`circulant_distance_profile` expands each BFS frontier by two shifts per
jump, with no ball cache; `bfs_profile_oracle` runs a queue BFS over an
explicit adjacency; and `scan_chunk` measures every candidate of a rank
range in co-lex order, with no group floor. `printed_tables` builds the
ratio tables from the published property-table values.
"""

import math
import random
import time
from collections import deque
from dataclasses import replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from circnet.combinatorics import successor_inplace, unrank_elements
from circnet.metrics import _ILS_ROUNDS, _kl_refine, _WorkGraph
from circnet.report import TableEntry, build_table
from circnet.routing import _first_hops_from_zero
from circnet.search import _RangeState
from circnet.topology import JumpSpacePlan, Topology, complete, mixed_radix, ring
from circnet.traffic import LoadReport, TrafficPattern
from reference_data import PROPERTY_TABLE


def circulant_distance_profile(
    n: int, jumps: tuple[int, ...], bound: tuple[int, int] | None = None
) -> tuple[int, int] | None:
    """(diameter, distance sum) from vertex 0 of a circulant, or None if it is
    disconnected or provably worse than `bound`.

    This is the search's scan kernel. The frontier is one n-bit integer; the
    frontier doubled into 2n bits turns each left or right rotation by a
    jump into a single right shift, and the unvisited mask strips both the
    wrapped-around high bits and the vertices already reached.

    `bound` is a running best (best_d, best_s). Before each level is
    expanded, while some vertex is unreached, the candidate is dropped when
    its diameter must exceed best_d (d >= best_d), or when every unreached
    vertex lands on level best_d and that already gives a distance sum above
    best_s. Both tests are strict, so a profile equal to the bound (a tie) is
    returned exactly; a profile lexicographically above it always gives None.
    """
    if n == 1:
        return (0, 0) if bound is None or (0, 0) <= bound else None
    # Without a bound, best_d = n never triggers: the diameter is below n.
    best_d, best_s = (n, 0) if bound is None else bound
    unvisited = (1 << n) - 2
    frontier = 1
    reached = 1
    d = 0
    total = 0
    while True:
        if d + 1 >= best_d and (d >= best_d or total + best_d * (n - reached) > best_s):
            return None
        wrapped = frontier | (frontier << n)
        nxt = 0
        for s in jumps:
            nxt |= (wrapped >> s) | (wrapped >> (n - s))
        new = nxt & unvisited
        if not new:
            return None
        d += 1
        count = new.bit_count()
        total += d * count
        reached += count
        if reached == n:
            return d, total
        unvisited ^= new
        frontier = new


def bfs_profile_oracle(n, jumps):
    """(diameter, dist sum) by deque BFS on explicit adjacency, or None."""
    adj = [set() for _ in range(n)]
    for i in range(n):
        for s in jumps:
            adj[i].add((i + s) % n)
            adj[i].add((i - s) % n)
    dist = {0: 0}
    q = deque([0])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    if len(dist) != n:
        return None
    return max(dist.values()), sum(dist.values())


def printed_tables():
    """One ComparisonRow table per graph size, built from the printed values."""
    tables = []
    for n in sorted(PROPERTY_TABLE):
        records = [
            (row.label, TableEntry(n, row.k, row.diameter, row.mpl, row.bisection))
            for row in PROPERTY_TABLE[n]
        ]
        tables.append(build_table(records, "torus"))
    return tables


def scan_chunk(n: int, plan: JumpSpacePlan, st: _RangeState, end: int) -> _RangeState:
    """`search._scan_chunk` as a plain co-lex loop: unrank the cursor, then
    measure every candidate in turn, (*elems, *fixed), with the running best
    as the kernel's bound, and step to its co-lex successor. No group is
    ever skipped.
    """
    t0 = time.perf_counter()
    start = st.cursor
    if end <= start:
        return st
    fixed, lo, hi = plan.fixed, plan.lo, plan.hi
    elems = unrank_elements(start, lo, hi, plan.r)
    bound = None if st.best_d is None else (st.best_d, st.best_s)
    out = list(st.candidates)
    idx = start
    while True:
        jumps = (*elems, *fixed)
        profile = circulant_distance_profile(n, jumps, bound)
        if profile is not None:
            if profile == bound:
                out.append(tuple(sorted(jumps)))
            else:
                bound = profile
                out = [tuple(sorted(jumps))]
        idx += 1
        if idx >= end:
            break
        if not successor_inplace(elems, lo, hi):
            raise AssertionError("combination space exhausted before end rank")
    best_d, best_s = (None, None) if bound is None else bound
    return _RangeState(
        st.rank_range, end, best_d, best_s, out, st.elapsed + time.perf_counter() - t0
    )


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


def _best_swap(
    m: np.ndarray, D: np.ndarray, avail_a: np.ndarray, avail_b: np.ndarray
) -> tuple[int, int, int] | None:
    """Highest-gain pair u in avail_a, v in avail_b; gain = D[u] + D[v] - 2*m[u, v]
    with m the dense 0/1 adjacency matrix.

    This is the definition `_GainBuckets.best` follows: each side sorted by
    (-D, index), the dense gain matrix over the two orders, and its first
    maximum in row-major order.
    """
    if len(avail_a) == 0 or len(avail_b) == 0:
        return None
    rows = avail_a[np.lexsort((avail_a, -D[avail_a]))]
    cols = avail_b[np.lexsort((avail_b, -D[avail_b]))]
    gains = D[rows][:, None] + D[cols] - 2 * m[rows[:, None], cols]
    i, j = divmod(int(gains.argmax()), len(cols))
    return int(rows[i]), int(cols[j]), int(gains[i, j])


def kl_refine(t: Topology, side: np.ndarray) -> int:
    """Kernighan-Lin passes until no pass improves; side is refined in place.

    Each pass tentatively swaps vertex pairs (allowing negative interim
    gains), then keeps the prefix with the best cumulative gain. A pass is
    abandoned once the prefix maximum has stalled for max(48, n/16) steps;
    balance is preserved at every step.
    """
    n = t.n
    m = t.matrix().astype(np.int64)
    deg = m.sum(axis=1)
    window = max(48, n // 16)
    while True:
        # ext[v]: edges from v to the other side
        to_b = m @ side
        ext = np.where(side == 1, deg - to_b, to_b)
        cut = int(ext[side == 0].sum())
        D = 2 * ext - deg

        # When x changes side, each neighbor y moves by -2 m[x, y] sign[x]
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
            pick = _best_swap(m, D, avail_a, avail_b)
            if pick is None:
                break
            u, v, gain = pick
            swaps.append((u, v))
            running += gain
            for x in (u, v):
                side[x] ^= 1
                sign[x] = -sign[x]
                D -= 2 * sign[x] * (m[x] * sign)
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


def quotient_seeds(t: Topology) -> list[np.ndarray]:
    """The 8 sides {v : u v mod c >= c/2} (c an even divisor of n, u <= c/2 a
    unit mod c) of a circulant with the smallest cuts, ranked by (cut, c, u),
    each cut counted over the edge list."""
    if t.jumps is None:
        return []
    n = t.n
    edges = np.array(t.edges())
    ranked = []
    for c in range(2, n + 1, 2):
        if n % c:
            continue
        for u in range(1, c // 2 + 1):
            if math.gcd(u, c) == 1:
                side = np.array([int(u * v % c >= c // 2) for v in range(n)], dtype=np.int8)
                cut = int(np.count_nonzero(side[edges[:, 0]] != side[edges[:, 1]]))
                ranked.append((cut, c, u, side))
    ranked.sort(key=lambda r: r[:3])
    return [side for *_, side in ranked[:8]]


def best_balanced_side(t: Topology, restarts: int, seed: int) -> tuple[int, np.ndarray]:
    """Every restart and every perturbation round of the iterated KL search:
    factor-lifted seeds (themselves from this full loop) or quotient-arc
    seeds first, a random balanced side for every restart after them."""
    n = t.n
    if n == 2:
        return len(t.adjacency[0]), np.array([0, 1], dtype=np.int8)
    g = _WorkGraph(t)
    kicks = (16, max(16, n // 16), max(24, n // 8))
    seeds = []
    if t.factors is not None and len(t.factors) >= 2:
        digits = np.array(mixed_radix([f.n for f in t.factors])[1])
        for p, f in enumerate(t.factors):
            if f.n % 2 == 0:
                _, fside = best_balanced_side(f, restarts, seed + 7919 * (p + 1))
                seeds.append(fside[digits[:, p]].astype(np.int8))
    else:
        seeds = quotient_seeds(t)
    best = None
    for i in range(restarts):
        rng = random.Random(seed + i)
        if i < len(seeds):
            side = seeds[i].copy()
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
