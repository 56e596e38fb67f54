"""Distance and bisection metrics for interconnect topologies.

Diameter and mean path length come from breadth-first search; vertex-symmetric
graphs need a single source. `circulant_distance_profile` is the one circulant
BFS kernel, used by the search scan and by checkpoint verification: the
frontier is held in one big integer per level and expands by two shifts per
jump, so a whole BFS level costs a handful of word-level shift/or operations
regardless of degree. Given the running best it stops a candidate as soon as
the candidate is provably worse (strictly, so ties always finish).

Bisection width is the minimum edge cut over exactly balanced bipartitions.
`bisection_method` is the single policy choosing between the two solvers.
Small graphs are solved exactly by enumerating every bipartition containing
vertex 0 (meet-in-the-middle over two half-masks so the pair space is scanned
as vectorized table lookups plus one small matrix product). Larger graphs get
a restarted multilevel Kernighan-Lin search that only ever holds balanced
states, or an externally supplied partition whose cut is recomputed, never
trusted.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .topology import Topology

DEFAULT_EXACT_LIMIT = 32
DEFAULT_RESTARTS = 64

# Table sizes for the exact solver grow as 2**(n/2); 40 keeps them near 1M.
_EXACT_HARD_CAP = 40


class DisconnectedError(ValueError):
    """Metric requested on a graph that is not connected."""


class BisectionInfeasibleError(ValueError):
    """Strictly balanced bisection needs an even vertex count."""


class ExactLimitError(ValueError):
    """Graph too large for exhaustive bisection; use the heuristic."""


class PartitionFileError(ValueError):
    """Partition input is not an exactly balanced disjoint cover."""


@dataclass(frozen=True)
class MetricsRecord:
    """Diameter, per-source distance sum, and bisection width of one topology.

    dist_sum is exact (a Fraction with denominator 1 for vertex-symmetric
    graphs); mpl is derived from it so the two can never drift apart.
    """

    n: int
    degree: int
    diameter: int
    dist_sum: Fraction
    bisection: int | None
    bisection_exact: bool

    def __post_init__(self) -> None:
        if self.n >= 2:
            mpl = self.mpl
            if not (self.diameter >= mpl >= 1):
                raise ValueError(
                    f"inconsistent record: diameter {self.diameter}, mpl {mpl}"
                )
        if self.bisection is not None and self.bisection > self.n * self.degree // 2:
            raise ValueError("bisection exceeds the edge count")

    @property
    def mpl(self) -> Fraction:
        if self.n < 2:
            return Fraction(0)
        return self.dist_sum / (self.n - 1)

    def to_dict(self) -> dict:
        """JSON-able form; dist_sum stays an integer when it is one."""
        dist_sum = self.dist_sum
        return {
            "n": self.n,
            "degree": self.degree,
            "diameter": self.diameter,
            "dist_sum": int(dist_sum) if dist_sum.denominator == 1 else float(dist_sum),
            "mpl": float(self.mpl),
            "bisection": self.bisection,
            "bisection_exact": self.bisection_exact,
        }


def bfs_distances(t: Topology, source: int) -> list[int]:
    """Hop distances from source; unreached vertices are marked -1.

    The visited set is a packed bit integer, membership and insertion are
    single shift/mask operations. Callers detect disconnection by the -1
    markers (the reachable set is exactly the non-negative entries).
    """
    n = t.n
    dist = [-1] * n
    dist[source] = 0
    visited = 1 << source
    frontier = [source]
    adj = t.adjacency
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if not (visited >> w) & 1:
                    visited |= 1 << w
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


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


def diameter_mpl(t: Topology) -> tuple[int, Fraction, Fraction]:
    """(diameter, per-source distance sum, mean path length).

    Vertex-symmetric graphs are measured from vertex 0 only; the general path
    averages over every source and normalizes the sum back to one source so
    both paths satisfy mpl * (n - 1) == dist_sum exactly.
    """
    n = t.n
    if n == 1:
        return 0, Fraction(0), Fraction(0)
    if t.vertex_symmetric:
        dist = bfs_distances(t, 0)
        if -1 in dist:
            raise DisconnectedError("graph is not connected")
        s = sum(dist)
        return max(dist), Fraction(s), Fraction(s, n - 1)
    total = 0
    diameter = 0
    for source in range(n):
        dist = bfs_distances(t, source)
        if -1 in dist:
            raise DisconnectedError("graph is not connected")
        total += sum(dist)
        diameter = max(diameter, max(dist))
    return diameter, Fraction(total, n), Fraction(total, n * (n - 1))


def cut_size(t: Topology, side_a: set[int]) -> int:
    """Edges crossing the bipartition (side_a, rest)."""
    cut = 0
    for u in side_a:
        for w in t.adjacency[u]:
            if w not in side_a:
                cut += 1
    return cut


def _half_masks(t: Topology, verts: list[int], base: int) -> list[int]:
    """Per-vertex neighbor masks restricted to `verts`, bit i = verts[i]-base."""
    vset = set(verts)
    masks = []
    for v in verts:
        m = 0
        for w in t.adjacency[v]:
            if w in vset:
                m |= 1 << (w - base)
        masks.append(m)
    return masks


def _subset_tables(adj_masks: list[int], degs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """DP over all subsets of one half: internal edge count and degree sum."""
    size = 1 << len(adj_masks)
    ew = [0] * size
    ds = [0] * size
    for m in range(1, size):
        v = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        ew[m] = ew[rest] + (adj_masks[v] & rest).bit_count()
        ds[m] = ds[rest] + degs[v]
    return np.array(ew, dtype=np.int64), np.array(ds, dtype=np.int64)


def bisection_method(n: int, exact_limit: int = DEFAULT_EXACT_LIMIT) -> str | None:
    """How the bisection width of an n-vertex graph is obtained: "exact" for
    even n up to min(exact_limit, 40), "heuristic" for larger even n, and None
    for odd n, which has no strictly balanced bisection."""
    if n % 2:
        return None
    return "exact" if n <= min(exact_limit, _EXACT_HARD_CAP) else "heuristic"


def bisection_exact(t: Topology, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    """Minimum balanced cut by exhausting every bipartition containing vertex 0.

    Vertices split into a low and a high half; a bipartition is a (low-mask,
    high-mask) pair, so internal-edge and degree sums come from two 2**(n/2)
    lookup tables and the low-high coupling is a popcount matrix times the
    high-mask incidence matrix. Every one of the C(n-1, n/2-1) bipartitions
    is evaluated; nothing is pruned.
    """
    n = t.n
    if n % 2:
        raise BisectionInfeasibleError(f"strict balance impossible for odd n={n}")
    if n > limit:
        raise ExactLimitError(
            f"n={n} exceeds the exact-enumeration limit {limit}; use bisection_heuristic"
        )
    if n > _EXACT_HARD_CAP:
        raise ExactLimitError(f"exact enumeration capped at n={_EXACT_HARD_CAP}")
    if n == 2:
        return len(t.adjacency[0])

    half = n // 2
    h_lo = n // 2
    h_hi = n - h_lo
    low = list(range(h_lo))
    high = list(range(h_lo, n))
    degs = [len(t.adjacency[v]) for v in range(n)]

    ew_lo, ds_lo = _subset_tables(_half_masks(t, low, 0), degs[:h_lo])
    ew_hi, ds_hi = _subset_tables(_half_masks(t, high, h_lo), degs[h_lo:])

    # low-part neighbor masks of each high vertex, for the coupling term
    lowset = set(low)
    adj_low_of_high = np.array(
        [
            sum(1 << w for w in t.adjacency[v] if w in lowset)
            for v in high
        ],
        dtype=np.uint64,
    )

    best: int | None = None
    for j in range(max(0, half - 1 - h_hi), min(h_lo - 1, half - 1) + 1):
        lo_masks = np.array(
            [
                1 | sum(1 << b for b in combo)
                for combo in itertools.combinations(range(1, h_lo), j)
            ],
            dtype=np.uint64,
        )
        hi_combos = list(itertools.combinations(range(h_hi), half - 1 - j))
        hi_masks = np.array(
            [sum(1 << b for b in combo) for combo in hi_combos], dtype=np.int64
        )
        hi_bits = np.zeros((len(hi_combos), h_hi), dtype=np.float32)
        for row, combo in enumerate(hi_combos):
            hi_bits[row, list(combo)] = 1.0
        base_hi = (ew_hi[hi_masks] * 2 - ds_hi[hi_masks]).astype(np.float32)

        chunk = max(1, 4_000_000 // max(1, len(hi_combos)))
        for c0 in range(0, len(lo_masks), chunk):
            lo_chunk = lo_masks[c0 : c0 + chunk]
            # coupling[i, v] = |neighbors of high vertex v inside lo_chunk[i]|
            coupling = np.bitwise_count(
                lo_chunk[:, None] & adj_low_of_high[None, :]
            ).astype(np.float32)
            cross = coupling @ hi_bits.T
            idx = lo_chunk.astype(np.int64)
            base_lo = (ds_lo[idx] - 2 * ew_lo[idx]).astype(np.float32)
            # cut = sum(deg in A) - 2 * internal(A); signs folded into bases
            cuts = base_lo[:, None] - base_hi[None, :] - 2.0 * cross
            m = int(cuts.min())
            if best is None or m < best:
                best = m
    assert best is not None
    return best


class _WorkGraph:
    """Weighted working form for the partition heuristic.

    Finest level carries unit weights; coarser levels aggregate contracted
    edge multiplicities. All vertices of one level have equal cluster size,
    so balanced swaps on any level stay balanced after projection.
    """

    def __init__(self, n: int, edge_weights: dict[tuple[int, int], int]):
        self.n = n
        items = sorted(edge_weights.items())
        self.edges = np.array([e for e, _ in items], dtype=np.int64).reshape(-1, 2)
        self.eweights = np.array([w for _, w in items], dtype=np.int64)
        self.wpen = dict(edge_weights)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), w in items:
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        for v in range(n):
            self.indptr[v + 1] = self.indptr[v] + len(adj[v])
        self.indices = np.fromiter(
            (w for row in adj for w, _ in row), dtype=np.int64, count=self.indptr[-1]
        )
        self.iweights = np.fromiter(
            (wt for row in adj for _, wt in row), dtype=np.int64, count=self.indptr[-1]
        )
        self.degw = np.zeros(n, dtype=np.int64)
        np.add.at(self.degw, self.edges[:, 0], self.eweights)
        np.add.at(self.degw, self.edges[:, 1], self.eweights)

    def pair_weight(self, u: int, v: int) -> int:
        return self.wpen.get((u, v) if u < v else (v, u), 0)


def _work_graph(t: Topology) -> _WorkGraph:
    return _WorkGraph(t.n, {e: 1 for e in t.edges()})


def _best_swap(
    g: _WorkGraph, D: np.ndarray, side: np.ndarray, locked: np.ndarray
) -> tuple[int, int, int] | None:
    """Highest-gain unlocked cross pair; gain = D[u] + D[v] - 2*w(u, v).

    Candidates come from the top of each side by D; the window widens until
    the best found provably dominates everything outside it (edge weights
    only lower the gain). Ties break on the smaller pair, deterministically.
    """
    avail_a = np.flatnonzero((side == 0) & ~locked)
    avail_b = np.flatnonzero((side == 1) & ~locked)
    if len(avail_a) == 0 or len(avail_b) == 0:
        return None
    t_width = 8
    while True:
        ka = min(t_width, len(avail_a))
        kb = min(t_width, len(avail_b))
        top_a = avail_a[np.argpartition(-D[avail_a], ka - 1)[:ka]]
        top_b = avail_b[np.argpartition(-D[avail_b], kb - 1)[:kb]]
        top_a = top_a[np.lexsort((top_a, -D[top_a]))]
        top_b = top_b[np.lexsort((top_b, -D[top_b]))]
        best = None
        for u in top_a:
            u = int(u)
            du = int(D[u])
            for v in top_b:
                v = int(v)
                gain = du + int(D[v]) - 2 * g.pair_weight(u, v)
                if best is None or gain > best[2]:
                    best = (u, v, gain)
        assert best is not None
        bound_a = int(D[top_a[0]])
        bound_b = int(D[top_b[0]])
        rest_a = -(1 << 30) if ka == len(avail_a) else -int(
            np.partition(-D[avail_a], ka)[ka]
        )
        rest_b = -(1 << 30) if kb == len(avail_b) else -int(
            np.partition(-D[avail_b], kb)[kb]
        )
        if best[2] >= rest_a + bound_b and best[2] >= bound_a + rest_b:
            return best
        t_width *= 2


def _kl_refine(g: _WorkGraph, side: np.ndarray, window: int) -> int:
    """Kernighan-Lin passes until no pass improves; side is refined in place.

    Each pass tentatively swaps vertex pairs (allowing negative interim
    gains), then keeps the prefix with the best cumulative gain. A pass is
    abandoned once the prefix maximum has stalled for `window` steps;
    balance is preserved at every step.
    """
    n = g.n
    edges, ew = g.edges, g.eweights
    while True:
        cross = side[edges[:, 0]] != side[edges[:, 1]]
        cut = int(ew[cross].sum())
        wcross = np.where(cross, ew, 0)
        ext = np.zeros(n, dtype=np.int64)
        np.add.at(ext, edges[:, 0], wcross)
        np.add.at(ext, edges[:, 1], wcross)
        D = 2 * ext - g.degw

        locked = np.zeros(n, dtype=bool)
        swaps: list[tuple[int, int]] = []
        running = 0
        best_prefix = 0
        best_at = -1
        stall = 0
        for step in range(n // 2):
            pick = _best_swap(g, D, side, locked)
            if pick is None:
                break
            u, v, gain = pick
            swaps.append((u, v))
            running += gain
            for x in (u, v):
                side[x] ^= 1
                lo, hi = g.indptr[x], g.indptr[x + 1]
                nb = g.indices[lo:hi]
                wx = g.iweights[lo:hi]
                D[nb] += np.where(side[nb] == side[x], -2 * wx, 2 * wx)
                D[x] = -D[x]
            locked[u] = locked[v] = True
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


def _contract(g: _WorkGraph, rng: random.Random) -> tuple[_WorkGraph, list[tuple[int, int]]]:
    """Pair every vertex with a mate (heaviest unmatched neighbor first, then
    leftovers pair among themselves) and merge pairs into a half-size graph.

    Pairing everything keeps cluster sizes equal at every level, which is
    what lets coarse balanced swaps stay balanced after projection.
    """
    n = g.n
    order = list(range(n))
    rng.shuffle(order)
    mate = [-1] * n
    for u in order:
        if mate[u] != -1:
            continue
        best_v = -1
        best_w = 0
        for pos in range(g.indptr[u], g.indptr[u + 1]):
            v = int(g.indices[pos])
            if mate[v] == -1 and v != u and int(g.iweights[pos]) > best_w:
                best_w = int(g.iweights[pos])
                best_v = v
        if best_v != -1:
            mate[u] = best_v
            mate[best_v] = u
    singles = [u for u in order if mate[u] == -1]
    for a, b in zip(singles[::2], singles[1::2]):
        mate[a] = b
        mate[b] = a
    cid = [-1] * n
    pairs: list[tuple[int, int]] = []
    for u in order:
        if cid[u] == -1:
            cid[u] = cid[mate[u]] = len(pairs)
            pairs.append((u, mate[u]))
    coarse: dict[tuple[int, int], int] = {}
    for (u, v), w in zip(g.edges.tolist(), g.eweights.tolist()):
        cu, cv = cid[u], cid[v]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        coarse[key] = coarse.get(key, 0) + w
    return _WorkGraph(len(pairs), coarse), pairs


# Heuristic shape: coarsen down to this many vertices before the first
# refinement, then kick-and-refine this many times per restart.
_COARSEN_FLOOR = 64
_ILS_ROUNDS = 6


def _multilevel_cut(g: _WorkGraph, rng: random.Random) -> tuple[int, np.ndarray]:
    """One V-cycle: contract to the floor, bisect, project back refining."""
    levels = [g]
    maps: list[list[tuple[int, int]]] = []
    while levels[-1].n > _COARSEN_FLOOR and levels[-1].n % 2 == 0:
        coarse, pairs = _contract(levels[-1], rng)
        levels.append(coarse)
        maps.append(pairs)
    top = levels[-1]
    side = np.ones(top.n, dtype=np.int8)
    side[rng.sample(range(top.n), top.n // 2)] = 0
    cut = _kl_refine(top, side, max(48, top.n // 16))
    for level in range(len(levels) - 2, -1, -1):
        fine = levels[level]
        fine_side = np.empty(fine.n, dtype=np.int8)
        for c, (a, b) in enumerate(maps[level]):
            fine_side[a] = fine_side[b] = side[c]
        side = fine_side
        cut = _kl_refine(fine, side, max(48, fine.n // 16))
    return cut, side


def _factor_lift_seeds(t: Topology, restarts: int, seed: int) -> list[np.ndarray]:
    """Balanced starts for product graphs: bisect each even-order factor and
    copy its side across every other coordinate (the dimension-cut family,
    which random starts rarely reassemble on large products)."""
    if t.factors is None or len(t.factors) < 2:
        return []
    sizes = [f.n for f in t.factors]
    weights = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        weights[i] = weights[i + 1] * sizes[i + 1]
    coords = np.arange(t.n)
    seeds = []
    for p, f in enumerate(t.factors):
        if f.n % 2:
            continue
        _, fside = _best_balanced_side(f, restarts, seed + 7919 * (p + 1))
        seeds.append(fside[(coords // weights[p]) % sizes[p]].astype(np.int8))
    return seeds


def _best_balanced_side(
    t: Topology, restarts: int, seed: int
) -> tuple[int, np.ndarray]:
    """Minimum balanced cut found and a side assignment achieving it."""
    n = t.n
    if n == 2:
        return len(t.adjacency[0]), np.array([0, 1], dtype=np.int8)
    g = _work_graph(t)
    window = max(48, n // 16)
    kicks = (8, max(8, n // 32), max(12, n // 16))
    seeds = _factor_lift_seeds(t, restarts, seed)
    best: tuple[int, np.ndarray] | None = None
    for i in range(restarts):
        rng = random.Random(seed + i)
        if i < len(seeds):
            side = seeds[i].copy()
            cut = _kl_refine(g, side, window)
        elif i % 2 == 0:
            cut, side = _multilevel_cut(g, rng)
        else:
            side = np.ones(n, dtype=np.int8)
            side[rng.sample(range(n), n // 2)] = 0
            cut = _kl_refine(g, side, window)
        run_best, run_side = cut, side.copy()
        for r in range(_ILS_ROUNDS):
            side = run_side.copy()
            a = np.flatnonzero(side == 0)
            b = np.flatnonzero(side == 1)
            m = min(kicks[r % 3], len(a))
            side[a[rng.sample(range(len(a)), m)]] = 1
            side[b[rng.sample(range(len(b)), m)]] = 0
            cut = _kl_refine(g, side, window)
            if cut < run_best:
                run_best, run_side = cut, side.copy()
        if best is None or run_best < best[0]:
            best = (run_best, run_side)
    assert best is not None
    return best


def bisection_heuristic(
    t: Topology, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> int:
    """Best balanced cut over `restarts` runs of iterated Kernighan-Lin.

    Restarts alternate between multilevel V-cycles (randomized pair
    contraction, coarse bisection, refine on the way back up) and flat
    refinement of random balanced starts; product graphs additionally seed a
    few restarts with lifted factor bisections. Every local minimum is then
    perturbed (a seeded batch of cross-pair swaps) and re-refined a few
    rounds. Deterministic for a given seed: restart i draws everything from
    seed + i and the result is the minimum over restarts, independent of
    execution order. Always an upper bound on the true bisection width.
    """
    n = t.n
    if n % 2:
        raise BisectionInfeasibleError(f"strict balance impossible for odd n={n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    return _best_balanced_side(t, restarts, seed)[0]


def parse_partition(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse the two-line partition format: space-separated vertex lists."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise PartitionFileError(f"expected exactly two non-empty lines, got {len(lines)}")
    try:
        a = tuple(int(x) for x in lines[0].split())
        b = tuple(int(x) for x in lines[1].split())
    except ValueError as exc:
        raise PartitionFileError(f"non-integer vertex id: {exc}") from exc
    return a, b


def balanced_partition_cut(
    t: Topology, parts: tuple[tuple[int, ...], tuple[int, ...]]
) -> int:
    """Validate an externally supplied bipartition and recompute its cut.

    The reported cut of an external partitioner is never trusted; only the
    vertex sets are taken, checked for exact balance and disjoint cover.
    """
    a, b = parts
    sa, sb = set(a), set(b)
    if len(sa) != len(a) or len(sb) != len(b):
        raise PartitionFileError("duplicate vertices inside a part")
    if sa & sb:
        raise PartitionFileError("parts are not disjoint")
    if sa | sb != set(range(t.n)):
        raise PartitionFileError("parts do not cover all vertices")
    if len(sa) != len(sb):
        raise PartitionFileError(f"parts are unbalanced: {len(sa)} vs {len(sb)}")
    return cut_size(t, sa)


def compute_metrics(
    t: Topology,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> MetricsRecord:
    """Full MetricsRecord: BFS metrics plus a bisection width.

    Bisection is recomputed from a supplied partition, or else obtained as
    `bisection_method` decides: exact, heuristic, or None for odd vertex
    counts, which cannot be strictly bisected.
    """
    diameter, dist_sum, _ = diameter_mpl(t)
    bisection: int | None
    method = bisection_method(t.n, exact_limit)
    if partition is not None:
        bisection, exact = balanced_partition_cut(t, partition), False
    elif method is None:
        bisection, exact = None, False
    elif method == "exact":
        bisection, exact = bisection_exact(t, exact_limit), True
    else:
        bisection, exact = bisection_heuristic(t, restarts, seed), False
    return MetricsRecord(
        n=t.n,
        degree=t.degree,
        diameter=diameter,
        dist_sum=dist_sum,
        bisection=bisection,
        bisection_exact=exact,
    )
