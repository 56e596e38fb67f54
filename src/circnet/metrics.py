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
Small graphs are solved exactly over every bipartition containing vertex 0:
meet-in-the-middle over a low-half and a high-half mask, scanned as numpy
table lookups plus one small matrix product per chunk, with whole rows and
columns skipped when the cuts inside the two halves already reach the best
cut found (a valid lower bound, so the result equals full enumeration).
Larger graphs get a restarted multilevel Kernighan-Lin search that only ever
holds balanced states; or an externally supplied partition whose cut is
recomputed, never trusted. Each KL step takes the pair `_best_swap` defines:
the best gain over the top-D windows of both sides, widened until nothing
outside can beat it. Gain buckets in the manner of Fiduccia and Mattheyses
find that pair at O(degree) cost per swap: each side's unlocked vertices
stay sorted by (-D, index) and a swap moves only its endpoints' neighbours.
Window membership under D ties across the window boundary follows numpy's
`argpartition`, as in `_window`; the buckets answer directly where a gain
bound proves the tie cannot matter and call `_window` where it might.

Both solvers stop at `bisection_lower_bound`, a floor no balanced cut can
go below (the larger of a spectral and an all-to-all congestion bound): a
cut that meets it is optimal. The floor equals the width of every torus
with even dimensions, every hypercube, ring x K4 and complete graph, so
those are solved by their first cut: at 64 restarts `hypercube:10` and `torus:8,8,4,4` take
0.02 s instead of 6 s. A cut is kept only on strict improvement, so the
widths and sides are those of the unstopped solvers.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .topology import JumpSet, Topology, mixed_radix

DEFAULT_EXACT_LIMIT = 32
DEFAULT_RESTARTS = 64

# Table sizes for the exact solver grow as 2**(n/2); 40 keeps them near 1M.
_EXACT_HARD_CAP = 40
# Entries of one block of candidate cuts in the exact solver.
_EXACT_CHUNK = 4_000_000


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

    The distance list is the visited set: a vertex is reached once its entry
    is non-negative. Callers detect disconnection by the -1 markers (the
    reachable set is exactly the non-negative entries).
    """
    dist = [-1] * t.n
    dist[source] = 0
    frontier = [source]
    adj = t.adjacency
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
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


def _half_tables(t: Topology, base: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables over every subset S of the vertices base..base+size-1 (bit i of
    the mask is vertex base+i): the cut inside the half, cin(S), and S's
    degree sum minus twice its internal edges, which is S's share of a cut.

    Built by doubling: the masks with top bit i extend those below 2**i.
    """
    verts = range(base, base + size)
    inner = [sum(1 << (w - base) for w in t.adjacency[v] if w in verts) for v in verts]
    ew = np.zeros(1 << size, dtype=np.int64)  # internal edges
    dsin = np.zeros(1 << size, dtype=np.int64)  # degree sum inside the half
    ds = np.zeros(1 << size, dtype=np.int64)  # full degree sum
    masks = np.arange(1 << size, dtype=np.int64)
    for i, v in enumerate(verts):
        lo, hi = 1 << i, 2 << i
        ew[lo:hi] = ew[:lo] + np.bitwise_count(masks[:lo] & inner[i])
        dsin[lo:hi] = dsin[:lo] + inner[i].bit_count()
        ds[lo:hi] = ds[:lo] + len(t.adjacency[v])
    return dsin - 2 * ew, ds - 2 * ew


def bisection_method(n: int, exact_limit: int = DEFAULT_EXACT_LIMIT) -> str | None:
    """How the bisection width of an n-vertex graph is obtained: "exact" for
    even n up to min(exact_limit, 40), "heuristic" for larger even n, and None
    for odd n, which has no strictly balanced bisection."""
    if n % 2:
        return None
    return "exact" if n <= min(exact_limit, _EXACT_HARD_CAP) else "heuristic"


def _laplacian_gap(js: JumpSet) -> float:
    """Second-smallest Laplacian eigenvalue of a circulant, in float64: the
    least over j = 1..m-1 of sum_s c_s (1 - cos(2 pi j s / m)), with c_s = 1
    for the jump m/2 and 2 for every other jump (j = 0 gives the zero)."""
    m = js.n
    j = np.arange(1, m)
    lam = np.zeros(m - 1)
    for s in js.jumps:
        lam += (1 if 2 * s == m else 2) * (1 - np.cos(2 * np.pi * (j * s % m) / m))
    return float(lam.min())


def _all_to_all_load(js: JumpSet) -> Fraction | None:
    """Largest per-direction link load of all-to-all traffic on a complete
    graph (an edge included) or a ring under shortest-path routing, antipodal
    pairs of an even ring split evenly over both ways round; None for any
    other circulant."""
    m = js.n
    if js.jumps == tuple(range(1, m // 2 + 1)):
        return Fraction(1)
    if js.jumps == (1,):
        return Fraction(m * m - m % 2, 8)
    return None


def bisection_lower_bound(t: Topology) -> int:
    """A floor under the bisection width of t: no balanced cut is smaller.

    The larger of two bounds, and 0 when a leaf of t (t itself unless it is
    a product) has no jump set, as `from_edges` graphs have not.
    - Spectral (Donath and Hoffman; Fiedler): a balanced cut is at least
      lambda_2 * n / 4, and a product's lambda_2 is the least over its
      leaves. Computed in float64 and lowered by a 1e-9 relative margin
      before the ceiling, so rounding can only weaken it.
    - Congestion (Leighton's k-ary d-cube argument): when every leaf is an
      edge, a ring or a complete graph, dimension-order routing of
      all-to-all traffic loads no link of leaf i above pi_i * n / m_i, and
      the n^2/4 flows from one side to the other must cross the cut, so it
      has at least min_i n * m_i / (4 pi_i) edges. Exact in Fractions.
    The congestion bound equals the width of every hypercube (n / 2),
    every torus with even dimensions (2n / max_dim) and ring x K4; the
    spectral one equals that of complete graphs and stays below the width
    of the optimal circulants (45-75% of it on the published rows).
    """
    leaves = [f for f in (t.factors or (t,)) if f.n > 1]
    if not leaves or any(f.jumps is None for f in leaves):
        return 0
    n = t.n
    x = min(_laplacian_gap(f.jumps) for f in leaves) * n / 4
    bound = math.ceil(x - 1e-9 * max(1.0, x))
    loads = [_all_to_all_load(f.jumps) for f in leaves]
    if all(p is not None for p in loads):
        congestion = min(Fraction(n * f.n) / (4 * p) for f, p in zip(leaves, loads))
        bound = max(bound, math.ceil(congestion))
    return bound


def bisection_exact(t: Topology, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    """Minimum balanced cut over every bipartition containing vertex 0.

    Vertices split into a low and a high index half, and a side A containing
    vertex 0 is a pair (L, H) of a low-half and a high-half mask, grouped by
    |L|. Its cut is a table lookup per mask plus the L-H edge count (a
    popcount matrix times the H incidence matrix), evaluated chunk-wise.

    Branch-and-bound, exact: the cuts inside each half, cin(L) and cin(H),
    are disjoint edge sets that both cross A, so cut(A) >= cin(L) + cin(H).
    The best starts above any cut. Rows L are visited in ascending cin(L);
    a group stops at the first row whose bound against its remaining columns
    reaches the best cut found so far, and columns are dropped the same way.
    Only pairs whose bound is >= the best are skipped, so the result equals
    full enumeration. The groups stop as soon as the best cut meets
    `bisection_lower_bound`, which no cut can beat: on tori, hypercubes and
    complete graphs the first block is enough (K32 takes 5 ms instead of
    0.2 s). Odd n raises BisectionInfeasibleError, and even n that
    `bisection_method` does not call "exact" raises ExactLimitError.
    """
    n = t.n
    if n % 2:
        raise BisectionInfeasibleError(f"strict balance impossible for odd n={n}")
    if bisection_method(n, limit) != "exact":
        raise ExactLimitError(
            f"n={n} exceeds the exact-enumeration limit {min(limit, _EXACT_HARD_CAP)};"
            " use bisection_heuristic"
        )

    half = n // 2
    cin_lo, base_lo = _half_tables(t, 0, half)
    cin_hi, base_hi = _half_tables(t, half, half)
    # low-half neighbor mask of each high vertex, for the L-H edge count
    adj_low_of_high = np.array(
        [sum(1 << w for w in t.adjacency[v] if w < half) for v in range(half, n)],
        dtype=np.int64,
    )
    bit = np.arange(half, dtype=np.int64)

    # cut = sum(deg in A) - 2 * internal(A) = base_lo[L] + base_hi[H]
    # - 2 * |L-H edges|, so a block of cuts is one product of [coupling,
    # base_lo, 1] rows and [-2 * H bits; 1; base_hi] columns. float32 holds
    # these small integers exactly.
    def lhs(rows: np.ndarray) -> np.ndarray:
        out = np.empty((len(rows), half + 2), dtype=np.float32)
        out[:, :half] = np.bitwise_count(rows[:, None] & adj_low_of_high[None, :])
        out[:, half] = base_lo[rows]
        out[:, half + 1] = 1
        return out

    def rhs(cols: np.ndarray) -> np.ndarray:
        out = np.empty((half + 2, len(cols)), dtype=np.float32)
        out[:half] = -2 * ((cols[None, :] >> bit[:, None]) & 1)
        out[half] = 1
        out[half + 1] = base_hi[cols]
        return out

    # Groups by |L|, rows sorted by cin, bounded by their lowest cin pair.
    masks = np.arange(1 << half, dtype=np.int64)
    pop = np.bitwise_count(masks)
    groups = []
    for size in range(1, half + 1):
        rows = np.flatnonzero((pop == size) & ((masks & 1) == 1))
        rows = rows[np.argsort(cin_lo[rows], kind="stable")]
        cols = np.flatnonzero(pop == half - size)
        groups.append((int(cin_lo[rows[0]] + cin_hi[cols].min()), rows, cols))
    best = n * n  # above any cut, so the first block sets a real one
    floor = bisection_lower_bound(t)

    for bound, rows, cols in sorted(groups, key=lambda g: g[0]):
        if bound >= best or best <= floor:
            break  # and so does every later group
        row_cin, col_cin = cin_lo[rows], cin_hi[cols]
        right = None
        pos = 0
        while pos < len(rows) and best > floor:
            # rows are ascending in cin, so row_cin[pos] bounds the rest
            keep = col_cin + row_cin[pos] < best
            if right is None or not keep.all():
                cols, col_cin = cols[keep], col_cin[keep]
                right = rhs(cols)
            if len(cols) == 0:
                break
            limit = int(np.searchsorted(row_cin, best - col_cin.min()))
            if limit <= pos:
                break
            end = min(limit, pos + max(1, _EXACT_CHUNK // max(len(cols), half)))
            best = min(best, int((lhs(rows[pos:end]) @ right).min()))
            pos = end
    return best


class _WorkGraph:
    """Weighted working form for the partition heuristic: a dense symmetric
    weight matrix, and each vertex's neighbours as a {neighbour: weight}
    dict, built once per level for the O(degree) swap updates and mate picks.

    Finest level carries unit weights; coarser levels aggregate contracted
    edge multiplicities. All vertices of one level have equal cluster size,
    so balanced swaps on any level stay balanced after projection.
    """

    def __init__(self, weights: np.ndarray):
        self.n = len(weights)
        self.weights = weights
        self.degw = weights.sum(axis=1, dtype=np.int64)
        self.adj = [
            dict(zip(np.flatnonzero(row).tolist(), row[row != 0].tolist())) for row in weights
        ]


def _work_graph(t: Topology) -> _WorkGraph:
    weights = np.zeros((t.n, t.n), dtype=np.int32)
    for u, nbrs in enumerate(t.adjacency):
        weights[u, list(nbrs)] = 1
    return _WorkGraph(weights)


# `rest` of a window that holds every available vertex.
_NOTHING_LEFT = -(1 << 30)


def _window(avail: np.ndarray, D: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """The k vertices of `avail` with the largest D, ordered by (-D, index),
    and the largest D left outside them (a sentinel when nothing is).

    When D ties across the boundary, numpy's `argpartition` decides which
    of the tied vertices are inside, not their index."""
    if k == len(avail):
        top, rest = avail, _NOTHING_LEFT
    else:
        neg = -D[avail]
        part = neg.argpartition(k - 1)
        top, rest = avail[part[:k]], -int(neg[part[k:]].min())
    return top[np.lexsort((top, -D[top]))], rest


def _best_swap(
    g: _WorkGraph, D: np.ndarray, avail_a: np.ndarray, avail_b: np.ndarray
) -> tuple[int, int, int] | None:
    """Highest-gain pair u in avail_a, v in avail_b; gain = D[u] + D[v] - 2*w(u, v).

    This is the definition the refinement follows; `_GainBuckets.best`
    returns the same pair and gain at O(degree) cost per swap.

    Candidates come from the top of each side by D (`_window`, so boundary
    ties follow `argpartition`); the window widens until the best found
    provably dominates everything outside it (edge weights only lower the
    gain). Ties break on the first pair in row-major order over the sorted
    windows, deterministically.
    """
    if len(avail_a) == 0 or len(avail_b) == 0:
        return None
    t_width = 8
    while True:
        top_a, rest_a = _window(avail_a, D, min(t_width, len(avail_a)))
        top_b, rest_b = _window(avail_b, D, min(t_width, len(avail_b)))
        gains = D[top_a][:, None] + D[top_b] - 2 * g.weights[top_a[:, None], top_b]
        i, j = divmod(int(gains.argmax()), len(top_b))
        gain = int(gains[i, j])
        if gain >= rest_a + int(D[top_b[0]]) and gain >= int(D[top_a[0]]) + rest_b:
            return int(top_a[i]), int(top_b[j]), gain
        t_width *= 2


def _scan(
    D: list[int], adj: list[dict[int, int]], rows: list[int], cols: list[int]
) -> tuple[int, int, int]:
    """First row-major maximum of D[u] + D[v] - 2 w(u, v) over rows x cols,
    both ordered by (-D, index). D[u] + D[v] bounds a pair's gain and falls
    along every row and column, so the scan stops where it cannot be beaten.
    """
    best, bu, bv = -math.inf, -1, -1
    d_col = D[cols[0]]
    for u in rows:
        du = D[u]
        if du + d_col <= best:
            break
        wu = adj[u]
        for v in cols:
            bound = du + D[v]
            if bound <= best:
                break
            gain = bound - 2 * wu.get(v, 0)
            if gain > best:
                best, bu, bv = gain, u, v
    return bu, bv, best


class _GainBuckets:
    """The unlocked vertices of each side in one KL pass, kept sorted by
    (-D, index), so that `best` answers `_best_swap` and `swap` costs
    O(degree) sorted-list moves.

    Each side's list is its D buckets concatenated: key -D * n + v, removed
    and inserted by bisection. The window of width t is the list's first t
    entries. That is `_window`'s set unless D ties across the boundary
    (rest == the t-th D), where `argpartition` may keep other tied members.
    A pair touching a tied member of side A gains at most rest_A + max D of
    B (and symmetrically), so when the best gain found beats that bound on
    every tied side, both windows give the same pair and the same widening
    decision. Otherwise the tied sides take `_window`'s windows, over numpy
    copies of D and availability that are brought up to date only then, and
    the scan is repeated.
    """

    def __init__(
        self, g: _WorkGraph, D: np.ndarray, avail_a: np.ndarray, avail_b: np.ndarray
    ):
        self.n = n = g.n
        self.adj = g.adj
        self.D = D.tolist()
        self.D_np = D.astype(np.int64)
        self.avail = [avail_a, avail_b]
        where = np.full(n, -1)
        where[avail_a], where[avail_b] = 0, 1
        self.free = where >= 0
        self.where = where.tolist()  # side of each unlocked vertex, -1 once locked
        self.order = [np.sort(-D[a] * n + a).tolist() for a in self.avail]
        self.dirty: list[int] = []  # vertices whose D changed since the sync
        self.synced = True

    def _sync(self) -> None:
        if self.synced:
            return
        if self.dirty:
            self.D_np[self.dirty] = [self.D[v] for v in self.dirty]
            self.dirty.clear()
        self.avail = [a[self.free[a]] for a in self.avail]
        self.synced = True

    def best(self) -> tuple[int, int, int] | None:
        """`_best_swap`'s (u, v, gain) for the current state."""
        (order_a, order_b), n = self.order, self.n
        len_a, len_b = len(order_a), len(order_b)
        if not len_a or not len_b:
            return None
        D, adj = self.D, self.adj
        top_a, top_b = -(order_a[0] // n), -(order_b[0] // n)
        t_width = 8
        while True:
            ka, kb = min(t_width, len_a), min(t_width, len_b)
            rest_a = -(order_a[ka] // n) if ka < len_a else _NOTHING_LEFT
            rest_b = -(order_b[kb] // n) if kb < len_b else _NOTHING_LEFT
            rows = [key % n for key in order_a[:ka]]
            cols = [key % n for key in order_b[:kb]]
            u, v, gain = _scan(D, adj, rows, cols)
            bound_a, bound_b = rest_a + top_b, top_a + rest_b
            tied_a, tied_b = rest_a == D[rows[-1]], rest_b == D[cols[-1]]
            if (tied_a and gain <= bound_a) or (tied_b and gain <= bound_b):
                self._sync()
                if tied_a:
                    rows = _window(self.avail[0], self.D_np, ka)[0].tolist()
                if tied_b:
                    cols = _window(self.avail[1], self.D_np, kb)[0].tolist()
                u, v, gain = _scan(D, adj, rows, cols)
            if gain >= bound_a and gain >= bound_b:
                return u, v, gain
            t_width *= 2

    def swap(self, u: int, v: int) -> None:
        """Lock u (side A) and v (side B) and move them across: each unlocked
        neighbour's D changes by 2 w per moved endpoint, up when the endpoint
        leaves the neighbour's side and down when it joins it."""
        n, D, where, order = self.n, self.D, self.where, self.order
        dirty = self.dirty
        for x, s in ((u, 0), (v, 1)):
            keys = order[s]
            del keys[bisect_left(keys, -D[x] * n + x)]
            where[x] = -1
            self.free[x] = False
        for x, up in ((u, 0), (v, 1)):
            for y, w in self.adj[x].items():
                s = where[y]
                if s < 0:
                    continue
                keys = order[s]
                d = D[y]
                del keys[bisect_left(keys, -d * n + y)]
                D[y] = d = d + 2 * w if s == up else d - 2 * w
                insort(keys, -d * n + y)
                dirty.append(y)
        self.synced = False


def _kl_refine(g: _WorkGraph, side: np.ndarray) -> int:
    """Kernighan-Lin passes until no pass improves; side is refined in place.

    Each pass tentatively swaps vertex pairs (allowing negative interim
    gains), then keeps the prefix with the best cumulative gain. A pass is
    abandoned once the prefix maximum has stalled for max(48, n/16) steps;
    balance is preserved at every step. Each step takes `_best_swap`'s pair,
    found by `_GainBuckets` at O(degree) cost per swap.
    """
    n = g.n
    window = max(48, n // 16)
    while True:
        # ext[v]: weight from v to the other side
        to_b = g.weights @ side
        ext = np.where(side == 1, g.degw - to_b, to_b)
        cut = int(ext[side == 0].sum())
        buckets = _GainBuckets(
            g, 2 * ext - g.degw, np.flatnonzero(side == 0), np.flatnonzero(side == 1)
        )
        swaps: list[tuple[int, int]] = []
        running = 0
        best_prefix = 0
        best_at = -1
        stall = 0
        for step in range(n // 2):
            pick = buckets.best()
            if pick is None:
                break
            u, v, gain = pick
            swaps.append((u, v))
            buckets.swap(u, v)
            running += gain
            if running > best_prefix:
                best_prefix = running
                best_at = step
                stall = 0
            else:
                stall += 1
                if stall > window:
                    break

        if best_prefix <= 0:
            return cut
        # keep the swaps up to the best prefix; the later ones stay undone
        side[np.array(swaps[: best_at + 1]).ravel()] ^= 1


def _contract(g: _WorkGraph, rng: random.Random) -> tuple[_WorkGraph, np.ndarray]:
    """Pair every vertex with a mate (heaviest unmatched neighbor first, then
    leftovers pair among themselves) and merge pairs into a half-size graph.

    Mates come from the {neighbor: weight} dicts, O(degree) per vertex.
    Returns the coarse graph and the cluster map: cid[v] is v's coarse
    vertex, numbered by each pair's first appearance in the shuffled order,
    so a coarse side projects back as side[cid]. Pairing everything keeps
    cluster sizes equal at every level, which is what lets coarse balanced
    swaps stay balanced after projection.
    """
    n = g.n
    order = list(range(n))
    rng.shuffle(order)
    mate = [-1] * n
    for u in order:
        if mate[u] != -1:
            continue
        # heaviest unmatched neighbor, the smallest index among equals (adj is in index order)
        v, heaviest = -1, 0
        for w, weight in g.adj[u].items():
            if weight > heaviest and mate[w] == -1:
                v, heaviest = w, weight
        if v != -1:
            mate[u] = v
            mate[v] = u
    singles = [u for u in order if mate[u] == -1]
    for a, b in zip(singles[::2], singles[1::2]):
        mate[a] = b
        mate[b] = a
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    cid = np.unique(np.minimum(pos, pos[np.array(mate)]), return_inverse=True)[1]
    a, b = np.argsort(cid, kind="stable").reshape(-1, 2).T  # each cluster's members
    rows = g.weights[a] + g.weights[b]
    coarse = rows[:, a] + rows[:, b]
    np.fill_diagonal(coarse, 0)  # edges inside a pair vanish
    return _WorkGraph(coarse), cid


# Heuristic shape: coarsen down to this many vertices before the first
# refinement, then kick-and-refine this many times per restart.
_COARSEN_FLOOR = 64
_ILS_ROUNDS = 6


def _multilevel_cut(g: _WorkGraph, rng: random.Random) -> tuple[int, np.ndarray]:
    """One V-cycle: contract to the floor, bisect, project back refining.

    Each level's cluster map projects a coarse side onto the finer level
    with one gather, side[cid].
    """
    levels = [g]
    maps: list[np.ndarray] = []
    while levels[-1].n > _COARSEN_FLOOR and levels[-1].n % 2 == 0:
        coarse, cid = _contract(levels[-1], rng)
        levels.append(coarse)
        maps.append(cid)
    top = levels[-1]
    side = np.ones(top.n, dtype=np.int8)
    side[rng.sample(range(top.n), top.n // 2)] = 0
    cut = _kl_refine(top, side)
    for level in range(len(levels) - 2, -1, -1):
        side = side[maps[level]]
        cut = _kl_refine(levels[level], side)
    return cut, side


def _factor_lift_seeds(t: Topology, restarts: int, seed: int) -> list[np.ndarray]:
    """Balanced starts for product graphs: bisect each even-order factor and
    copy its side across every other coordinate (the dimension-cut family,
    which random starts rarely reassemble on large products)."""
    if t.factors is None or len(t.factors) < 2:
        return []
    digits = np.array(mixed_radix([f.n for f in t.factors])[1])
    seeds = []
    for p, f in enumerate(t.factors):
        if f.n % 2:
            continue
        _, fside = _best_balanced_side(f, restarts, seed + 7919 * (p + 1))
        seeds.append(fside[digits[:, p]].astype(np.int8))
    return seeds


def _best_balanced_side(
    t: Topology, restarts: int, seed: int
) -> tuple[int, np.ndarray]:
    """Minimum balanced cut found and a side assignment achieving it.

    Perturbation rounds stop once the restart's cut meets
    `bisection_lower_bound`, and restarts stop once the best cut does. Both
    keep a cut only on strict improvement and restart i draws only from
    seed + i, so the cut and side are those of the full loop.
    """
    n = t.n
    if n == 2:
        return len(t.adjacency[0]), np.array([0, 1], dtype=np.int8)
    g = _work_graph(t)
    kicks = (8, max(8, n // 32), max(12, n // 16))
    seeds = _factor_lift_seeds(t, restarts, seed)
    floor = bisection_lower_bound(t)
    best: tuple[int, np.ndarray] | None = None
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
            if run_best <= floor:
                break
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
        if best[0] <= floor:
            break
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
    Rounds and restarts stop once a cut meets `bisection_lower_bound`,
    which proves it optimal and leaves the result unchanged: at 64
    restarts `hypercube:7` and `torus:8,4,4` take 4 ms instead of 1.3 s.
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
    counts, which cannot be strictly bisected. `restarts` below 1 is refused
    before any work, whichever way the width would be obtained.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
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
