"""Distance and bisection metrics for interconnect topologies.

Diameter and mean path length come from breadth-first search; vertex-symmetric
graphs need a single source. `circulant_group_profiles` is the one circulant
BFS kernel. It measures a whole co-lex group of the search scan in one call:
the jump sets (s, *tail) for each s of a run of free jumps, which share the
tail. It holds the ball of radius d around vertex 0 in one big integer and
grows it by the ball recurrence B_d(S) = B_d(S - {s}) | (B_{d-1}(S) +- s):
with the tail's balls taken from a small cache once per group, a whole BFS
level costs one rotation pair, one OR and one mask, whatever the degree.
Given the running best it skips a group whose `group_floor` is above it and
stops a member as soon as the member is provably worse (strictly, so ties
always finish), tightening the best as members improve on it.
`circulant_distance_profile`, used by checkpoint verification, is the same
kernel on a group of one.

Bisection width is the minimum edge cut over exactly balanced bipartitions.
`bisection_method` is the single policy choosing between the two solvers.
Small graphs are solved exactly, as a proof about a Kernighan-Lin cut: the
vertices split into halves along that cut, and a meet-in-the-middle search
over a low-half and a high-half mask looks only for smaller cuts. Rows and
columns whose per-half cuts and crossing degrees already reach the best cut
found are skipped (a valid lower bound, so the result equals full
enumeration), and the rest are scored by popcounts of crossing-edge
bitmasks, integer numpy with no matrix product.
Larger graphs get a restarted Kernighan-Lin search that only ever holds
balanced states; or an externally supplied partition whose cut is
recomputed, never trusted. Each side's unlocked vertices stay sorted by
(-D, index), and each KL step takes the first maximum-gain pair in
row-major order over the two orders, so D ties go to the lower index; the
scan stops where D[u] + D[v], which bounds every gain, cannot beat it.
Gain buckets in the manner of Fiduccia and Mattheyses keep the orders at
O(degree) cost per swap: a swap moves only its endpoints' neighbours.
Nothing in a trajectory depends on the CPU. A circulant's first restarts
start from its quotient-arc sides of smallest cut (`_quotient_seeds`), a
product's from its factors' sides lifted (`_factor_lift_seeds`), and every
other restart from a random balanced side (`_random_cut`).

Both solvers stop at `bisection_lower_bound`, a floor no balanced cut can
go below (the larger of a spectral and an all-to-all congestion bound): a
cut that meets it is optimal. The floor equals the width of every torus
with even dimensions, every hypercube, ring x K4 and complete graph, so
those are solved by their first cut: at 64 restarts `hypercube:10` and `torus:8,8,4,4` take
0.02 s instead of 6 s. A cut is kept only on strict improvement, so the
widths and sides are those of the unstopped solvers.

From n = 128 up, a heuristic whose first restart misses that floor runs the
other restarts on a process pool, taken in index order up to the first that
meets the floor; a later one neither counts nor raises, as with one worker.
Restart i draws only from seed + i and the minimum is taken by (cut, index),
so widths, sides and errors do not depend on the worker count.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_left, insort
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .topology import JumpSet, Topology, from_edges, mixed_radix

DEFAULT_EXACT_LIMIT = 32
DEFAULT_RESTARTS = 64

# Table sizes for the exact solver grow as 2**(n/2); 40 keeps them near 1M.
_EXACT_HARD_CAP = 40
# Entries of one block of candidate cuts in the exact solver (a block's
# 64-bit AND temporary then stays within 512 KiB per word).
_EXACT_CHUNK = 1 << 16


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


# The ball cache of `circulant_group_profiles`: slot L holds the last
# L-jump set whose balls were built, as (n, jumps, [B_0, B_1, ...]). It is
# per process and not guarded for concurrent threads.
_BALLS: dict[int, tuple[int, tuple[int, ...], list[int]]] = {}


def _check_jump(n: int, s: int) -> None:
    if not 0 < s < n:
        raise ValueError(f"jump {s} is outside [1, {n - 1}] for n = {n}")


def _balls(n: int, jumps: tuple[int, ...], depth: int) -> list[int]:
    """[B_0, ..., B_depth] (at least) for `jumps`: B_d is the n-bit mask of
    the vertices within distance d of vertex 0.

    Built by the ball recurrence on the balls of `jumps[1:]`, and kept in
    the slot for its length: a later call with the same (n, jumps) extends
    the list instead of rebuilding it. Once a ball stops growing, the list
    is padded with it up to `depth`.
    """
    slot = _BALLS.get(len(jumps))
    if slot is not None and slot[0] == n and slot[1] == jumps:
        balls = slot[2]
        if len(balls) > depth:
            return balls
    else:
        for s in jumps:
            _check_jump(n, s)
        balls = [1]
        _BALLS[len(jumps)] = (n, jumps, balls)
    if not jumps:
        balls.extend([1] * (depth + 1 - len(balls)))
        return balls
    base = _balls(n, jumps[1:], depth)
    s = jumps[0]
    t = n - s
    full = (1 << n) - 1
    ball = balls[-1]
    for d in range(len(balls), depth + 1):
        wrapped = ball | (ball << n)
        grown = (base[d] | (wrapped >> s) | (wrapped >> t)) & full
        if grown == ball:
            balls.extend([ball] * (depth + 1 - d))
            break
        balls.append(grown)
        ball = grown
    return balls


def circulant_distance_profile(
    n: int, jumps: tuple[int, ...], bound: tuple[int, int] | None = None
) -> tuple[int, int] | None:
    """(diameter, distance sum) from vertex 0 of a circulant, or None if it is
    disconnected or provably worse than `bound`. Raises ValueError for a
    jump outside [1, n - 1].

    `bound` is a running best (best_d, best_s); a profile equal to it (a tie)
    is returned exactly, and one lexicographically above it always gives
    None. This is `circulant_group_profiles` for the one free jump
    jumps[0] and the tail jumps[1:], and its result does not depend on the
    order of `jumps`.
    """
    if not jumps:
        # Only the one-vertex graph is connected without a jump.
        return (0, 0) if n == 1 and (bound is None or (0, 0) <= bound) else None
    found = circulant_group_profiles(n, jumps[1:], jumps[:1], bound)
    return found[0][1] if found else None


def circulant_group_profiles(
    n: int,
    tail: tuple[int, ...],
    free: Sequence[int],
    bound: tuple[int, int] | None = None,
) -> list[tuple[int, tuple[int, int]]]:
    """The (s, (diameter, distance sum)) of each circulant (s, *tail), s in
    `free` in order, that ties or beats the running best, which starts at
    `bound` and tightens on each strict improvement. Disconnected sets are
    never reported. `free` is ascending, as the free jumps of a co-lex
    group are, so its ends bound it: ValueError is raised for a jump
    outside [1, n - 1] in the tail or at either end of `free`.

    This is the search's scan kernel, called once per co-lex group. The
    ball B_d of radius d around vertex 0 is one n-bit integer, and for any
    jump s
        B_d(S) = B_d(S - {s}) | (B_{d-1}(S) + s) | (B_{d-1}(S) - s),
    since a shortest word either avoids +-s or drops one +-s step. With the
    balls of `tail` taken from a cache (see `_balls`), each level costs one
    rotation pair of the previous ball, doubled into 2n bits so that both
    rotations are right shifts, one OR and one mask, whatever the degree.
    The tail's balls, built only to the depth the bound can need,
    min(best_d, n), the mask and that depth are looked up once for the
    whole group. When there is a bound, the `group_floor` of those same
    balls comes first: a group whose floor is above the bound holds no tie
    and no improvement, and none of its members is expanded.

    A member is expanded level by level up to min(best_d, n), for the
    running best of the moment, and dropped if it has not reached every
    vertex by then (a disconnected one never does). Before level best_d is
    expanded, it is also dropped when every unreached vertex landing on
    that level would already give a distance sum above best_s. Both tests
    are strict, so every tie is measured in full and reported.
    """
    if free:
        _check_jump(n, free[0])
        _check_jump(n, free[-1])
    # Without a bound, best_d = n never triggers: the diameter is below n.
    best_d, best_s = (n, 0) if bound is None else bound
    # Levels past min(best_d, n) are never needed: below n the diameter
    # would exceed best_d, and a connected circulant has diameter < n.
    depth = min(best_d, n)
    base = _balls(n, tail, depth)
    if not free or (bound is not None and _count_floor(n, base, depth) > bound):
        return []
    full = (1 << n) - 1
    found = []
    for s in free:
        t = n - s
        ball = 1
        reached = 1
        total = 0
        for d in range(1, depth + 1):
            # sum over v of min(dist(v), d): the distance sum if every
            # unreached vertex lands on level d
            total += n - reached
            if d == best_d and total > best_s:
                break
            wrapped = ball | (ball << n)
            ball = (base[d] | (wrapped >> s) | (wrapped >> t)) & full
            reached = ball.bit_count()
            if reached == n:
                # At or below the running best, which a tie leaves as it is.
                best_d = depth = d
                best_s = total
                found.append((s, (d, total)))
                break
    return found


def group_floor(n: int, tail: tuple[int, ...], depth: int) -> tuple[int, int]:
    """A floor (floor_d, floor_s) on the diameter and on the distance sum of
    the circulant with jumps (s, *tail), which holds for every s at once.

    It counts the cached balls of `tail` (see `_balls`). Since
    B_d(tail + {s}) is the union over |j| <= d of B_{d-|j|}(tail) + j*s,
    |B_d| <= U_d = |B_d(tail)| + 2 * sum_{i<d} |B_i(tail)|. So the diameter
    is at least the first d with U_d >= n, and the distance sum,
    sum_d (n - |B_d|), is at least sum_d (n - U_d) over the d with U_d < n.
    Only levels up to `depth` are counted: if U_depth < n, the result is
    (depth + 1, the partial sum), still a floor on both.
    """
    return _count_floor(n, _balls(n, tail, depth), depth)


def _count_floor(n: int, balls: list[int], depth: int) -> tuple[int, int]:
    """`group_floor` counted from the tail's balls [B_0, ..., B_depth]."""
    total = 0
    inner = 0
    for d in range(depth + 1):
        count = balls[d].bit_count()
        reach = count + 2 * inner
        if reach >= n:
            return d, total
        total += n - reach
        inner += count
    return depth + 1, total


def diameter_mpl(t: Topology) -> tuple[int, Fraction, Fraction]:
    """(diameter, per-source distance sum, mean path length).

    One BFS per source: vertex 0 alone for vertex-symmetric graphs, every
    vertex otherwise. The distance total is averaged over the sources, so
    mpl * (n - 1) == dist_sum exactly either way.
    """
    n = t.n
    if n == 1:
        return 0, Fraction(0), Fraction(0)
    sources = range(1) if t.vertex_symmetric else range(n)
    total = 0
    diameter = 0
    for source in sources:
        dist = bfs_distances(t, source)
        if -1 in dist:
            raise DisconnectedError("graph is not connected")
        total += sum(dist)
        diameter = max(diameter, max(dist))
    return diameter, Fraction(total, len(sources)), Fraction(total, len(sources) * (n - 1))


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

    Built by doubling: the masks with top bit i extend those below 2**i, and
    adding vertex v to S changes cin by |N(v) & half| - 2 |N(v) & S| and the
    share by deg(v) - 2 |N(v) & S|, one popcount for both. int32, which
    holds every mask and count up to the exact solver's 20-vertex halves.
    """
    verts = range(base, base + size)
    inner = [sum(1 << (w - base) for w in t.adjacency[v] if w in verts) for v in verts]
    cin = np.zeros(1 << size, dtype=np.int32)
    share = np.zeros(1 << size, dtype=np.int32)
    masks = np.arange(1 << size, dtype=np.int32)
    for i, v in enumerate(verts):
        lo, hi = 1 << i, 2 << i
        twice = np.bitwise_count(masks[:lo] & inner[i]) * np.uint8(2)
        np.subtract(cin[:lo] + inner[i].bit_count(), twice, out=cin[lo:hi])
        np.subtract(share[:lo] + len(t.adjacency[v]), twice, out=share[lo:hi])
    return cin, share


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


def _cross_table(bits: list[int], words: int) -> np.ndarray:
    """For every subset S of a half (bit i of the mask is the half's vertex
    i), the set of split-crossing edges at S as `words` 64-bit words: the OR
    of bits[i] over i in S, built by doubling as in `_half_tables`."""
    table = np.zeros((1 << len(bits), words), dtype=np.uint64)
    for i, b in enumerate(bits):
        lo = 1 << i
        word = [(b >> (64 * w)) & ((1 << 64) - 1) for w in range(words)]
        table[lo : 2 * lo] = table[:lo] | np.array(word, dtype=np.uint64)
    return table


def _gap(
    x_l: np.ndarray | int,
    x_h: np.ndarray | int,
    size_l: np.ndarray | int,
    size_h: np.ndarray | int,
) -> np.ndarray:
    """The least of cut(L | H) - cin(L) - cin(H) over masks L, H with these
    crossing degrees and sizes: x(L) + x(H) less twice the most crossing
    edges L and H can share, min(x(L), x(H), |L| |H|)."""
    return x_l + x_h - 2 * np.minimum(np.minimum(x_l, x_h), size_l * size_h)


def _sorted_groups(
    masks: np.ndarray, group: np.ndarray, cin: np.ndarray, half: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The masks sorted by (group, cin), and the runs of one group in that
    order: (masks, run group, run start, run end). One sort of packed int64
    keys (group, cin, mask from the high bits down; cin < 2**(32 - half),
    as at n <= 40, where cin <= 100)."""
    key = (group[masks].astype(np.int64) << 32) | (cin[masks] << half) | masks
    key.sort()
    head = key >> 32
    start = np.flatnonzero(np.diff(head, prepend=-1))
    end = np.append(start[1:], len(key))
    return key & ((1 << half) - 1), head[start], start, end


def bisection_exact(t: Topology, limit: int = DEFAULT_EXACT_LIMIT) -> int:
    """Minimum balanced cut: a Kernighan-Lin cut, proven optimal or beaten.

    One flat Kernighan-Lin refinement from a fixed seed gives a balanced
    side and its cut UB, returned at once when it meets
    `bisection_lower_bound`. Otherwise the vertices are relabelled so that
    the side holding vertex 0 is the low half, and only the UB edges of
    that cut cross between the halves. A side A containing vertex 0 is a
    pair (L, H) of a low-half and a high-half mask (meet in the middle,
    Horowitz and Sahni), and the search looks only for cuts below UB.

    With cin(S) the cut inside S's half and x(S) the crossing edges at S,
    cut(A) = cin(L) + cin(H) + x(L) + x(H) - 2 e(L, H), where e(L, H) counts
    the crossing edges between L and H. It is at most min(x(L), x(H)), and
    at most |L| |H| in a simple graph, so cut(A) >= cin(L) + cin(H) + |x(L)
    - x(H)|, more when |L| |H| is the smaller (K32 given as an edge list,
    whose lower bound is 0, then needs no block at all). Masks that no
    partner can join in a cut below UB by that bound are dropped first
    (about nine in ten on the n = 32 circulants). Rows L and columns H are
    grouped by (size, x) and sorted by cin inside each group; pairs
    of a row group and a column group of the complementary size are visited
    in ascending order of that bound, and inside a pair only the rows and
    columns whose bound is below the best cut are scored, in blocks of
    crossing-edge bitmasks (one 64-bit word per 64 crossing edges): e(L, H)
    = popcount(XL[L] & XH[H]), integer numpy with no matrix product. The
    search stops as soon as the best cut meets the lower bound. Only pairs
    whose bound reaches the best are skipped, so the result equals full
    enumeration; the starting cut changes only the time. Odd n raises
    BisectionInfeasibleError, and even n that `bisection_method` does not
    call "exact" raises ExactLimitError.
    """
    n = t.n
    if n % 2:
        raise BisectionInfeasibleError(f"strict balance impossible for odd n={n}")
    if bisection_method(n, limit) != "exact":
        raise ExactLimitError(
            f"n={n} exceeds the exact-enumeration limit {min(limit, _EXACT_HARD_CAP)};"
            " use bisection_heuristic"
        )
    floor = bisection_lower_bound(t)
    best, side = _random_cut(_WorkGraph(t), random.Random(0))
    if best <= floor:
        return best

    # relabel: vertex 0's side first, each half in index order
    half = n // 2
    pos = np.empty(n, dtype=np.int64)
    pos[np.argsort(side != side[0], kind="stable")] = np.arange(n)
    r = from_edges(n, [(int(pos[u]), int(pos[v])) for u, v in t.edges()])
    cin_lo, share_lo = _half_tables(r, 0, half)
    cin_hi, share_hi = _half_tables(r, half, half)
    bits_lo, bits_hi = [0] * half, [0] * half
    crossing = [(u, v) for u, v in r.edges() if u < half <= v]
    for e, (u, v) in enumerate(crossing):
        bits_lo[u] |= 1 << e
        bits_hi[v - half] |= 1 << e
    words = max(1, -(-len(crossing) // 64))

    # Rows hold vertex 0 (odd masks); columns are every high-half mask. A
    # mask's group is (|S|, x(S)), flattened to |S| * len(xs) + x(S). Only
    # masks that some partner could join in a cut below the best are kept:
    # cin plus the least cin(partner) + gap over the partner groups.
    xs = np.arange(len(crossing) + 1)
    size = np.bitwise_count(np.arange(1 << half, dtype=np.int32)).astype(np.int32)
    g_lo, g_hi = size * len(xs) + share_lo - cin_lo, size * len(xs) + share_hi - cin_hi
    least_lo, least_hi = np.full((2, half + 1, len(xs)), n * n, dtype=np.int32)
    np.minimum.at(least_lo.reshape(-1), g_lo[1::2], cin_lo[1::2])
    np.minimum.at(least_hi.reshape(-1), g_hi, cin_hi)
    reach_lo, reach_hi = np.empty_like(least_lo), np.empty_like(least_hi)
    for a in range(half + 1):
        gap = _gap(xs[:, None], xs, a, half - a)
        reach_lo[a] = (least_hi[half - a] + gap).min(axis=1)
        reach_hi[half - a] = (least_lo[a][:, None] + gap).min(axis=0)
    keep_lo = np.flatnonzero(cin_lo[1::2] + reach_lo.reshape(-1)[g_lo[1::2]] < best) * 2 + 1
    keep_hi = np.flatnonzero(cin_hi + reach_hi.reshape(-1)[g_hi] < best)
    rows, r_group, r_start, r_end = _sorted_groups(keep_lo, g_lo, cin_lo, half)
    cols, c_group, c_start, c_end = _sorted_groups(keep_hi, g_hi, cin_hi, half)
    (r_size, r_x), (c_size, c_x) = divmod(r_group, len(xs)), divmod(c_group, len(xs))
    row_cin, col_cin = cin_lo[rows], cin_hi[cols]
    row_xs, col_xs = _cross_table(bits_lo, words)[rows], _cross_table(bits_hi, words)[cols]

    # (row group, column group) pairs whose sizes add up to half, by bound
    gi, gj = np.nonzero(r_size[:, None] + c_size[None, :] == half)
    xl, xh = r_x[gi], c_x[gj]
    gap = _gap(xl, xh, r_size[gi], c_size[gj])
    bound = row_cin[r_start[gi]] + col_cin[c_start[gj]] + gap
    for k in np.argsort(bound, kind="stable"):
        if bound[k] >= best or best <= floor:
            break  # and so does every later pair
        a0, a1, b0, b1 = r_start[gi[k]], r_end[gi[k]], c_start[gj[k]], c_end[gj[k]]
        rc, cc, xr, xc = row_cin[a0:a1], col_cin[b0:b1], row_xs[a0:a1], col_xs[b0:b1]
        d, base = int(gap[k]), int(xl[k] + xh[k])
        at = 0
        while best > floor:
            # rows and columns are ascending in cin: these bound the rest
            stop = int(np.searchsorted(rc, best - d - cc[0]))
            if stop <= at:
                break
            width = int(np.searchsorted(cc, best - d - rc[at]))
            end = min(stop, at + max(1, _EXACT_CHUNK // width))
            # cut - cin(L) - base for each pair of the block: cin(H) - 2 e(L, H)
            score = cc[:width] - 2 * np.bitwise_count(xr[at:end, None, 0] & xc[:width, 0])
            for w in range(1, words):
                score -= 2 * np.bitwise_count(xr[at:end, None, w] & xc[:width, w])
            best = min(best, int((score.min(axis=1) + rc[at:end]).min()) + base)
            at = end
    return best


class _WorkGraph:
    """A topology's graph as the partition heuristic reads it: each vertex's
    neighbours as a set and its degree, for the O(degree) swap updates, and
    every edge in both directions as index arrays `src` -> `dst`, for the
    count of cut edges at each vertex that starts a pass.
    """

    def __init__(self, t: Topology):
        self.n = t.n
        self.adj = [set(nbrs) for nbrs in t.adjacency]
        self.deg = np.array([len(nbrs) for nbrs in t.adjacency], dtype=np.int64)
        self.src = np.repeat(np.arange(t.n), self.deg)
        self.dst = np.array([w for nbrs in t.adjacency for w in nbrs], dtype=np.int64)


class _GainBuckets:
    """The unlocked vertices of each side in one KL pass, kept sorted by
    (-D, index), so that `best` picks each step's pair and `swap` costs
    O(degree) sorted-list moves.

    Each side's list is its D buckets concatenated: key -D * n + v, removed
    and inserted by bisection, so a D tie goes to the lower index.
    """

    def __init__(
        self, g: _WorkGraph, D: np.ndarray, avail_a: np.ndarray, avail_b: np.ndarray
    ):
        self.n = n = g.n
        self.adj = g.adj
        self.D = D.tolist()
        # side of each unlocked vertex, -1 once locked
        where = np.full(n, -1, dtype=np.int8)
        where[avail_a], where[avail_b] = 0, 1
        self.where = where.tolist()
        self.order = [np.sort(-D[a] * n + a).tolist() for a in (avail_a, avail_b)]

    def best(self) -> tuple[int, int, int] | None:
        """The highest-gain pair (u, v, gain), u unlocked on side A and v on
        side B, gain = D[u] + D[v] less 2 for an edge uv, or None once a
        side is empty.

        The first maximum in row-major order over both sides' (-D, index)
        orders is taken. D[u] + D[v] bounds a pair's gain (an edge only
        lowers it) and falls along every row and column, so the scan stops
        where it cannot be beaten."""
        (order_a, order_b), n = self.order, self.n
        if not order_a or not order_b:
            return None
        D, adj = self.D, self.adj
        d_col = -(order_b[0] // n)
        best, bu, bv = -math.inf, -1, -1
        for key in order_a:
            u = key % n
            du = D[u]
            if du + d_col <= best:
                break
            nbrs = adj[u]
            for key_v in order_b:
                v = key_v % n
                bound = du + D[v]
                if bound <= best:
                    break
                gain = bound - 2 if v in nbrs else bound
                if gain > best:
                    best, bu, bv = gain, u, v
        return bu, bv, best

    def swap(self, u: int, v: int) -> None:
        """Lock u (side A) and v (side B) and move them across: each unlocked
        neighbour's D changes by 2 per moved endpoint, up when the endpoint
        leaves the neighbour's side and down when it joins it."""
        n, D, where, order = self.n, self.D, self.where, self.order
        for x, s in ((u, 0), (v, 1)):
            keys = order[s]
            del keys[bisect_left(keys, -D[x] * n + x)]
            where[x] = -1
        for x, up in ((u, 0), (v, 1)):
            for y in self.adj[x]:
                s = where[y]
                if s < 0:
                    continue
                keys = order[s]
                d = D[y]
                del keys[bisect_left(keys, -d * n + y)]
                D[y] = d = d + 2 if s == up else d - 2
                insort(keys, -d * n + y)


def _kl_refine(g: _WorkGraph, side: np.ndarray) -> int:
    """Kernighan-Lin passes until no pass improves; side is refined in place.

    Each pass tentatively swaps vertex pairs (allowing negative interim
    gains), then keeps the prefix with the best cumulative gain. A pass is
    abandoned once the prefix maximum has stalled for max(48, n/16) steps;
    balance is preserved at every step. A pass counts D over the edge
    arrays; each step takes the pair `_GainBuckets.best` picks, at O(degree)
    cost per swap.
    """
    n = g.n
    window = max(48, n // 16)
    while True:
        # ext[v]: edges from v to the other side
        cross = side[g.src] != side[g.dst]
        ext = np.bincount(g.src[cross], minlength=n)
        cut = int(ext[side == 0].sum())
        buckets = _GainBuckets(
            g, 2 * ext - g.deg, np.flatnonzero(side == 0), np.flatnonzero(side == 1)
        )
        swaps: list[tuple[int, int]] = []
        running = 0
        best_prefix = 0
        best_at = -1
        stall = 0
        for step in range(n // 2):
            u, v, gain = buckets.best()
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


# Kick-and-refine rounds per restart.
_ILS_ROUNDS = 6


def _random_cut(g: _WorkGraph, rng: random.Random) -> tuple[int, np.ndarray]:
    """KL from a balanced side drawn with `rng.sample`."""
    side = np.ones(g.n, dtype=np.int8)
    side[rng.sample(range(g.n), g.n // 2)] = 0
    return _kl_refine(g, side), side


def _factor_lift_seeds(
    t: Topology, restarts: int, seed: int, workers: int | None
) -> list[np.ndarray]:
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
        _, fside = _best_balanced_side(f, restarts, seed + 7919 * (p + 1), workers)
        seeds.append(fside[digits[:, p]].astype(np.int8))
    return seeds


def _quotient_seeds(t: Topology) -> list[np.ndarray]:
    """Balanced starts for a circulant: its 8 quotient-arc sides of smallest
    cut, ranked by (cut, c, u).

    Q(c, u), for an even divisor c of n and a unit u <= c/2 mod c, puts v
    on side 1 when u v mod c >= c/2: it lifts an arc bisection of the
    quotient circulant on Z_c (an equitable partition), so jump s with
    r = u s mod c crosses it on (n/c) min(r, c - r) edges, twice that unless
    2s = n. Multiplying by a unit mod n maps the family onto itself, so
    every member of a unit-multiplication class gets equally good starts."""
    if t.jumps is None:
        return []
    n, jumps = t.n, t.jumps.jumps
    ranked = []
    for c in range(2, n + 1, 2):
        if n % c:
            continue
        for u in range(1, c // 2 + 1):
            if math.gcd(u, c) == 1:
                cut = sum(
                    n // c * min(u * s % c, c - u * s % c) * (1 if 2 * s == n else 2)
                    for s in jumps
                )
                ranked.append((cut, c, u))
    v = np.arange(n)
    return [(u * v % c >= c // 2).astype(np.int8) for _, c, u in sorted(ranked)[:8]]


def available_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _restart(
    g: _WorkGraph,
    seed_side: np.ndarray | None,
    i: int,
    seed: int,
    floor: int,
) -> tuple[int, np.ndarray]:
    """Restart i of `_best_balanced_side`: KL from `seed_side` when one is
    given, else from a random balanced side (`_random_cut`), then
    `_ILS_ROUNDS` kick-and-refine rounds on the best side so far, which stop
    once it meets `floor`. Round r swaps kicks[r % 3] random pairs across.
    Everything random comes from seed + i."""
    rng = random.Random(seed + i)
    kicks = (16, max(16, g.n // 16), max(24, g.n // 8))
    if seed_side is not None:
        side = seed_side.copy()
        cut = _kl_refine(g, side)
    else:
        cut, side = _random_cut(g, rng)
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
    return run_best, run_side


# Graphs this large run restarts 1.. on a process pool once restart 0 misses
# the floor. At n = 64 a pool's start-up cost about what it saved.
_POOL_MIN_N = 128

# What one heuristic call's restarts share: (work graph, lifted factor
# sides, seed, floor).
_Job = tuple[_WorkGraph, list[np.ndarray], int, int]

# The job of the pool this worker process serves, set once per worker by
# the pool's initializer.
_pool_job: _Job | None = None


def _job_restart(job: _Job, i: int) -> tuple[int, np.ndarray]:
    g, seeds, seed, floor = job
    return _restart(g, seeds[i] if i < len(seeds) else None, i, seed, floor)


def _init_pool_worker(job: _Job) -> None:
    global _pool_job
    _pool_job = job


def _pool_restart(i: int) -> tuple[int, np.ndarray]:
    return _job_restart(_pool_job, i)


def _pooled_restarts(job: _Job, restarts: int, workers: int) -> list[tuple[int, np.ndarray]]:
    """Restarts 1..restarts-1 on `workers` processes, taken in index order up
    to the first that meets the floor. A restart after it neither counts
    nor raises, as the sequential loop never runs it; one before it raises
    here. The pool is shut down before this returns or raises."""
    floor = job[-1]
    pool = ProcessPoolExecutor(workers, initializer=_init_pool_worker, initargs=(job,))
    runs = []
    try:
        for run in pool.map(_pool_restart, range(1, restarts)):
            runs.append(run)
            if run[0] <= floor:
                break
    finally:
        pool.shutdown(cancel_futures=True)
    return runs


def _best_balanced_side(
    t: Topology, restarts: int, seed: int, workers: int | None = None
) -> tuple[int, np.ndarray]:
    """Minimum balanced cut found and a side assignment achieving it.

    Restart i (`_restart`) starts from a seed side while those last (a
    product's lifted factor sides, a circulant's `_quotient_seeds`) and from
    a random balanced side otherwise. Perturbation rounds stop once the
    restart's cut meets a floor, and restarts stop once the best cut does.
    The floor is `bisection_lower_bound` for every n; no cut goes below it,
    so stopping there changes no cut and no side.
    Restart 0 runs here. When it misses the floor and n >=
    `_POOL_MIN_N`, restarts 1.. run on min(workers, restarts - 1) processes
    (`workers` defaults to `available_cores()`; 1 runs them here in order).
    Restart i draws only from seed + i. Restarts are taken in index order up
    to the first that meets the floor (a later one neither counts nor raises,
    as with one worker), and the result is the first minimum by index among
    them: the sequential loop's cut, side and error for any worker count.
    """
    n = t.n
    if n == 2:
        return len(t.adjacency[0]), np.array([0, 1], dtype=np.int8)
    floor = bisection_lower_bound(t)
    seeds = _factor_lift_seeds(t, restarts, seed, workers) or _quotient_seeds(t)
    job = (_WorkGraph(t), seeds, seed, floor)
    runs = [_job_restart(job, 0)]
    procs = min(available_cores() if workers is None else workers, restarts - 1)
    if runs[0][0] > floor and n >= _POOL_MIN_N and procs > 1:
        runs += _pooled_restarts(job, restarts, procs)
    else:
        for i in range(1, restarts):
            if runs[-1][0] <= floor:
                break
            runs.append(_job_restart(job, i))
    return min(runs, key=lambda r: r[0])


def bisection_heuristic(
    t: Topology, restarts: int = DEFAULT_RESTARTS, seed: int = 0, workers: int | None = None
) -> int:
    """Best balanced cut over `restarts` runs of iterated Kernighan-Lin.

    Each restart refines a random balanced start; the first restarts of a
    product start from lifted factor bisections instead, and those of a
    circulant from its quotient-arc sides of smallest cut. Every local
    minimum is then perturbed (a seeded batch of cross-pair swaps) and
    re-refined a few rounds. Deterministic for a given seed on any CPU (KL gives D ties to
    the lower index): restart i draws everything from
    seed + i and the result is the minimum over restarts by (cut, index),
    independent of execution order. Always an upper bound on the true
    bisection width. Rounds and restarts stop once a cut meets
    `bisection_lower_bound`, which proves it optimal and leaves the result
    unchanged: at 64 restarts `hypercube:7` and `torus:8,4,4` take 4 ms
    instead of 1.3 s.

    From n = 128 up, once restart 0 misses that floor, the other restarts
    run on a pool of min(workers, restarts - 1) processes (`workers`
    defaults to the cores this process may use; 1 keeps them all in this
    process). The result is the same for any worker count.
    """
    n = t.n
    if n % 2:
        raise BisectionInfeasibleError(f"strict balance impossible for odd n={n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return _best_balanced_side(t, restarts, seed, workers)[0]


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
    workers: int | None = None,
) -> MetricsRecord:
    """Full MetricsRecord: BFS metrics plus a bisection width.

    Bisection is recomputed from a supplied partition, or else obtained as
    `bisection_method` decides: exact, heuristic, or None for odd vertex
    counts, which cannot be strictly bisected. `workers` caps the processes
    the heuristic's restarts may run on. `restarts` or `workers` below 1 is
    refused before any work, whichever way the width would be obtained.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
        bisection, exact = bisection_heuristic(t, restarts, seed, workers), False
    return MetricsRecord(
        n=t.n,
        degree=t.degree,
        diameter=diameter,
        dist_sum=dist_sum,
        bisection=bisection,
        bisection_exact=exact,
    )
