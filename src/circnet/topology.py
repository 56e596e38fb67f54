"""Topology constructors: circulants, rings, complete graphs, hypercubes, tori,
and Cartesian products.

Every topology is an immutable undirected graph held as sorted per-vertex
neighbor lists, tagged with enough structure (jump set, product factors,
vertex symmetry) for the metrics, routing, and search layers to pick their
fast paths. Products are built in one pass over their leaf factors, indexed
row-major by `mixed_radix` digits ((u, v) -> u * n_b + v for two factors),
with the leftmost leaf most significant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

import numpy as np

from .combinatorics import binomial


class InfeasibleDegreeError(ValueError):
    """No circulant of the requested degree exists on n vertices."""


@dataclass(frozen=True)
class JumpSet:
    """A circulant generator set: n vertices, jumps within [1, n//2].

    A jump s < n/2 contributes two edges per vertex (i +- s), the jump n/2
    (only meaningful for even n) contributes one, so the implied degree is
    2*|jumps| minus one if n/2 is present.
    """

    n: int
    jumps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        jumps = tuple(sorted(self.jumps))
        if len(set(jumps)) != len(jumps):
            raise ValueError(f"duplicate jumps in {self.jumps}")
        for s in jumps:
            if not 1 <= s <= self.n // 2:
                raise ValueError(f"jump {s} outside [1, {self.n // 2}] for n={self.n}")
        object.__setattr__(self, "jumps", jumps)

    @property
    def degree(self) -> int:
        half = 1 if (self.n % 2 == 0 and self.n // 2 in self.jumps) else 0
        return 2 * (len(self.jumps) - half) + half


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable undirected graph with structural tags.

    kind/params form a JSON-able descriptor that round-trips through the CLI
    spec grammar; `jumps` is set for circulant-structured graphs (rings and
    complete graphs included), `factors` holds the flattened leaf factors of
    Cartesian products in index-significance order.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    kind: str = "custom"
    params: dict[str, Any] = field(default_factory=dict)
    jumps: JumpSet | None = None
    factors: tuple["Topology", ...] | None = None
    vertex_symmetric: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("empty topology")
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for u, nbrs in enumerate(self.adjacency):
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"duplicate edges at vertex {u}")
            for w in nbrs:
                if not 0 <= w < self.n:
                    raise ValueError(f"neighbor {w} out of range at vertex {u}")
                if w == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if u not in self.adjacency[w]:
                    raise ValueError(f"edge {u}->{w} missing its reverse")

    @property
    def degree(self) -> int:
        """Maximum vertex degree (all built-in constructions are regular)."""
        return max(len(nbrs) for nbrs in self.adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def is_regular(self) -> bool:
        degs = {len(nbrs) for nbrs in self.adjacency}
        return len(degs) == 1

    def matrix(self) -> np.ndarray:
        """n x n bool adjacency matrix, built from `adjacency` on each call."""
        m = np.zeros((self.n, self.n), dtype=bool)
        for u, nbrs in enumerate(self.adjacency):
            m[u, list(nbrs)] = True
        return m

    def edges(self) -> list[tuple[int, int]]:
        """Sorted undirected edge list with u < v."""
        return sorted(
            (u, w) for u, nbrs in enumerate(self.adjacency) for w in nbrs if u < w
        )

    def edge_list_text(self) -> str:
        """One `u v` pair per line, zero-based, u < v, sorted."""
        return "\n".join(f"{u} {v}" for u, v in self.edges()) + "\n"

    def descriptor(self) -> dict[str, Any]:
        """JSON descriptor {n, kind, params} for reports and external tools."""
        return {"n": self.n, "kind": self.kind, "params": dict(self.params)}


def from_edges(n: int, edges: Iterable[tuple[int, int]], kind: str = "custom") -> Topology:
    """Build a topology from an undirected edge list; an endpoint outside
    [0, n) raises ValueError naming it (`Topology` refuses self-loops)."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        for x in (u, v):
            if not 0 <= x < n:
                raise ValueError(f"edge endpoint {x} outside [0, {n})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in nbrs)
    return Topology(n=n, adjacency=adjacency, kind=kind, params={"n": n})


@dataclass(frozen=True)
class JumpSpacePlan:
    """Shape of a degree-k search space: fixed-in jumps plus a free choice.

    The free jumps are the r-combinations of [lo, hi]; the full jump set of
    a candidate is `fixed` union the combination.
    """

    fixed: tuple[int, ...]
    lo: int
    hi: int
    r: int

    @property
    def ground(self) -> range:
        """The values the free jumps are drawn from, in co-lex index order."""
        return range(self.lo, self.hi + 1)

    @property
    def size(self) -> int:
        return binomial(self.hi - self.lo + 1, self.r)


def jump_space(n: int, k: int, reduced: bool = True) -> JumpSpacePlan:
    """Search-space shape for degree-k circulants on n vertices.

    Odd k pins jump n/2 (and requires even n). For a power of two, `reduced`
    pins jump 1 as well and draws the other free jumps from [2, (n-1)//2]:
    unit multiplication maps every connected set to an isomorphic one that
    contains 1 (n/2 maps to itself). For other n the flag is ignored and the
    free jumps range over [1, (n-1)//2]. The scan walks the same ranks for
    either value of `reduced` (see the `search` module docstring).
    """
    if k < 3 or k >= n:
        raise InfeasibleDegreeError(f"need 3 <= k < n, got (n={n}, k={k})")
    if k % 2 == 1 and n % 2 == 1:
        raise InfeasibleDegreeError(f"odd degree {k} impossible on odd n={n}")
    fixed: list[int] = []
    r = k // 2
    if k % 2 == 1:
        fixed.append(n // 2)
    lo = 1
    if reduced and n & (n - 1) == 0:
        fixed.append(1)
        r -= 1
        lo = 2
    return JumpSpacePlan(fixed=tuple(sorted(fixed)), lo=lo, hi=(n - 1) // 2, r=r)


def is_connected_circulant(js: JumpSet) -> bool:
    """Connectivity test: gcd of n and all jumps equals 1."""
    return math.gcd(js.n, *js.jumps) == 1 if js.jumps else js.n == 1


def unit_image(n: int, jumps: Iterable[int], u: int) -> tuple[int, ...]:
    """The jumps multiplied by u mod n, each as its class min(t, n - t), sorted."""
    return tuple(sorted(min(u * s % n, -u * s % n) for s in jumps))


def adam_multiply(js: JumpSet, u: int) -> JumpSet:
    """Map each jump s to the class of u*s mod n; u must be a unit mod n.

    The result generates a graph isomorphic to the original (relabel vertex
    i as u*i mod n), which is how an odd jump gets normalized to 1 when n is
    a power of two.
    """
    n = js.n
    if math.gcd(u, n) != 1:
        raise ValueError(f"{u} is not a unit modulo {n}")
    mapped = unit_image(n, js.jumps, u)
    if len(set(mapped)) != len(mapped):
        raise AssertionError("unit multiplication collapsed jump classes")
    return JumpSet(n, mapped)


def adam_canonical(js: JumpSet) -> JumpSet:
    """Lexicographically smallest unit-multiple image of a jump set.

    All images generate isomorphic graphs, so this is a canonical
    representative of the isomorphism class a jump set belongs to (the
    class generated by unit multiplication; distinct classes can still be
    isomorphic in rare degenerate ways, which is fine for its use as a
    grouping key).

    When some jump s is a unit, the image under s^-1 contains 1, so the
    smallest image starts with 1 and comes from a multiplier +-s'^-1 of some
    unit jump s'; only those are tried. Otherwise every unit is.
    """
    n = js.n
    multipliers = {pow(s, -1, n) for s in js.jumps if math.gcd(s, n) == 1} or (
        u for u in range(2, n) if math.gcd(u, n) == 1
    )
    best = js.jumps
    for u in multipliers:
        best = min(best, unit_image(n, js.jumps, u))
    return JumpSet(n, best)


def circulant(js: JumpSet) -> Topology:
    """Circulant graph: vertex i adjacent to (i +- s) mod n for each jump s;
    row i is vertex 0's row, the offsets {+-s mod n}, shifted by i."""
    n = js.n
    row0 = {o for s in js.jumps for o in (s, -s % n)}
    return Topology(
        n=n,
        adjacency=tuple(tuple(sorted((i + o) % n for o in row0)) for i in range(n)),
        kind="circulant",
        params={"n": n, "jumps": list(js.jumps)},
        jumps=js,
        vertex_symmetric=True,
    )


def ring(m: int) -> Topology:
    if m < 3:
        raise ValueError(f"ring needs at least 3 vertices, got {m}")
    return replace(circulant(JumpSet(m, (1,))), kind="ring", params={"n": m})


def complete(m: int) -> Topology:
    if m < 2:
        raise ValueError(f"complete graph needs at least 2 vertices, got {m}")
    return replace(
        circulant(JumpSet(m, tuple(range(1, m // 2 + 1)))),
        kind="complete",
        params={"n": m},
    )


def cartesian_product(a: Topology, b: Topology) -> Topology:
    """Cartesian product over the leaves of both operands; vertex (u, v) is
    u * b.n + v."""
    leaves = (a.factors or (a,)) + (b.factors or (b,))
    return _product(leaves, "product", {"factors": [a.descriptor(), b.descriptor()]})


def mixed_radix(sizes: Sequence[int]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Place values and per-vertex digits of the row-major product indexing.

    Vertex v of a product with factor orders `sizes` has digit
    (v // weights[p]) % sizes[p] in factor p, leftmost factor most
    significant; coords[v] lists those digits.
    """
    weights = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        weights[i] = weights[i + 1] * sizes[i + 1]
    coords = list(itertools.product(*(range(m) for m in sizes)))
    return weights, coords


def _product(leaves: Sequence[Topology], kind: str, params: dict[str, Any]) -> Topology:
    """Cartesian product of `leaves` indexed by `mixed_radix`: vertex v with
    digit c in leaf p is adjacent to v + (w - c) * weights[p] for each
    neighbour w of c in that leaf. A single leaf keeps its jump set."""
    weights, coords = mixed_radix([f.n for f in leaves])
    offsets = [
        [[(w - c) * wp for w in f.adjacency[c]] for c in range(f.n)]
        for f, wp in zip(leaves, weights)
    ]
    adjacency = tuple(
        tuple(sorted(v + o for leaf, c in zip(offsets, digits) for o in leaf[c]))
        for v, digits in enumerate(coords)
    )
    return Topology(
        n=len(coords),
        adjacency=adjacency,
        kind=kind,
        params=params,
        jumps=leaves[0].jumps if len(leaves) == 1 else None,
        factors=tuple(leaves),
        vertex_symmetric=all(f.vertex_symmetric for f in leaves),
    )


def torus(dims: Iterable[int]) -> Topology:
    """Cartesian product of rings, largest-first order preserved."""
    dims = list(dims)
    if not dims:
        raise ValueError("torus needs at least one dimension")
    for d in dims:
        if d < 3:
            raise ValueError(f"torus dimensions must be >= 3, got {d}")
    return _product([ring(d) for d in dims], "torus", {"dims": dims})


def hypercube(d: int) -> Topology:
    """Cartesian product of d single edges; 2**d vertices of degree d."""
    if d < 1:
        raise ValueError(f"hypercube dimension must be >= 1, got {d}")
    return _product([complete(2) for _ in range(d)], "hypercube", {"d": d})
