"""Rank-partitioned exhaustive search for optimal circulant graphs.

The free-jump combinations of a (n, k) space are totally ordered co-lex and
split into one rank range per worker. A range's running best is one
`_RangeState` (cursor, minimum (diameter, distance sum), every jump set that
attains it); `_scan_chunk` advances it by unranking the cursor and walking
co-lex groups, the runs of candidates that share all free jumps but the
smallest. Merging partial results is associative and commutative, so the
outcome is identical for any worker count, chunking, or checkpoint/resume
boundary.

Every connected jump set (gcd(n, S) = 1) has a unit multiple that pins one
of its jumps. Let g be the smallest gcd(s, n) over its free jumps, reached
at s = g t; g = 1 when the set holds a unit. Units mod n map onto the units
mod n/g, so some unit u has u t = 1 mod n/g, and u s = g mod n. Multiplying
by u (Adam's isomorphism) gives an isomorphic set in the same space that
holds g, and keeps every jump's gcd with n (the jump n/2 of an odd degree
maps to itself). So the scan walks a *scan plan* of *divisor parts* that
share one rank space, one for each value g of gcd(s, n) over s in [1, hi],
in ascending order of g, g = 1 first: the fixed jumps and g, with r - 1
free jumps from the s != g with gcd(s, n) >= g, where r counts jump 1
among the free jumps. The parts are disjoint (g is the smallest gcd of
every set of its part), and every connected set has a unit multiple in
exactly one. A part is dropped when gcd(n, fixed, g, its ground) > 1, since
then none of its sets is connected, or when its ground holds fewer than
r - 1 jumps; for a prime power p^a only the part of g = 1 is left, since
its non-units are all divisible by p. The reduced power-of-two plan, which
pins jump 1 already, has the same scan plan as the full space. For
(255, 6), 255 = 3 * 5 * 17, the scan plan holds parts of C(126, 2) = 7,875
(g = 1), C(62, 2) = 1,891 (g = 3), C(30, 2) = 435 (g = 5) and C(14, 2) =
91 (g = 15) sets, 10,292 candidates instead of 333,375; the parts of
g = 17, 51 and 85 hold only multiples of 17 and are dropped. The scan
plan's best is the space's best, and the space's ties are the unit
multiples of the scan plan's ties that lie in the requested plan;
`_unit_closure` recovers them after the merge. The merged `scanned` counts
every candidate of the requested space: those measured, those in skipped
groups, and those that are unit multiples of a scanned one.

Survivors are grouped into unit-multiplication classes, and each class is
measured once by `metrics.compute_metrics` on its canonical representative:
an independent BFS re-measures the diameter and distance sum (a class that
disagrees with the scan raises before anything is returned), and the
bisection width comes from `metrics.bisection_method`'s policy (exact up to
the configured limit, Kernighan-Lin above, none for odd n). Only the
maximum-width ties are returned.

Hot path: each co-lex group is one call of the circulant BFS kernel,
`metrics.circulant_group_profiles`, bounded by the running best. The
candidates of a group share every jump but the fastest-changing one, s,
so the kernel looks up the cached balls of their tail, the mask and the
bound once per group and grows each candidate's balls from them. Those
balls also give `metrics.group_floor`, a floor on (diameter, distance sum)
that holds for every candidate of the group at once; the kernel skips a
group whose floor is above the running best, and abandons a candidate
before the level that proves it worse. Disconnected candidates never
reach it: in a co-lex group whose tail shares a factor g = gcd(n, *tail) >
1 with n, the set (s, *tail) is connected exactly when gcd(g, s) = 1, so
the other free jumps s are dropped first (only tails in the parts of g > 1
can share one, as those of g = 1 hold jump 1). Both tests are strict, so
every tie is measured in full. Only the amount of pruning depends on the
running best, never which jump sets are kept, which is why the outcome
stays independent of chunking and order. On one core of a 2-vCPU Xeon host
(nproc 2, Python 3.11) a full-space `scan_range` runs at about 455-680k
graphs/s at (255, 6), 345-540k at (257, 6) and 600-760k at (127, 8); at
(1024, 10), with (5, 4166) as the running best, about 690-770k from rank
1e9, 780k-1.08M from rank 2e9 and 775-810k averaged over the space, so its
2.79e9 candidates take about 0.95-1.0 core-hours.

Checkpoints are JSON lines, one `_RangeState` per range over the ranks of
the scan plan; a resumed run continues each range from its cursor. They
are keyed by (n, k) and the scan plan's size alone, so a search resumes
with or without `--full-space` (`reduced` acts only after the merge). A
loaded checkpoint is not trusted: every rank must be a JSON integer, its
total must be the scan plan's size, and every carried candidate must lie
in one of the scan plan's parts (hold its g and draw its other free jumps
from that part's ground) and re-measure to its range's best.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path

from .combinatorics import binomial, successor_inplace, unrank_elements
from .metrics import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_RESTARTS,
    MetricsRecord,
    available_cores,
    circulant_distance_profile,
    circulant_group_profiles,
    compute_metrics,
)
# perfbench/tracing.py patches these by attribute on this module
from .metrics import bisection_exact, bisection_heuristic  # noqa: F401
from .topology import JumpSet, JumpSpacePlan, adam_canonical, circulant, jump_space, unit_image


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable or inconsistent with the request."""


@dataclass(frozen=True)
class RankRange:
    """Half-open interval of combination ranks assigned to one worker."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end:
            raise ValueError(f"invalid rank range [{self.start}, {self.end})")

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class SearchResult:
    """Running optimum of one scanned region (or a merge of regions)."""

    n: int
    k: int
    best_diameter: int | None
    best_dist_sum: int | None
    candidates: tuple[JumpSet, ...]
    scanned: int
    elapsed: float


@dataclass(frozen=True)
class OptimalRecord:
    """One optimal circulant with its full metrics."""

    n: int
    k: int
    jumps: JumpSet
    metrics: MetricsRecord


@dataclass
class SearchConfig:
    workers: int | None = None  # None: one per available core
    reduced: bool = True
    exact_bisection_limit: int = DEFAULT_EXACT_LIMIT
    restarts: int = DEFAULT_RESTARTS
    seed: int = 0
    checkpoint_path: str | Path | None = None
    checkpoint_every: int = 500_000

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject settings no search can run with, before any scanning."""
        for name in ("restarts", "checkpoint_every", "workers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def resolved_workers(self) -> int:
        return self.workers if self.workers is not None else available_cores()


def count_space(n: int, k: int, reduced: bool = True) -> int:
    """Size of the free-choice combination space for (n, k)."""
    plan = jump_space(n, k, reduced)
    return plan.size


def count_scan_ranks(n: int, k: int) -> int:
    """Ranks the scan walks for the (n, k) space: the size of its scan plan
    (`_scan_plan`), one divisor part per g, which is also a checkpoint's
    `total`. The same for the reduced and the full space."""
    return _scan_plan(n, jump_space(n, k)).size


@dataclass(frozen=True)
class _GroundPlan:
    """A plan whose r free jumps are drawn from an explicit ground tuple,
    walked co-lex over indices into it like a `JumpSpacePlan` over its
    `ground` range."""

    fixed: tuple[int, ...]
    ground: tuple[int, ...]
    r: int

    @property
    def size(self) -> int:
        return binomial(len(self.ground), self.r)


@dataclass(frozen=True)
class _ScanPlan:
    """Plans that share one rank space: the ranks of `parts[0]` come first,
    then those of `parts[1]`, and so on."""

    parts: tuple[_GroundPlan, ...]

    @property
    def size(self) -> int:
        return sum(part.size for part in self.parts)


def _scan_plan(n: int, plan: JumpSpacePlan) -> _ScanPlan:
    """The plan the scan walks for the space `plan`, the same for the reduced
    and the full space (see the module docstring): with jump 1 back among
    the r free jumps from [1, hi], one part per value g of gcd(s, n) over
    those s, ascending: g pinned beside the other fixed jumps, and r - 1
    free jumps from the s != g with gcd(s, n) >= g; dropped when gcd(n,
    fixed, g, its ground) > 1 or its ground holds fewer than r - 1 jumps."""
    fixed = tuple(s for s in plan.fixed if s != 1)
    r = plan.r + len(plan.fixed) - len(fixed)
    gcds = {s: math.gcd(s, n) for s in range(1, plan.hi + 1)}
    parts = []
    for g in sorted(set(gcds.values())):
        ground = tuple(s for s, d in gcds.items() if d >= g and s != g)
        if len(ground) >= r - 1 and math.gcd(n, *fixed, g, *ground) == 1:
            parts.append(_GroundPlan(tuple(sorted((*fixed, g))), ground, r - 1))
    return _ScanPlan(tuple(parts))


def _in_plan(plan: JumpSpacePlan | _GroundPlan, c: tuple) -> bool:
    """Whether `c` is a jump set of `plan`: distinct integers, every fixed
    jump, and r more from its ground."""
    fixed = set(plan.fixed)
    return (
        all(type(s) is int for s in c)
        and len(set(c)) == len(c) == len(fixed) + plan.r
        and fixed <= set(c)
        and all(s in plan.ground for s in set(c) - fixed)
    )


def _unit_closure(
    n: int, plan: JumpSpacePlan, ties: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Every jump set of `plan` that is a unit multiple of a tie, sorted.

    Each jump s maps to min(u*s mod n, n - u*s mod n) for each unit u; u and
    n - u give the same image, so u runs over [1, n/2]. Unit multiples
    generate isomorphic circulants, so every image ties. A tie already
    reached as an image shares its orbit with an earlier tie and is not
    multiplied again.
    """
    units = [u for u in range(1, n // 2 + 1) if math.gcd(u, n) == 1]
    out: set[tuple[int, ...]] = set()
    for c in ties:
        if c in out:
            continue
        for u in units:
            image = unit_image(n, c, u)
            if _in_plan(plan, image):
                out.add(image)
    return sorted(out)


def partition_ranks(total: int, workers: int) -> list[RankRange]:
    """Split [0, total) into `workers` contiguous ranges, sizes within 1.

    The first `total % workers` ranges take the extra element; with more
    workers than ranks the tail ranges are empty.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, rem = divmod(total, workers)
    ranges = []
    start = 0
    for i in range(workers):
        size = base + (1 if i < rem else 0)
        ranges.append(RankRange(start, start + size))
        start += size
    return ranges


@dataclass
class _RangeState:
    """Running best of one rank range, scanned up to `cursor`: the one form of
    scan state, advanced chunk by chunk and written to checkpoints as is."""

    rank_range: RankRange
    cursor: int
    best_d: int | None = None
    best_s: int | None = None
    candidates: list[tuple[int, ...]] = field(default_factory=list)
    elapsed: float = 0.0

    def as_result(self, n: int, k: int) -> SearchResult:
        return SearchResult(
            n=n,
            k=k,
            best_diameter=self.best_d,
            best_dist_sum=self.best_s,
            candidates=tuple(JumpSet(n, c) for c in sorted(set(self.candidates))),
            scanned=self.cursor - self.rank_range.start,
            elapsed=self.elapsed,
        )


def _scan_chunk(
    n: int, plan: JumpSpacePlan | _ScanPlan, st: _RangeState, end: int
) -> _RangeState:
    """Advance a range's running best over ranks [st.cursor, end) of `plan`,
    a single plan or a `_ScanPlan`, whose parts are each walked over the
    ranks of the chunk that fall in them (see `_scan_part`)."""
    t0 = time.perf_counter()
    if end <= st.cursor:
        return st
    bound = None if st.best_d is None else (st.best_d, st.best_s)
    out = list(st.candidates)
    base = 0
    for part in plan.parts if isinstance(plan, _ScanPlan) else (plan,):
        start, stop = max(st.cursor, base), min(end, base + part.size)
        if start < stop:
            bound, out = _scan_part(n, part, start - base, stop - base, bound, out)
        base += part.size
    if end > base:
        raise AssertionError("combination space exhausted before end rank")
    best_d, best_s = (None, None) if bound is None else bound
    return _RangeState(
        st.rank_range, end, best_d, best_s, out, st.elapsed + time.perf_counter() - t0
    )


def _scan_part(
    n: int,
    plan: JumpSpacePlan | _GroundPlan,
    start: int,
    end: int,
    bound: tuple[int, int] | None,
    out: list[tuple[int, ...]],
) -> tuple[tuple[int, int] | None, list[tuple[int, ...]]]:
    """Walk co-lex ranks [start, end) of one plan from the running best
    `bound` and its ties `out`; returns the new best and ties.

    The ranks are combinations of indices into `plan.ground`, walked one
    co-lex group at a time: the run of candidates that share elems[1:], in
    which elems[0] runs up to elems[1], or over the whole ground when only
    one jump is free. The first and last group are cut at `start` and
    `end`. When g = gcd(n, *tail) > 1, with tail = (*ground[elems[1:]],
    *fixed), the set (s, *tail) is disconnected for each free jump s with
    gcd(g, s) > 1: those jumps are dropped first.

    Each group then takes one `circulant_group_profiles` call with the
    running best as its bound. Once there is a running best, that call
    skips a group whose `group_floor` over the tail's balls is above it
    (its candidates still count as scanned); otherwise it measures the
    free jumps in order and reports each (s, profile) that ties or beats
    the best so far. Only then is the jump set made a sorted tuple. Both
    the floor test and the kernel's are strict, so every tie is still
    measured.
    """
    fixed, ground, r = plan.fixed, plan.ground, plan.r
    last = len(ground) - 1
    elems = unrank_elements(start, 0, last, r)
    idx = start
    while True:
        if r:
            i0 = elems[0]
            top = min(elems[1] if r > 1 else last + 1, i0 + end - idx)
            free = ground[i0:top]
            tail = (*[ground[i] for i in elems[1:]], *fixed)
        else:
            # The space's one candidate is the fixed jump set.
            i0, top, free, tail = 0, 1, fixed[:1], fixed[1:]
        g = math.gcd(n, *tail)
        if g > 1:
            free = [s for s in free if math.gcd(g, s) == 1]
        for s, profile in circulant_group_profiles(n, tail, free, bound):
            jumps = tuple(sorted((s, *tail)))
            if profile == bound:
                out.append(jumps)
            else:
                bound = profile
                out = [jumps]
        idx += top - i0
        if idx >= end:
            return bound, out
        elems[0] = top - 1
        if not successor_inplace(elems, 0, last):
            raise AssertionError("combination space exhausted before end rank")


def scan_range(
    n: int, k: int, rank_range: RankRange, reduced: bool = True
) -> SearchResult:
    """Scan one rank range of the (n, k) space from a fresh running best."""
    plan = jump_space(n, k, reduced)
    if rank_range.end > plan.size:
        raise ValueError(f"range {rank_range} exceeds space of size {plan.size}")
    st = _RangeState(rank_range, rank_range.start)
    return _scan_chunk(n, plan, st, rank_range.end).as_result(n, k)


def merge(results: list[SearchResult]) -> SearchResult:
    """Fold partial results into the global optimum.

    Keeps the lexicographic minimum of (diameter, distance sum); candidate
    lists of ties are concatenated, deduplicated, and sorted by jump set, so
    the merge is associative and independent of input order.
    """
    if not results:
        raise ValueError("nothing to merge")
    nk = {(r.n, r.k) for r in results}
    if len(nk) != 1:
        raise ValueError(f"cannot merge results for mixed spaces: {sorted(nk)}")
    n, k = nk.pop()
    best_d: int | None = None
    best_s: int | None = None
    cands: set[tuple[int, ...]] = set()
    scanned = 0
    elapsed = 0.0
    for r in results:
        scanned += r.scanned
        elapsed += r.elapsed
        if r.best_diameter is None:
            continue
        key = (r.best_diameter, r.best_dist_sum)
        if best_d is None or key < (best_d, best_s):
            best_d, best_s = key
            cands = {js.jumps for js in r.candidates}
        elif key == (best_d, best_s):
            cands.update(js.jumps for js in r.candidates)
    return SearchResult(
        n=n,
        k=k,
        best_diameter=best_d,
        best_dist_sum=best_s,
        candidates=tuple(JumpSet(n, c) for c in sorted(cands)),
        scanned=scanned,
        elapsed=elapsed,
    )


def save_checkpoint(
    path: str | Path, n: int, k: int, total: int, states: list[_RangeState]
) -> None:
    """Atomically write the per-range cursors and running bests. The temporary
    file is fsynced before it replaces `path`, so a power loss cannot leave
    an empty checkpoint behind."""
    lines = []
    for st in states:
        lines.append(
            json.dumps(
                {
                    "n": n,
                    "k": k,
                    "total": total,
                    "range": {"start": st.rank_range.start, "end": st.rank_range.end},
                    "cursor_rank": st.cursor,
                    "best_diameter": st.best_d,
                    "best_dist_sum": st.best_s,
                    "candidates": [list(c) for c in st.candidates],
                    "elapsed": st.elapsed,
                },
                sort_keys=True,
            )
        )
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _verify_state(st: _RangeState, n: int, plan: _ScanPlan) -> None:
    """Raise CheckpointError unless a range's running best is one the scan
    could have produced: a best exactly when there are candidates, every
    candidate a jump set of one of the plan's parts, and each re-measuring
    to that best."""
    if (st.best_d is None) != (not st.candidates) or (st.best_d is None) != (st.best_s is None):
        raise CheckpointError(f"range {st.rank_range}: best and candidates disagree")
    if st.best_d is None:
        return
    bound = (st.best_d, st.best_s)
    if not all(type(x) is int for x in bound):
        raise CheckpointError(f"range {st.rank_range}: best {bound} is not integral")
    for c in st.candidates:
        if not any(_in_plan(part, c) for part in plan.parts):
            raise CheckpointError(f"candidate {list(c)} is not in the search space")
        if circulant_distance_profile(n, c, bound) != bound:
            raise CheckpointError(
                f"candidate {list(c)} does not re-measure to the checkpointed best {bound}"
            )


def load_checkpoint(path: str | Path, n: int, k: int) -> list[_RangeState]:
    """Parse and validate a checkpoint for the (n, k) search; raises
    CheckpointError on any corruption or mismatch.

    The ranges tile the ranks of the search's scan plan (`_scan_plan`), and
    `total` is that plan's size, the same for the reduced and the full
    space; a `reduced` key, which older checkpoints carry, is ignored. A
    parseable checkpoint is not trusted: n, k, total, the range bounds and
    the cursor must be JSON integers, and every carried candidate must be a
    jump set of one of the scan plan's parts and is re-measured with the
    scan kernel (see `_verify_state`).
    """
    plan = _scan_plan(n, jump_space(n, k))
    total = plan.size
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    states = []
    try:
        for line in text.splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            ranks = (
                rec["n"], rec["k"], rec["total"],
                rec["range"]["start"], rec["range"]["end"], rec["cursor_rank"],
            )
            if not all(type(x) is int for x in ranks):
                raise CheckpointError(
                    f"checkpoint ranks must be integers: {line.strip()[:200]}"
                )
            if (rec["n"], rec["k"], rec["total"]) != (n, k, total):
                raise CheckpointError(
                    f"checkpoint is for (n={rec['n']}, k={rec['k']}, total={rec['total']}), "
                    f"not (n={n}, k={k}, total={total}); "
                    "totals count the ranks of the scan plan: one part per value g "
                    "of gcd(s, n), jump g pinned, g = 1 first"
                )
            rng = RankRange(rec["range"]["start"], rec["range"]["end"])
            cursor = rec["cursor_rank"]
            if not rng.start <= cursor <= rng.end:
                raise CheckpointError(f"cursor {cursor} outside range {rng}")
            # older checkpoints carry no scan time
            elapsed = rec.get("elapsed", 0.0)
            if type(elapsed) not in (int, float) or not (math.isfinite(elapsed) and elapsed >= 0):
                raise CheckpointError(
                    f"range {rng}: 'elapsed' must be a finite non-negative number, "
                    f"got {elapsed!r}"
                )
            states.append(
                _RangeState(
                    rank_range=rng,
                    cursor=cursor,
                    best_d=rec["best_diameter"],
                    best_s=rec["best_dist_sum"],
                    candidates=[tuple(c) for c in rec["candidates"]],
                    elapsed=float(elapsed),
                )
            )
    except CheckpointError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not states:
        raise CheckpointError(f"checkpoint {path} holds no ranges")
    states.sort(key=lambda st: st.rank_range.start)
    pos = 0
    for st in states:
        if st.rank_range.start != pos:
            raise CheckpointError("checkpoint ranges do not tile [0, total)")
        pos = st.rank_range.end
    if pos != total:
        raise CheckpointError("checkpoint ranges do not cover the space")
    for st in states:
        _verify_state(st, n, plan)
    return states


def _run_states(
    n: int, k: int, plan: _ScanPlan, states: list[_RangeState], config: SearchConfig
) -> None:
    """Drive every range to completion, chunk by chunk, optionally parallel;
    each finished chunk's state replaces its range's entry in `states`.

    The checkpoint is written once before the first chunk, so a path that
    cannot be written fails before anything is scanned. When a pooled chunk
    raises, the chunks still queued are cancelled, so the pool's exit waits
    only for the ones already started."""

    def checkpoint() -> None:
        if config.checkpoint_path is not None:
            save_checkpoint(config.checkpoint_path, n, k, plan.size, states)

    def chunk_end(st: _RangeState) -> int:
        return min(st.cursor + config.checkpoint_every, st.rank_range.end)

    checkpoint()
    workers = config.resolved_workers()
    pending = [i for i, st in enumerate(states) if st.cursor < st.rank_range.end]
    if workers == 1 or len(pending) <= 1:
        for i in pending:
            st = states[i]
            while st.cursor < st.rank_range.end:
                st = states[i] = _scan_chunk(n, plan, st, chunk_end(st))
                checkpoint()
        return

    with ProcessPoolExecutor(max_workers=workers) as pool:

        def submit(st: _RangeState):
            return pool.submit(_scan_chunk, n, plan, st, chunk_end(st))

        running = {submit(states[i]): i for i in pending}
        try:
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for fut in done:
                    i = running.pop(fut)
                    st = states[i] = fut.result()
                    checkpoint()
                    if st.cursor < st.rank_range.end:
                        running[submit(st)] = i
        finally:
            for fut in running:
                fut.cancel()


def run_search(
    n: int, k: int, config: SearchConfig | None = None
) -> tuple[list[OptimalRecord], SearchResult]:
    """Full pipeline: count, partition, scan, merge, bisection filter.

    The ranges are cut from the scan plan (`_scan_plan`); after the merge,
    the ties are replaced by their unit closure in the requested plan, and
    `scanned` counts the requested space. Returns the optimal records plus
    the merged scan result (for progress accounting and rate reporting).
    Results are identical for any worker count and for any checkpoint/resume
    boundary.
    """
    config = config or SearchConfig()
    config.validate()
    plan = jump_space(n, k, config.reduced)
    scan = _scan_plan(n, plan)

    if config.checkpoint_path is not None and Path(config.checkpoint_path).exists():
        states = load_checkpoint(config.checkpoint_path, n, k)
    else:
        ranges = partition_ranks(scan.size, config.resolved_workers())
        states = [_RangeState(rank_range=r, cursor=r.start) for r in ranges]

    _run_states(n, k, scan, states, config)
    merged = merge([st.as_result(n, k) for st in states])
    if merged.scanned != scan.size:
        raise AssertionError(f"scanned {merged.scanned} of {scan.size} combinations")
    ties = _unit_closure(n, plan, [js.jumps for js in merged.candidates])
    merged = replace(
        merged, candidates=tuple(JumpSet(n, c) for c in ties), scanned=plan.size
    )
    return _optimal_records(n, k, merged, config), merged


def _optimal_records(
    n: int, k: int, merged: SearchResult, config: SearchConfig
) -> list[OptimalRecord]:
    """The maximum-width records among the merged ties, sorted by jump set."""
    # Every member of a unit-multiplication class is the same graph, so its
    # metrics are measured once, by `compute_metrics` on the canonical
    # representative. That BFS is independent of the scan kernel, and a class
    # that does not re-measure to the merged best is never emitted.
    best = (merged.best_diameter, merged.best_dist_sum)
    class_metrics: dict[tuple[int, ...], MetricsRecord] = {}
    scored: list[tuple[MetricsRecord, JumpSet]] = []
    for js in merged.candidates:
        rep = adam_canonical(js)
        if rep.jumps not in class_metrics:
            m = compute_metrics(
                circulant(rep),
                config.exact_bisection_limit,
                config.restarts,
                config.seed,
                workers=config.workers,
            )
            if (m.diameter, m.dist_sum) != best:
                raise AssertionError(
                    f"class {list(rep.jumps)} re-measures to ({m.diameter}, {m.dist_sum}),"
                    f" not the scanned best {best}"
                )
            class_metrics[rep.jumps] = m
        scored.append((class_metrics[rep.jumps], js))
    best_bw = max((m.bisection for m, _ in scored if m.bisection is not None), default=None)
    # merged.candidates is sorted by jump set, and so are the records
    return [OptimalRecord(n, k, js, m) for m, js in scored if m.bisection == best_bw]


def search_optimal(
    n: int, k: int, config: SearchConfig | None = None
) -> list[OptimalRecord]:
    """Optimal circulants for (n, k): minimal diameter, then minimal distance
    sum, then maximal bisection width; all ties at the final stage returned."""
    return run_search(n, k, config)[0]


def record_to_dict(rec: OptimalRecord) -> dict:
    """JSON-able form of one OptimalRecord, as written to results files: the
    metrics fields, with the search's k and jumps in place of the degree."""
    out = rec.metrics.to_dict()
    del out["degree"]
    out.update(k=rec.k, jumps=list(rec.jumps.jumps))
    return out


def write_results(path: str | Path, records: list[OptimalRecord]) -> None:
    """One OptimalRecord per line, JSON, sorted keys."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_dict(rec), sort_keys=True) + "\n")
