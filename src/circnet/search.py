"""Rank-partitioned exhaustive search for optimal circulant graphs.

The free-jump combinations of a (n, k) space are totally ordered co-lex and
split into one rank range per worker. A range's running best is one
`_RangeState` (cursor, minimum (diameter, distance sum), every jump set that
attains it); `_scan_chunk` advances it by unranking the cursor and walking
successors. Merging partial results is associative and commutative, so the
outcome is identical for any worker count, chunking, or checkpoint/resume
boundary.

Survivors are grouped into unit-multiplication classes, and each class is
measured once by `metrics.compute_metrics` on its canonical representative:
an independent BFS re-measures the diameter and distance sum (a class that
disagrees with the scan raises before anything is returned), and the
bisection width comes from `metrics.bisection_method`'s policy (exact up to
the configured limit, Kernighan-Lin above, none for odd n). Only the
maximum-width ties are returned.

Hot path: every candidate goes through the one circulant BFS kernel,
`metrics.circulant_distance_profile`, bounded by the running best. The
kernel abandons a candidate before the level that proves it worse, and the
test is strict, so every tie is measured in full. Only the amount of pruning
depends on the running best, never which jump sets are kept, which is why
the outcome stays independent of chunking and order. On one core of a
2-vCPU Xeon host (Python 3.11) this scans about 80-97k graphs/s at (255, 6)
and (257, 6) and 124-141k at (127, 8), twice the rate of the unbounded scan.

Checkpoints are JSON lines, one `_RangeState` per range; a resumed run
continues each range from its cursor. A loaded checkpoint is not trusted:
every field must have its JSON type (integral ranks, a boolean `reduced`),
and every carried candidate must lie in the search space and re-measure to
its range's best.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

from .combinatorics import successor_inplace, unrank_elements
from .metrics import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_RESTARTS,
    MetricsRecord,
    circulant_distance_profile,
    compute_metrics,
)
# perfbench/tracing.py patches these by attribute on this module
from .metrics import bisection_exact, bisection_heuristic  # noqa: F401
from .topology import JumpSet, JumpSpacePlan, adam_canonical, circulant, jump_space


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
        return self.workers if self.workers is not None else (os.cpu_count() or 1)


def count_space(n: int, k: int, reduced: bool = True) -> int:
    """Size of the free-choice combination space for (n, k)."""
    plan = jump_space(n, k, reduced)
    return plan.size


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


def _scan_chunk(n: int, plan: JumpSpacePlan, st: _RangeState, end: int) -> _RangeState:
    """Advance a range's running best over co-lex ranks [st.cursor, end).

    Hot path: each connected candidate goes through
    `circulant_distance_profile` with the running best as its bound, so it
    returns a profile only for a new best or a tie, and the jump set is only
    materialized as a sorted tuple then.
    """
    t0 = time.perf_counter()
    start = st.cursor
    if end <= start:
        return st
    fixed, lo, hi = plan.fixed, plan.lo, plan.hi
    elems = unrank_elements(start, lo, hi, plan.r)
    need_gcd = 1 not in fixed
    bound = None if st.best_d is None else (st.best_d, st.best_s)
    out = list(st.candidates)
    idx = start
    while True:
        jumps = fixed + tuple(elems)
        if not need_gcd or gcd(n, *jumps) == 1:
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
    path: str | Path, n: int, k: int, reduced: bool, total: int,
    states: list[_RangeState],
) -> None:
    """Atomically write the per-range cursors and running bests."""
    lines = []
    for st in states:
        lines.append(
            json.dumps(
                {
                    "n": n,
                    "k": k,
                    "reduced": reduced,
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
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _verify_state(st: _RangeState, n: int, plan: JumpSpacePlan) -> None:
    """Raise CheckpointError unless a range's running best is one the scan
    could have produced: a best exactly when there are candidates, every
    candidate a jump set of the plan, and each re-measuring to that best."""
    if (st.best_d is None) != (not st.candidates) or (st.best_d is None) != (st.best_s is None):
        raise CheckpointError(f"range {st.rank_range}: best and candidates disagree")
    if st.best_d is None:
        return
    bound = (st.best_d, st.best_s)
    if not all(type(x) is int for x in bound):
        raise CheckpointError(f"range {st.rank_range}: best {bound} is not integral")
    fixed = set(plan.fixed)
    for c in st.candidates:
        if not (
            all(type(s) is int for s in c)
            and len(set(c)) == len(c) == len(fixed) + plan.r
            and fixed <= set(c)
            and all(plan.lo <= s <= plan.hi for s in set(c) - fixed)
        ):
            raise CheckpointError(f"candidate {list(c)} is not in the search space")
        if circulant_distance_profile(n, c, bound) != bound:
            raise CheckpointError(
                f"candidate {list(c)} does not re-measure to the checkpointed best {bound}"
            )


def load_checkpoint(
    path: str | Path, n: int, k: int, reduced: bool, total: int
) -> list[_RangeState]:
    """Parse and validate a checkpoint for the given search; raises
    CheckpointError on any corruption or mismatch.

    A parseable checkpoint is not trusted: n, k, total, the range bounds and
    the cursor must be JSON integers and `reduced` a boolean, and every
    carried candidate is re-measured with the scan kernel (see
    `_verify_state`).
    """
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
            if not all(type(x) is int for x in ranks) or type(rec["reduced"]) is not bool:
                raise CheckpointError(
                    "checkpoint ranks must be integers and 'reduced' a boolean: "
                    f"{line.strip()[:200]}"
                )
            if (rec["n"], rec["k"], rec["reduced"], rec["total"]) != (n, k, reduced, total):
                raise CheckpointError(
                    f"checkpoint is for (n={rec['n']}, k={rec['k']}, "
                    f"reduced={rec['reduced']}, total={rec['total']}), "
                    f"not (n={n}, k={k}, reduced={reduced}, total={total})"
                )
            rng = RankRange(rec["range"]["start"], rec["range"]["end"])
            cursor = rec["cursor_rank"]
            if not rng.start <= cursor <= rng.end:
                raise CheckpointError(f"cursor {cursor} outside range {rng}")
            states.append(
                _RangeState(
                    rank_range=rng,
                    cursor=cursor,
                    best_d=rec["best_diameter"],
                    best_s=rec["best_dist_sum"],
                    candidates=[tuple(c) for c in rec["candidates"]],
                    elapsed=float(rec.get("elapsed", 0.0)),
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
    plan = jump_space(n, k, reduced)
    for st in states:
        _verify_state(st, n, plan)
    return states


def _run_states(
    n: int, k: int, plan: JumpSpacePlan, states: list[_RangeState], config: SearchConfig
) -> None:
    """Drive every range to completion, chunk by chunk, optionally parallel;
    each finished chunk's state replaces its range's entry in `states`."""

    def checkpoint() -> None:
        if config.checkpoint_path is not None:
            save_checkpoint(
                config.checkpoint_path, n, k, config.reduced, plan.size, states
            )

    def chunk_end(st: _RangeState) -> int:
        return min(st.cursor + config.checkpoint_every, st.rank_range.end)

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
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                i = running.pop(fut)
                st = states[i] = fut.result()
                checkpoint()
                if st.cursor < st.rank_range.end:
                    running[submit(st)] = i


def run_search(
    n: int, k: int, config: SearchConfig | None = None
) -> tuple[list[OptimalRecord], SearchResult]:
    """Full pipeline: count, partition, scan, merge, bisection filter.

    Returns the optimal records plus the merged scan result (for progress
    accounting and rate reporting). Results are identical for any worker
    count and for any checkpoint/resume boundary.
    """
    config = config or SearchConfig()
    config.validate()
    plan = jump_space(n, k, config.reduced)
    total = plan.size

    states: list[_RangeState] | None = None
    if config.checkpoint_path is not None and Path(config.checkpoint_path).exists():
        states = load_checkpoint(config.checkpoint_path, n, k, config.reduced, total)
    if states is None:
        ranges = partition_ranks(total, config.resolved_workers())
        states = [_RangeState(rank_range=r, cursor=r.start) for r in ranges]

    _run_states(n, k, plan, states, config)
    merged = merge([st.as_result(n, k) for st in states])
    if merged.scanned != total:
        raise AssertionError(f"scanned {merged.scanned} of {total} combinations")

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
                circulant(rep), config.exact_bisection_limit, config.restarts, config.seed
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
    records = [OptimalRecord(n, k, js, m) for m, js in scored if m.bisection == best_bw]
    return records, merged


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
