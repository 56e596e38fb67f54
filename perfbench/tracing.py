"""Spans around the calls into each circnet module, and the per-layer metrics
derived from them.

The tracer replaces module-level names that the pipeline looks up at call
time (for example `circnet.search.bisection_exact`, which run_search calls
through its module globals) with wrappers that record a span, and puts the
originals back afterwards. A span holds its name, start, end, parent span,
job id and the counts taken from the call's arguments and result. Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from circnet import cli, metrics, report, routing, search, traffic
from circnet.metrics import DEFAULT_RESTARTS


@dataclass
class Span:
    name: str
    job: str | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _search_counts(args, kwargs, out) -> dict:
    return {"scanned": out[1].scanned, "ties": len(out[1].candidates)}


def _heuristic_counts(args, kwargs, out) -> dict:
    restarts = args[1] if len(args) > 1 else kwargs.get("restarts", DEFAULT_RESTARTS)
    return {"restarts": restarts}


def _route_counts(args, kwargs, table) -> dict:
    return {"entries": table.n * table.n}


def _pattern_counts(args, kwargs, pattern) -> dict:
    return {"flows": len(pattern.flows)}


def _eval_counts(args, kwargs, rep) -> dict:
    return {"traversals": rep.weighted_hops, "kind": args[0].kind}


# (module, attribute, span name, counts from (args, kwargs, result)). The same
# function reached through two modules gets one span name.
TRACED = (
    (search, "run_search", "search.run_search", _search_counts),
    (search, "save_checkpoint", "search.save_checkpoint", None),
    (search, "load_checkpoint", "search.load_checkpoint", None),
    (search, "adam_canonical", "topology.adam_canonical", None),
    (search, "circulant", "topology.circulant", None),
    (search, "bisection_exact", "metrics.bisection_exact", None),
    (search, "bisection_heuristic", "metrics.bisection_heuristic", _heuristic_counts),
    (cli, "parse_spec", "topology.parse_spec", None),
    (metrics, "compute_metrics", "metrics.compute_metrics", None),
    (metrics, "diameter_mpl", "metrics.diameter_mpl", None),
    (metrics, "bisection_exact", "metrics.bisection_exact", None),
    (metrics, "bisection_heuristic", "metrics.bisection_heuristic", _heuristic_counts),
    (routing, "route_table", "routing.route_table", _route_counts),
    (routing, "circulant_routes", "routing.circulant_routes", None),
    (routing, "dimension_order_routes", "routing.dimension_order_routes", None),
    (traffic, "pattern_all_to_all", "traffic.pattern", _pattern_counts),
    (traffic, "pattern_random_pairs", "traffic.pattern", _pattern_counts),
    (traffic, "evaluate", "traffic.evaluate", _eval_counts),
    (report, "build_table", "report.build_table", None),
    (report, "average_ratios", "report.average_ratios", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: str | None = None
        self._open: list[int] = []
        self._originals: list[tuple[Any, str, Callable]] = []

    def install(self) -> None:
        for module, attr, name, counts in TRACED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, original: Callable, name: str, counts: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, self.job, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, out)
            return out

        return traced

    def records(self) -> list[dict]:
        return [dict(asdict(s), id=i) for i, s in enumerate(self.spans)]


def layer_metrics(spans: list[Span], job_prefix: str) -> dict[str, float]:
    """Per-layer metrics of the spans whose job id starts with `job_prefix`.

    Self time is a span's duration minus that of its direct children, which
    never overlap because every traced call runs in the calling thread.
    """
    picked = [i for i, s in enumerate(spans) if s.job and s.job.startswith(job_prefix)]
    child_s: dict[int, float] = defaultdict(float)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in picked:
        span = spans[i]
        by_name[span.name].append(i)
        if span.parent is not None:
            child_s[span.parent] += span.seconds

    def total(*names: str) -> float:
        return sum(spans[i].seconds for name in names for i in by_name[name])

    def count(name: str, key: str) -> int:
        return sum(spans[i].counts.get(key, 0) for i in by_name[name])

    runs = by_name["search.run_search"]
    bisections = by_name["metrics.bisection_exact"] + by_name["metrics.bisection_heuristic"]
    classes = sum(1 for i in bisections if spans[i].parent in runs)
    ties = count("search.run_search", "ties")
    heuristic_calls = len(by_name["metrics.bisection_heuristic"])
    heuristic_s = total("metrics.bisection_heuristic")
    restarts = count("metrics.bisection_heuristic", "restarts")
    evals = [spans[i] for i in by_name["traffic.evaluate"]]
    eval_s = sum(s.seconds for s in evals)
    return {
        "search.self_s": sum(spans[i].seconds - child_s[i] for i in runs),
        "search.checkpoint_s": total("search.save_checkpoint", "search.load_checkpoint"),
        "search.checkpoint_writes": len(by_name["search.save_checkpoint"]),
        "search.resume_s": sum(spans[i].seconds for i in runs if "resume" in spans[i].job),
        "search.scanned": count("search.run_search", "scanned"),
        "search.ties": ties,
        "search.classes": classes,
        "search.class_ratio": classes / ties if ties else 0.0,
        "topology.canonical_s": total("topology.adam_canonical"),
        "topology.build_s": total("topology.circulant", "topology.parse_spec"),
        "metrics.bfs_s": total("metrics.diameter_mpl"),
        "metrics.exact_s": total("metrics.bisection_exact"),
        "metrics.exact_calls": len(by_name["metrics.bisection_exact"]),
        "metrics.heuristic_s": heuristic_s,
        "metrics.heuristic_calls": heuristic_calls,
        "metrics.restart_ms": 1000 * heuristic_s / restarts if restarts else 0.0,
        "routing.build_s": total("routing.route_table"),
        "routing.entries": count("routing.route_table", "entries"),
        "traffic.pattern_s": total("traffic.pattern"),
        "traffic.flows": count("traffic.pattern", "flows"),
        "traffic.eval_s.circulant": sum(s.seconds for s in evals if s.counts["kind"] == "circulant"),
        "traffic.eval_s.torus": sum(s.seconds for s in evals if s.counts["kind"] == "torus"),
        "traffic.traversals_per_s": (
            sum(s.counts["traversals"] for s in evals) / eval_s if evals else 0.0
        ),
        "report.build_s": total("report.build_table", "report.average_ratios"),
    }
