#!/usr/bin/env python3
"""Benchmark of the circnet pipeline on three workloads: scan, table, traffic.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports circnet from `src/` and the
published reference values from `tests/reference_data.py`. The workloads,
metrics and the layer each per-layer metric belongs to are described in
perfbench/README.md; BENCHMARK.json lists the metrics and their units.

With --trace 0 the workload's job list runs in passes, round-robin, until
--seconds have passed (at least one full pass). A fixed reference task runs
after every job; the gated times sum, over the jobs, the median of each
job's time divided by that of the reference task that followed it.
With --trace 1 untraced and traced passes alternate (at least one of each)
and the per-layer metrics come from the spans of the traced passes; the scan
workload also measures its kernels on one core. Every job's output is
checked outside the timed region. Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. Results and spans are written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "results"
SETUP_SAMPLES = 5

# Runs in a fresh interpreter: the imports, the job list built from the seed
# and the temporary checkpoint directory, which is what a run does before
# its first timed job.
SETUP_CODE = """\
import shutil, sys, tempfile
from pathlib import Path
sys.path[:0] = {paths!r}
import workloads
tmp = Path(tempfile.mkdtemp(dir={out!r}))
workloads.build({workload!r}, {seed!r}, {workers!r}, tmp)
shutil.rmtree(tmp)
"""


class Tally:
    """Jobs attempted and failed; a job fails when it raises or its check does."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}:", file=sys.stderr)
        traceback.print_exc()


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python task that calls no circnet
    code: bit-array BFS levels like the scan kernel, then summing into a dict
    keyed by tuples like the traffic evaluator. It holds little memory, so it
    does not move `peak_rss_mib`.

    On a shared machine the speed of the host drifts by tens of percent over
    minutes, and every job drifts with it. Each job's time is divided by that
    of this task, run right after it; `wall_ref` and `cpu_ref` sum the
    medians of those ratios, which cancels most of the drift.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    n = 1021
    full = (1 << n) - 1
    for _ in range(50):
        visited = frontier = 1
        while True:
            nxt = 0
            for s in (1, 38, 70, 393):
                nxt |= (frontier << s) | (frontier >> (n - s)) | (frontier >> s) | (frontier << (n - s))
            new = nxt & full & ~visited
            if not new:
                break
            visited |= new
            frontier = new
    loads: dict[tuple[int, int], int] = {}
    for i in range(100_000):
        key = (i % 61, i * 7 % 97)
        loads[key] = loads.get(key, 0) + 1
    return time.perf_counter() - t0, time.process_time() - c0


def run_pass(jobs, tally: Tally, tracer=None, pass_id: int = 0, stop_at: float | None = None):
    """Run the jobs in order, each timed, checked, then followed by the
    reference task.

    Returns ({job name: (wall s, cpu s, reference wall s, reference cpu s)},
    pass context); failed jobs have no entry. With `stop_at`, no job starts
    after that perf_counter time.
    """
    import workloads

    ctx = workloads.new_pass()
    times = {}
    for job in jobs:
        if stop_at is not None and time.perf_counter() >= stop_at:
            break
        if tracer is not None:
            tracer.job = f"{pass_id}/{job.name}"
        gc.collect()
        tally.attempted += 1
        try:
            t0, c0 = time.perf_counter(), cpu_seconds()
            out = job.run(ctx)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            job.check(ctx, out)
        except Exception:  # a raise is a failed job; the run goes on
            tally.fail(job.name)
        else:
            times[job.name] = (wall, cpu, *reference())
        out = None
    return times, ctx


def medians(samples: dict[str, list[tuple]]) -> dict[str, tuple[float, ...]]:
    """Per job: median wall s, median cpu s, and the medians of each sample's
    wall and cpu time over those of the reference task that followed it."""
    return {
        name: (
            statistics.median(t[0] for t in ts),
            statistics.median(t[1] for t in ts),
            statistics.median(t[0] / t[2] for t in ts),
            statistics.median(t[1] / t[3] for t in ts),
        )
        for name, ts in samples.items()
    }


def stage_seconds(jobs, per_job: dict[str, tuple]) -> dict[str, float]:
    stages: dict[str, float] = defaultdict(float)
    for job in jobs:
        if job.name in per_job:
            stages[job.stage] += per_job[job.name][0]
    return stages


def setup_seconds(workload: str, seed: int, workers: int) -> list[float]:
    code = SETUP_CODE.format(
        paths=[str(ROOT / "src"), str(ROOT / "tests"), str(HERE)],
        out=str(OUT), workload=workload, seed=seed, workers=workers,
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time up to 50 ms.
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def blas_threads() -> int | None:
    """OpenBLAS thread count of the library numpy loaded, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int, workers: int) -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "workers": workers,
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "seed": seed,
    }


def end_to_end(args, jobs, tally: Tally, workers: int) -> tuple[dict, dict]:
    samples = defaultdict(list)
    deadline = time.perf_counter() + args.seconds
    first = True
    while first or time.perf_counter() < deadline:
        times, _ = run_pass(jobs, tally, stop_at=None if first else deadline)
        for name, t in times.items():
            samples[name].append(t)
        first = False
    per_job = medians(samples)
    stages = stage_seconds(jobs, per_job)
    values = {
        "wall_s": sum(m[0] for m in per_job.values()),
        "cpu_s": sum(m[1] for m in per_job.values()),
        "wall_ref": sum(m[2] for m in per_job.values()),
        "cpu_ref": sum(m[3] for m in per_job.values()),
        # read before the set-up probes, whose interpreters are children too
        "peak_rss_mib": peak_rss_mib(),
    }
    values["setup_s"] = statistics.median(setup_seconds(args.workload, args.seed, workers))
    # Raw seconds, stage times and the failure share are shown beside the
    # gated figures; a stage time is 0 on workloads without that stage.
    shown = {"setup_s": values["setup_s"], "wall_s": values["wall_s"]}
    shown.update((f"{s}_s", stages.get(s, 0.0)) for s in ("search", "metrics", "all2all", "random"))
    shown.update(cpu_s=values["cpu_s"], peak_rss_mib=values["peak_rss_mib"],
                 failed_frac=tally.failed / tally.attempted,
                 wall_ref=values["wall_ref"], cpu_ref=values["cpu_ref"])
    detail = {"jobs": {name: {"wall_s": m[0], "cpu_s": m[1], "samples": samples[name]}
                       for name, m in per_job.items()},
              "shown": shown}
    return values, detail


def per_layer(args, jobs, tally: Tally, workers: int) -> tuple[dict, dict]:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    samples: dict[bool, dict] = {False: defaultdict(list), True: defaultdict(list)}
    rows = []
    deadline = time.perf_counter() + args.seconds
    p = 0
    while p < 2 or time.perf_counter() < deadline:
        traced = p % 2 == 1
        if traced:
            tracer.install()
        try:
            times, ctx = run_pass(jobs, tally, tracer if traced else None, p)
        finally:
            tracer.remove()
        for name, t in times.items():
            samples[traced][name].append(t)
        if traced:
            row = tracing.layer_metrics(tracer.spans, f"{p}/")
            row["metrics.width_hit_ratio"] = (
                ctx["width_hits"] / ctx["widths"] if ctx["widths"] else 0.0
            )
            rows.append(row)
        p += 1

    values = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    untraced, traced_jobs = medians(samples[False]), medians(samples[True])
    stages = stage_seconds(jobs, untraced)
    for stage in ("search", "metrics", "all2all", "random"):
        values[f"stage.{stage}_s"] = stages.get(stage, 0.0)
    both = untraced.keys() & traced_jobs.keys()
    values["trace.overhead_frac"] = (
        sum(traced_jobs[name][0] for name in both) / sum(untraced[name][0] for name in both) - 1
    )

    kernels = {"successor_per_s": 0.0, "scan_graphs_per_s": 0.0, "single_core_scan_s": 0.0}
    if args.workload == "scan":
        tally.attempted += 1
        try:
            kernels = workloads.kernel_probes()
        except Exception:  # a raise is a failed job; the run goes on
            tally.fail("kernel probes")
    values["combinatorics.successor_per_s"] = kernels["successor_per_s"]
    values["search.scan_graphs_per_s"] = kernels["scan_graphs_per_s"]
    self_s = values["search.self_s"]
    values["search.parallel_efficiency"] = (
        kernels["single_core_scan_s"] / (workers * self_s) if kernels["single_core_scan_s"] else 0.0
    )
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    spans_path.write_text("".join(json.dumps(r) + "\n" for r in tracer.records()))
    return values, {"passes": p, "spans": str(spans_path.relative_to(ROOT))}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scan", "table", "traffic"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "circnet" / "__init__.py",
              ROOT / "tests" / "reference_data.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a full checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        jobs = workloads.build(args.workload, args.seed, workers, tmp)
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        values, detail = measure(args, jobs, tally, workers)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(args.seed, workers)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, workload=args.workload, env=env, **detail), indent=1) + "\n"
    )
    print("env " + json.dumps(env))
    if "shown" in detail:
        units = {"peak_rss_mib": "MiB", "failed_frac": "ratio", "wall_ref": "ref", "cpu_ref": "ref"}
        for name, value in detail["shown"].items():
            print(f"{name:>14} {value:12.4f} {units.get(name, 's')}")
        for name, info in detail["jobs"].items():
            print(f"  job {name}: median {info['wall_s']:.3f} s over {len(info['samples'])} samples")
    else:
        for m in listed:
            print(f"{m['name']:>28} {values[m['name']]:14.4f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
