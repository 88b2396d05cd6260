"""Parallel-execution benchmark: real speedup and cache skip ratio.

Table 1's parallel numbers are *simulated* (max part time over 5
machines).  This harness measures the real thing on the largest corpus
program: wall-clock for the sequential ``simulate`` backend versus the
``processes`` backend at increasing worker counts, plus the summary
cache's skip ratio on a warm re-run.  Results go to
``BENCH_parallel.json`` so CI can archive them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from ..core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from .corpus import PAPER_TABLE1, build
from .metrics import format_table

#: Largest corpus program by the paper's pointer count (sendmail).
LARGEST = max(PAPER_TABLE1, key=lambda r: r.pointers).name


def run_parallel_bench(name: str = LARGEST, scale: float = 0.02,
                       jobs_list: Sequence[int] = (2, 4),
                       scheduler: str = "lpt",
                       threshold: Optional[int] = None,
                       verbose: bool = False) -> Dict[str, Any]:
    """Measure one corpus program across backends; JSON-safe result."""
    sp = build(name, scale=scale)
    program = sp.program
    if threshold is None:
        threshold = max(6, int(60 * scale))
    config = BootstrapConfig(
        cascade=CascadeConfig(andersen_threshold=threshold))

    def fresh():
        # A fresh result per run: per-cluster analyses are memoized on
        # the result object, which would let later runs cheat.
        return BootstrapAnalyzer(program, config).run()

    def timed(**kw):
        # The whole call a caller waits for, on every backend.
        result = fresh()
        t0 = time.perf_counter()
        report = result.analyze_all(**kw)
        return report, time.perf_counter() - t0

    boot = fresh()
    n_clusters = len(boot.clusters)
    if verbose:
        print(f"  [{name}] scale={scale}: {len(program.pointers)} pointers, "
              f"{n_clusters} clusters", file=sys.stderr)

    runs: List[Dict[str, Any]] = []
    base, baseline = timed(backend="simulate")
    runs.append({"backend": "simulate", "jobs": 1,
                 "wall_time": baseline, "speedup": 1.0,
                 "max_part_time": base.max_part_time,
                 "machine_speedup": 1.0})
    for jobs in jobs_list:
        report, wall = timed(backend="processes", jobs=jobs,
                             scheduler=scheduler)
        # machine_speedup is the paper's accounting: total per-cluster
        # work over the slowest part — what the schedule achieves on
        # ``jobs`` dedicated machines, independent of how many cores this
        # host happens to have (wall speedup collapses on a 1-core CI
        # runner where extra workers only add contention).
        machine = (report.total_time / report.max_part_time
                   if report.max_part_time else 1.0)
        runs.append({
            "backend": "processes", "jobs": jobs,
            "wall_time": wall,
            "speedup": baseline / wall if wall else 0,
            "max_part_time": report.max_part_time,
            "machine_speedup": machine,
        })
        if verbose:
            print(f"  processes x{jobs}: {wall:.2f}s wall "
                  f"({runs[-1]['speedup']:.2f}x), schedule balance "
                  f"{machine:.2f}x", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cdir:
        cold, cold_wall = timed(backend="simulate", cache=cdir)
        warm, warm_wall = timed(backend="simulate", cache=cdir)
    skip_ratio = warm.cache_hits / n_clusters if n_clusters else 1.0
    cache = {
        "clusters": n_clusters,
        "cold_misses": cold.cache_misses,
        "warm_hits": warm.cache_hits,
        "warm_misses": warm.cache_misses,
        "warm_skip_ratio": skip_ratio,
        "cold_wall_time": cold_wall,
        "warm_wall_time": warm_wall,
    }
    if verbose:
        print(f"  cache: warm skip {skip_ratio:.0%} "
              f"({warm.cache_hits}/{n_clusters})", file=sys.stderr)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    return {"program": name, "scale": scale, "scheduler": scheduler,
            "pointers": len(program.pointers), "clusters": n_clusters,
            "cpus": cpus, "runs": runs, "cache": cache}


def check_gate(current: Dict[str, Any], baseline: Dict[str, Any],
               tolerance: float = 0.2) -> List[str]:
    """Soft regression gate against a committed baseline JSON.

    Wall-clock is machine-dependent, so the gate compares the two
    machine-independent numbers: ``machine_speedup`` per jobs count
    (the schedule's balance) and the warm-cache skip ratio.  Each may
    drift down by ``tolerance`` (fractional) before failing — the same
    ratio-based discipline as ``profile_solvers --gate``.
    """
    failures = []
    if current.get("program") != baseline.get("program"):
        failures.append(
            f"program mismatch: current {current.get('program')!r} vs "
            f"baseline {baseline.get('program')!r} (pass matching "
            "--program/--scale to compare)")
        return failures
    base_by_jobs = {r["jobs"]: r for r in baseline.get("runs", [])
                    if r.get("backend") == "processes"}
    for run in current.get("runs", []):
        if run.get("backend") != "processes":
            continue
        base = base_by_jobs.get(run["jobs"])
        if base is None:
            continue
        floor = base["machine_speedup"] * (1.0 - tolerance)
        if run["machine_speedup"] < floor:
            failures.append(
                f"machine_speedup at jobs={run['jobs']}: "
                f"{run['machine_speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['machine_speedup']:.2f}x "
                f"- {tolerance:.0%})")
    cur_skip = current.get("cache", {}).get("warm_skip_ratio", 0.0)
    base_skip = baseline.get("cache", {}).get("warm_skip_ratio", 0.0)
    skip_floor = base_skip * (1.0 - tolerance)
    if cur_skip < skip_floor:
        failures.append(
            f"warm_skip_ratio: {cur_skip:.0%} fell below {skip_floor:.0%} "
            f"(baseline {base_skip:.0%} - {tolerance:.0%})")
    return failures


def render(data: Dict[str, Any]) -> str:
    rows = [[r["backend"], str(r["jobs"]), f"{r['wall_time']:.2f}",
             f"{r['speedup']:.2f}x", f"{r['machine_speedup']:.2f}x"]
            for r in data["runs"]]
    table = format_table(
        ["backend", "jobs", "wall (s)", "speedup", "machines"], rows,
        title=f"Parallel execution ({data['program']}, "
              f"scale={data['scale']}, {data['clusters']} clusters, "
              f"{data['cpus']} cpu(s))")
    cache = data["cache"]
    return (table + "\n\n"
            f"warm-cache skip ratio: {cache['warm_skip_ratio']:.0%} "
            f"({cache['warm_hits']}/{cache['clusters']} clusters)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure real multiprocess speedup and cache hit rate")
    parser.add_argument("--program", default=LARGEST,
                        help=f"corpus program name (default {LARGEST}, "
                             "the largest)")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="program size fraction (default 0.02)")
    parser.add_argument("--jobs", type=str, default="2,4",
                        help="comma-separated worker counts (default 2,4)")
    parser.add_argument("--scheduler", choices=["greedy", "lpt"],
                        default="lpt")
    parser.add_argument("--out", default="BENCH_parallel.json",
                        help="output JSON path (default BENCH_parallel.json)")
    parser.add_argument("--gate", metavar="BASELINE",
                        help="compare against a baseline BENCH_parallel.json "
                             "and exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional drift below the baseline "
                             "ratios (default 0.2)")
    args = parser.parse_args(argv)
    jobs_list = [int(j) for j in args.jobs.split(",") if j]
    data = run_parallel_bench(name=args.program, scale=args.scale,
                              jobs_list=jobs_list, scheduler=args.scheduler,
                              verbose=True)
    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render(data))
    print(f"\nwritten to {args.out}")
    if args.gate:
        with open(args.gate) as handle:
            baseline = json.load(handle)
        failures = check_gate(data, baseline, tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"GATE FAIL: {failure}", file=sys.stderr)
            return 1
        print("perf gate: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
