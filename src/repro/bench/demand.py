"""Demand-engine benchmark: leak and deadlock clients vs whole-program.

Two sections, both written to ``BENCH_demand.json``:

* **savings** — one mid-sized synthetic program with seeded allocation
  webs and lock pairs.  Each checker runs twice: through the shared
  demand engine (seed pointers -> minimal cluster selection -> sliced
  FSCI -> widening) and with ``whole_program=True`` (every pointer
  seeded, every cluster selected — what a checker without demand
  scoping would pay).  Findings must be identical, both must match the
  generator's ground truth, and the demand side must select at least
  ``MIN_REDUCTION``x fewer clusters.
* **oracle** — a corpus of small synthetic programs whose paths the
  concrete executor can enumerate *exhaustively*.  The heap-lifetime
  oracle's must-leaks and the lock oracle's realizable cycles are
  ground truth the static clients must cover with **zero false
  negatives** (the static side may over-approximate, never under-).

Exit status 1 on any violation, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from .metrics import format_table
from .synth import SynthConfig, generate

#: The demand side must select at least this many times fewer clusters.
MIN_REDUCTION = 3.0

#: Oracle-corpus seeds where exhaustive path enumeration completes
#: within the default bounds (probed; most seeds explode).
ORACLE_SEEDS = (11, 13, 2008)


def _leak_score(sp, leaked) -> Dict[str, Any]:
    expected = {f"alloc@{t['site']}" for t in sp.leak_truth if t["leaked"]}
    silent = {f"alloc@{t['site']}" for t in sp.leak_truth
              if not t["leaked"]}
    reported = {str(site) for site in leaked}
    return {
        "expected": len(expected),
        "detected": len(expected & reported),
        "missed": sorted(expected - reported),
        "silent_webs": len(silent),
        "silent_flagged": sorted(reported & silent),
    }


def _deadlock_score(sp, cycles) -> Dict[str, Any]:
    expected = {frozenset(t["locks"]) for t in sp.deadlock_truth
                if t["cycle"]}
    silent = {frozenset(t["locks"]) for t in sp.deadlock_truth
              if not t["cycle"]}
    reported = {frozenset(str(n) for n in c.nodes) for c in cycles}
    return {
        "expected": len(expected),
        "detected": len(expected & reported),
        "missed": sorted(",".join(sorted(c)) for c in expected - reported),
        "silent_pairs": len(silent),
        "silent_flagged": sorted(",".join(sorted(c))
                                 for c in reported & silent),
    }


def _mode_stats(run, seconds: float) -> Dict[str, Any]:
    st = run.stats
    return {
        "seconds": seconds,
        "findings": len(run.diagnostics),
        "rounds": run.rounds,
        "clusters_selected": st.clusters_selected,
        "clusters_total": st.clusters_total,
        "pointers_tracked": st.pointers_selected,
        "pointers_total": st.pointers_total,
    }


def _diag_keys(run) -> List[Any]:
    return sorted((d.rule_id, d.subject, str(d.loc)) for d in
                  run.diagnostics)


def run_savings(pointers: int = 240, leak_webs: int = 9,
                deadlock_pairs: int = 4, seed: int = 2008,
                repeats: int = 3) -> Dict[str, Any]:
    """Demand vs whole-program for both clients on one program."""
    from ..checkers import run_deadlocks, run_leaks
    from ..core import BootstrapAnalyzer

    sp = generate(SynthConfig(name="demand-bench", pointers=pointers,
                              leak_webs=leak_webs,
                              deadlock_pairs=deadlock_pairs, seed=seed))
    program = sp.program
    t0 = time.perf_counter()
    result = BootstrapAnalyzer(program).run()
    bootstrap_seconds = time.perf_counter() - t0

    def best_of(fn):
        times, run = [], None
        for _ in range(repeats):
            t1 = time.perf_counter()
            run = fn()
            times.append(time.perf_counter() - t1)
        return run, min(times)

    out: Dict[str, Any] = {
        "pointers": len(program.pointers),
        "leak_webs": leak_webs,
        "deadlock_pairs": deadlock_pairs,
        "repeats": repeats,
        "bootstrap_seconds": bootstrap_seconds,
        "clients": {},
    }
    clients = {
        "leaks": lambda whole: run_leaks(
            program, result=result, whole_program=whole),
        "deadlocks": lambda whole: run_deadlocks(
            program, result=result,
            thread_entries=list(sp.thread_entries), whole_program=whole),
    }
    for name, runner in clients.items():
        demand_run, demand_s = best_of(lambda: runner(False))
        whole_run, whole_s = best_of(lambda: runner(True))
        score = _leak_score(sp, demand_run.value) if name == "leaks" \
            else _deadlock_score(sp, demand_run.value.cycles)
        selected = max(1, demand_run.stats.clusters_selected)
        out["clients"][name] = {
            "demand": _mode_stats(demand_run, demand_s),
            "whole": _mode_stats(whole_run, whole_s),
            "findings_identical":
                _diag_keys(demand_run) == _diag_keys(whole_run),
            "cluster_reduction":
                whole_run.stats.clusters_selected / selected,
            "speedup": whole_s / demand_s if demand_s else 0.0,
            "ground_truth": score,
        }
    return out


def run_oracle_corpus(seeds: Sequence[int] = ORACLE_SEEDS,
                      max_steps: int = 3000,
                      max_paths: int = 6000) -> Dict[str, Any]:
    """Static leak/deadlock findings vs exhaustive concrete execution."""
    from ..analysis.oracle import execute_heap, execute_lock_orders
    from ..checkers import run_deadlocks, run_leaks
    from ..core import BootstrapAnalyzer

    # The oracle's DFS recursion depth scales with max_steps.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 40 * max_steps))
    programs = []
    for seed in seeds:
        sp = generate(SynthConfig(
            name=f"demand-oracle-{seed}", pointers=20, functions=4,
            leak_webs=6, deadlock_pairs=3, hub_fractions=(),
            recursion=False, seed=seed))
        program = sp.program
        result = BootstrapAnalyzer(program).run()
        leak_run = run_leaks(program, result=result)
        dl_run = run_deadlocks(program, result=result,
                               thread_entries=list(sp.thread_entries))
        heap_facts, heap = execute_heap(program, max_steps=max_steps,
                                        max_paths=max_paths)
        _, lock_cycles = execute_lock_orders(
            program, list(sp.thread_entries), max_steps=max_steps,
            max_paths=max_paths)
        static_leaked = {str(site) for site in leak_run.value}
        oracle_leaked = {str(site) for site in heap.must_leaked}
        static_cycles = {frozenset(str(n) for n in c.nodes)
                         for c in dl_run.value.cycles}
        oracle_cyc = {frozenset(str(o) for o in c) for c in lock_cycles}
        programs.append({
            "seed": seed,
            "paths_explored": heap_facts.paths_explored,
            "truncated": heap_facts.truncated,
            "leaks": {
                "oracle": sorted(oracle_leaked),
                "static": sorted(static_leaked),
                "false_negatives": sorted(oracle_leaked - static_leaked),
            },
            "deadlocks": {
                "oracle": sorted(",".join(sorted(c)) for c in oracle_cyc),
                "static": sorted(",".join(sorted(c))
                                 for c in static_cycles),
                "false_negatives": sorted(
                    ",".join(sorted(c)) for c in oracle_cyc
                    - static_cycles),
            },
        })
    return {
        "seeds": list(seeds),
        "max_steps": max_steps,
        "max_paths": max_paths,
        "programs": programs,
        "leak_false_negatives": sum(
            len(p["leaks"]["false_negatives"]) for p in programs),
        "deadlock_false_negatives": sum(
            len(p["deadlocks"]["false_negatives"]) for p in programs),
        "truncated": any(p["truncated"] for p in programs),
    }


def violations(data: Dict[str, Any]) -> List[str]:
    """Human-readable acceptance failures (empty = all good)."""
    out = []
    for name, client in data["savings"]["clients"].items():
        if not client["findings_identical"]:
            out.append(f"{name}: demand and whole-program findings differ")
        if client["cluster_reduction"] < MIN_REDUCTION:
            out.append(f"{name}: cluster reduction "
                       f"{client['cluster_reduction']:.1f}x "
                       f"< {MIN_REDUCTION:.0f}x")
        truth = client["ground_truth"]
        if truth["missed"] or truth["silent_flagged"]:
            out.append(f"{name}: ground truth violated "
                       f"(missed {truth['missed']}, "
                       f"flagged {truth['silent_flagged']})")
    oracle = data["oracle"]
    if oracle["truncated"]:
        out.append("oracle: path enumeration truncated (not exhaustive)")
    if oracle["leak_false_negatives"]:
        out.append(f"oracle: {oracle['leak_false_negatives']} leak "
                   "false negative(s)")
    if oracle["deadlock_false_negatives"]:
        out.append(f"oracle: {oracle['deadlock_false_negatives']} "
                   "deadlock false negative(s)")
    return out


def render(data: Dict[str, Any]) -> str:
    savings = data["savings"]
    rows = []
    for name, client in savings["clients"].items():
        for mode in ("demand", "whole"):
            st = client[mode]
            rows.append([
                f"{name}/{mode}",
                f"{st['seconds'] * 1000:.1f}",
                f"{st['clusters_selected']}/{st['clusters_total']}",
                str(st["findings"]),
            ])
    table = format_table(
        ["client/mode", "time (ms)", "clusters", "findings"], rows,
        title=f"Demand engine ({savings['pointers']} pointers, "
              f"{savings['leak_webs']} allocation webs, "
              f"{savings['deadlock_pairs']} lock pairs)")
    lines = [table, ""]
    for name, client in savings["clients"].items():
        truth = client["ground_truth"]
        lines.append(
            f"{name}: {client['cluster_reduction']:.1f}x fewer clusters, "
            f"{client['speedup']:.1f}x faster; findings identical: "
            f"{client['findings_identical']}; ground truth "
            f"{truth['detected']}/{truth['expected']} detected")
    oracle = data["oracle"]
    lines.append(
        f"oracle corpus ({len(oracle['programs'])} programs, exhaustive: "
        f"{not oracle['truncated']}): "
        f"{oracle['leak_false_negatives']} leak FN, "
        f"{oracle['deadlock_false_negatives']} deadlock FN")
    return "\n".join(lines)


def run_demand_bench(pointers: int = 240, leak_webs: int = 9,
                     deadlock_pairs: int = 4, seed: int = 2008,
                     repeats: int = 3) -> Dict[str, Any]:
    return {
        "savings": run_savings(pointers=pointers, leak_webs=leak_webs,
                               deadlock_pairs=deadlock_pairs, seed=seed,
                               repeats=repeats),
        "oracle": run_oracle_corpus(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the demand engine's leak and deadlock "
                    "clients against whole-program analysis and "
                    "concrete-execution oracles")
    parser.add_argument("--pointers", type=int, default=240,
                        help="savings-program size (default 240)")
    parser.add_argument("--leak-webs", type=int, default=9)
    parser.add_argument("--deadlock-pairs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--out", default="BENCH_demand.json",
                        help="output JSON path (default BENCH_demand.json)")
    args = parser.parse_args(argv)
    data = run_demand_bench(pointers=args.pointers,
                            leak_webs=args.leak_webs,
                            deadlock_pairs=args.deadlock_pairs,
                            seed=args.seed, repeats=args.repeats)
    problems = violations(data)
    data["violations"] = problems
    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render(data))
    print(f"\nwritten to {args.out}")
    if problems:
        for problem in problems:
            print(f"VIOLATION: {problem}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
