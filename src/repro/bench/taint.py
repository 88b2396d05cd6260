"""Taint-analysis benchmark: demand-scoped vs. whole-program propagation.

The taint checker rides the paper's bootstrapped cascade: the engine
only needs alias facts for pointers taint actually moves through, so the
demand loop selects those pointers' clusters and runs one *sliced* FSCI
over their union instead of tracking every pointer in the program.  This
harness quantifies the saving on a synthetic corpus with seeded
source->sink webs (``SynthConfig.taint_webs``):

* **demand**: :func:`repro.checkers.run_taint` — the shipping
  configuration (demand loop + sliced FSCI resolver);
* **whole**: the same engine with *every* cluster selected and every
  pointer tracked — what a checker without cluster selection would pay.

Both modes must report exactly the same flows (the demand loop is an
optimization, not an approximation), and both are scored against the
generator's ground truth: every unsanitized web must be reported,
every sanitized web must stay silent.

Results go to ``BENCH_taint.json`` so CI can archive them next to
``BENCH_parallel.json`` and ``BENCH_server.json``.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Set

from .metrics import format_table
from .synth import SynthConfig, SynthProgram, generate


def _ground_truth_score(sp: SynthProgram,
                        sink_functions: Set[str]) -> Dict[str, Any]:
    expected = {t["sink_function"] for t in sp.taint_truth
                if not t["sanitized"]}
    sanitized = {t["sink_function"] for t in sp.taint_truth
                 if t["sanitized"]}
    return {
        "expected": len(expected),
        "detected": len(expected & sink_functions),
        "missed": sorted(expected - sink_functions),
        "sanitized_webs": len(sanitized),
        "sanitized_leaks": sorted(sink_functions & sanitized),
    }


def _whole_program_run(program, spec, result):
    """One engine run with every cluster selected and every pointer
    tracked: the no-demand baseline."""
    from ..analysis.taint import TaintEngine
    from ..checkers.base import CheckerContext
    from ..checkers.taint import _make_resolver

    ctx = CheckerContext(program, result)
    fsci, selection = ctx.engine.sliced_fsci(program.pointers)
    tracked = set(program.pointers)
    for cluster in selection.selected:
        tracked |= cluster.slice.vp
    engine = TaintEngine(program, spec, _make_resolver(fsci, tracked),
                         callgraph=result.callgraph)
    return engine.run(), selection


def run_taint_bench(pointers: int = 160, taint_webs: int = 8,
                    seed: int = 2008, repeats: int = 3) -> Dict[str, Any]:
    """Measure both modes on one synthetic program; returns a JSON-safe
    result dict."""
    from ..analysis.taint import TaintSpec
    from ..checkers import run_taint
    from ..core import BootstrapAnalyzer

    sp = generate(SynthConfig(name="taint-bench", pointers=pointers,
                              taint_webs=taint_webs, seed=seed))
    program = sp.program
    spec = TaintSpec.default()

    t0 = time.perf_counter()
    result = BootstrapAnalyzer(program).run()
    bootstrap_seconds = time.perf_counter() - t0

    demand_times: List[float] = []
    for _ in range(repeats):
        t1 = time.perf_counter()
        demand_run = run_taint(program, spec=spec, result=result)
        demand_times.append(time.perf_counter() - t1)

    whole_times: List[float] = []
    for _ in range(repeats):
        t2 = time.perf_counter()
        whole_report, whole_selection = _whole_program_run(
            program, spec, result)
        whole_times.append(time.perf_counter() - t2)

    demand_keys = sorted(f.key() for f in demand_run.value.flows)
    whole_keys = sorted(f.key() for f in whole_report.flows)
    demand_seconds = min(demand_times)
    whole_seconds = min(whole_times)
    stats = demand_run.stats
    return {
        "pointers": len(program.pointers),
        "taint_webs": taint_webs,
        "repeats": repeats,
        "bootstrap_seconds": bootstrap_seconds,
        "demand": {
            "seconds": demand_seconds,
            "flows": len(demand_keys),
            "rounds": demand_run.rounds,
            "clusters_selected": stats.clusters_selected,
            "clusters_total": stats.clusters_total,
            "pointers_tracked": stats.pointers_selected,
            "pointers_total": stats.pointers_total,
        },
        "whole": {
            "seconds": whole_seconds,
            "flows": len(whole_keys),
            "clusters_selected": len(whole_selection.selected),
        },
        "flows_identical": demand_keys == whole_keys,
        "speedup": (whole_seconds / demand_seconds
                    if demand_seconds else 0.0),
        "ground_truth": _ground_truth_score(
            sp, {f.sink_loc.function for f in demand_run.value.flows}),
    }


def render(data: Dict[str, Any]) -> str:
    demand, whole = data["demand"], data["whole"]
    rows = [
        ["demand-scoped",
         f"{demand['seconds'] * 1000:.1f}",
         f"{demand['clusters_selected']}/{demand['clusters_total']}",
         str(demand["flows"])],
        ["whole-program",
         f"{whole['seconds'] * 1000:.1f}",
         f"{whole['clusters_selected']}/{demand['clusters_total']}",
         str(whole["flows"])],
    ]
    table = format_table(
        ["mode", "time (ms)", "clusters", "flows"], rows,
        title=f"Taint propagation ({data['pointers']} pointers, "
              f"{data['taint_webs']} seeded webs)")
    truth = data["ground_truth"]
    return (table + "\n\n"
            f"demand loop: {demand['rounds']} round(s), tracked "
            f"{demand['pointers_tracked']}/{demand['pointers_total']} "
            f"pointers; {data['speedup']:.1f}x vs whole-program; "
            f"flows identical: {data['flows_identical']}; ground truth "
            f"{truth['detected']}/{truth['expected']} detected, "
            f"{len(truth['sanitized_leaks'])} sanitized leak(s)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare demand-scoped vs whole-program taint "
                    "propagation on a synthetic corpus")
    parser.add_argument("--pointers", type=int, default=160,
                        help="synthetic program size (default 160)")
    parser.add_argument("--webs", type=int, default=8,
                        help="seeded taint webs (default 8)")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--out", default="BENCH_taint.json",
                        help="output JSON path (default BENCH_taint.json)")
    args = parser.parse_args(argv)
    data = run_taint_bench(pointers=args.pointers, taint_webs=args.webs,
                           seed=args.seed, repeats=args.repeats)
    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render(data))
    print(f"\nwritten to {args.out}")
    if not data["flows_identical"] or data["ground_truth"]["missed"] \
            or data["ground_truth"]["sanitized_leaks"]:
        print("MISMATCH: demand/whole disagree or ground truth violated")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
