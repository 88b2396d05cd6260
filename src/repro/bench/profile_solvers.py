"""Solver-kernel benchmark: bitmask kernels vs frozenset reference.

The Andersen worklist and the FSCI transfer functions run on int-bitmask
kernels (:mod:`repro.analysis.kernel`); the original frozenset solvers
survive as the differential oracle in :mod:`repro.analysis.reference`.
This harness proves the speedup is real and keeps it from rotting:

* **andersen** — cold inclusion-based solve of the whole program,
  kernel vs reference solver, results compared pointer-for-pointer.
* **fsci** — cold whole-program flow-sensitive solve (the expensive
  stage; per-location abstract states are where masks beat frozensets),
  kernel vs reference, identical iteration counts and points-to
  summaries required.
* **summaries** — the FSCS summary engine (Algorithms 4–5) on every
  cluster of the program's bootstrap cascade, kernel vs reference on
  the same FSCI results, every exit summary compared.  It is not part
  of **cold**, whose floor covers Andersen and FSCI.
* **sliced_fsci** — every cluster's sliced FSCI of the same cascade
  (its ``V_P``, ``St_P`` and the functions that can reach the slice),
  the dense-id engine vs the reference engine, identical answers at
  every location and identical iteration counts required.  This is
  the bootstrapped regime of many small solves, where the dense node
  ids pay off; the whole-program **fsci** stage barely shows them.
  Not part of **cold** either.

The **andersen** and **fsci** stages run :data:`COLD_REPEATS` times,
kernel and reference interleaved, and **cold** (with those two stages)
reports the repeat whose kernel/reference ratio is the median, so one
slow solve on a busy host does not decide the gate.

Results go to ``BENCH_kernel.json``.  ``--gate`` re-runs the solver
stages and fails if the kernel's *relative* cost regressed more than
``--tolerance`` (default 20%) against the checked-in baseline.  The
gate compares ``kernel_time / reference_time`` ratios rather than raw
seconds: both runs share the machine, so the ratio is stable across CI
hardware while absolute wall-clock is not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from ..analysis import FSCI, Andersen, ClusterFSCS, ObjTerm, SummaryEngine
from ..analysis.fsci import slice_functions
from ..analysis.reference import (
    ReferenceAndersen,
    ReferenceFSCI,
    ReferenceSummaryEngine,
)
from ..core import (
    BootstrapAnalyzer,
    BootstrapConfig,
    BootstrapResult,
    CascadeConfig,
)
from ..ir import Loc, Program
from .corpus import PAPER_TABLE1, build
from .metrics import format_table

#: Largest corpus program by the paper's pointer count (sendmail).
LARGEST = max(PAPER_TABLE1, key=lambda r: r.pointers).name

#: The PR's acceptance floor for the cold whole-program solve.
TARGET_SPEEDUP = 5.0

#: Interleaved kernel/reference repeats behind the cold ratio.
COLD_REPEATS = 3

#: Solver stages, each timed against its reference and gated on
#: identical results.
STAGES = ("andersen", "fsci", "summaries", "sliced_fsci")


def _exit_summaries(engine_cls: type, analysis: ClusterFSCS) -> Dict:
    """Every (function, cluster pointer) exit summary of one cluster."""
    engine = engine_cls(analysis.program, fsci=analysis.fsci,
                        relevant=analysis.relevant,
                        callgraph=analysis.callgraph)
    return {(func, p): engine.exit_summary(func, ObjTerm(p))
            for func in sorted(analysis.program.functions)
            if not engine.is_transparent(func)
            for p in sorted(analysis.cluster, key=str)}


def _summaries_stage(boot: BootstrapResult) -> Dict[str, Any]:
    """Kernel vs reference summary engine over every cluster, on FSCI
    results solved beforehand and shared by both."""
    analyses = [boot.analysis_for(c) for c in boot.clusters]
    for analysis in analyses:
        analysis.fsci  # solved here, outside the timed region
    t_k = t_r = 0.0
    identical = True
    for analysis in analyses:
        t0 = time.perf_counter()
        kernel = _exit_summaries(SummaryEngine, analysis)
        t_k += time.perf_counter() - t0
        t0 = time.perf_counter()
        reference = _exit_summaries(ReferenceSummaryEngine, analysis)
        t_r += time.perf_counter() - t0
        identical = identical and kernel == reference
    return {"clusters": len(analyses),
            "kernel_time": t_k, "reference_time": t_r,
            "speedup": t_r / t_k if t_k else 0.0,
            "identical": identical}


def _fsci_answers(result: Any, program: Any, functions: Any,
                  cells: Any) -> Dict[Any, Any]:
    """One sliced FSCI's answers at every location of ``functions``:
    reachability, the after-state's cells, and each tracked cell's
    objects, UNINIT and NULL before the location."""
    out: Dict[Any, Any] = {"iterations": result.iterations}
    for name in sorted(functions):
        for idx in program.cfg_of(name).nodes():
            loc = Loc(name, idx)
            out[loc] = (result.reached_before(loc), result.cells_after(loc),
                        [(result.pts_before(loc, c),
                          result.maybe_uninit_before(loc, c),
                          result.explicit_null_before(loc, c))
                         for c in cells])
    return out


def _sliced_fsci_stage(boot: BootstrapResult) -> Dict[str, Any]:
    """Kernel vs reference FSCI on every cluster's slice, on the
    functions ``ClusterFSCS.fsci`` solves it on."""
    program, callgraph = boot.program, boot.callgraph
    t_k = t_r = 0.0
    identical = True
    iterations = 0
    for cluster in boot.clusters:
        relevant = cluster.slice.statements
        functions = slice_functions(program, callgraph, relevant)
        options = {"tracked": cluster.slice.vp, "relevant": relevant,
                   "functions": functions, "callgraph": callgraph}
        t0 = time.perf_counter()
        kernel = FSCI(program, **options).run()
        t_k += time.perf_counter() - t0
        t0 = time.perf_counter()
        reference = ReferenceFSCI(program, **options).run()
        t_r += time.perf_counter() - t0
        cells = sorted(cluster.slice.vp, key=str)
        identical = identical and (
            _fsci_answers(kernel, program, functions, cells)
            == _fsci_answers(reference, program, functions, cells))
        iterations += kernel.iterations
    return {"clusters": len(boot.clusters), "iterations": iterations,
            "kernel_time": t_k, "reference_time": t_r,
            "speedup": t_r / t_k if t_k else 0.0,
            "identical": identical}


def _cold_repeat(program: Program) -> Dict[str, Dict[str, Any]]:
    """One kernel-then-reference solve of Andersen and of whole-program
    FSCI, timed, with the answers compared."""
    t0 = time.perf_counter()
    a_kernel = Andersen(program).run()
    t_ak = time.perf_counter() - t0
    t0 = time.perf_counter()
    a_ref = ReferenceAndersen(program).run()
    t_ar = time.perf_counter() - t0
    t0 = time.perf_counter()
    f_kernel = FSCI(program).run()
    t_fk = time.perf_counter() - t0
    t0 = time.perf_counter()
    f_ref = ReferenceFSCI(program).run()
    t_fr = time.perf_counter() - t0
    return {
        "andersen": {
            "kernel_time": t_ak, "reference_time": t_ar,
            "speedup": t_ar / t_ak if t_ak else 0.0,
            "identical": all(a_kernel.points_to(p) == a_ref.points_to(p)
                             for p in program.pointers),
        },
        "fsci": {
            "kernel_time": t_fk, "reference_time": t_fr,
            "speedup": t_fr / t_fk if t_fk else 0.0,
            "iterations": f_kernel.iterations,
            "identical": (f_kernel.iterations == f_ref.iterations
                          and all(f_kernel.points_to(p) == f_ref.points_to(p)
                                  for p in program.pointers)),
        },
        "cold": {
            "kernel_time": t_ak + t_fk,
            "reference_time": t_ar + t_fr,
            "speedup": (t_ar + t_fr) / (t_ak + t_fk) if t_ak + t_fk
            else 0.0,
        },
    }


def run_kernel_bench(name: str = LARGEST, scale: float = 0.008,
                     threshold: Optional[int] = None,
                     verbose: bool = False) -> Dict[str, Any]:
    """Measure kernel vs reference solver stages; JSON-safe result."""
    program = build(name, scale=scale).program
    if threshold is None:
        threshold = max(6, int(60 * scale))
    if verbose:
        print(f"  [{name}] scale={scale}: {len(program.pointers)} pointers, "
              f"{len(program.objects)} objects", file=sys.stderr)

    repeats: List[Dict[str, Dict[str, Any]]] = []
    for _ in range(COLD_REPEATS):
        repeats.append(_cold_repeat(program))
        if verbose:
            r = repeats[-1]
            print(f"  andersen: kernel {r['andersen']['kernel_time']:.2f}s "
                  f"vs reference {r['andersen']['reference_time']:.2f}s; "
                  f"fsci: kernel {r['fsci']['kernel_time']:.2f}s vs "
                  f"reference {r['fsci']['reference_time']:.2f}s "
                  f"(cold {r['cold']['speedup']:.2f}x)", file=sys.stderr)
    ranked = sorted(repeats, key=lambda r: r["cold"]["speedup"])
    median = ranked[len(ranked) // 2]
    stages: Dict[str, Dict[str, Any]] = {
        key: dict(median[key],
                  identical=all(r[key]["identical"] for r in repeats))
        for key in ("andersen", "fsci")}
    cold = dict(median["cold"], target_speedup=TARGET_SPEEDUP,
                repeats=COLD_REPEATS,
                speedups=[r["cold"]["speedup"] for r in repeats])

    config = BootstrapConfig(
        cascade=CascadeConfig(andersen_threshold=threshold))
    boot = BootstrapAnalyzer(program, config).run()
    stages["summaries"] = _summaries_stage(boot)
    if verbose:
        s = stages["summaries"]
        print(f"  summaries: kernel {s['kernel_time']:.2f}s vs reference "
              f"{s['reference_time']:.2f}s ({s['speedup']:.2f}x over "
              f"{s['clusters']} clusters, identical={s['identical']})",
              file=sys.stderr)

    stages["sliced_fsci"] = _sliced_fsci_stage(boot)
    if verbose:
        s = stages["sliced_fsci"]
        print(f"  sliced_fsci: kernel {s['kernel_time']:.2f}s vs reference "
              f"{s['reference_time']:.2f}s ({s['speedup']:.2f}x over "
              f"{s['clusters']} clusters, {s['iterations']} iterations, "
              f"identical={s['identical']})", file=sys.stderr)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    return {"program": name, "scale": scale,
            "pointers": len(program.pointers),
            "objects": len(program.objects),
            "cpus": cpus, "stages": stages, "cold": cold}


def check_gate(current: Dict[str, Any], baseline: Dict[str, Any],
               tolerance: float = 0.2) -> Sequence[str]:
    """Failures of the soft perf gate, empty when the run is healthy.

    The gate is relative: the kernel/reference time *ratio* must not
    grow more than ``tolerance`` beyond the baseline's, and every stage
    must still produce results identical to the reference solver.
    """
    failures = []
    for key in STAGES:
        stage = current["stages"].get(key, {})
        if not stage.get("identical", False):
            failures.append(f"{key}: kernel and reference results differ")
    cur, base = current["cold"], baseline["cold"]
    cur_ratio = cur["kernel_time"] / cur["reference_time"]
    base_ratio = base["kernel_time"] / base["reference_time"]
    if cur_ratio > base_ratio * (1.0 + tolerance):
        failures.append(
            f"cold solver cost regressed: kernel/reference ratio "
            f"{cur_ratio:.3f} vs baseline {base_ratio:.3f} "
            f"(+{(cur_ratio / base_ratio - 1.0):.0%}, "
            f"tolerance {tolerance:.0%})")
    if cur["speedup"] < TARGET_SPEEDUP:
        failures.append(
            f"cold solver speedup {cur['speedup']:.2f}x is below the "
            f"{TARGET_SPEEDUP:.0f}x floor")
    return failures


def render(data: Dict[str, Any]) -> str:
    rows = []
    for key in STAGES:
        s = data["stages"][key]
        rows.append([key, f"{s['kernel_time']:.2f}",
                     f"{s['reference_time']:.2f}", f"{s['speedup']:.2f}x",
                     "yes" if s["identical"] else "NO"])
    cold = data["cold"]
    rows.append(["cold solve", f"{cold['kernel_time']:.2f}",
                 f"{cold['reference_time']:.2f}",
                 f"{cold['speedup']:.2f}x", ""])
    return format_table(
        ["stage", "kernel (s)", "reference (s)", "speedup", "identical"],
        rows,
        title=f"Solver kernels ({data['program']}, scale={data['scale']}, "
              f"{data['pointers']} pointers, {data['cpus']} cpu(s))")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Profile bitmask solver kernels against the "
                    "frozenset reference solvers")
    parser.add_argument("--program", default=LARGEST,
                        help=f"corpus program name (default {LARGEST}, "
                             "the largest)")
    parser.add_argument("--scale", type=float, default=0.008,
                        help="program size fraction (default 0.008)")
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="output JSON path (default BENCH_kernel.json)")
    parser.add_argument("--gate", metavar="BASELINE", default=None,
                        help="compare against a checked-in baseline JSON; "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="gate tolerance on the kernel/reference time "
                             "ratio (default 0.2 = 20%%)")
    args = parser.parse_args(argv)
    data = run_kernel_bench(name=args.program, scale=args.scale,
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
            for f in failures:
                print(f"GATE FAIL: {f}", file=sys.stderr)
            return 1
        print("perf gate: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
