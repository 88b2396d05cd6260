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
* **payload** — total serialized bytes of every bootstrap cluster
  payload (interned wire format, version 2).

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
from typing import Any, Dict, Optional, Sequence

from ..analysis import FSCI, Andersen
from ..analysis.reference import ReferenceAndersen, ReferenceFSCI
from ..core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from ..core.shipping import build_payload
from ..ir import CallGraph
from .corpus import PAPER_TABLE1, build
from .metrics import format_table

#: Largest corpus program by the paper's pointer count (sendmail).
LARGEST = max(PAPER_TABLE1, key=lambda r: r.pointers).name

#: The PR's acceptance floor for the cold whole-program solve.
TARGET_SPEEDUP = 5.0


def _payload_bytes(payload: Dict[str, Any]) -> int:
    return len(json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8"))


def run_kernel_bench(name: str = LARGEST, scale: float = 0.008,
                     threshold: Optional[int] = None,
                     skip_payload: bool = False,
                     verbose: bool = False) -> Dict[str, Any]:
    """Measure kernel vs reference solver stages; JSON-safe result."""
    program = build(name, scale=scale).program
    if threshold is None:
        threshold = max(6, int(60 * scale))
    if verbose:
        print(f"  [{name}] scale={scale}: {len(program.pointers)} pointers, "
              f"{len(program.objects)} objects", file=sys.stderr)

    stages: Dict[str, Dict[str, Any]] = {}

    t0 = time.perf_counter()
    a_kernel = Andersen(program).run()
    t_ak = time.perf_counter() - t0
    t0 = time.perf_counter()
    a_ref = ReferenceAndersen(program).run()
    t_ar = time.perf_counter() - t0
    identical = all(a_kernel.points_to(p) == a_ref.points_to(p)
                    for p in program.pointers)
    stages["andersen"] = {
        "kernel_time": t_ak, "reference_time": t_ar,
        "speedup": t_ar / t_ak if t_ak else 0.0,
        "identical": identical,
    }
    if verbose:
        print(f"  andersen: kernel {t_ak:.2f}s vs reference {t_ar:.2f}s "
              f"({stages['andersen']['speedup']:.2f}x, "
              f"identical={identical})", file=sys.stderr)

    t0 = time.perf_counter()
    f_kernel = FSCI(program).run()
    t_fk = time.perf_counter() - t0
    t0 = time.perf_counter()
    f_ref = ReferenceFSCI(program).run()
    t_fr = time.perf_counter() - t0
    identical = (f_kernel.iterations == f_ref.iterations
                 and all(f_kernel.points_to(p) == f_ref.points_to(p)
                         for p in program.pointers))
    stages["fsci"] = {
        "kernel_time": t_fk, "reference_time": t_fr,
        "speedup": t_fr / t_fk if t_fk else 0.0,
        "iterations": f_kernel.iterations,
        "identical": identical,
    }
    if verbose:
        print(f"  fsci: kernel {t_fk:.2f}s vs reference {t_fr:.2f}s "
              f"({stages['fsci']['speedup']:.2f}x, "
              f"identical={identical})", file=sys.stderr)

    cold = {
        "kernel_time": t_ak + t_fk,
        "reference_time": t_ar + t_fr,
        "speedup": (t_ar + t_fr) / (t_ak + t_fk) if t_ak + t_fk else 0.0,
        "target_speedup": TARGET_SPEEDUP,
    }

    payload: Dict[str, Any] = {"skipped": True}
    if not skip_payload:
        config = BootstrapConfig(
            cascade=CascadeConfig(andersen_threshold=threshold))
        boot = BootstrapAnalyzer(program, config).run()
        callgraph = CallGraph(program)
        cache: Dict[Any, Any] = {}
        v2 = sum(_payload_bytes(build_payload(
            program, cluster, callgraph=callgraph, subprogram_cache=cache))
            for cluster in boot.clusters)
        payload = {"clusters": len(boot.clusters), "v2_bytes": v2}
        if verbose:
            print(f"  payload: v2 {v2} B", file=sys.stderr)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    return {"program": name, "scale": scale,
            "pointers": len(program.pointers),
            "objects": len(program.objects),
            "cpus": cpus, "stages": stages, "cold": cold,
            "payload": payload}


def check_gate(current: Dict[str, Any], baseline: Dict[str, Any],
               tolerance: float = 0.2) -> Sequence[str]:
    """Failures of the soft perf gate, empty when the run is healthy.

    The gate is relative: the kernel/reference time *ratio* must not
    grow more than ``tolerance`` beyond the baseline's, and every stage
    must still produce results identical to the reference solver.
    """
    failures = []
    for key in ("andersen", "fsci"):
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
    for key in ("andersen", "fsci"):
        s = data["stages"][key]
        rows.append([key, f"{s['kernel_time']:.2f}",
                     f"{s['reference_time']:.2f}", f"{s['speedup']:.2f}x",
                     "yes" if s["identical"] else "NO"])
    cold = data["cold"]
    rows.append(["cold solve", f"{cold['kernel_time']:.2f}",
                 f"{cold['reference_time']:.2f}",
                 f"{cold['speedup']:.2f}x", ""])
    table = format_table(
        ["stage", "kernel (s)", "reference (s)", "speedup", "identical"],
        rows,
        title=f"Solver kernels ({data['program']}, scale={data['scale']}, "
              f"{data['pointers']} pointers, {data['cpus']} cpu(s))")
    payload = data["payload"]
    if payload.get("skipped"):
        return table
    return (table + "\n\n"
            f"payload: v2 interned {payload['v2_bytes']} B "
            f"({payload['clusters']} clusters)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Profile bitmask solver kernels against the "
                    "frozenset reference solvers")
    parser.add_argument("--program", default=LARGEST,
                        help=f"corpus program name (default {LARGEST}, "
                             "the largest)")
    parser.add_argument("--scale", type=float, default=0.008,
                        help="program size fraction (default 0.008)")
    parser.add_argument("--skip-payload", action="store_true",
                        help="skip the payload-size stage (faster)")
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
                            skip_payload=args.skip_payload, verbose=True)
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
