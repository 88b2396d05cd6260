"""Resilience benchmark: policy overhead, recovery latency, soundness.

The fault-tolerance layer (:mod:`repro.core.resilience`) must be close
to free when nothing fails and sound when everything does.  This harness
measures both on a corpus program with the real ``processes`` backend:

* **overhead** — wall-clock of a clean run with the full
  :class:`~repro.core.resilience.RunPolicy` (timeout + retries +
  degradation armed) over a clean run with the default policy, best of
  ``--repeats`` runs each.  The acceptance bar is <5%.
* **recovery** — the same run with ``crash``/``hang``/``corrupt`` faults
  injected into three clusters: wall-clock, recovery latency (time the
  faulted run spends beyond the clean policy run), and which clusters
  degraded to which precision level.
* **soundness** — every degraded points-to set must be a superset of the
  clean run's set for the same cluster (Theorems 2/7: each rung of the
  cascade over-approximates the one above).

Results go to ``BENCH_resilience.json`` so CI can archive them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, Optional, Sequence

from ..core import BootstrapAnalyzer, BootstrapConfig, CascadeConfig
from ..core.faults import FaultSpec
from ..core.resilience import RunPolicy
from .corpus import PAPER_TABLE1, build
from .metrics import format_table

#: Largest corpus program by the paper's pointer count (sendmail).
LARGEST = max(PAPER_TABLE1, key=lambda r: r.pointers).name

#: The armed-but-unused policy for the overhead measurement: a generous
#: timeout that never fires on a healthy cluster, plus retries and
#: degradation ready to go.
ARMED_POLICY = RunPolicy(cluster_timeout=60.0, retries=2, degrade=True)

#: Faults for the recovery measurement: one cluster crashes its worker,
#: one hangs past the timeout (bounded so an abandoned worker still
#: exits), one returns garbage.
RECOVERY_FAULTS = (FaultSpec(kind="crash", match="#0"),
                   FaultSpec(kind="hang", match="#1", duration=4.0),
                   FaultSpec(kind="corrupt", match="#2"))


def _superset_ok(clean: Dict[str, Any], degraded: Dict[str, Any]) -> bool:
    """Degraded points-to must cover the clean points-to, pointerwise."""
    clean_pts = clean.get("points_to", {})
    degraded_pts = degraded.get("points_to", {})
    return all(set(clean_pts[name]) <= set(degraded_pts.get(name, []))
               for name in clean_pts)


def run_resilience_bench(name: str = LARGEST, scale: float = 0.006,
                         jobs: int = 2, repeats: int = 2,
                         threshold: Optional[int] = None,
                         verbose: bool = False) -> Dict[str, Any]:
    """Measure policy overhead and fault recovery; JSON-safe result."""
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

    boot = fresh()
    n_clusters = len(boot.clusters)
    if n_clusters < 3:
        raise SystemExit(f"resilience bench needs >=3 clusters, "
                         f"{name}@{scale} has {n_clusters}")
    if verbose:
        print(f"  [{name}] scale={scale}: {len(program.pointers)} "
              f"pointers, {n_clusters} clusters", file=sys.stderr)

    def timed(**kw):
        # The whole call a caller waits for.
        result = fresh()
        t0 = time.perf_counter()
        report = result.analyze_all(backend="processes", jobs=jobs, **kw)
        return report, time.perf_counter() - t0

    def best_of(policy):
        walls = []
        for _ in range(max(1, repeats)):
            report, wall = timed(policy=policy)
            walls.append(wall)
        return min(walls), report

    base_wall, _ = best_of(None)
    armed_wall, clean_report = best_of(ARMED_POLICY)
    overhead = (armed_wall - base_wall) / base_wall if base_wall else 0.0
    if verbose:
        print(f"  clean: {base_wall:.2f}s default policy, "
              f"{armed_wall:.2f}s armed ({overhead:+.1%})",
              file=sys.stderr)

    fault_policy = RunPolicy(cluster_timeout=2.0, retries=1, degrade=True)
    faulted, faulted_wall = timed(policy=fault_policy,
                                  faults=RECOVERY_FAULTS)
    degraded = faulted.degraded
    sound = all(_superset_ok(clean_report.results[i], faulted.results[i])
                for i in degraded)
    recovery_latency = max(0.0, faulted_wall - armed_wall)
    if verbose:
        print(f"  faulted: {faulted_wall:.2f}s wall, "
              f"{len(degraded)} degraded "
              f"({', '.join(f'#{i}: {lvl}' for i, lvl in sorted(degraded.items()))}), "
              f"sound={sound}", file=sys.stderr)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    return {
        "program": name, "scale": scale, "jobs": jobs, "repeats": repeats,
        "pointers": len(program.pointers), "clusters": n_clusters,
        "cpus": cpus,
        "overhead": {
            "base_wall_time": base_wall,
            "armed_wall_time": armed_wall,
            "overhead_fraction": overhead,
            "within_budget": overhead < 0.05,
        },
        "recovery": {
            "faults": [f.to_dict() for f in RECOVERY_FAULTS],
            "cluster_timeout": fault_policy.cluster_timeout,
            "wall_time": faulted_wall,
            "recovery_latency": recovery_latency,
            "degraded": {str(i): lvl for i, lvl in sorted(degraded.items())},
            "attempts": {str(i): n for i, n in
                         sorted(faulted.attempts.items())},
            "sound": sound,
        },
    }


def render(data: Dict[str, Any]) -> str:
    ov, rec = data["overhead"], data["recovery"]
    rows = [
        ["clean (default policy)", f"{ov['base_wall_time']:.2f}", "-", "-"],
        ["clean (armed policy)", f"{ov['armed_wall_time']:.2f}",
         f"{ov['overhead_fraction']:+.1%}", "-"],
        ["faulted (3 clusters)", f"{rec['wall_time']:.2f}",
         f"+{rec['recovery_latency']:.2f}s",
         ", ".join(f"#{i}: {lvl}" for i, lvl in rec["degraded"].items())
         or "none"],
    ]
    table = format_table(
        ["run", "wall (s)", "delta", "degraded"], rows,
        title=f"Resilience ({data['program']}, scale={data['scale']}, "
              f"{data['clusters']} clusters, {data['cpus']} cpu(s))")
    return (table + "\n\n"
            f"policy overhead: {ov['overhead_fraction']:+.1%} "
            f"(budget <5%: {'ok' if ov['within_budget'] else 'EXCEEDED'}); "
            f"degraded supersets sound: "
            f"{'yes' if rec['sound'] else 'NO'}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure resilience-policy overhead and fault "
                    "recovery on the processes backend")
    parser.add_argument("--program", default=LARGEST,
                        help=f"corpus program name (default {LARGEST}, "
                             "the largest)")
    parser.add_argument("--scale", type=float, default=0.006,
                        help="program size fraction (default 0.006)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count (default 2)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="clean runs per configuration, best kept "
                             "(default 2)")
    parser.add_argument("--out", default="BENCH_resilience.json",
                        help="output JSON path "
                             "(default BENCH_resilience.json)")
    args = parser.parse_args(argv)
    data = run_resilience_bench(name=args.program, scale=args.scale,
                                jobs=args.jobs, repeats=args.repeats,
                                verbose=True)
    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render(data))
    print(f"\nwritten to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
