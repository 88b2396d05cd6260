#!/usr/bin/env python3
"""The repository benchmark: Table-1 corpus passes and daemon traffic.

    python3 perfbench/run.py --workload corpus_processes --seed 1 --seconds 30
    python3 perfbench/run.py --workload daemon_edit --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1   # every workload

Each workload runs in this (fresh) interpreter: set-up, then a fixed
number of passes derived from ``--seconds``, with every answer checked
against ``expected.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  The line before it records the
host, the inputs and the sample counts.  Exit status is 0 only when
every answer matched.  See README.md in this directory.
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
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("corpus_cold", "corpus_processes", "daemon_edit")
#: End-to-end metrics, printed for every workload, with their units.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s"),
              ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("ok_ratio", "1")]
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: A pass takes about this long on the 2-CPU host the benchmark was
#: tuned on: a whole corpus, or one batch of daemon edits.  The window
#: is as many passes as fit into ``--seconds`` at this pace, so that
#: every statistic is over the same number of samples however fast the
#: program is.
NOMINAL_PASS_S = {"corpus": 6.5, "daemon": 1.0}
#: The tail is the highest of these percentiles with at least ten
#: samples beyond it (the maximum when no percentile has).
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TRACED_PASSES = 2


class Tally:
    """Attempted and failed ops (answer checks) of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the latency tail."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10:
            return q, ordered[min(n - 1, int(q / 100.0 * n))]
    return 100.0, ordered[-1]


def setup_reps(args: argparse.Namespace) -> int:
    return 2 if args.tiny else SETUP_REPS


def window_passes(args: argparse.Namespace, family: str) -> int:
    return max(2, int(args.seconds / NOMINAL_PASS_S[family]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup: List[float], rss: float, walls: List[float],
               latencies: Sequence[float], ops: int
               ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Every end-to-end metric but ``ok_ratio``, which waits for the
    last answer check."""
    q, value = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "pass_s": statistics.median(walls),
        "ops_per_s": ops / sum(walls),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * value,
    }
    facts = {"passes": len(walls), "ops": ops,
             "latency_samples": len(latencies), "tail_percentile": q,
             "untraced_wall_s": sum(walls), "setup_runs_s": setup}
    return metrics, facts


# ----------------------------------------------------------------------
def run_corpus(args: argparse.Namespace, expected: Dict[str, Any],
               backend: str) -> Tuple[Dict[str, float], Dict[str, Any],
                                      Tally]:
    from tracing import WORK_COUNTS, Tracer
    from workloads import Corpus

    corpus = Corpus(backend, args.tiny)
    exp = expected["corpus"]
    tally = Tally()

    def checked_pass(programs: List, tracer: Any = None) -> Tuple:
        """One pass, every answer checked against its digest."""
        wall, out = corpus.run_pass(programs, tracer)
        tally.add(len(out), sum(Corpus.answer(report) != exp["answers"]
                                .get(name) for name, _, report in out))
        return wall, out

    # A set-up generates the stand-ins and runs one whole warm-up pass
    # over them and the hand-written sources.
    setup: List[float] = []
    pins: Dict[str, str] = {}
    for _ in range(setup_reps(args)):
        gc.collect()
        t0 = time.perf_counter()
        programs = corpus.build_inputs()
        checked_pass(programs)
        setup.append(time.perf_counter() - t0)
        pins = pins or corpus.input_digests(programs)
        del programs
    tally.add(len(pins), sum(pins[n] != exp["inputs"].get(n) for n in pins))
    facts: Dict[str, Any] = {}
    if args.trace:
        gc.collect()
        untraced, out = checked_pass(corpus.build_inputs())
        inputs = [corpus.build_inputs() for _ in range(TRACED_PASSES)]
        tracer = Tracer()
        tracer.install()
        traced: List[float] = []
        per_pass: List[Dict[str, float]] = []
        try:
            while inputs:
                before = dict(tracer.counts)
                out = None
                gc.collect()
                wall, out = checked_pass(inputs.pop(0), tracer)
                traced.append(wall)
                per_pass.append({k: tracer.counts.get(k, 0)
                                 - before.get(k, 0) for k in WORK_COUNTS})
        finally:
            tracer.uninstall()
        repeat = all(p == per_pass[0] for p in per_pass)
        tally.add(1, not repeat)
        metrics = tracer.metrics(traced, [untraced])
        facts.update(traced_wall_s=sum(traced), untraced_wall_s=untraced,
                     work_counts=per_pass[0], work_counts_repeat=repeat,
                     spans=len(tracer.spans))
        tracer.write(str(args.spans))
        facts["span_file"] = str(args.spans)
    else:
        walls: List[float] = []
        out = None
        for _ in range(window_passes(args, "corpus")):
            programs = corpus.build_inputs()
            out = None  # no earlier pass stays alive during the next
            gc.collect()
            wall, out = checked_pass(programs)
            del programs
            walls.append(wall)
        # One measurement per pass: the latencies are the pass times.
        metrics, more = end_to_end(setup, peak_rss_mb(), walls, walls,
                                   corpus.size * len(walls))
        facts.update(more)
    # The concrete oracle, outside the timed passes: every fact it
    # observes at the entry's exit must be in the static answer, and
    # each program must yield the facts recorded with the digests.
    oracle: Dict[str, int] = {}
    unsound = 0
    for name, program, report in out:
        bad, oracle[name] = Corpus.oracle_check(program, report)
        unsound += bad > 0
        tally.add(1, bad > 0 or oracle[name]
                  != exp["oracle"]["facts"].get(name))
    facts.update(programs=corpus.size,
                 clusters_per_program={name: len(report.results)
                                       for name, _, report in out},
                 oracle={"facts": sum(oracle.values()),
                         "programs_with_facts": sum(n > 0 for n in
                                                    oracle.values()),
                         "unsound_programs": unsound})
    return metrics, facts, tally


def run_daemon(args: argparse.Namespace, expected: Dict[str, Any]
               ) -> Tuple[Dict[str, float], Dict[str, Any], Tally]:
    from tracing import WORK_COUNTS, Tracer
    from workloads import Daemon, run_ops

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    setup: List[float] = []
    live: List[Daemon] = []

    def set_up() -> Daemon:
        """Start a daemon, cold-load every file, run one edit."""
        daemon = Daemon(args.seed, args.tiny, expected, str(workdir))
        live.append(daemon)
        gc.collect()
        t0 = time.perf_counter()
        answers = daemon.start()
        _, edit_ok = daemon.edit_op()()
        setup.append(time.perf_counter() - t0)
        tally.add(len(answers) + 1,
                  daemon.check_start(answers) + (not edit_ok))
        return daemon

    try:
        daemon = set_up()
        facts: Dict[str, Any] = {"files": {k: len(t.splitlines())
                                           for k, t in daemon.texts.items()}}
        if args.trace:
            untraced = []
            for _ in range(TRACED_PASSES):
                wall, lat, failed = run_ops(daemon.ops())
                untraced.append(wall)
                tally.add(len(lat), failed)
            tracer = Tracer()
            tracer.install()
            traced = []
            first_edit = len(daemon.reanalyzed)
            try:
                for _ in range(TRACED_PASSES):
                    wall, lat, failed = run_ops(daemon.ops())
                    traced.append(wall)
                    tally.add(len(lat), failed)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(traced, untraced)
            counts = {k: tracer.counts.get(k, 0) for k in WORK_COUNTS}
            counts["reanalyzed_per_edit"] = daemon.reanalyzed[first_edit:]
            facts.update(traced_wall_s=sum(traced),
                         untraced_wall_s=sum(untraced), work_counts=counts,
                         spans=len(tracer.spans))
            tracer.write(str(args.spans))
            facts["span_file"] = str(args.spans)
            return metrics, facts, tally
        walls: List[float] = []
        latencies: List[float] = []
        for _ in range(window_passes(args, "daemon")):
            wall, lat, failed = run_ops(daemon.ops())
            walls.append(wall)
            latencies.extend(lat)
            tally.add(len(lat), failed)
        rss = peak_rss_mb()
        facts["reanalyzed_per_edit"] = statistics.median(daemon.reanalyzed)
        daemon.stop()
        # The other set-ups only time set-up.  They run after the window
        # so that memory the earlier daemons leave fragmented cannot
        # move peak_rss_mb.
        for _ in range(setup_reps(args) - 1):
            set_up().stop()
        metrics, more = end_to_end(setup, rss, walls, latencies,
                                   len(latencies))
        facts.update(more)
        return metrics, facts, tally
    finally:
        for daemon in live:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        # An installed copy would measure some other version.
        print(f"perfbench: repro must come from {ROOT / 'src'}, "
              f"not {repro.__file__}", file=sys.stderr)
        return 2
    import multiprocessing

    from tracing import LAYER_METRICS

    OUT.mkdir(exist_ok=True)
    if args.write_expected:
        from expected import write_expected
        write_expected(str(args.expected), str(OUT / "expected-work"))
        print(f"wrote {args.expected}")
        return 0
    with open(args.expected) as handle:
        expected = json.load(handle)
    args.spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    try:
        if args.workload.startswith("corpus"):
            backend = "processes" if args.workload.endswith("processes") \
                else "simulate"
            metrics, facts, tally = run_corpus(args, expected, backend)
        else:
            metrics, facts, tally = run_daemon(args, expected)
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 3
    finally:
        for child in multiprocessing.active_children():
            child.join(30.0)
    from workloads import SCALE, nproc
    if not args.trace:
        metrics["ok_ratio"] = 1.0 - tally.failed / tally.attempted
    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "nproc": nproc(), "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "scale": SCALE, "failed_ratio": tally.failed / tally.attempted,
        **facts,
    }
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>14.6g} {unit}",
              file=sys.stderr)
    print(json.dumps(info, sort_keys=True, default=str))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if tally.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh interpreter, then one table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expected", str(args.expected)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            rows.append(f"{workload}: failed (exit {proc.returncode})")
            continue
        result, info = json.loads(lines[-1]), json.loads(lines[-2])
        rows.append(f"{workload}: correct={result['correct']} "
                    f"attempted={result['attempted']} "
                    f"failed={result['failed']} "
                    f"failed_ratio={info['failed_ratio']:g}")
        for name, metric in result["metrics"].items():
            rows.append(f"  {name:32s} {metric['value']:>14.6g} "
                        f"{metric['unit']}")
    print("\n".join(rows))
    return status


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: the order of the daemon's "
                             "edit stream")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured window (untraced runs): one pass "
                             "per %g s of it for the corpus, %g s for the "
                             "daemon, at least 2" % (NOMINAL_PASS_S["corpus"],
                                                     NOMINAL_PASS_S["daemon"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run with per-layer metrics")
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json",
                        help="answer digests to check against")
    parser.add_argument("--tiny", action="store_true",
                        help="a few programs and files (self-tests)")
    parser.add_argument("--write-expected", action="store_true",
                        help="recompute --expected from this checkout")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.write_expected:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
