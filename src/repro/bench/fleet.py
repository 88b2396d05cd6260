"""Fleet benchmark: warm-query throughput scaling and fault identity.

Boots ``repro fleet serve`` as a subprocess (the coordinator must not
share the GIL with the load generator) at 1, 2 and 4 workers over the
sendmail corpus program, drives a concurrent warm-query load through
the asyncio front door, and measures two things:

* **throughput scaling** — queries retired per second of the busiest
  shard's CPU time (read off ``/proc/<pid>/stat``, so the number is
  per-shard cost, not host wall-clock).  On an N-core host wall-clock
  scales too; on the 1-core CI runner only the per-shard accounting
  can show that the hash ring actually spreads the work — the same
  reasoning as ``machine_speedup`` in :mod:`repro.bench.parallel`.
  Wall numbers are recorded transparently alongside.
* **fault identity** — a no-fault fleet answers bit-identically to a
  single daemon (the coordinator's fast path forwards worker bytes
  verbatim); after SIGKILLing one of two workers, every query still
  completes, rerouted answers (and only those) carry the
  ``fleet.rerouted`` envelope, and stripping the envelope recovers
  answers bit-identical to the single daemon's.

Results go to ``BENCH_fleet.json``.  ``--check`` turns the scaling
floors (>= 1.7x at 2 workers, >= 3x at 4) and the identity property
into a gate that exits 1 on failure.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..server import protocol
from ..server.client import ServerClient, wait_for_server
from ..fleet.worker import RESPONSE_LIMIT, LocalWorker
from .corpus import corpus_configs
from .metrics import format_table
from .synth import generate_source

#: Acceptance floors for busy-time throughput scaling vs one worker.
SCALING_FLOORS = {2: 1.7, 4: 3.0}

_FLEET_LISTEN_RE = re.compile(r"listening on tcp:[0-9.]+:(\d+)")


# ----------------------------------------------------------------------
# process plumbing
# ----------------------------------------------------------------------

def _repro_env() -> Dict[str, str]:
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    parts = [pkg_root] + [p for p in
                          env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


def _spawn_fleet(workers: int, cache: str,
                 extra: Sequence[str] = ()) -> Tuple[Any, int]:
    """Start ``repro fleet serve --port 0``; returns (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "fleet", "serve",
         "--port", "0", "--workers", str(workers), "--cache", cache]
        + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=_repro_env(), text=True)
    port: List[int] = []
    deadline = time.monotonic() + 120.0
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"fleet coordinator exited with {proc.returncode} "
                    "before listening")
            continue
        match = _FLEET_LISTEN_RE.search(line)
        if match:
            port.append(int(match.group(1)))
            break
    if not port:
        proc.kill()
        raise RuntimeError("fleet coordinator did not report a port")
    # Keep draining stdout so the coordinator never blocks on the pipe.
    threading.Thread(target=lambda: proc.stdout.read(),
                     daemon=True).start()
    return proc, port[0]


def _proc_cpu_seconds(pid: int) -> Optional[float]:
    """utime+stime of ``pid`` from /proc (None off Linux / dead pid)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read().decode("ascii", "replace")
        # Fields 14/15 (1-based) follow the parenthesized comm, which
        # may itself contain spaces — split after the last ')'.
        fields = stat.rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# ----------------------------------------------------------------------
# async load generator
# ----------------------------------------------------------------------

async def _worker_conn(host: str, port: int,
                       frames: "deque[Tuple[int, bytes]]",
                       out: List[Optional[bytes]]) -> None:
    reader, writer = await asyncio.open_connection(
        host, port, limit=RESPONSE_LIMIT)
    try:
        while True:
            try:
                idx, frame = frames.popleft()
            except IndexError:
                return
            writer.write(frame)
            await writer.drain()
            out[idx] = await reader.readline()
    finally:
        writer.close()


async def _blast_async(host: str, port: int, requests: List[Dict[str, Any]],
                       concurrency: int) -> Tuple[float, List[bytes]]:
    frames: "deque[Tuple[int, bytes]]" = deque(
        (i, protocol.encode(r)) for i, r in enumerate(requests))
    out: List[Optional[bytes]] = [None] * len(requests)
    t0 = time.perf_counter()
    await asyncio.gather(*[
        _worker_conn(host, port, frames, out)
        for _ in range(max(1, min(concurrency, len(requests))))])
    wall = time.perf_counter() - t0
    missing = sum(1 for line in out if not line)
    if missing:
        raise RuntimeError(f"{missing} queries got no response")
    return wall, out  # type: ignore[return-value]


def _blast(port: int, requests: List[Dict[str, Any]],
           concurrency: int) -> Tuple[float, List[bytes]]:
    """Drive ``requests`` through ``concurrency`` pipelined connections;
    returns (wall seconds, raw response lines in request order)."""
    return asyncio.run(
        _blast_async("127.0.0.1", port, requests, concurrency))


def _canonical(line: bytes) -> str:
    """A response stripped of volatile fields (timings) and of the
    fleet envelope — the form bit-identity is checked in."""
    obj = protocol.decode(line)
    result = obj.get("result")
    if isinstance(result, dict):
        result = dict(result)
        result.pop("fleet", None)
        result.pop("refresh", None)
        return json.dumps({"id": obj.get("id"), "result": result},
                          sort_keys=True)
    error = dict(obj.get("error") or {})
    data = error.get("data")
    if isinstance(data, dict):
        data = dict(data)
        data.pop("fleet", None)
        error["data"] = data
    return json.dumps({"id": obj.get("id"), "error": error},
                      sort_keys=True)


def _is_rerouted(line: bytes) -> bool:
    obj = protocol.decode(line)
    result = obj.get("result")
    if isinstance(result, dict):
        return bool(result.get("fleet", {}).get("rerouted"))
    data = (obj.get("error") or {}).get("data") or {}
    return bool(data.get("fleet", {}).get("rerouted"))


# ----------------------------------------------------------------------
# the bench
# ----------------------------------------------------------------------

def _request(rid: int, method: str, **params: Any) -> Dict[str, Any]:
    return {"id": rid, "method": method, "params": params}


def _corpus_units(name: str, scale: float,
                  units: int) -> List[Any]:
    """The corpus program split into ``units`` translation units.

    Real corpus programs are many files (sendmail is 115 KLOC); one
    SynthConfig per unit, seed-varied so the units are distinct code,
    each carrying an equal share of the program's pointers.
    """
    base = corpus_configs(scale, names=[name])[0]
    return [dataclasses.replace(
        base, name=f"{name}_tu{i}",
        pointers=max(40, base.pointers // units),
        functions=max(8, base.functions // units),
        kloc=max(1.0, base.kloc / units),
        seed=base.seed + i) for i in range(units)]


def _query_set(pairs: Sequence[Tuple[str, str]],
               paths: Sequence[str]) -> List[Dict[str, Any]]:
    """One of each distinct query: every pointer, some alias pairs, and
    the whole-file passes — the mixed batch the fault run replays."""
    out = [_request(i, "points_to", file=path, ptr=name)
           for i, (path, name) in enumerate(pairs)]
    rid = len(out)
    for i in range(0, len(pairs) - 1, 7):
        path, p = pairs[i]
        path_q, q = pairs[i + 1]
        if path == path_q:
            out.append(_request(rid, "alias", file=path, p=p, q=q))
            rid += 1
    for path in paths:
        for method in ("taint", "leaks", "deadlocks"):
            out.append(_request(rid, method, file=path))
            rid += 1
    return out


def _measure_run(workers: int, cache: str,
                 pairs: Sequence[Tuple[str, str]], queries: int,
                 concurrency: int, verbose: bool) -> Dict[str, Any]:
    """One fleet at ``workers`` workers: warm up, then measure the warm
    points-to load with wall and per-shard CPU accounting."""
    proc, port = _spawn_fleet(workers, cache)
    try:
        wait_for_server(port=port, timeout=120.0)
        warm = [_request(i, "points_to", file=path, ptr=name)
                for i, (path, name) in enumerate(pairs)]
        _blast(port, warm, concurrency=min(8, concurrency))
        with ServerClient(port=port, timeout=60.0) as client:
            status = client.fleet_status()
        pids = {name: info["pid"]
                for name, info in status["workers"].items()}
        cpu0 = {name: _proc_cpu_seconds(pid) or 0.0
                for name, pid in pids.items()}
        # Warm points_to only: every query routes by one cluster key,
        # so the measured spread is exactly the bounded-load placement
        # the coordinator computed (alias pulls a second cluster onto
        # the routed worker, smearing the per-shard accounting).
        load = []
        for i in range(queries):
            path, name = pairs[i % len(pairs)]
            load.append(_request(i, "points_to", file=path, ptr=name))
        wall, lines = _blast(port, load, concurrency)
        cpu1 = {name: _proc_cpu_seconds(pid) or 0.0
                for name, pid in pids.items()}
        errors = sum(1 for line in lines
                     if b'"error"' in line.split(b'"result"')[0])
        busy = {name: max(0.0, cpu1[name] - cpu0[name]) for name in pids}
        max_busy = max(busy.values()) if busy else 0.0
        run = {
            "workers": workers,
            "queries": queries,
            "concurrency": concurrency,
            "errors": errors,
            "wall_seconds": wall,
            "wall_qps": queries / wall if wall else 0.0,
            "worker_busy_cpu_seconds": dict(sorted(busy.items())),
            "max_worker_busy_seconds": max_busy,
            "total_worker_busy_seconds": sum(busy.values()),
            "busy_qps": queries / max_busy if max_busy else 0.0,
        }
        if verbose:
            print(f"  fleet x{workers}: {wall:.2f}s wall "
                  f"({run['wall_qps']:.0f} q/s), busiest shard "
                  f"{max_busy:.2f}s CPU ({run['busy_qps']:.0f} q/s "
                  f"per busy-second)", file=sys.stderr)
        with ServerClient(port=port, timeout=30.0) as client:
            client.shutdown()
        proc.wait(30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(10.0)
    return run


def _fault_run(cache: str, requests: List[Dict[str, Any]],
               concurrency: int, reference: List[str],
               verbose: bool) -> Dict[str, Any]:
    """Two workers, kill one mid-run: every query must still answer,
    only rerouted answers get tagged, and stripping the tag must
    recover the single daemon's exact answers."""
    proc, port = _spawn_fleet(
        2, cache, extra=["--no-respawn", "--breaker-reset", "3600"])
    try:
        wait_for_server(port=port, timeout=120.0)
        _, lines = _blast(port, requests, concurrency)
        no_fault = [_canonical(line) for line in lines]
        no_fault_identical = no_fault == reference
        no_fault_tagged = sum(_is_rerouted(line) for line in lines)

        with ServerClient(port=port, timeout=30.0) as client:
            status = client.fleet_status()
        victim = sorted(status["workers"])[0]
        os.kill(status["workers"][victim]["pid"], signal.SIGKILL)
        time.sleep(0.2)

        _, lines = _blast(port, requests, concurrency)
        after = [_canonical(line) for line in lines]
        tagged = sum(_is_rerouted(line) for line in lines)
        identical = after == reference
        with ServerClient(port=port, timeout=30.0) as client:
            status = client.fleet_status()
            client.shutdown()
        out = {
            "workers": 2,
            "killed": victim,
            "queries": len(requests),
            "no_fault_identical": no_fault_identical,
            "no_fault_tagged": no_fault_tagged,
            "tagged": tagged,
            "untagged": len(requests) - tagged,
            "identical_after_kill": identical,
            "breaker_state": status["workers"][victim]["state"],
            "reroutes": status["reroutes"],
        }
        if verbose:
            print(f"  kill {victim}: {tagged}/{len(requests)} answers "
                  f"rerouted+tagged, identity "
                  f"{'ok' if identical else 'BROKEN'}", file=sys.stderr)
        proc.wait(30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(10.0)
    return out


def run_fleet_bench(name: str = "sendmail", scale: float = 0.04,
                    units: int = 6,
                    workers_list: Sequence[int] = (1, 2, 4),
                    queries: int = 8000, concurrency: int = 8,
                    repeats: int = 3,
                    verbose: bool = False) -> Dict[str, Any]:
    """Measure the fleet on one corpus program; JSON-safe result.

    The program is generated as ``units`` translation units so the
    routing keyspace holds enough clusters for consistent hashing to
    balance (a single synthetic unit yields too few distinct webs for
    the busiest of 4 shards to get near a 1/4 share).

    Scaling is *weak scaling*: the offered load is ``concurrency``
    client connections per worker, so a bigger fleet faces
    proportionally more concurrent clients — the standard methodology,
    and the one that keeps per-connection frame batching comparable
    across fleet sizes (a fixed client count would thin out each
    worker's batches as the fleet grows and misattribute the lost
    batching efficiency to routing).

    The fleet sizes are measured in ``repeats`` interleaved rounds,
    each size once per round.  A size's scaling is the median over the
    rounds of its busy q/s over the first size's in the same round, and
    ``runs`` keeps the round that gave the median: a host that changes
    pace between rounds moves both sides of a ratio together, and one
    disturbed round cannot decide the floor.
    """
    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as tmp:
        paths: List[str] = []
        pairs: List[Tuple[str, str]] = []
        for config in _corpus_units(name, scale, units):
            source = generate_source(config)
            path = os.path.join(tmp, f"{config.name}.c")
            with open(path, "w") as handle:
                handle.write(source)
            paths.append(path)
            for ptr in sorted(set(re.findall(r"\bw\d+p\d+\b", source))):
                pairs.append((path, ptr))
        cache = os.path.join(tmp, "cache")
        requests = _query_set(pairs, paths)

        # Single-daemon reference: the identity baseline (same shared
        # cache — the fleet's workers must agree with it either way).
        ref = LocalWorker("reference", serve_args=["--cache", cache])
        ref.spawn()
        try:
            wait_for_server(port=ref.port, timeout=60.0)
            _, lines = _blast(ref.port, requests, min(8, concurrency))
            reference = [_canonical(line) for line in lines]
            with ServerClient(port=ref.port, timeout=30.0) as client:
                n_clusters = sum(
                    client.points_to(p, n)["clusters"]["total"]
                    for p, n in (next(pr for pr in pairs
                                      if pr[0] == path)
                                 for path in paths))
        finally:
            ref.terminate()
        if verbose:
            print(f"  [{name}] scale={scale}, {units} translation "
                  f"units: {len(pairs)} query pointers, "
                  f"{n_clusters} clusters", file=sys.stderr)

        rounds = [{w: _measure_run(w, cache, pairs, queries,
                                   concurrency * w, verbose)
                   for w in workers_list}
                  for _ in range(max(1, repeats))]
        base_w = workers_list[0]

        def ratio(r: Dict[int, Dict[str, Any]], w: int, key: str) -> float:
            base = r[base_w][key]
            return r[w][key] / base if base else 0.0

        runs = []
        for w in workers_list:
            scalings = [ratio(r, w, "busy_qps") for r in rounds]
            ranked = sorted(range(len(rounds)), key=scalings.__getitem__)
            median = rounds[ranked[len(ranked) // 2]]
            run = dict(median[w], repeats=len(rounds),
                       busy_scaling=ratio(median, w, "busy_qps"),
                       busy_scalings=scalings,
                       wall_scaling=ratio(median, w, "wall_qps"),
                       busy_attempts_seconds=[
                           r[w]["max_worker_busy_seconds"]
                           for r in rounds])
            runs.append(run)

        fault = _fault_run(cache, requests, concurrency * 2, reference,
                           verbose)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    gates = {}
    for run in runs:
        floor = SCALING_FLOORS.get(run["workers"])
        if floor is not None:
            gates[f"scaling_{run['workers']}"] = {
                "value": run["busy_scaling"], "floor": floor,
                "ok": run["busy_scaling"] >= floor,
            }
    gates["identity"] = {
        "ok": fault["no_fault_identical"]
        and fault["identical_after_kill"],
    }
    gates["rerouted_tagging"] = {
        "ok": fault["no_fault_tagged"] == 0 and fault["tagged"] > 0
        and fault["untagged"] > 0,
    }
    return {"program": name, "scale": scale, "translation_units": units,
            "query_pointers": len(pairs), "clusters": n_clusters,
            "cpus": cpus, "accounting": "proc-cpu-seconds",
            "runs": runs, "fault": fault, "gates": gates}


def check_gate(data: Dict[str, Any]) -> List[str]:
    """Failures of the built-in gates, empty when healthy."""
    failures = []
    for key, gate in sorted(data["gates"].items()):
        if not gate["ok"]:
            detail = ""
            if "value" in gate:
                detail = (f": {gate['value']:.2f}x is below the "
                          f"{gate['floor']:.1f}x floor")
            failures.append(f"{key}{detail}")
    return failures


def render(data: Dict[str, Any]) -> str:
    rows = [[str(r["workers"]), f"{r['wall_seconds']:.2f}",
             f"{r['wall_qps']:.0f}", f"{r['max_worker_busy_seconds']:.2f}",
             f"{r['busy_qps']:.0f}", f"{r['busy_scaling']:.2f}x"]
            for r in data["runs"]]
    table = format_table(
        ["workers", "wall (s)", "wall q/s", "busiest shard CPU (s)",
         "busy q/s", "scaling"], rows,
        title=f"Fleet throughput ({data['program']}, "
              f"{data['clusters']} clusters, {data['cpus']} cpu(s), "
              f"per-shard CPU accounting)")
    fault = data["fault"]
    return (table + "\n\n"
            f"kill {fault['killed']} of 2: {fault['tagged']}/"
            f"{fault['queries']} answers rerouted (tagged), identity "
            f"{'preserved' if fault['identical_after_kill'] else 'BROKEN'}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure fleet throughput scaling and fault "
                    "identity")
    parser.add_argument("--program", default="sendmail",
                        help="corpus program name (default sendmail)")
    parser.add_argument("--scale", type=float, default=0.04,
                        help="program size fraction (default 0.04)")
    parser.add_argument("--units", type=int, default=6,
                        help="translation units to split the program "
                             "into (default 6)")
    parser.add_argument("--workers", type=str, default="1,2,4",
                        help="comma-separated worker counts "
                             "(default 1,2,4)")
    # Per-worker CPU is read off /proc at 10ms tick granularity; the
    # warm load must span enough ticks for the scaling ratio to mean
    # anything, hence the large default.
    parser.add_argument("--queries", type=int, default=8000,
                        help="warm queries per measured run "
                             "(default 8000)")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="concurrent client connections per worker "
                             "(weak scaling; default 8)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved rounds of measured runs, one "
                             "per fleet size each; scaling is the "
                             "median over rounds (default 3)")
    parser.add_argument("--out", default="BENCH_fleet.json",
                        help="output JSON path (default BENCH_fleet.json)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a scaling floor or the "
                             "identity property fails")
    args = parser.parse_args(argv)
    workers_list = [int(w) for w in args.workers.split(",") if w]
    data = run_fleet_bench(name=args.program, scale=args.scale,
                           units=args.units, workers_list=workers_list,
                           queries=args.queries,
                           concurrency=args.concurrency,
                           repeats=args.repeats, verbose=True)
    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render(data))
    print(f"\nwritten to {args.out}")
    if args.check:
        failures = check_gate(data)
        if failures:
            for failure in failures:
                print(f"GATE FAIL: {failure}", file=sys.stderr)
            return 1
        print("fleet gate: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
