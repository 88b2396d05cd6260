"""Query-daemon benchmark: cold vs. warm latency and edit invalidation.

The server's pitch is that the paper's cluster decomposition makes alias
queries *servable*: parse and bootstrap once, then answer each query
from resident per-cluster state, and after an edit re-analyze only the
clusters whose content keys changed.  This harness measures all
three claims against a synthetic multi-web program (each web is one
function, so a one-function edit should touch a small cluster fraction):

* cold: first query on a fresh daemon (parse + bootstrap + analyze);
* warm: repeated queries over resident state, client-measured over a
  real Unix socket;
* edit: one-function edit -> ``invalidate`` -> re-analyzed cluster
  fraction and post-edit warm latency.

Results go to ``BENCH_server.json`` so CI can archive them next to
``BENCH_parallel.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from .metrics import format_table
from .synth import SynthConfig, generate_source


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[idx]


def _latency_summary(seconds: List[float]) -> Dict[str, Any]:
    ordered = sorted(seconds)
    return {
        "count": len(ordered),
        "mean_ms": 1000.0 * sum(ordered) / len(ordered) if ordered else 0.0,
        "p50_ms": 1000.0 * _percentile(ordered, 0.50),
        "p95_ms": 1000.0 * _percentile(ordered, 0.95),
    }


def _edit_one_function(source: str) -> str:
    """Rebind one web pointer to a same-web target: a one-function edit
    that changes that web's sliced sub-program and no other's."""
    match = re.search(r"(w(\d+)p1) = w\2p0;", source)
    if match is None:
        raise RuntimeError("synthetic source has no editable web")
    return source.replace(match.group(0),
                          f"{match.group(1)} = &w{match.group(2)}t0;", 1)


def run_server_bench(pointers: int = 120, seed: int = 2008,
                     queries: int = 50,
                     verbose: bool = False) -> Dict[str, Any]:
    """Measure one daemon lifecycle; returns a JSON-safe result dict."""
    from ..server import AliasServer, ServerConfig
    from ..server.client import ServerClient

    source = generate_source(SynthConfig(name="server-bench",
                                         pointers=pointers, seed=seed))
    query_names = sorted(set(re.findall(r"\bw\d+p\d+\b", source)))
    with tempfile.TemporaryDirectory(prefix="repro-bench-server-") as tmp:
        path = os.path.join(tmp, "bench.c")
        with open(path, "w") as handle:
            handle.write(source)
        sock = os.path.join(tmp, "repro.sock")
        server = AliasServer(ServerConfig(), socket_path=sock)
        ready = threading.Event()
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"install_signal_handlers": False, "ready": ready})
        thread.start()
        ready.wait(30.0)
        try:
            with ServerClient(socket_path=sock) as client:
                # Cold: the first query pays parse + bootstrap + analyze.
                t0 = time.perf_counter()
                first = client.points_to(path, query_names[0])
                cold_seconds = time.perf_counter() - t0
                n_clusters = first["clusters"]["total"]
                if verbose:
                    print(f"  cold query: {cold_seconds * 1000:.1f}ms "
                          f"({n_clusters} clusters)", file=sys.stderr)

                def measure(count: int) -> List[float]:
                    out = []
                    for i in range(count):
                        name = query_names[i % len(query_names)]
                        t1 = time.perf_counter()
                        client.points_to(path, name)
                        out.append(time.perf_counter() - t1)
                    return out

                warm = _latency_summary(measure(queries))
                if verbose:
                    print(f"  warm queries: mean {warm['mean_ms']:.2f}ms, "
                          f"p95 {warm['p95_ms']:.2f}ms", file=sys.stderr)

                # One-function edit -> fingerprint-grained invalidation.
                with open(path, "w") as handle:
                    handle.write(_edit_one_function(source))
                t2 = time.perf_counter()
                refresh = client.invalidate(path)
                invalidate_seconds = time.perf_counter() - t2
                post = _latency_summary(measure(queries))
                if verbose:
                    print(f"  edit: re-analyzed {refresh['reanalyzed']}"
                          f"/{refresh['clusters']} clusters "
                          f"({refresh['reanalyzed_fraction']:.1%}) in "
                          f"{invalidate_seconds * 1000:.1f}ms",
                          file=sys.stderr)
                stats = client.stats()
                client.shutdown()
        finally:
            server.request_shutdown()
            thread.join(30.0)

    # Reference: what every query would cost without the daemon.
    from ..core import BootstrapAnalyzer, resolve_pointer
    from ..frontend import parse_program
    from ..ir import Loc

    program = parse_program(source, entry="main")
    t3 = time.perf_counter()
    result = BootstrapAnalyzer(program).run()
    p = resolve_pointer(program, query_names[0])
    loc = Loc(program.entry, program.cfg_of(program.entry).exit)
    result.points_to(p, loc)
    one_shot_seconds = time.perf_counter() - t3

    return {
        "pointers": len(program.pointers),
        "clusters": n_clusters,
        "queries": queries,
        "cold_seconds": cold_seconds,
        "warm": warm,
        "edit": {
            "reanalyzed": refresh["reanalyzed"],
            "reused": refresh["reused"],
            "clusters": refresh["clusters"],
            "reanalyzed_fraction": refresh["reanalyzed_fraction"],
            "invalidate_seconds": invalidate_seconds,
        },
        "post_edit_warm": post,
        "one_shot_seconds": one_shot_seconds,
        "warm_speedup_vs_one_shot": (
            one_shot_seconds / (warm["mean_ms"] / 1000.0)
            if warm["mean_ms"] else 0.0),
        "cluster_store": stats["clusters"],
    }


def render(data: Dict[str, Any]) -> str:
    rows = [
        ["cold (first query)", f"{data['cold_seconds'] * 1000:.1f}"],
        ["warm mean", f"{data['warm']['mean_ms']:.2f}"],
        ["warm p95", f"{data['warm']['p95_ms']:.2f}"],
        ["invalidate after edit",
         f"{data['edit']['invalidate_seconds'] * 1000:.1f}"],
        ["post-edit warm mean", f"{data['post_edit_warm']['mean_ms']:.2f}"],
        ["one-shot run (no daemon)", f"{data['one_shot_seconds'] * 1000:.1f}"],
    ]
    table = format_table(
        ["query", "latency (ms)"], rows,
        title=f"Query daemon ({data['pointers']} pointers, "
              f"{data['clusters']} clusters, {data['queries']} queries)")
    edit = data["edit"]
    return (table + "\n\n"
            f"one-function edit re-analyzed {edit['reanalyzed']}/"
            f"{edit['clusters']} clusters "
            f"({edit['reanalyzed_fraction']:.1%}); warm query is "
            f"{data['warm_speedup_vs_one_shot']:.0f}x faster than a "
            f"one-shot run")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure daemon query latency and edit invalidation")
    parser.add_argument("--pointers", type=int, default=120,
                        help="synthetic program size (default 120)")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--queries", type=int, default=50,
                        help="warm queries per phase (default 50)")
    parser.add_argument("--out", default="BENCH_server.json",
                        help="output JSON path (default BENCH_server.json)")
    args = parser.parse_args(argv)
    data = run_server_bench(pointers=args.pointers, seed=args.seed,
                            queries=args.queries, verbose=True)
    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render(data))
    print(f"\nwritten to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
