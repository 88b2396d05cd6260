"""Span tracing around the calls into each layer of ``repro``.

The traced run wraps the public entry points of every layer (the
``LAYER_CALLS`` table) at every module that binds them, records one
span per call in memory -- name, layer, start, end, parent span and
request id -- and turns the spans into the per-layer metrics that
``BENCHMARK.json`` lists.  Nothing inside ``src/`` is changed: the
wrappers live only in this process, and forked pool workers call the
originals straight through (their spans could not come back anyway;
worker time is read from the parallel report instead).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import gc
import importlib
import itertools
import json
import os
import resource
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

# (layer, module, attribute) -- a dotted attribute is a method.
LAYER_CALLS: List[Tuple[str, str, str]] = [
    ("frontend", "repro.frontend", "parse_program"),
    ("frontend", "repro.frontend.parser", "parse_source"),
    ("frontend", "repro.frontend.normalize", "normalize"),
    ("frontend", "repro.frontend.lexer", "tokenize"),
    ("steensgaard", "repro.analysis.steensgaard", "Steensgaard.run"),
    ("relevant", "repro.core.relevant", "relevant_statements"),
    ("andersen", "repro.core.clusters", "andersen_refine"),
    ("cascade", "repro.core.cascade", "run_cascade"),
    ("fsci", "repro.analysis.fsci", "FSCI.run"),
    ("summaries", "repro.analysis.fscs", "ClusterFSCS.analyze"),
    ("summaries", "repro.analysis.fscs", "ClusterFSCS.points_to"),
    ("bootstrap", "repro.core.bootstrap", "BootstrapResult.analyze_all"),
    ("shipping", "repro.core.shipping", "build_payload"),
    ("shipping", "repro.core.shipping", "payload_fingerprint"),
    ("parallel", "repro.core.parallel", "ParallelRunner.run"),
    ("parallel", "repro.core.parallel", "ParallelRunner.run_payloads"),
    ("store", "repro.server.store", "FileStore.get"),
    ("store", "repro.server.store", "FileStore.invalidate"),
    ("store", "repro.server.store", "ClusterStore.get"),
    ("store", "repro.server.store", "ClusterStore.put"),
    ("store", "repro.server.store", "FileState.points_to"),
    ("store", "repro.server.store", "FileState.may_alias"),
    ("store", "repro.server.store", "FileState.must_alias"),
    ("store", "repro.server.store", "FileState.leaks"),
    ("server", "repro.server.daemon", "AliasServer.handle_line"),
    ("server", "repro.server.protocol", "encode"),
    ("server", "repro.server.protocol", "decode"),
    ("server", "repro.server.client", "ServerClient.call"),
    ("checkers", "repro.checkers.leak", "run_leaks"),
]

#: Every per-layer metric, in print order, with its unit.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("frontend.self_s", "s"), ("frontend.calls", "count"),
    ("frontend.tokens", "count"),
    ("steensgaard.self_s", "s"), ("steensgaard.calls", "count"),
    ("relevant.self_s", "s"), ("relevant.calls", "count"),
    ("relevant.slice_statements", "count"),
    ("andersen.self_s", "s"), ("andersen.calls", "count"),
    ("andersen.clusters", "count"),
    ("cascade.self_s", "s"), ("cascade.clusters", "count"),
    ("cascade.max_cluster", "count"),
    ("fsci.self_s", "s"), ("fsci.calls", "count"),
    ("fsci.iterations", "count"),
    ("summaries.self_s", "s"), ("summaries.engine_steps", "count"),
    ("summaries.entries", "count"),
    ("bootstrap.self_s", "s"), ("bootstrap.clusters", "count"),
    ("shipping.encode_s", "s"), ("shipping.fingerprint_s", "s"),
    ("shipping.payloads", "count"), ("shipping.payload_bytes", "B"),
    ("shipping.useful_ratio", "1"),
    ("parallel.wall_s", "s"), ("parallel.max_part_s", "s"),
    ("parallel.wait_s", "s"), ("parallel.balance", "1"),
    ("parallel.worker_peak_rss_mb", "MB"),
    ("store.load_s", "s"), ("store.loads", "count"),
    ("store.query_s", "s"), ("store.hits", "count"),
    ("store.misses", "count"), ("store.hit_ratio", "1"),
    ("store.reanalyzed", "count"),
    ("server.handle_s", "s"), ("server.hop_s", "s"),
    ("server.requests", "count"), ("server.errors", "count"),
    ("checkers.self_s", "s"), ("checkers.clusters_selected", "count"),
    ("checkers.clusters_total", "count"),
    ("runtime.gc_s", "s"), ("runtime.gc_collections", "count"),
    ("trace.overhead", "1"), ("trace.coverage", "1"),
]

#: Counters that must read the same on every repetition of the same
#: work in one interpreter; all but ``summaries.engine_steps`` also
#: under any ``PYTHONHASHSEED`` (see test_perfbench.py).
WORK_COUNTS = (
    "cascade.clusters", "fsci.iterations", "summaries.engine_steps",
    "shipping.payload_bytes", "store.reanalyzed", "store.hits",
    "store.misses",
)

_FILE_QUERIES = ("FileState.points_to", "FileState.may_alias",
                 "FileState.must_alias", "FileState.leaks")


def _payload_bytes(payload: Dict[str, Any]) -> int:
    return len(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _fsci_work(owner: Any, report: Any) -> int:
    """FSCI iterations the processes backend's workers ran: each worker
    solves a partition's shared FSCI once per scheduled part, so count
    one run per (part, sharing group)."""
    clusters = owner.clusters
    total = 0
    for part in report.schedule:
        seen = set()
        for idx in part:
            cluster = clusters[idx]
            parent = cluster.parent_slice
            group = id(cluster if parent is None else parent)
            if group in seen:
                continue
            seen.add(group)
            total += report.results[idx]["stats"]["fsci_iterations"]
    return total


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.client_thread = threading.get_ident()
        self.spans: List[Tuple[Any, ...]] = []
        self.counts: Dict[str, float] = {}
        self.parallel: List[Tuple[str, float, List[float]]] = []
        self.solved_remote = 0
        self.gc_runs: List[Tuple[float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_started: Dict[int, float] = {}
        # RUSAGE_CHILDREN survives exec: whatever the launching shell
        # reaped before starting us is already in it.
        self._children_rss = self._children_peak()

    # ------------------------------------------------------------------
    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
        return local

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    @contextlib.contextmanager
    def request(self, rid: Any) -> Iterator[None]:
        """Tag every span opened inside with request id ``rid``."""
        local = self._state()
        previous, local.rid = local.rid, rid
        try:
            yield
        finally:
            local.rid = previous

    def set_request(self, rid: Any) -> None:
        self._state().rid = rid

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = _HOOKS.get(name)
        pre = _PRE_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            local = tracer._state()
            sid = next(tracer._ids)
            parent = local.stack[-1] if local.stack else None
            local.stack.append(sid)
            before = pre(tracer, args) if pre is not None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.stack.pop()
                tracer.spans.append((sid, parent, layer, name, start, end,
                                     local.rid, threading.get_ident()))
            if hook is not None:
                hook(tracer, args, result, before, end - start)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every ``LAYER_CALLS`` entry and hook the collector."""
        for layer, module_name, attr in LAYER_CALLS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(layer, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, attr, original)
            # Every binding: repro's modules and the benchmark's own.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", {}).get(attr) is original:
                    self._patch(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        tid = threading.get_ident()
        if phase == "start":
            self._gc_started[tid] = time.perf_counter()
        elif tid in self._gc_started:
            self.gc_runs.append((self._gc_started.pop(tid),
                                 time.perf_counter()))

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        keys = ("sid", "parent", "layer", "name", "start", "end", "rid",
                "thread")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span)),
                                        default=str) + "\n")

    def metrics(self, traced: List[float],
                untraced: List[float]) -> Dict[str, float]:
        """Per-layer metrics per pass of the traced work, given the wall
        times of the traced passes and of untraced passes of the same
        work."""
        passes = len(traced)
        child_time: Dict[int, float] = {}
        for sid, parent, _, _, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) \
                    + (end - start)
        self_s: Dict[str, float] = {}
        inclusive: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        daemon_side = 0.0  # server-layer self time off the client thread
        for sid, _, layer, name, start, end, _, thread in self.spans:
            dur = end - start
            own = dur - child_time.get(sid, 0.0)
            self_s[layer] = self_s.get(layer, 0.0) + own
            self_s[name] = self_s.get(name, 0.0) + own
            if layer == "server" and thread != self.client_thread:
                daemon_side += own
            inclusive[name] = inclusive.get(name, 0.0) + dur
            calls[layer] = calls.get(layer, 0) + 1
            calls[name] = calls.get(name, 0) + 1
        c = self.counts.get
        out: Dict[str, float] = {
            "frontend.self_s": self_s.get("frontend", 0.0),
            "frontend.calls": calls.get("frontend", 0),
            "frontend.tokens": c("frontend.tokens", 0),
            "steensgaard.self_s": self_s.get("steensgaard", 0.0),
            "steensgaard.calls": calls.get("steensgaard", 0),
            "relevant.self_s": self_s.get("relevant", 0.0),
            "relevant.calls": calls.get("relevant", 0),
            "relevant.slice_statements": c("relevant.slice_statements", 0),
            "andersen.self_s": self_s.get("andersen", 0.0),
            "andersen.calls": calls.get("andersen", 0),
            "andersen.clusters": c("andersen.clusters", 0),
            "cascade.self_s": self_s.get("cascade", 0.0),
            "cascade.clusters": c("cascade.clusters", 0),
            "cascade.max_cluster": c("cascade.max_cluster", 0),
            "fsci.self_s": self_s.get("fsci", 0.0),
            "fsci.calls": calls.get("fsci", 0),
            "fsci.iterations": c("fsci.iterations", 0),
            "summaries.self_s": self_s.get("summaries", 0.0),
            "summaries.engine_steps": c("summaries.engine_steps", 0),
            "summaries.entries": c("summaries.entries", 0),
            "bootstrap.self_s": self_s.get("bootstrap", 0.0),
            "bootstrap.clusters": c("bootstrap.clusters", 0),
            "shipping.encode_s": self_s.get("build_payload", 0.0),
            "shipping.fingerprint_s": self_s.get("payload_fingerprint", 0.0),
            "shipping.payloads": calls.get("build_payload", 0),
            "shipping.payload_bytes": c("shipping.payload_bytes", 0),
            "store.load_s": c("store.load_s", 0.0),
            "store.loads": c("store.loads", 0),
            "store.query_s": sum(self_s.get(q, 0.0) for q in _FILE_QUERIES),
            "store.hits": c("store.hits", 0),
            "store.misses": c("store.misses", 0),
            "store.reanalyzed": c("store.reanalyzed", 0),
            "server.handle_s": daemon_side,
            "server.hop_s": inclusive.get("ServerClient.call", 0.0)
            - inclusive.get("AliasServer.handle_line", 0.0),
            "server.requests": calls.get("AliasServer.handle_line", 0),
            "server.errors": c("server.errors", 0),
            "checkers.self_s": self_s.get("checkers", 0.0),
            "checkers.clusters_selected": c("checkers.clusters_selected", 0),
            "checkers.clusters_total": c("checkers.clusters_total", 0),
        }
        # Collections that interrupted the program; the benchmark's own
        # gc.collect() before each pass runs outside every span.
        covered = self._covered()
        starts = [start for start, _ in covered]
        program_gc = []
        for start, end in self.gc_runs:
            i = bisect.bisect_right(starts, start) - 1
            if i >= 0 and start < covered[i][1]:
                program_gc.append(end - start)
        out["runtime.gc_s"] = sum(program_gc)
        out["runtime.gc_collections"] = len(program_gc)
        solved = calls.get("ClusterFSCS.analyze", 0) + self.solved_remote
        payloads = out["shipping.payloads"]
        out["shipping.useful_ratio"] = solved / payloads if payloads else 0.0
        lookups = out["store.hits"] + out["store.misses"]
        out["store.hit_ratio"] = out["store.hits"] / lookups if lookups \
            else 0.0
        out.update(self._parallel_metrics())
        per_pass = {k: v / passes for k, v in out.items()
                    if not k.endswith(("_ratio", ".balance", "_rss_mb",
                                       "max_cluster"))}
        out.update(per_pass)
        out["trace.overhead"] = (sum(traced) / passes) \
            / (sum(untraced) / len(untraced)) - 1.0
        out["trace.coverage"] = sum(end - start for start, end in covered) \
            / sum(traced)
        return out

    def _parallel_metrics(self) -> Dict[str, float]:
        wall = blocking = busy = capacity = 0.0
        for backend, seconds, parts in self.parallel:
            longest = max(parts, default=0.0)
            wall += seconds
            # simulate runs its parts one after another in this process;
            # the processes backend runs them side by side.
            blocking += longest if backend == "processes" else sum(parts)
            busy += sum(parts)
            capacity += longest * len(parts)
        children = self._children_peak()
        if children == self._children_rss:
            children = 0
        return {
            "parallel.wall_s": wall,
            "parallel.max_part_s": sum(max(p, default=0.0)
                                       for _, _, p in self.parallel),
            "parallel.wait_s": wall - blocking,
            "parallel.balance": busy / capacity if capacity else 0.0,
            "parallel.worker_peak_rss_mb": children / 1024.0,
        }

    @staticmethod
    def _children_peak() -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def _covered(self) -> List[Tuple[float, float]]:
        """Disjoint intervals covered by a root span (any thread)."""
        merged: List[Tuple[float, float]] = []
        for start, end in sorted((start, end) for _, parent, _, _, start,
                                 end, _, _ in self.spans if parent is None):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged


# ----------------------------------------------------------------------
# per-call hooks: (tracer, args, result, pre-hook value, call seconds)
# ----------------------------------------------------------------------
def _on_tokens(t: Tracer, args, result, before, seconds) -> None:
    t.add("frontend.tokens", len(result))


def _on_slice(t: Tracer, args, result, before, seconds) -> None:
    t.add("relevant.slice_statements", len(result.statements))


def _on_refine(t: Tracer, args, result, before, seconds) -> None:
    t.add("andersen.clusters", len(result))


def _on_cascade(t: Tracer, args, result, before, seconds) -> None:
    t.add("cascade.clusters", len(result.clusters))
    biggest = result.max_cluster_size()
    with t._lock:
        if biggest > t.counts.get("cascade.max_cluster", 0):
            t.counts["cascade.max_cluster"] = biggest


def _on_fsci(t: Tracer, args, result, before, seconds) -> None:
    t.add("fsci.iterations", result.iterations)


def _on_summaries(t: Tracer, args, result, before, seconds) -> None:
    t.add("summaries.engine_steps", result["engine_steps"])
    t.add("summaries.entries", result["summary_entries"])


def _on_analyze_all(t: Tracer, args, result, before, seconds) -> None:
    t.add("bootstrap.clusters", len(result.results))
    if result.backend == "processes":
        # Worker-side work: the spans stay in the workers, the counts
        # come back inside each outcome.
        t.solved_remote += len(result.results)
        t.add("fsci.iterations", _fsci_work(args[0], result))
        for outcome in result.results:
            t.add("summaries.engine_steps", outcome["stats"]["engine_steps"])
            t.add("summaries.entries", outcome["stats"]["summary_entries"])


def _on_payload(t: Tracer, args, result, before, seconds) -> None:
    t.add("shipping.payload_bytes", _payload_bytes(result))


def _on_runner(t: Tracer, args, result, before, seconds) -> None:
    with t._lock:
        t.parallel.append((result.backend, result.wall_time,
                           list(result.part_times)))


def _loads_before(t: Tracer, args) -> int:
    return args[0].loads


def _on_file_get(t: Tracer, args, result, before, seconds) -> None:
    if args[0].loads == before:
        return
    t.add("store.loads", 1)
    t.add("store.load_s", seconds)
    t.add("store.reanalyzed", result.refresh.reanalyzed)


def _on_cluster_get(t: Tracer, args, result, before, seconds) -> None:
    t.add("store.misses" if result is None else "store.hits", 1)


def _on_decode(t: Tracer, args, result, before, seconds) -> None:
    if isinstance(result, dict):
        t.set_request(result.get("id"))


def _on_handle(t: Tracer, args, result, before, seconds) -> None:
    if b'"error":' in result:
        t.add("server.errors", 1)
    t.set_request(None)


def _call_id(t: Tracer, args) -> None:
    # The id ServerClient.call is about to put on the wire.
    t.set_request(args[0]._next_id + 1)


def _on_call(t: Tracer, args, result, before, seconds) -> None:
    t.set_request(None)


def _on_leaks(t: Tracer, args, result, before, seconds) -> None:
    t.add("checkers.clusters_selected", result.stats.clusters_selected)
    t.add("checkers.clusters_total", result.stats.clusters_total)


_HOOKS: Dict[str, Callable] = {
    "tokenize": _on_tokens,
    "relevant_statements": _on_slice,
    "andersen_refine": _on_refine,
    "run_cascade": _on_cascade,
    "FSCI.run": _on_fsci,
    "ClusterFSCS.analyze": _on_summaries,
    "BootstrapResult.analyze_all": _on_analyze_all,
    "build_payload": _on_payload,
    "ParallelRunner.run": _on_runner,
    "ParallelRunner.run_payloads": _on_runner,
    "FileStore.get": _on_file_get,
    "FileStore.invalidate": _on_file_get,
    "ClusterStore.get": _on_cluster_get,
    "decode": _on_decode,
    "AliasServer.handle_line": _on_handle,
    "run_leaks": _on_leaks,
    "ServerClient.call": _on_call,
}

_PRE_HOOKS: Dict[str, Callable] = {
    "FileStore.get": _loads_before,
    "FileStore.invalidate": _loads_before,
    "ServerClient.call": _call_id,
}
