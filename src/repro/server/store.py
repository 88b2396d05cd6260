"""Server-side state: cluster outcomes (LRU) and per-file analyses.

Two stores back the daemon:

* :class:`ClusterStore` — a thread-safe in-memory LRU of per-cluster
  analysis outcomes keyed by each cluster's content key
  (:func:`~repro.core.shipping.cluster_fingerprints`), optionally backed by
  the on-disk :class:`~repro.core.summary_cache.SummaryCache` (PR 2) so
  a daemon restart warm-starts from disk.  It is duck-compatible with
  the ``cache`` argument of
  :meth:`~repro.core.bootstrap.BootstrapResult.analyze_all`, which is
  exactly how incremental re-analysis works: a reload re-runs *only* the
  clusters whose content keys miss the store.
* :class:`FileStore` — an LRU of :class:`FileState` (parsed program +
  bootstrap result + per-cluster outcomes) keyed by absolute path, with
  one lock per file so concurrent queries on different files proceed in
  parallel while a reload of one file is serialized.

Invalidation is content-key-based end to end: ``invalidate`` (or a
changed mtime/content hash observed at query time) re-parses and
re-bootstraps the file, recomputes every cluster's content key, then
:meth:`FileState` re-analysis hits the cluster store for every cluster
whose sliced sub-program is unchanged — so a one-function edit
re-analyzes only the clusters whose slices pass through that function
(the grain `tests/test_summary_cache.py` pins).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core import (
    BootstrapAnalyzer,
    BootstrapConfig,
    CascadeConfig,
    SummaryCache,
    diagnostics_to_dict,
    resolve_pointer,
    select_clusters,
)
from ..core.bootstrap import BootstrapResult
from ..core.faults import FaultSpec
from ..core.resilience import RunPolicy
from ..errors import ReproError
from ..ir import Loc, Program, Var
from .protocol import (
    ANALYSIS_ERROR,
    FILE_ERROR,
    INVALID_PARAMS,
    MAX_REQUEST_BYTES,
    RequestError,
)


@dataclass
class ServerConfig:
    """Analysis and store knobs shared by every file the daemon serves."""

    entry: str = "main"
    threshold: int = 60
    oneflow: bool = False
    #: First-stage unification (``steensgaard`` | ``steensgaard_fs``)
    #: plus its field-slot cap, and the cut-shortcut Andersen-stage
    #: rewrite — the ``--clustering``/``--sharing-bound``/
    #: ``--cutshortcut`` daemon flags.
    clustering: str = "steensgaard"
    sharing_bound: int = 8
    cutshortcut: bool = False
    parts: int = 5
    backend: str = "simulate"
    jobs: Optional[int] = None
    scheduler: str = "greedy"
    fscs_budget: Optional[int] = None
    max_cond_atoms: int = 4
    #: In-memory LRU capacity of the cluster-outcome store.
    max_clusters: int = 4096
    #: How many files' analysis states stay resident.
    max_files: int = 16
    #: On-disk summary cache directory (None = memory only).
    cache_dir: Optional[str] = None
    #: Re-check file mtime/hash at query time and reload on change.
    watch: bool = True
    #: Upper bound on one request line; longer lines are rejected with
    #: a structured ``REQUEST_TOO_LARGE`` error and the connection
    #: resyncs at the next newline.
    max_request_bytes: int = MAX_REQUEST_BYTES
    #: Resilience knobs (``repro serve --cluster-timeout/--retries/
    #: --degrade``).  The defaults are ``DEFAULT_POLICY``: an un-tuned
    #: daemon fails a load whose cluster still fails after one retry
    #: round (a budget overrun stays a structured ``BUDGET_EXCEEDED``
    #: error), while a tuned one serves partial results with
    #: degraded-precision warnings instead.
    cluster_timeout: Optional[float] = None
    retries: int = 1
    degrade: bool = False
    #: Deterministic fault injection for the resilience test/bench path.
    inject_faults: Optional[List[FaultSpec]] = None

    def bootstrap_config(self) -> BootstrapConfig:
        return BootstrapConfig(
            cascade=CascadeConfig(andersen_threshold=self.threshold,
                                  use_oneflow=self.oneflow,
                                  clustering=self.clustering,
                                  sharing_bound=self.sharing_bound,
                                  cutshortcut=self.cutshortcut),
            parts=self.parts,
            fscs_budget=self.fscs_budget,
            max_cond_atoms=self.max_cond_atoms)

    def run_policy(self) -> RunPolicy:
        """The :class:`RunPolicy` for bulk analysis (``DEFAULT_POLICY``'s
        equal when no resilience knob is set)."""
        return RunPolicy(cluster_timeout=self.cluster_timeout,
                         retries=self.retries, degrade=self.degrade)


class _LRU:
    """A map capped at ``limit`` entries that drops the least recently
    used first; every method holds the owner's ``lock``."""

    def __init__(self, limit: int, lock: threading.RLock) -> None:
        self.limit = limit
        self.evictions = 0
        self._data: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = lock

    def get(self, key: str) -> Any:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def __setitem__(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.limit:
                self._data.popitem(last=False)
                self.evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._data)

    def values(self) -> List[Any]:
        with self._lock:
            return list(self._data.values())


class ClusterStore:
    """Thread-safe LRU of cluster outcomes keyed by content key.

    ``get``/``put`` match the :class:`SummaryCache` interface, so an
    instance can be passed straight to ``analyze_all(cache=...)``.  With
    a ``disk`` backing, reads fall through to disk (and promote into
    memory) and writes go to both, giving restarts a warm start.
    """

    def __init__(self, max_entries: int = 4096,
                 disk: Union[SummaryCache, str, None] = None) -> None:
        if isinstance(disk, str):
            disk = SummaryCache(disk)
        self.disk = disk
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._mem = _LRU(max_entries, self._lock)
        self.hits = 0
        self.misses = 0

    @property
    def evictions(self) -> int:
        return self._mem.evictions

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        outcome = self._mem.get(key)
        if outcome is None and self.disk is not None:
            outcome = self.disk.get(key)
            if outcome is not None:
                self._mem[key] = outcome
        with self._lock:
            if outcome is None:
                self.misses += 1
            else:
                self.hits += 1
        return outcome

    def put(self, key: str, outcome: Dict[str, Any]) -> None:
        self._mem[key] = outcome
        if self.disk is not None:
            self.disk.put(key, outcome)

    def __contains__(self, key: str) -> bool:
        return key in self._mem or (self.disk is not None
                                    and key in self.disk)

    def __len__(self) -> int:
        return len(self._mem)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._mem),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "disk": self.disk.root if self.disk is not None else None,
            }


@dataclass
class RefreshStats:
    """Accounting of one (re)load of a file's analysis state."""

    clusters: int
    reanalyzed: int   # cluster-store misses: content keys never seen
    reused: int       # cluster-store hits: unchanged sliced sub-programs
    seconds: float
    reason: str       # "cold" | "changed" | "invalidate"
    degraded: int = 0  # clusters served at reduced precision

    @property
    def reanalyzed_fraction(self) -> float:
        return self.reanalyzed / self.clusters if self.clusters else 0.0

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["reanalyzed_fraction"] = self.reanalyzed_fraction
        return out


def _source_fingerprint(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _run_answer(run: Any) -> Dict[str, Any]:
    """The fields every demand-verb answer (taint, leaks, deadlocks)
    reads from its :class:`~repro.checkers.base.CheckerRun`."""
    return {
        "diagnostics": diagnostics_to_dict(run.diagnostics),
        "stats": dataclasses.asdict(run.stats),
        "rounds": run.rounds,
        "demanded": sorted(str(v) for v in run.demanded),
    }


class FileState:
    """One served file: program, bootstrap result, cluster outcomes.

    Queries answer exactly what the one-shot CLI answers: ``points_to``
    reads the per-cluster outcome table (computed identically to
    ``repro analyze --points-to`` at the entry's exit, as the
    cross-backend differential suite guarantees); ``may_alias`` and
    ``must_alias`` go through the in-memory analyses, lazily and
    demand-driven, memoized across queries on the result object.
    """

    def __init__(self, path: str, source_hash: str, stat: os.stat_result,
                 program: Program, result: BootstrapResult,
                 fingerprints: List[str], outcomes: List[Dict[str, Any]],
                 refresh: RefreshStats,
                 degraded: Optional[Dict[int, str]] = None) -> None:
        self.path = path
        self.source_hash = source_hash
        self.mtime_ns = stat.st_mtime_ns
        self.size = stat.st_size
        self.program = program
        self.result = result
        self.fingerprints = fingerprints
        self.outcomes = outcomes
        self.refresh = refresh
        #: Cluster index -> precision level for clusters the resilience
        #: layer degraded during this load; queries touching them carry
        #: structured ``degraded-precision`` warnings.
        self.degraded: Dict[int, str] = degraded or {}
        #: True when the load's cluster timeout was tightened to a
        #: request deadline's remaining budget.  Such a state is served
        #: to the request that asked for it but never kept if anything
        #: degraded: a later unconstrained query must not inherit
        #: precision lost to someone else's deadline.
        self.deadline_clamped = False
        self.queries = 0
        self._must = None
        #: Checker answers keyed by (verb, *parameters).  They live on
        #: this load and are dropped with it, so invalidation stays
        #: fingerprint-grained at the cluster level and query-grained
        #: here.
        self._answers: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def exit_loc(self) -> Loc:
        entry = self.program.entry
        return Loc(entry, self.program.cfg_of(entry).exit)

    def resolve(self, name: str) -> Var:
        try:
            return resolve_pointer(self.program, name)
        except LookupError as exc:
            raise RequestError(INVALID_PARAMS, str(exc))

    def _selection(self, pointers: Sequence[Var]) -> Dict[str, Any]:
        sel = select_clusters(self.result, pointers)
        return {"selected": len(sel.selected),
                "total": sel.total_clusters,
                "pointer_fraction": sel.pointer_fraction}

    def degraded_warnings(self, pointers: Optional[Sequence[Var]] = None
                          ) -> List[Dict[str, Any]]:
        """Structured warnings for the degraded clusters a query rests
        on (all of them when ``pointers`` is ``None``).  Empty on
        healthy loads, so clean responses are unchanged."""
        out: List[Dict[str, Any]] = []
        for i, level in sorted(self.degraded.items()):
            cluster = self.result.clusters[i]
            if pointers is not None \
                    and not any(p in cluster.members for p in pointers):
                continue
            outcome = self.outcomes[i] if i < len(self.outcomes) else {}
            entry: Dict[str, Any] = {"code": "degraded-precision",
                                     "cluster": i, "precision": level}
            error = outcome.get("error") if isinstance(outcome, dict) \
                else None
            if error:
                entry["reason"] = error
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    def points_to(self, name: str) -> Dict[str, Any]:
        """Union of the pointer's per-cluster outcome sets at the end of
        the entry function — bit-identical to the one-shot CLI query."""
        p = self.resolve(name)
        objs: set = set()
        for cluster, outcome in zip(self.result.clusters, self.outcomes):
            if p in cluster.members:
                objs.update(outcome["points_to"].get(str(p), ()))
        out: Dict[str, Any] = {"pointer": str(p), "objects": sorted(objs),
                               "clusters": self._selection([p])}
        warnings = self.degraded_warnings([p])
        if warnings:
            out["warnings"] = warnings
        return out

    def may_alias(self, p_name: str, q_name: str) -> Dict[str, Any]:
        p, q = self.resolve(p_name), self.resolve(q_name)
        with self._lock:
            verdict = self.result.may_alias(p, q, self.exit_loc)
        return {"p": str(p), "q": str(q), "may_alias": verdict,
                "clusters": self._selection([p, q])}

    def must_alias(self, p_name: str, q_name: str) -> Dict[str, Any]:
        from ..analysis import MustAlias
        p, q = self.resolve(p_name), self.resolve(q_name)
        with self._lock:
            if self._must is None:
                self._must = MustAlias(self.program).run()
            verdict = self._must.must_alias(p, q, self.exit_loc)
        return {"p": str(p), "q": str(q), "must_alias": verdict}

    def _answer(self, key: Tuple[Any, ...],
                compute: Callable[[], Dict[str, Any]],
                refresh: bool = True) -> Dict[str, Any]:
        """The answer for ``key``, computed once per load under the file
        lock; a degraded load adds its warnings.  ``refresh`` attaches
        the load's accounting to the response (never to the cache)."""
        with self._lock:
            cached = self._answers.get(key)
            if cached is None:
                cached = compute()
                warnings = self.degraded_warnings()
                if warnings:
                    cached["warnings"] = warnings
                self._answers[key] = cached
        if not refresh:
            return cached
        out = dict(cached)
        out["refresh"] = self.refresh.to_dict()
        return out

    def diagnostics(self, checkers: Optional[Sequence[str]] = None
                    ) -> Dict[str, Any]:
        from ..checkers import CHECKER_REGISTRY, run_checkers
        names = tuple(dict.fromkeys(checkers)) if checkers else ()
        unknown = [n for n in names if n not in CHECKER_REGISTRY]
        if unknown:
            raise RequestError(
                INVALID_PARAMS,
                f"unknown checker(s): {', '.join(unknown)} "
                f"(have: {', '.join(sorted(CHECKER_REGISTRY))})")

        def compute() -> Dict[str, Any]:
            report = run_checkers(self.program, names=list(names) or None,
                                  result=self.result)
            return {
                "diagnostics": diagnostics_to_dict(report.diagnostics),
                "checkers": [dataclasses.asdict(st)
                             for st in report.stats],
            }
        return self._answer(("diagnostics", names), compute,
                            refresh=False)

    def taint(self, spec: Optional[Dict[str, Any]] = None
              ) -> Dict[str, Any]:
        """Taint flows for this file, cached per spec digest.

        The cache lives on the :class:`FileState`, so an ``invalidate``
        (or a watched change) rebuilds it against the fresh bootstrap
        result — whose clusters came back from the fingerprint-keyed
        cluster store wherever their sliced sub-programs were unchanged.
        The ``refresh`` block in the response surfaces exactly that
        accounting.
        """
        from ..analysis.taint import TaintSpec
        from ..checkers import run_taint
        if spec is None:
            taint_spec = TaintSpec.default()
        else:
            try:
                taint_spec = TaintSpec.from_dict(spec)
            except (ValueError, TypeError, KeyError,
                    AttributeError) as exc:
                raise RequestError(INVALID_PARAMS,
                                   f"bad taint spec: {exc}")
        digest = taint_spec.digest()

        def compute() -> Dict[str, Any]:
            run = run_taint(self.program, spec=taint_spec,
                            result=self.result)
            return dict(_run_answer(run), spec_digest=digest)
        return self._answer(("taint", digest), compute)

    def leaks(self) -> Dict[str, Any]:
        """Memory-leak findings for this file (cached like
        :meth:`taint`)."""
        from ..checkers import run_leaks

        def compute() -> Dict[str, Any]:
            run = run_leaks(self.program, result=self.result)
            return dict(_run_answer(run),
                        leaked=sorted(str(s) for s in run.value),
                        engine=dataclasses.asdict(run.engine))
        return self._answer(("leaks",), compute)

    def deadlocks(self, threads: Optional[Sequence[str]] = None
                  ) -> Dict[str, Any]:
        """Lock-order-cycle findings, cached per thread-entry tuple."""
        from ..checkers import run_deadlocks
        names = tuple(threads) if threads else ()
        unknown = [t for t in names if t not in self.program.functions]
        if unknown:
            raise RequestError(
                INVALID_PARAMS,
                f"unknown thread entr"
                f"{'y' if len(unknown) == 1 else 'ies'}: "
                f"{', '.join(unknown)}")

        def compute() -> Dict[str, Any]:
            run = run_deadlocks(self.program, result=self.result,
                                thread_entries=list(names) or None)
            return dict(_run_answer(run),
                        cycles=[c.key for c in run.value.cycles],
                        thread_entries=list(run.value.thread_entries),
                        engine=dataclasses.asdict(run.engine))
        return self._answer(("deadlocks", names), compute)

    # ------------------------------------------------------------------
    def source_changed(self) -> bool:
        """Cheap staleness probe: stat first, hash only when stat moved."""
        try:
            st = os.stat(self.path)
        except OSError:
            return True
        if st.st_mtime_ns == self.mtime_ns and st.st_size == self.size:
            return False
        try:
            with open(self.path, "r") as handle:
                changed = _source_fingerprint(handle.read()) \
                    != self.source_hash
        except OSError:
            return True
        if not changed:
            # Content identical; remember the new stat to skip re-hashing.
            self.mtime_ns = st.st_mtime_ns
            self.size = st.st_size
        return changed

    def summary(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "source_hash": self.source_hash,
            "clusters": len(self.result.clusters),
            "pointers": len(self.program.pointers),
            "queries": self.queries,
            "degraded": len(self.degraded),
            "last_refresh": self.refresh.to_dict(),
        }


class FileStore:
    """LRU of per-file analysis states with per-file locking."""

    def __init__(self, config: ServerConfig,
                 clusters: Optional[ClusterStore] = None) -> None:
        self.config = config
        self.clusters = clusters if clusters is not None else ClusterStore(
            max_entries=config.max_clusters, disk=config.cache_dir)
        self._lock = threading.RLock()
        self._files = _LRU(config.max_files, self._lock)
        self._locks: Dict[str, threading.RLock] = {}
        self.loads = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def _file_lock(self, path: str) -> threading.RLock:
        with self._lock:
            return self._locks.setdefault(path, threading.RLock())

    def get(self, path: str,
            deadline: Optional[float] = None) -> FileState:
        """The (possibly freshly loaded) state for ``path``; with
        ``watch`` on, a changed file is transparently reloaded.

        ``deadline`` (absolute ``time.time()`` seconds) bounds a load
        this call triggers: the per-cluster timeout is clamped to the
        remaining budget so an in-flight solve aborts (or degrades,
        when the policy allows) via the existing timeout machinery
        instead of running past the caller's patience.  A state that
        lost precision to such a clamp is served once and not kept.
        """
        path = os.path.abspath(path)
        with self._file_lock(path):
            state = self._files.get(path)
            if state is not None and self.config.watch \
                    and state.source_changed():
                state = self._load(path, reason="changed",
                                   deadline=deadline)
            elif state is None:
                state = self._load(path, reason="cold",
                                   deadline=deadline)
            if state.deadline_clamped and state.refresh.degraded:
                return state
            self._files[path] = state
            return state

    def invalidate(self, path: str) -> FileState:
        """Force a reload; unchanged-fingerprint clusters come back from
        the cluster store, so only the edited slices are re-analyzed."""
        path = os.path.abspath(path)
        with self._file_lock(path):
            self.invalidations += 1
            state = self._load(path, reason="invalidate")
            self._files[path] = state
            return state

    def paths(self) -> List[str]:
        return self._files.keys()

    def states(self) -> List[FileState]:
        return self._files.values()

    # ------------------------------------------------------------------
    def _load(self, path: str, reason: str,
              deadline: Optional[float] = None) -> FileState:
        from ..frontend import parse_program
        t0 = time.perf_counter()
        try:
            st = os.stat(path)
            with open(path, "r") as handle:
                source = handle.read()
        except OSError as exc:
            raise RequestError(
                FILE_ERROR, f"cannot read {path}: {exc.strerror or exc}")
        try:
            program = parse_program(source, entry=self.config.entry,
                                    path=path)
        except ReproError as exc:
            raise RequestError(ANALYSIS_ERROR, f"{path}: {exc}")
        policy = self.config.run_policy()
        clamped = False
        if deadline is not None:
            # The remaining end-to-end budget bounds every cluster of
            # this load (a floor keeps the timeout meaningful — a
            # deadline that tight is shed by the caller's post-check).
            budget = max(deadline - time.time(), 0.01)
            if policy.cluster_timeout is None \
                    or policy.cluster_timeout > budget:
                policy = dataclasses.replace(policy,
                                             cluster_timeout=budget)
                clamped = True
        result = BootstrapAnalyzer(
            program, self.config.bootstrap_config()).run()
        report = result.analyze_all(backend=self.config.backend,
                                    jobs=self.config.jobs,
                                    scheduler=self.config.scheduler,
                                    cache=self.clusters,
                                    policy=policy,
                                    faults=self.config.inject_faults)
        degraded = report.degraded
        refresh = RefreshStats(
            clusters=len(result.clusters),
            reanalyzed=report.cache_misses,
            reused=report.cache_hits,
            seconds=time.perf_counter() - t0,
            reason=reason,
            degraded=len(degraded))
        self.loads += 1
        state = FileState(path=path,
                          source_hash=_source_fingerprint(source),
                          stat=st, program=program, result=result,
                          fingerprints=list(report.fingerprints or []),
                          outcomes=list(report.results),
                          refresh=refresh,
                          degraded=degraded)
        state.deadline_clamped = clamped
        return state
