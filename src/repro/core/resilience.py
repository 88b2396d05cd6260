"""Fault-tolerant cluster execution with sound graceful degradation.

Kahlon's bootstrapping is a chain of sound over-approximations:
Steensgaard partitions cover Andersen clusters (Theorem 2), clusters
cover the FSCS facts computed within them (Theorem 7), and the sliced
FSCI the FSCS pass consumes over-approximates the FSCS result itself.
That chain is usually presented as a *precision* story — each stage
narrows the next stage's work — but it is equally a *robustness* story:
when the most precise stage fails (a worker crash, a hang, a blown
budget, a corrupted result), any earlier stage's answer for the same
cluster is still sound.  This module turns that observation into an
execution policy:

* :class:`RunPolicy` — per-cluster wall-clock timeout (enforced inside
  the solve via the analysis deadline *and* by the parent, which kills
  a worker that reports nothing for too long), bounded retry rounds
  with one exponential backoff sleep per round, and a
  max-consecutive-failure circuit breaker that stops retrying when
  failures keep coming — one policy, run by one loop
  (:meth:`repro.core.parallel.ParallelRunner.run`) on both backends;
* the **degradation ladder** :func:`degrade_ladder` — FSCS → sliced
  FSCI → Andersen over the cluster's slice → Steensgaard partition:
  each rung re-answers the cluster's points-to query with a coarser,
  cheaper, still-sound analysis, and the outcome is tagged with the
  precision level actually achieved so every downstream consumer
  (reports, diagnostics, the daemon) can say "this fact is real but
  coarse";
* error *markers* (:func:`error_marker`): the picklable stand-in a
  part (:mod:`repro.core.parallel`, in this process or in a forked
  worker) returns for a cluster whose attempt raised, so one failure
  does not poison its whole part; the loop re-raises
  (:func:`raise_marker`), retries or degrades.

Degraded outcomes keep the exact shape of clean ones
(``{"stats", "points_to"}``) plus ``status``/``precision``/``error``/
``attempts`` tags; clean outcomes stay untagged, so the cross-backend
bit-identity the differential suite checks is untouched, and degraded
outcomes are never written to the summary cache (a later healthy run
must recompute at full precision).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from ..analysis.andersen import Andersen
from ..analysis.cutshortcut import CutShortcutTransform
from ..analysis.fsci import FSCI, slice_functions
from ..analysis.steensgaard import Steensgaard
from ..analysis.steensgaard_fs import SteensgaardFS
from ..errors import AnalysisBudgetExceeded, ReproError
from ..ir import CallGraph, Program
from .clusters import Cluster

#: The ladder, most precise first.  ``fscs`` is the clean outcome; a
#: degraded outcome carries one of the other five.
PRECISION_LEVELS = ("fscs", "fsci", "cutshortcut", "andersen",
                    "steensgaard_fs", "steensgaard")

_ERROR_KEY = "__cluster_error__"

#: Stats shape of a degraded outcome: no summaries were built.
_ZERO_STATS = {"summarized_functions": 0, "summary_entries": 0,
               "engine_steps": 0, "fsci_iterations": 0}


def coarsest(levels: Iterable[str]) -> str:
    """The least precise of ``levels`` (ladder order)."""
    worst = 0
    for level in levels:
        worst = max(worst, PRECISION_LEVELS.index(level))
    return PRECISION_LEVELS[worst]


class ClusterExecutionError(ReproError):
    """A cluster's analysis failed and degradation was not allowed."""

    def __init__(self, index: int, message: str) -> None:
        self.index = index
        super().__init__(f"cluster {index} failed: {message}")


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunPolicy:
    """How hard to try, how long to wait, and whether to degrade.

    ``cluster_timeout`` is the per-cluster wall-clock budget; it becomes
    the analysis deadline of every attempt, on either backend (catching
    livelocks the solver can observe), a fresh deadline for the
    degradation ladder, *and* bounds the parent's wait for a worker's
    next result (:meth:`future_timeout`, catching hard hangs the solver
    cannot observe).  ``retries`` counts retry rounds after the first
    attempt; the failed clusters of every part are retried together,
    after one backoff sleep per round (:meth:`delay`, exponential and
    capped).  ``max_consecutive_failures`` trips the circuit breaker:
    once that many retries in a row have failed, the remaining failed
    clusters skip straight to degradation instead of another retry
    round.  Both backends read the policy the same way, so it gives the
    same attempts, sleeps and degraded clusters on either.
    ``hard_timeout`` is the backstop applied when ``cluster_timeout`` is
    unset, so no worker is ever awaited unboundedly.
    """

    cluster_timeout: Optional[float] = None
    retries: int = 1
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    max_consecutive_failures: int = 8
    degrade: bool = True
    grace: float = 5.0
    hard_timeout: float = 3600.0

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry round ``attempt`` (2 = first
        retry)."""
        return min(self.max_backoff,
                   self.backoff * self.backoff_factor ** max(0, attempt - 2))

    def future_timeout(self) -> float:
        """Bound on waiting for one cluster's result: the processes
        backend waits this long for each next result of a worker, from
        the previous one or the fork, and then kills the worker, so only
        the cluster it was running fails.  One ``cluster_timeout`` (the
        solve's own deadline) plus ``grace``; degradation runs in the
        parent, after the wait."""
        if self.cluster_timeout is None:
            return self.hard_timeout
        return self.cluster_timeout + self.grace

    def deadline(self) -> Optional[float]:
        """An absolute ``time.monotonic()`` deadline ``cluster_timeout``
        from now (``None`` when unset): one per solve attempt, and one
        for the degradation ladder."""
        if self.cluster_timeout is None:
            return None
        return time.monotonic() + self.cluster_timeout


#: The policy applied when none is given, on either backend: no
#: per-cluster timeout (just the hard backstop), one retry round for
#: transient failures, *no* degradation — a crash, hang or solver
#: exception surfaces as a structured error instead of blocking
#: forever, and a blown budget as :class:`AnalysisBudgetExceeded`.
DEFAULT_POLICY = RunPolicy(cluster_timeout=None, retries=1, degrade=False)


class CircuitBreaker:
    """Consecutive-failure counter shared across retry attempts.

    Two deployments share this class.  In the retry rounds of
    :meth:`~repro.core.parallel.ParallelRunner.run` (either backend) it
    is a one-way fuse: once ``threshold`` retries in a row have failed,
    no further round starts, remaining failures skip straight to
    degradation, and the breaker never closes again within the run.  At
    *shard* level
    (the fleet coordinator keeps one breaker per worker) the breaker
    must also *heal*: pass ``reset_timeout`` and an open breaker turns
    **half-open** that many seconds after its last recorded failure —
    :meth:`allow_probe` then admits exactly one probe at a time, whose
    success closes the breaker (the shard rejoins the ring) and whose
    failure re-opens it for another ``reset_timeout``.
    """

    def __init__(self, threshold: int,
                 reset_timeout: Optional[float] = None) -> None:
        self.threshold = threshold
        self.reset_timeout = reset_timeout
        self.trips = 0
        self._consecutive = 0
        self._last_failure = 0.0
        self._probing = False
        self._lock = threading.Lock()

    def record_success(self) -> None:
        with self._lock:
            self._consecutive = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive += 1
            self._last_failure = time.monotonic()
            self._probing = False
            if self._consecutive == self.threshold:
                self.trips += 1

    @property
    def is_open(self) -> bool:
        with self._lock:
            return self._consecutive >= self.threshold

    def allow_probe(self) -> bool:
        """Half-open check: may the caller send one probe through an
        open breaker?  True once per ``reset_timeout`` window — the
        probe's ``record_success``/``record_failure`` decides whether
        the breaker closes or re-opens.  Always False while closed (no
        probe needed) or when no ``reset_timeout`` was given (the
        retry rounds' one-way fuse)."""
        if self.reset_timeout is None:
            return False
        with self._lock:
            if self._consecutive < self.threshold or self._probing:
                return False
            if time.monotonic() - self._last_failure < self.reset_timeout:
                return False
            self._probing = True
            return True

    def state(self) -> str:
        """``closed`` | ``open`` | ``half-open`` (for status reports)."""
        with self._lock:
            if self._consecutive < self.threshold:
                return "closed"
            if self.reset_timeout is not None and (
                    self._probing
                    or time.monotonic() - self._last_failure
                    >= self.reset_timeout):
                return "half-open"
            return "open"


# ----------------------------------------------------------------------
# outcome shape: validation, markers, tags
# ----------------------------------------------------------------------

def validate_outcome(outcome: Any, pointer_names: Iterable[str]) -> bool:
    """Is ``outcome`` a structurally sound cluster outcome?  Checked on
    every outcome a part returns, on either backend, so a corrupted
    result is indistinguishable from a crash: retried, then degraded."""
    if not isinstance(outcome, dict):
        return False
    pts = outcome.get("points_to")
    if not isinstance(pts, dict) or not isinstance(outcome.get("stats"), dict):
        return False
    for name in pointer_names:
        objs = pts.get(name)
        if not isinstance(objs, list) \
                or not all(isinstance(o, str) for o in objs):
            return False
    return True


def is_degraded(outcome: Any) -> bool:
    return isinstance(outcome, dict) and outcome.get("status") == "degraded"


def error_marker(exc: BaseException, retryable: bool = True
                 ) -> Dict[str, Any]:
    """A picklable stand-in for an exception, so one failing cluster
    does not poison the rest of its worker's part."""
    marker: Dict[str, Any] = {
        _ERROR_KEY: f"{type(exc).__name__}: {exc}",
        "retryable": retryable,
    }
    if isinstance(exc, AnalysisBudgetExceeded):
        # Deterministic: retrying cannot help, and when degradation is
        # off the parent must re-raise the original error type.
        marker["retryable"] = False
        marker["budget"] = {"analysis": exc.analysis, "steps": exc.steps}
    return marker


def is_error_marker(outcome: Any) -> bool:
    return isinstance(outcome, dict) and _ERROR_KEY in outcome


def raise_marker(marker: Dict[str, Any], index: int) -> None:
    """Re-raise the failure a marker stands for."""
    budget = marker.get("budget")
    if budget is not None:
        raise AnalysisBudgetExceeded(budget["analysis"], budget["steps"])
    raise ClusterExecutionError(index, marker[_ERROR_KEY])


# ----------------------------------------------------------------------
# the degradation ladder
# ----------------------------------------------------------------------

def _fs_of(program: Program) -> Any:
    """The whole-program field-sensitive Steensgaard result, cached on
    the program (several clusters degrading in one run share it)."""
    cached = getattr(program, "_steensgaard_fs_result", None)
    if cached is None:
        cached = SteensgaardFS(program).run()
        program._steensgaard_fs_result = cached  # type: ignore[attr-defined]
    return cached


def degraded_outcome(program: Program, cluster: Cluster, level: str,
                     steens: Optional[Any] = None,
                     callgraph: Optional[CallGraph] = None,
                     error: str = "", attempts: int = 1,
                     deadline: Optional[float] = None) -> Dict[str, Any]:
    """One rung: the cluster's points-to facts recomputed by the
    coarser analysis named by ``level``.

    Soundness per rung (each ⊇ the clean FSCS facts at the program
    exit):

    * ``fsci`` — the sliced flow-sensitive context-*insensitive* pass
      the FSCS stage already consumes as its own over-approximation,
      projected flow-insensitively (the union of each pointer's facts
      over every visited location).  The exit-state alone would not do:
      base-case-less call cycles (e.g. through a function pointer) let
      the context-insensitive supergraph reach the exit only along
      unrealizable return paths that drop facts the clean backward
      summaries still report;
    * ``cutshortcut`` — Andersen over the cut-shortcut-transformed
      slice: per-site return edges replace the shared return conduits,
      which still covers every realizable return flow (the summaries
      bail to the untransformed edge on anything they cannot prove), so
      the solution covers each location's facts while staying at or
      below the ``andersen`` rung;
    * ``andersen`` — flow-insensitive inclusion constraints over the
      same sliced statements, so its (location-free) solution covers
      every location's facts;
    * ``steensgaard_fs`` — field-sensitive unification over the whole
      program: every partition (hence every per-field pointee set) is a
      subset of the classic rung's below it, and still a sound cover;
    * ``steensgaard`` — unification over the whole program, the coarsest
      cover in the cascade.
    """
    members = sorted(cluster.pointer_members, key=str)
    points_to: Dict[str, List[str]] = {}
    if level == "fsci":
        relevant = cluster.slice.statements
        cg = callgraph or CallGraph(program)
        fsci = FSCI(program, tracked=cluster.slice.vp, relevant=relevant,
                    functions=slice_functions(program, cg, relevant),
                    callgraph=cg, deadline=deadline).run()
        # The clean FSCS summaries conservatively cover slice statements
        # the supergraph never reaches from the entry (uncalled helpers,
        # thread bodies); the fixpoint rightly computes nothing for
        # them.  To stay a superset of the clean answer, widen with
        # Andersen over the slice whenever part of it went unreached —
        # still at or below the next rung, which Andersens the slice
        # regardless.
        extra = None
        if any(not fsci.reached_before(loc) for loc in relevant):
            stmts = [program.stmt_at(loc) for loc in relevant]
            extra = Andersen(program, statements=stmts).run()
        for p in members:
            objs = set(fsci.points_to(p))
            if extra is not None:
                objs |= extra.points_to(p)
            points_to[str(p)] = sorted(str(o) for o in objs)
    elif level == "cutshortcut":
        transform = CutShortcutTransform.of(program)
        stmts = transform.transform_statements(
            (loc, program.stmt_at(loc)) for loc in cluster.slice.statements)
        result = Andersen(program, statements=stmts).run()
        for p in members:
            points_to[str(p)] = sorted(str(o) for o in result.points_to(p))
    elif level == "andersen":
        stmts = [program.stmt_at(loc) for loc in cluster.slice.statements]
        result = Andersen(program, statements=stmts).run()
        for p in members:
            points_to[str(p)] = sorted(str(o) for o in result.points_to(p))
    elif level == "steensgaard_fs":
        result = _fs_of(program)
        for p in members:
            points_to[str(p)] = sorted(str(o) for o in result.points_to(p))
    elif level == "steensgaard":
        result = steens if steens is not None else Steensgaard(program).run()
        for p in members:
            points_to[str(p)] = sorted(str(o) for o in result.points_to(p))
    else:
        raise ValueError(f"not a degraded precision level: {level!r}")
    return {
        "stats": dict(_ZERO_STATS),
        "points_to": points_to,
        "status": "degraded",
        "precision": level,
        "error": error,
        "attempts": attempts,
    }


def degrade_ladder(program: Program, cluster: Cluster,
                   start_level: str = "fsci",
                   steens: Optional[Any] = None,
                   callgraph: Optional[CallGraph] = None,
                   error: str = "", attempts: int = 1,
                   deadline: Optional[float] = None) -> Dict[str, Any]:
    """Walk the ladder from ``start_level`` down, returning the first
    rung that completes.  A rung that itself fails (e.g. the sliced FSCI
    blows the same deadline) falls through to the next; Steensgaard is
    linear-time and effectively cannot fail, so the ladder terminates
    with a sound answer."""
    rungs = PRECISION_LEVELS[PRECISION_LEVELS.index(start_level):]
    for level in rungs[:-1]:
        try:
            return degraded_outcome(program, cluster, level, steens=steens,
                                    callgraph=callgraph, error=error,
                                    attempts=attempts, deadline=deadline)
        except Exception:
            continue
    return degraded_outcome(program, cluster, rungs[-1], steens=steens,
                            callgraph=callgraph, error=error,
                            attempts=attempts, deadline=deadline)
