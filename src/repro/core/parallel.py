"""Cluster scheduling and parallel execution.

Clusters are analyzable independently, so the paper simulates running on
5 machines: divide the total pointer count by 5 to get a target part
size, then sweep the clusters greedily, closing a part whenever the
accumulated pointer count exceeds the target; report the *maximum* part
time as the parallel wall-clock.  :func:`greedy_parts` reproduces that
heuristic verbatim.  A second scheduler, :func:`lpt_parts`, assigns
clusters longest-processing-time-first by a per-cluster cost estimate
(slice-statement count x cluster size), falling back to the paper's
greedy sweep whenever the sweep happens to balance better, so its
maximum part cost is never worse than the paper's heuristic.

This module also runs the clusters, through one loop,
:meth:`ParallelRunner.run`: schedule the clusters into parts, run every
part once, retry the clusters that failed together in rounds (one
backoff sleep per round, a circuit breaker across rounds), validate
every outcome, and degrade or raise for what still fails.  The backend
picks only where a round's parts execute:

* ``simulate`` — the paper's setup: each part in this process, one
  after the other, timed by the wall clock and accounted per part;
* ``processes`` — one child per scheduled part, forked after the
  cascade: the child inherits the analyzed program, its clusters, the
  per-cluster task and its part's cluster indices, and streams one
  ``(index, cpu seconds, outcome)`` message per cluster back over its
  own pipe — the real multi-core execution the paper's Table 1 "5
  machines" column simulates.  Its parts are built from *sibling
  units* (the clusters that share one FSCI pass,
  :attr:`~repro.core.clusters.Cluster.fsci_key`), so each shared FSCI
  runs once, in one worker, as it does in process.  A child that dies
  or stalls costs only the cluster it was running, and the rest of its
  part is forked again.

Both run each part through one helper that turns a cluster's exception
into an error marker, so one policy means the same attempts, sleeps and
degraded clusters on either backend.
"""

from __future__ import annotations

import gc
import heapq
import os
import selectors
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, Pipe
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .clusters import Cluster
from .resilience import (
    DEFAULT_POLICY,
    CircuitBreaker,
    ClusterExecutionError,
    RunPolicy,
    error_marker,
    is_error_marker,
    raise_marker,
    validate_outcome,
)

#: The execution backends ``ParallelRunner`` (and the CLI) accept.
BACKENDS = ("simulate", "processes")

#: The schedulers mapping clusters to parts.
SCHEDULERS = ("greedy", "lpt")


def cluster_cost(cluster: Cluster) -> int:
    """Cost estimate driving the LPT scheduler: the FSCS work on a
    cluster grows with both its sliced program and its pointer count, so
    ``slice statements x members`` (floored at 1 so empty-slice clusters
    still count as work units)."""
    return max(1, cluster.size * max(1, cluster.slice.size))


# ----------------------------------------------------------------------
# schedulers (index-based; cluster lists are thin wrappers)
# ----------------------------------------------------------------------

def greedy_index_parts(costs: Sequence[float], parts: int) -> List[List[int]]:
    """The paper's greedy sweep over item indices: accumulate in listed
    order, closing a part as soon as its cost exceeds ``total/parts``."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    total = sum(costs)
    target = total / parts
    out: List[List[int]] = []
    current: List[int] = []
    acc = 0.0
    for i, cost in enumerate(costs):
        current.append(i)
        acc += cost
        if acc > target and len(out) < parts - 1:
            out.append(current)
            current = []
            acc = 0.0
    if current or not out:
        out.append(current)
    return out


def lpt_index_parts(costs: Sequence[float], parts: int) -> List[List[int]]:
    """Longest-processing-time-first over item indices, with a greedy
    fallback: items are placed largest-first onto the least-loaded part;
    if the paper's sweep (:func:`greedy_index_parts`) happens to achieve
    a strictly smaller maximum part cost, its schedule is returned
    instead.  The result's max part cost is therefore never worse than
    the greedy heuristic's — a property the test suite checks.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if not costs:
        return [[]]
    loads = [(0.0, k) for k in range(min(parts, len(costs)))]
    heapq.heapify(loads)
    assignment: List[List[int]] = [[] for _ in range(len(loads))]
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    for i in order:
        load, k = heapq.heappop(loads)
        assignment[k].append(i)
        heapq.heappush(loads, (load + costs[i], k))
    lpt = [part for part in assignment if part]

    def max_cost(schedule: List[List[int]]) -> float:
        return max((sum(costs[i] for i in part) for part in schedule),
                   default=0.0)

    greedy = greedy_index_parts(costs, parts)
    if max_cost(greedy) < max_cost(lpt):
        return greedy
    return lpt


def greedy_parts(clusters: Sequence[Cluster], parts: int = 5
                 ) -> List[List[Cluster]]:
    """The paper's greedy distribution heuristic.

    "First we divide the total number of pointers in the given program by
    5 which gives us a rough estimate size5 of the number of pointers in
    each part. Then we process the clusters one-by-one and as soon as the
    sum of the number of pointers in each cluster exceeds size5, we
    combine all clusters processed so far into a single part at which
    point we re-start the processing."
    """
    schedule = greedy_index_parts([c.size for c in clusters], parts)
    return [[clusters[i] for i in part] for part in schedule]


def lpt_parts(clusters: Sequence[Cluster], parts: int = 5,
              cost: Callable[[Cluster], float] = cluster_cost
              ) -> List[List[Cluster]]:
    """LPT schedule over clusters using ``cost`` (default
    :func:`cluster_cost`); never worse than :func:`greedy_parts` on its
    own cost measure (see :func:`lpt_index_parts`)."""
    schedule = lpt_index_parts([cost(c) for c in clusters], parts)
    return [[clusters[i] for i in part] for part in schedule]


def sibling_units(clusters: Sequence[Cluster]) -> List[List[int]]:
    """Cluster indices grouped into scheduling units, in order of first
    appearance: the clusters of one :attr:`Cluster.fsci_key` form one
    unit (they share one FSCI pass), and a cluster without a key is a
    unit alone."""
    units: Dict[object, List[int]] = {}
    for i, cluster in enumerate(clusters):
        key = cluster.fsci_key
        units.setdefault(i if key is None else key, []).append(i)
    return list(units.values())


def schedule_indices(clusters: Sequence[Cluster], parts: int,
                     scheduler: str = "greedy",
                     siblings: bool = False) -> List[List[int]]:
    """Cluster indices per part under the chosen scheduler.  Index-based
    so duplicate (equal or even identical) clusters in the input keep
    distinct schedule slots.  With ``siblings`` the scheduler places
    :func:`sibling_units` whole, each costed at the sum of its members'
    costs, so no FSCI pass is split across parts."""
    if scheduler == "greedy":
        cost: Callable[[Cluster], float] = lambda c: c.size
        split = greedy_index_parts
    elif scheduler == "lpt":
        cost, split = cluster_cost, lpt_index_parts
    else:
        raise ValueError(f"unknown scheduler {scheduler!r} "
                         f"(have: {', '.join(SCHEDULERS)})")
    units = sibling_units(clusters) if siblings \
        else [[i] for i in range(len(clusters))]
    costs = [sum(cost(clusters[i]) for i in unit) for unit in units]
    return [[i for u in part for i in units[u]]
            for part in split(costs, parts)]


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

@dataclass
class ParallelReport:
    """Timing and results of one (possibly parallel) cluster run.

    ``results`` and every per-cluster field are keyed by the cluster's
    *index in the input sequence* — a stable key that survives
    duplicate clusters and pickling, unlike object identity.
    """

    part_times: List[float]
    cluster_times: Dict[int, float]  # index into the cluster list -> secs
    results: List[object]
    backend: str = "simulate"
    scheduler: str = "greedy"
    schedule: List[List[int]] = field(default_factory=list)
    wall_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cluster fingerprints (content keys, input order), when the run
    #: made them (a summary cache, or faults to select by) — the
    #: invalidation hook the query daemon diffs across reloads.
    fingerprints: Optional[List[str]] = None
    #: Attempts per solved cluster index: 1, or the retry round in
    #: which the cluster last ran.
    attempts: Dict[int, int] = field(default_factory=dict)

    @property
    def max_part_time(self) -> float:
        """The paper's reported number: the slowest simulated machine."""
        return max(self.part_times, default=0.0)

    @property
    def total_time(self) -> float:
        return sum(self.part_times)

    @property
    def degraded(self) -> Dict[int, str]:
        """Cluster index -> achieved precision level, for every cluster
        the degradation ladder handled (empty on clean runs).  Derived
        from outcome tags, so cached results need no bookkeeping."""
        out: Dict[int, str] = {}
        for i, outcome in enumerate(self.results):
            if isinstance(outcome, dict) and outcome.get("status") == "degraded":
                out[i] = str(outcome.get("precision", "steensgaard"))
        return out


#: One round's delivery callback: ``(part number, index, seconds,
#: outcome)``.
Deliver = Callable[[int, int, float, object], None]


def _run_part(task: Callable[[int], object], todo: Sequence[int],
              clock: Callable[[], float],
              send: Callable[[Tuple[int, float, object]], None]) -> None:
    """Run ``task(index)`` for each of ``todo`` and ``send`` each
    ``(index, seconds by clock, outcome)`` as it finishes.  An exception
    becomes an error marker, so one failing cluster does not poison the
    rest of its part."""
    for idx in todo:
        t0 = clock()
        try:
            outcome = task(idx)
        except Exception as exc:
            outcome = error_marker(exc)
        send((idx, clock() - t0, outcome))


def _run_local(batch: Sequence[Tuple[int, List[int]]],
               task: Callable[[int], object], limit: float,
               deliver: Deliver) -> None:
    """A ``simulate`` round: each part in this process, one after the
    other, timed by the wall clock (``limit`` is the processes
    backend's; a solve here is bounded by its own deadline)."""
    for part_no, todo in batch:
        _run_part(task, todo, time.perf_counter,
                  lambda msg: deliver(part_no, *msg))


@dataclass
class _Child:
    """One forked worker: its pid, the read end of its pipe, the part it
    serves, the indices it has not reported yet, and the monotonic time
    by which it must report the next one."""

    pid: int
    conn: Connection
    part_no: int
    todo: List[int]
    deadline: float


def _fork_child(task: Callable[[int], object], part_no: int,
                todo: List[int], limit: float,
                others: Sequence[Connection]) -> _Child:
    """Fork one worker for ``todo``.  The child inherits ``task`` (and
    with it the analyzed program), freezes the inherited heap, closes
    every pipe end but its own write end, runs its part under CPU
    timing (:func:`_run_part`), sending each result over the pipe as it
    finishes, and leaves by ``os._exit``.  Forking from the threaded
    daemon is safe because nothing a worker runs takes a lock another
    thread could hold at the fork."""
    reader, writer = Pipe(duplex=False)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        status = 1
        try:
            # The child leaves by os._exit and never needs the
            # collector to free what it inherited.  Freezing it (O(1))
            # keeps collections off those objects, sparing the
            # copy-on-write faults of writing to every header scanned.
            gc.freeze()
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            reader.close()
            for conn in others:
                conn.close()
            _run_part(task, todo, time.process_time, writer.send)
            status = 0
        finally:
            os._exit(status)
    writer.close()
    return _Child(pid, reader, part_no, list(todo),
                  time.monotonic() + limit)


def _reap(child: _Child, kill: bool = False) -> int:
    """Close ``child``'s pipe and wait for it (killing it first when
    ``kill``); returns its exit code (negative: the killing signal)."""
    child.conn.close()
    if kill:
        try:
            os.kill(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _, status = os.waitpid(child.pid, 0)
    return os.waitstatus_to_exitcode(status)


class ParallelRunner:
    """Run one task per cluster index in scheduled parts, with retry
    rounds, validation and degradation (:meth:`run`).

    ``backend`` selects only where a part executes: ``"simulate"`` (the
    paper's setup — in this process, one part after the other, time
    *accounted* per part) or ``"processes"`` (one forked worker per
    part, see :meth:`_run_round`).  ``jobs`` caps the live workers
    (defaults to ``parts``).
    """

    def __init__(self, parts: int = 5, backend: str = "simulate",
                 scheduler: str = "greedy",
                 jobs: Optional[int] = None) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r} "
                             f"(have: {', '.join(BACKENDS)})")
        if backend == "processes" and not hasattr(os, "fork"):
            raise ValueError(
                "the processes backend needs os.fork (its workers "
                "inherit the analyzed program), which this platform "
                "lacks; use backend='simulate'")
        self.parts = parts
        self.backend = backend
        self.scheduler = scheduler
        self.jobs = jobs if jobs is not None else parts

    # ------------------------------------------------------------------
    def _run_round(self, batch: Sequence[Tuple[int, List[int]]],
                   task: Callable[[int], object], limit: float,
                   deliver: Deliver) -> None:
        """A ``processes`` round: run each ``(part number, indices)`` of
        ``batch`` in a forked child of its own, at most ``jobs`` at
        once, and hand every ``(part number, index, cpu seconds,
        outcome)`` to ``deliver`` as it arrives.  A child that dies, or
        that reports no result for ``limit`` seconds (it is killed),
        fails the cluster it was running with an error marker, and the
        rest of its part is forked again.  Every child is reaped before
        this returns or raises."""
        queue: Deque[Tuple[int, List[int]]] = deque(batch)
        live: Dict[int, _Child] = {}
        selector = selectors.DefaultSelector()

        def lose(child: _Child, kill: bool) -> None:
            """Reap ``child``; fail the cluster it was running and queue
            the rest of its part for a new child."""
            selector.unregister(child.conn)
            del live[child.pid]
            code = _reap(child, kill=kill)
            if not child.todo:
                return
            reason: Exception = TimeoutError(
                f"no result within {limit:.1f}s; worker killed") if kill \
                else ChildProcessError(
                    f"worker process died (exit code {code})")
            deliver(child.part_no, child.todo[0], 0.0, error_marker(reason))
            if child.todo[1:]:
                queue.appendleft((child.part_no, child.todo[1:]))

        try:
            while queue or live:
                while queue and len(live) < max(1, self.jobs):
                    part_no, todo = queue.popleft()
                    child = _fork_child(
                        task, part_no, todo, limit,
                        [c.conn for c in live.values()])
                    live[child.pid] = child
                    selector.register(child.conn, selectors.EVENT_READ,
                                      child)
                wait = min(c.deadline for c in live.values()) \
                    - time.monotonic()
                for key, _ in selector.select(max(0.0, wait)):
                    child = key.data
                    try:
                        idx, elapsed, outcome = child.conn.recv()
                    except (EOFError, OSError):
                        lose(child, kill=False)
                        continue
                    child.todo.remove(idx)
                    child.deadline = time.monotonic() + limit
                    deliver(child.part_no, idx, elapsed, outcome)
                now = time.monotonic()
                for child in [c for c in live.values()
                              if c.deadline <= now]:
                    lose(child, kill=True)
        finally:
            for child in live.values():
                _reap(child, kill=True)
            selector.close()

    def run(self, clusters: Sequence[Cluster],
            task: Callable[[int], object],
            degrade: Callable[[int, str, int], object],
            policy: RunPolicy = DEFAULT_POLICY,
            pending: Optional[Sequence[int]] = None) -> ParallelReport:
        """Run ``task(index)`` for the clusters at the ``pending``
        indices (default: all) and collect each one's ``(seconds,
        outcome)``.  ``degrade(index, error, attempts)`` runs in this
        process for clusters that still fail.  Every index the report,
        an error or a callback names is an index into ``clusters``.

        The loop is the same on both backends: schedule the clusters
        into parts (the processes backend places :func:`sibling_units`
        whole, so each shared FSCI runs in one worker), then run rounds.
        Failure is per cluster, under ``policy`` (a
        :class:`~repro.core.resilience.RunPolicy`): an exception, a
        crashed worker, a worker silent past
        ``policy.future_timeout()`` or an outcome that fails
        validation fails only its own cluster.  Retryable failures are
        retried together in rounds, one backoff sleep per round, for up
        to ``policy.retries`` rounds, and a circuit breaker that counts
        across rounds stops them early; deterministic failures such as
        a blown budget are not retried.  Clusters that still fail
        degrade (``policy.degrade``) or raise a structured
        :class:`~repro.core.resilience.ClusterExecutionError` (a blown
        budget re-raises its
        :class:`~repro.errors.AnalysisBudgetExceeded`).  Nothing blocks
        forever, and no worker outlives the call.
        """
        t0 = time.perf_counter()
        todo = list(range(len(clusters))) if pending is None \
            else list(pending)
        schedule = [[todo[j] for j in part] for part in schedule_indices(
            [clusters[i] for i in todo], self.parts, self.scheduler,
            siblings=self.backend == "processes")]
        run_round = self._run_round if self.backend == "processes" \
            else _run_local
        cluster_times: Dict[int, float] = {}
        results: List[object] = [None] * len(clusters)
        part_times: List[float] = [0.0] * len(schedule)
        attempts = {idx: 1 for idx in todo}
        failed: Dict[int, str] = {}
        final: Set[int] = set()  # failed deterministically: no retry
        breaker = CircuitBreaker(policy.max_consecutive_failures)

        def accept(part_no: int, idx: int, elapsed: float,
                   outcome: object) -> None:
            """Record one cluster's result; retry rounds (attempts > 1)
            feed the circuit breaker."""
            if is_error_marker(outcome):
                marker: Dict[str, Any] = outcome  # type: ignore[assignment]
                if not marker.get("retryable", True):
                    if not policy.degrade:
                        raise_marker(marker, idx)
                    final.add(idx)
                failed[idx] = marker["__cluster_error__"]
            elif not validate_outcome(
                    outcome, [str(p) for p in clusters[idx].pointer_members]):
                failed[idx] = "invalid outcome (corrupted result)"
            else:
                failed.pop(idx, None)
                cluster_times[idx] = elapsed
                results[idx] = outcome
                part_times[part_no] += elapsed
                if attempts[idx] > 1:
                    breaker.record_success()
                return
            if attempts[idx] > 1:
                breaker.record_failure()

        # Rounds: every part first, then each retry round the failed
        # clusters of every part together, after one backoff sleep.
        retry = set(todo)
        attempt = 1
        while True:
            batch = [(k, [i for i in part if i in retry])
                     for k, part in enumerate(schedule)]
            run_round([(k, part) for k, part in batch if part],
                      task, policy.future_timeout(), accept)
            retry = set(failed) - final
            if not retry or attempt > policy.retries or breaker.is_open:
                break
            attempt += 1
            time.sleep(policy.delay(attempt))
            for idx in retry:
                attempts[idx] = attempt

        # Whatever still failed degrades in this process — or, with
        # degradation disabled, surfaces as a structured error.
        if failed and not policy.degrade:
            first = min(failed)
            raise ClusterExecutionError(first, failed[first])
        for idx in sorted(failed):
            t1 = time.perf_counter()
            results[idx] = degrade(idx, failed[idx], attempts[idx])
            cluster_times[idx] = time.perf_counter() - t1
        return ParallelReport(
            part_times=part_times, cluster_times=cluster_times,
            results=results, backend=self.backend,
            scheduler=self.scheduler, schedule=schedule,
            wall_time=time.perf_counter() - t0,
            attempts=attempts)

    #: The name perfbench's layer table wraps besides ``run``.
    run_payloads = run
