"""Cluster scheduling and parallel execution.

Clusters are analyzable independently, so the paper simulates running on
5 machines: divide the total pointer count by 5 to get a target part
size, then sweep the clusters greedily, closing a part whenever the
accumulated pointer count exceeds the target; report the *maximum* part
time as the parallel wall-clock.  :func:`greedy_parts` reproduces that
heuristic verbatim.

This module additionally provides a real execution backend behind one
:class:`ParallelRunner` API:

* ``simulate`` — the paper's setup: run sequentially, account time per
  scheduled part;
* ``processes`` — a ``ProcessPoolExecutor`` forked after the cascade:
  the workers inherit the analyzed program, its clusters and the
  per-cluster task, each scheduled part travels as a list of cluster
  indices, and only ``(cpu seconds, outcome)`` pairs come back — the
  real multi-core execution the paper's Table 1 "5 machines" column
  simulates.

and a second scheduler: :func:`lpt_parts` assigns clusters
longest-processing-time-first by a per-cluster cost estimate
(slice-statement count x cluster size), falling back to the paper's
greedy sweep whenever the sweep happens to balance better, so its
maximum part cost is never worse than the paper's heuristic.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
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

T = TypeVar("T")

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


def schedule_indices(clusters: Sequence[Cluster], parts: int,
                     scheduler: str = "greedy") -> List[List[int]]:
    """Cluster indices per part under the chosen scheduler.  Index-based
    so duplicate (equal or even identical) clusters in the input keep
    distinct schedule slots."""
    if scheduler == "greedy":
        return greedy_index_parts([c.size for c in clusters], parts)
    if scheduler == "lpt":
        return lpt_index_parts([cluster_cost(c) for c in clusters], parts)
    raise ValueError(f"unknown scheduler {scheduler!r} "
                     f"(have: {', '.join(SCHEDULERS)})")


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

@dataclass
class ParallelReport:
    """Timing and results of one (possibly parallel) cluster run.

    ``results`` and ``cluster_times`` are keyed by the cluster's *index
    in the input sequence* — a stable key that survives duplicate
    clusters and pickling, unlike object identity.
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
    #: Payload fingerprints per cluster (input order), when the run made
    #: them (a summary cache, or faults to select by) — the invalidation
    #: hook the query daemon diffs across reloads.
    fingerprints: Optional[List[str]] = None
    #: Analysis attempts per cluster index; only clusters the resilience
    #: layer touched more than once (or failed) appear with values > 1.
    attempts: Dict[int, int] = field(default_factory=dict)
    #: Payloads built for this run's fingerprints (``build_payload``
    #: calls): every cluster's without a content-key map, only those
    #: with new content with one.
    encoded: int = 0

    @property
    def max_part_time(self) -> float:
        """The paper's reported number: the slowest simulated machine."""
        return max(self.part_times, default=0.0)

    @property
    def total_time(self) -> float:
        return sum(self.part_times)

    # -- resilience accounting (derived from outcome tags, so cached /
    # -- merged results need no extra bookkeeping) ----------------------
    @property
    def degraded(self) -> Dict[int, str]:
        """Cluster index -> achieved precision level, for every cluster
        the degradation ladder handled (empty on clean runs)."""
        out: Dict[int, str] = {}
        for i, outcome in enumerate(self.results):
            if isinstance(outcome, dict) and outcome.get("status") == "degraded":
                out[i] = str(outcome.get("precision", "steensgaard"))
        return out

    def cluster_status(self, index: int) -> str:
        """``"ok"`` or ``"degraded"`` for one cluster."""
        return "degraded" if index in self.degraded else "ok"

    def cluster_precision(self, index: int) -> str:
        """The precision level of one cluster's outcome (``"fscs"``
        unless it was degraded)."""
        return self.degraded.get(index, "fscs")

    @property
    def statuses(self) -> List[str]:
        return [self.cluster_status(i) for i in range(len(self.results))]


#: The per-cluster task of the run a pool worker was forked for.  Set
#: only inside workers (by :func:`_init_worker`); the parent never
#: holds one, so nothing survives into the next program's run.
_WORKER_TASK: Optional[Callable[[int], object]] = None


def _init_worker(task: Callable[[int], object]) -> None:
    """Pool initializer.  Under ``fork`` the initializer's arguments
    reach the child by inheritance and are never pickled, so ``task``
    may close over the whole analyzed program."""
    global _WORKER_TASK
    _WORKER_TASK = task


def _run_indices(indices: Sequence[int]) -> List[Tuple[float, object]]:
    """Worker entry: run the inherited task on each cluster index,
    CPU-timed; a failing cluster yields an error marker instead of
    poisoning the rest of its part."""
    out: List[Tuple[float, object]] = []
    for idx in indices:
        t0 = time.process_time()
        try:
            outcome = _WORKER_TASK(idx)
        except Exception as exc:
            outcome = error_marker(exc)
        out.append((time.process_time() - t0, outcome))
    return out


class ParallelRunner(Generic[T]):
    """Run one task per cluster, aggregating times per scheduled part.

    ``backend`` selects execution: ``"simulate"`` (the paper's setup —
    sequential, time *accounted* per part) or ``"processes"`` (real
    multiprocess execution on forked workers, see
    :meth:`run_payloads`).  ``jobs`` caps worker count (defaults to
    ``parts``).
    """

    def __init__(self, parts: int = 5, backend: str = "simulate",
                 scheduler: str = "greedy",
                 jobs: Optional[int] = None) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r} "
                             f"(have: {', '.join(BACKENDS)})")
        if backend == "processes" \
                and "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "the processes backend needs the 'fork' start method "
                "(its workers inherit the analyzed program), which this "
                "platform lacks; use backend='simulate'")
        self.parts = parts
        self.backend = backend
        self.scheduler = scheduler
        self.jobs = jobs if jobs is not None else parts

    # ------------------------------------------------------------------
    def run(self, clusters: Sequence[Cluster],
            task: Callable[[Cluster], T]) -> ParallelReport:
        """Execute ``task`` per cluster under the ``simulate`` backend
        (use :meth:`run_payloads` for ``processes``)."""
        if self.backend == "processes":
            raise ValueError(
                "the processes backend runs a task per cluster index in "
                "forked workers; use ParallelRunner.run_payloads or "
                "BootstrapResult.analyze_all(backend='processes')")
        t0 = time.perf_counter()
        schedule = schedule_indices(clusters, self.parts, self.scheduler)
        cluster_times: Dict[int, float] = {}
        results: List[object] = [None] * len(clusters)

        def run_part(part: List[int]) -> float:
            acc = 0.0
            for idx in part:
                t1 = time.perf_counter()
                value = task(clusters[idx])
                elapsed = time.perf_counter() - t1
                cluster_times[idx] = elapsed
                results[idx] = value
                acc += elapsed
            return acc

        part_times = [run_part(part) for part in schedule]
        return ParallelReport(
            part_times=part_times, cluster_times=cluster_times,
            results=results, backend=self.backend,
            scheduler=self.scheduler, schedule=schedule,
            wall_time=time.perf_counter() - t0)

    # ------------------------------------------------------------------
    @staticmethod
    def _retire_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
        """Shut a pool down without waiting; ``kill`` additionally
        terminates its worker processes (a hung worker never finishes on
        its own, and ``shutdown`` alone would leave it running)."""
        if kill:
            procs = getattr(pool, "_processes", None) or {}
            for proc in list(procs.values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    def run_payloads(self, clusters: Sequence[Cluster],
                     task: Callable[[int], object],
                     degrade: Callable[[int, str, int], object],
                     policy: Optional[RunPolicy] = None) -> ParallelReport:
        """Execute the ``processes`` backend: fork one pool whose workers
        inherit ``task`` (and with it the analyzed program), send each
        scheduled part's cluster *indices* to a worker, which runs
        ``task(index)`` per cluster, and collect ``(cpu seconds,
        outcome)`` pairs.  ``degrade(index, error, attempts)`` runs in
        this process for clusters that still fail.

        Execution is fault-isolated per cluster under ``policy`` (a
        :class:`~repro.core.resilience.RunPolicy`; a conservative default
        applies when omitted): every future is awaited with a deadline, a
        crashed or hung pool is replaced and only the *failed* clusters
        are re-submitted (bounded retries with backoff, gated by the
        circuit breaker; deterministic failures such as a blown budget
        are not retried), and clusters that still fail either degrade
        (``policy.degrade``) or raise a structured
        :class:`~repro.core.resilience.ClusterExecutionError`.  Nothing
        blocks forever, and one poison cluster no longer takes the run
        down with it.
        """
        pol = policy if policy is not None else DEFAULT_POLICY
        t0 = time.perf_counter()
        schedule = schedule_indices(clusters, self.parts, self.scheduler)
        cluster_times: Dict[int, float] = {}
        results: List[object] = [None] * len(clusters)
        part_times: List[float] = [0.0] * len(schedule)
        attempts: Dict[int, int] = {}
        failed: Dict[int, str] = {}
        final: Set[int] = set()  # failed deterministically: no retry
        workers = max(1, min(self.jobs, len(schedule)))

        def fork_pool() -> ProcessPoolExecutor:
            # Pinned to ``fork``: only a forked worker inherits ``task``
            # (under ``spawn`` or ``forkserver``, Python 3.14's Linux
            # default, nothing is).  Forking from the threaded daemon is
            # safe because nothing a worker runs takes a lock another
            # thread could hold at the fork.
            return ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker, initargs=(task,))

        def member_names(idx: int) -> List[str]:
            return [str(p) for p in clusters[idx].pointer_members]

        def accept(idx: int, elapsed: float, outcome: object) -> bool:
            """Record a worker response; False means the cluster failed."""
            if is_error_marker(outcome):
                marker: Dict[str, Any] = outcome  # type: ignore[assignment]
                if not marker.get("retryable", True):
                    if not pol.degrade:
                        raise_marker(marker, idx)
                    final.add(idx)
                failed[idx] = marker["__cluster_error__"]
                return False
            if not validate_outcome(outcome, member_names(idx)):
                failed[idx] = "invalid outcome (corrupted result)"
                return False
            failed.pop(idx, None)
            cluster_times[idx] = elapsed
            results[idx] = outcome
            return True

        pool = fork_pool()
        pool_sick = False
        try:
            # Phase 1: one batched future per scheduled part, each
            # awaited with a deadline so a hang fails the part instead
            # of the whole run.
            futures = [pool.submit(_run_indices, part) for part in schedule]
            for part_no, (part, future) in enumerate(zip(schedule, futures)):
                for idx in part:
                    attempts[idx] = 1
                try:
                    timed = future.result(
                        timeout=pol.future_timeout(len(part)))
                except FutureTimeoutError:
                    pool_sick = True
                    for idx in part:
                        failed.setdefault(
                            idx, f"part {part_no} timed out after "
                                 f"{pol.future_timeout(len(part)):.1f}s")
                    continue
                except BrokenProcessPool:
                    pool_sick = True
                    for idx in part:
                        failed.setdefault(idx, "worker process crashed "
                                               "(BrokenProcessPool)")
                    continue
                acc = 0.0
                for idx, (elapsed, outcome) in zip(part, timed):
                    if accept(idx, elapsed, outcome):
                        acc += elapsed
                part_times[part_no] = acc

            # Phase 2: per-cluster retries against a healthy pool.  A
            # part-level failure (one hang/crash fails the whole batch)
            # is re-tried cluster-by-cluster, so innocent neighbors of a
            # poison cluster recover here on their first retry.
            retry = sorted(set(failed) - final)
            if retry and pol.retries > 0:
                if pool_sick:
                    self._retire_pool(pool, kill=True)
                    pool = fork_pool()
                    pool_sick = False
                breaker = CircuitBreaker(pol.max_consecutive_failures)
                for idx in retry:
                    for attempt in range(2, pol.retries + 2):
                        if breaker.is_open:
                            break
                        time.sleep(pol.delay(attempt, key=str(idx)))
                        attempts[idx] = attempt
                        try:
                            single = pool.submit(_run_indices, [idx])
                            ((elapsed, outcome),) = single.result(
                                timeout=pol.future_timeout(1))
                        except (FutureTimeoutError, BrokenProcessPool) as exc:
                            failed[idx] = f"retry {attempt}: " \
                                          f"{type(exc).__name__}"
                            breaker.record_failure()
                            self._retire_pool(pool, kill=True)
                            pool = fork_pool()
                            continue
                        if accept(idx, elapsed, outcome):
                            breaker.record_success()
                            break
                        breaker.record_failure()
                        if idx in final:
                            break  # deterministic failure; stop early

            # Phase 3: whatever still failed degrades in this process —
            # or, with degradation disabled, surfaces as a structured
            # error.
            if failed:
                if not pol.degrade:
                    first = sorted(failed)[0]
                    raise ClusterExecutionError(first, failed[first])
                for idx in sorted(failed):
                    t1 = time.perf_counter()
                    results[idx] = degrade(idx, failed[idx],
                                           attempts.get(idx, 1))
                    cluster_times[idx] = time.perf_counter() - t1
                failed.clear()
        finally:
            self._retire_pool(pool, kill=pool_sick)
        return ParallelReport(
            part_times=part_times, cluster_times=cluster_times,
            results=results, backend="processes",
            scheduler=self.scheduler, schedule=schedule,
            wall_time=time.perf_counter() - t0,
            attempts=attempts)
