"""The top-level facade: bootstrapped flow- and context-sensitive alias
analysis.

:class:`BootstrapAnalyzer` wires the whole paper together:

1. run the cascade (Steensgaard partitioning, optional One-Flow,
   Andersen clustering, Algorithm 1 slices);
2. lazily build one :class:`~repro.analysis.fscs.ClusterFSCS` per
   cluster, on demand — the paper's flexibility argument: "based on the
   application, we may not be interested in accurate aliases for all
   pointers in the program but only a small subset";
3. answer may-alias / points-to queries by combining per-cluster
   answers (Theorem 7's disjunctive cover), with the Steensgaard
   partition check as a constant-time negative fast path;
4. optionally pre-analyze every cluster under the paper's simulated
   5-way parallel schedule (:meth:`BootstrapResult.analyze_all`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from ..analysis.fscs import ClusterFSCS, Context
from ..ir import CallGraph, Loc, MemObject, Program, Var
from .cascade import CascadeConfig, CascadeResult, run_cascade
from .clusters import Cluster
from .faults import FaultSpec, attach_faults, corrupt_outcome, fire_faults
from .parallel import ParallelReport, ParallelRunner
from .resilience import (
    DEFAULT_POLICY,
    RunPolicy,
    coarsest,
    degrade_ladder,
    is_degraded,
)
from .shipping import cluster_fingerprints, cluster_outcome
from .summary_cache import SummaryCache


@dataclass
class BootstrapConfig:
    """Configuration for the full bootstrapped analysis."""

    cascade: CascadeConfig = field(default_factory=CascadeConfig)
    parts: int = 5
    fscs_budget: Optional[int] = None
    max_cond_atoms: int = 4


class BootstrapResult:
    """Queryable result of a bootstrapped analysis."""

    def __init__(self, program: Program, cascade: CascadeResult,
                 config: BootstrapConfig) -> None:
        self.program = program
        self.cascade = cascade
        self.config = config
        self.callgraph = CallGraph(program)
        self._analyses: Dict[int, ClusterFSCS] = {}
        self._fsci_cache: Dict[FrozenSet, object] = {}
        #: Cluster position (in :attr:`clusters`) -> achieved precision
        #: level, for clusters whose last :meth:`analyze_all` outcome was
        #: degraded by the resilience layer.  Diagnostics derived from
        #: these clusters carry a degraded-precision marker.
        self.degraded_clusters: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # cluster plumbing
    # ------------------------------------------------------------------
    @property
    def clusters(self) -> List[Cluster]:
        return self.cascade.clusters

    def analysis_for(self, cluster: Cluster,
                     deadline: Optional[float] = None) -> ClusterFSCS:
        """The (cached) FSCS analysis of one cluster.  ``deadline``
        (absolute ``time.monotonic``) bounds the FSCI and summary work
        of an analysis built by this call; see :meth:`_solve`."""
        key = id(cluster)
        analysis = self._analyses.get(key)
        if analysis is None:
            # Sibling sub-clusters of one partition share a single FSCI
            # pass over the partition's slice (a sound superset of each
            # sub-cluster's own slice).
            fsci = None
            cache_key = cluster.fsci_key
            if cache_key is not None:
                fsci = self._fsci_cache.get(cache_key)
                if fsci is None:
                    parent = cluster.parent_slice
                    probe = ClusterFSCS(
                        self.program, cluster=(),
                        tracked=parent.vp, relevant=parent.statements,
                        callgraph=self.callgraph, deadline=deadline)
                    fsci = probe.fsci
                    self._fsci_cache[cache_key] = fsci
            analysis = ClusterFSCS(
                self.program,
                cluster=cluster.pointer_members,
                tracked=cluster.slice.vp,
                relevant=cluster.slice.statements,
                callgraph=self.callgraph,
                fsci=fsci,
                max_cond_atoms=self.config.max_cond_atoms,
                budget=self.config.fscs_budget,
                deadline=deadline,
            )
            self._analyses[key] = analysis
        return analysis

    @property
    def analyzed_cluster_count(self) -> int:
        """How many clusters were actually analyzed (the demand-driven
        savings the paper advertises)."""
        return len(self._analyses)

    def degraded_precision_of(self, clusters: Iterable[Cluster]
                              ) -> Optional[str]:
        """The coarsest precision level among ``clusters`` that were
        degraded by the last bulk run, or ``None`` when every one of
        them was analyzed at full FSCS precision.  Checkers use this to
        stamp diagnostics whose supporting clusters degraded."""
        pos = {id(c): i for i, c in enumerate(self.clusters)}
        levels = []
        for c in clusters:
            i = pos.get(id(c))
            if i is not None and i in self.degraded_clusters:
                levels.append(self.degraded_clusters[i])
        return coarsest(levels) if levels else None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def may_alias(self, p: Var, q: Var, loc: Loc,
                  context: Optional[Context] = None) -> bool:
        """FSCS may-alias, gated by the partition fast path."""
        if p == q:
            return True
        if not self.cascade.steensgaard.same_partition(p, q):
            return False
        shared = [c for c in self.cascade.clusters
                  if p in c.members and q in c.members]
        if not shared:
            return False
        return any(self.analysis_for(c).may_alias(p, q, loc, context)
                   for c in shared)

    def points_to(self, p: Var, loc: Loc,
                  context: Optional[Context] = None) -> FrozenSet[MemObject]:
        """Objects ``p`` may point to at ``loc`` — the union over ``p``'s
        clusters (Theorem 7)."""
        objs: Set[MemObject] = set()
        for c in self.cascade.clusters_containing([p]):
            objs.update(self.analysis_for(c).points_to(p, loc, context))
        return frozenset(objs)

    def alias_set(self, p: Var, loc: Loc,
                  context: Optional[Context] = None) -> FrozenSet[Var]:
        out: Set[Var] = set()
        for c in self.cascade.clusters_containing([p]):
            out |= self.analysis_for(c).alias_set(p, loc, context)
        return frozenset(out)

    # ------------------------------------------------------------------
    # bulk analysis (the Table 1 workload)
    # ------------------------------------------------------------------
    def analyze_all(self, clusters: Optional[Sequence[Cluster]] = None,
                    backend: str = "simulate",
                    jobs: Optional[int] = None,
                    scheduler: str = "greedy",
                    cache: "Optional[object]" = None,
                    policy: Optional[RunPolicy] = None,
                    faults: Optional[Sequence[FaultSpec]] = None
                    ) -> ParallelReport:
        """Build summaries for every cluster (or a selected subset).

        ``backend`` picks execution (``simulate`` or ``processes``);
        ``scheduler`` picks the part assignment (``greedy``/``lpt``);
        ``jobs`` sets the worker (and, for ``processes``, part) count;
        ``cache`` — a
        :class:`~repro.core.summary_cache.SummaryCache`, a directory
        path, or anything with its ``get``/``put`` (the daemon's
        :class:`~repro.server.store.ClusterStore`) — skips every cluster
        whose fingerprint already has a stored outcome.  Results are
        per-cluster outcome dicts (``{"stats", "points_to"}``) in input
        order, and every other per-cluster field of the report is keyed
        by input index too.

        Both backends run one loop, :meth:`ParallelRunner.run`, under
        ``policy`` (a :class:`~repro.core.resilience.RunPolicy`,
        ``DEFAULT_POLICY`` when omitted): per-cluster timeouts, retry
        rounds and — when ``policy.degrade`` — sound degradation down
        the cascade for clusters that still fail (their outcomes gain
        ``status``/``precision`` tags and are *not* written to the
        cache).  ``faults`` injects deterministic failures
        (:class:`~repro.core.faults.FaultSpec`) for testing the
        resilience path; faulted clusters keep their clean fingerprints.
        """
        targets = list(clusters) if clusters is not None else self.clusters
        cache_obj = SummaryCache(cache) if isinstance(cache, str) else cache
        parts = self.config.parts
        if backend == "processes" and jobs is not None:
            parts = jobs  # one worker per part
        runner = ParallelRunner(parts=parts, backend=backend,
                                scheduler=scheduler, jobs=jobs)

        # Fingerprints are only made when something consumes them: the
        # cache, or fault injection (selectors match on fingerprints).
        fingerprints = None
        if cache_obj is not None or faults:
            fingerprints = cluster_fingerprints(
                self.program, targets, self.callgraph,
                max_cond_atoms=self.config.max_cond_atoms,
                budget=self.config.fscs_budget)
        stamps = attach_faults(fingerprints, faults) if faults else {}

        cached: Dict[int, Dict] = {}
        if cache_obj is not None:
            for i, fp in enumerate(fingerprints):
                outcome = cache_obj.get(fp)
                if outcome is not None:
                    cached[i] = outcome
        pending = [i for i in range(len(targets)) if i not in cached]

        pol = policy or DEFAULT_POLICY
        in_process = backend == "simulate"
        if pending:
            report = runner.run(
                targets,
                lambda i: self._attempt(targets[i], pol, stamps.get(i),
                                        in_process=in_process),
                lambda i, error, attempts: self._degrade(
                    targets[i], pol, error, attempts),
                pol, pending)
        else:
            report = ParallelReport(part_times=[], cluster_times={},
                                    results=[None] * len(targets),
                                    backend=backend, scheduler=scheduler)

        # Degraded outcomes are coarser than what a healthy run would
        # compute: never cache them, so the next run retries at full
        # precision.  Cached outcomes cost 0.0 — no work was done.
        if cache_obj is not None:
            for i in pending:
                if not is_degraded(report.results[i]):
                    cache_obj.put(fingerprints[i], report.results[i])
        for i, outcome in cached.items():
            report.results[i] = outcome
            report.cluster_times[i] = 0.0
        self._note_degraded(targets, report.results)
        report.cache_hits = len(cached)
        report.cache_misses = len(pending) if cache_obj is not None else 0
        report.fingerprints = fingerprints
        return report

    # ------------------------------------------------------------------
    # resilience plumbing
    # ------------------------------------------------------------------
    def _solve(self, cluster: Cluster,
               deadline: Optional[float]) -> Dict[str, Any]:
        """:func:`cluster_outcome` of ``cluster`` under ``deadline``.  A
        solve that raises leaves no half-built analysis in the memo; one
        that finishes stays memoized with its deadline lifted, so later
        queries (which extend its summaries lazily) run unbounded."""
        analysis = self.analysis_for(cluster, deadline=deadline)
        try:
            outcome = cluster_outcome(analysis)
        except BaseException:
            self._analyses.pop(id(cluster), None)
            raise
        analysis.engine.deadline = None
        return outcome

    def _attempt(self, cluster: Cluster, policy: RunPolicy,
                 stamp: Optional[Dict[str, Any]],
                 in_process: bool = False) -> Dict[str, Any]:
        """One try at one cluster, the same on both backends: fire its
        injected faults (``in_process`` softens crashes and hangs into
        exceptions), then solve it under the policy's deadline."""
        corrupt = bool(stamp) and fire_faults(stamp, in_process=in_process)
        outcome = self._solve(cluster, policy.deadline())
        return corrupt_outcome() if corrupt else outcome

    def _degrade(self, cluster: Cluster, policy: RunPolicy, error: str,
                 attempts: int) -> Dict[str, Any]:
        """The degradation ladder for a cluster that failed, run in this
        process on the whole program with the cascade's Steensgaard
        result and a fresh ``cluster_timeout``."""
        return degrade_ladder(
            self.program, cluster, steens=self.cascade.steensgaard,
            callgraph=self.callgraph, error=error, attempts=attempts,
            deadline=policy.deadline())

    def _note_degraded(self, targets: Sequence[Cluster],
                       results: Sequence[object]) -> None:
        """Record which of *this result's* clusters came back degraded,
        keyed by their position in :attr:`clusters` (clusters outside
        that list — ad-hoc subsets — are query-invisible and skipped)."""
        pos = {id(c): i for i, c in enumerate(self.clusters)}
        for c, outcome in zip(targets, results):
            i = pos.get(id(c))
            if i is None:
                continue
            if is_degraded(outcome):
                self.degraded_clusters[i] = str(
                    outcome.get("precision", "steensgaard"))  # type: ignore[union-attr]
            else:
                self.degraded_clusters.pop(i, None)


class BootstrapAnalyzer:
    """Entry point: configure once, run, query many times."""

    def __init__(self, program: Program,
                 config: Optional[BootstrapConfig] = None) -> None:
        self.program = program
        self.config = config or BootstrapConfig()

    def run(self) -> BootstrapResult:
        cascade = run_cascade(self.program, self.config.cascade)
        return BootstrapResult(self.program, cascade, self.config)
