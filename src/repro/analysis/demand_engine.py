"""The reusable demand-driven query engine over the bootstrapped cascade.

Every cascade client wants the same loop (PR-1's memory-safety checkers,
PR-4's taint driver, and now the leak and deadlock scenario clients):

1. name the *seed* pointers the query is actually about;
2. select only the clusters containing them
   (:func:`~repro.core.queries.select_clusters` — the paper's
   flexibility pitch) and run one **sliced** FSCI over the union of
   their ``V_P`` / ``St_P``;
3. hand the client a points-to resolver scoped to that slice; when a
   dereference resolves to a pointer *outside* the slice, record it as
   **demanded**, widen the selection with its cluster, and re-run;
4. stop at a fixpoint (nothing new demanded), at the deepening level
   (``max_rounds``), or when the per-query budget is exhausted.

Clusters are alias-closed (every pointer that may point to an object
shares a cluster with every other pointer to it — Theorem 7's
disjunctive cover), so the widening loop converges on exactly the alias
facts the client needs and never silently under-approximates: an
out-of-slice pointer is *reported*, not guessed at.

This module owns the loop; clients are callables receiving a
:class:`DemandView` per round.  ``checkers.base.run_checker`` runs every
checker through :meth:`DemandEngine.run`.

Layering note: ``core`` imports ``analysis``, so the ``core.queries``
import below is function-level by necessity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..errors import AnalysisBudgetExceeded
from ..ir import Loc, MemObject, Program, Var
from .fsci import FSCI, FSCIResult

#: A scoped points-to query: ``None`` means "outside the current slice"
#: (the pointer becomes demanded), a set is a sound may-points-to answer.
Resolver = Callable[[Loc, Var], Optional[FrozenSet[MemObject]]]

#: One engine round: receives the round's :class:`DemandView`, returns
#: ``(value, demanded)`` — an arbitrary client result plus the pointers
#: the client could not resolve and wants widened in.
Client = Callable[["DemandView"], Tuple[Any, Iterable[Var]]]


def make_resolver(fsci: Optional[FSCIResult],
                  tracked: Set[MemObject],
                  on_miss: Optional[Callable[[Var], None]] = None
                  ) -> Resolver:
    """The scoped resolver every cascade client uses.

    Out-of-slice pointers (or a missing FSCI: nothing selected yet)
    resolve to ``None`` and are reported through ``on_miss``; in-slice
    pointers get the flow-sensitive answer, falling back to the
    flow-insensitive projection when ``loc`` lies outside the sliced
    supergraph's reached states — a sound may-superset.
    """
    def resolve(loc: Loc, ptr: Var) -> Optional[FrozenSet[MemObject]]:
        if fsci is None or ptr not in tracked:
            if on_miss is not None:
                on_miss(ptr)
            return None
        pts = fsci.pts_before(loc, ptr)
        if pts:
            return pts
        return fsci.points_to(ptr)
    return resolve


@dataclass
class EngineStats:
    """Per-query accounting (the paper's savings pitch, generalized)."""

    rounds: int               # widening rounds actually run
    fsci_runs: int            # sliced FSCI fixpoints computed (cache misses)
    clusters_touched: int     # distinct clusters analyzed across rounds
    clusters_total: int
    pointers_tracked: int     # pointers inside the selected clusters
    pointers_total: int
    summary_bytes: int        # compact points-to summary for the demanded set

    @property
    def clusters_skipped(self) -> int:
        return self.clusters_total - self.clusters_touched


class DemandView:
    """One widening round's analysis view, handed to the client.

    ``fsci`` is ``None`` when no cluster contains a demanded pointer yet
    (round one of a query whose seeds live outside every cluster); the
    resolver then answers ``None`` everywhere and every queried pointer
    becomes demanded.
    """

    def __init__(self, fsci: Optional[FSCIResult], selection: Any,
                 demanded: Iterable[Var]) -> None:
        self.fsci = fsci
        self.selection = selection
        self.demanded: FrozenSet[Var] = frozenset(demanded)
        tracked: Set[MemObject] = set(self.demanded)
        for cluster in selection.selected:
            tracked |= cluster.slice.vp
        self.tracked: FrozenSet[MemObject] = frozenset(tracked)
        #: Pointers the resolver could not answer this round — the
        #: engine widens with these even if the client forgets to
        #: return them.
        self.unresolved: Set[Var] = set()
        self.resolver: Resolver = make_resolver(
            fsci, self.tracked, on_miss=self.unresolved.add)

    def pts_before(self, loc: Loc, ptr: Var) -> Optional[FrozenSet[MemObject]]:
        """Convenience alias for the scoped resolver."""
        return self.resolver(loc, ptr)


@dataclass
class DemandResult:
    """Everything one :meth:`DemandEngine.run` query produced."""

    value: Any                  # the client's last-round result
    view: DemandView            # the final round's view
    selection: Any              # final DemandSelection
    demanded: FrozenSet[Var]    # fixpoint of the demanded-pointer set
    rounds: int
    stats: EngineStats


class DemandEngine:
    """Owns cluster selection, sliced-FSCI construction and the widening
    loop for one ``(program, bootstrap result)`` pair.

    The sliced-FSCI cache is keyed by the demanded-pointer set (plus the
    purity flag), so repeated queries — and the rounds of one query,
    which grow the set monotonically — never recompute a slice.
    """

    def __init__(self, program: Program, result: Any) -> None:
        self.program = program
        self.result = result
        self._fsci_cache: Dict[Tuple[FrozenSet[Var], bool],
                               Tuple[Optional[FSCIResult], Any]] = {}
        self._cluster_index = {id(c): i
                               for i, c in enumerate(result.clusters)}

    # ------------------------------------------------------------------
    def select(self, interesting: Iterable[Var], pure: bool = False) -> Any:
        from ..core.queries import select_clusters
        return select_clusters(self.result, interesting, pure=pure)

    def sliced_fsci(self, interesting: Iterable[Var], pure: bool = False
                    ) -> Tuple[Optional[FSCIResult], Any]:
        """A sliced FSCI covering exactly the clusters that contain an
        interesting pointer.  Returns ``(None, selection)`` when no
        cluster qualifies (nothing to analyze — everything was skipped).
        """
        wanted = frozenset(v for v in interesting if isinstance(v, Var))
        key = (wanted, pure)
        cached = self._fsci_cache.get(key)
        if cached is not None:
            return cached
        selection = self.select(wanted, pure=pure)
        fsci: Optional[FSCIResult] = None
        if selection.selected:
            tracked: Set[MemObject] = set(wanted)
            relevant: Set[Loc] = set()
            for cluster in selection.selected:
                tracked |= cluster.slice.vp
                relevant |= cluster.slice.statements
            fsci = FSCI(self.program, tracked=tracked, relevant=relevant,
                        callgraph=self.result.callgraph).run()
        self._fsci_cache[key] = (fsci, selection)
        return fsci, selection

    # ------------------------------------------------------------------
    def run(self, seeds: Iterable[Var], client: Client,
            max_rounds: int = 10, budget: Optional[int] = None,
            pure: bool = False) -> DemandResult:
        """The demand loop: seed, select, analyze, widen until fixpoint.

        ``max_rounds`` is the incremental-deepening level: the demanded
        set grows monotonically, so answers at level ``k`` are a subset
        of answers at ``k + 1`` and the loop normally exits as soon as
        one round demands nothing new.  ``budget`` bounds the cumulative
        number of cluster slices analyzed across the query's rounds;
        exceeding it raises :class:`AnalysisBudgetExceeded` (the CLI
        maps that to its dedicated exit code).
        """
        demanded: Set[Var] = {v for v in seeds if isinstance(v, Var)}
        charged = 0
        touched: Set[int] = set()
        fsci_runs = 0
        rounds = 0
        while True:
            rounds += 1
            key = frozenset(demanded)
            fresh_run = (key, pure) not in self._fsci_cache
            fsci, selection = self.sliced_fsci(key, pure=pure)
            if fresh_run:
                fsci_runs += 1
                if budget is not None:
                    charged += len(selection.selected)
                    if charged > budget:
                        raise AnalysisBudgetExceeded(
                            "demand-engine", charged)
            touched |= {self._cluster_index[id(c)]
                        for c in selection.selected}
            view = DemandView(fsci, selection, demanded)
            value, want = client(view)
            fresh = {v for v in want if v in self.program.pointers}
            fresh |= {v for v in view.unresolved
                      if v in self.program.pointers}
            fresh -= demanded
            if not fresh or rounds >= max_rounds:
                break
            demanded |= fresh
        stats = EngineStats(
            rounds=rounds,
            fsci_runs=fsci_runs,
            clusters_touched=len(touched),
            clusters_total=selection.total_clusters,
            pointers_tracked=selection.selected_pointers,
            pointers_total=selection.total_pointers,
            summary_bytes=self._summary_bytes(fsci, demanded),
        )
        return DemandResult(value=value, view=view, selection=selection,
                            demanded=frozenset(demanded), rounds=rounds,
                            stats=stats)

    # ------------------------------------------------------------------
    @staticmethod
    def _summary_bytes(fsci: Optional[FSCIResult],
                       demanded: Iterable[Var]) -> int:
        """Size of the compact per-query summary: the demanded pointers'
        flow-insensitive points-to projection, JSON-encoded (the
        "generalized points-to graph" a daemon would ship around)."""
        if fsci is None:
            return 0
        table = {str(p): sorted(str(o) for o in fsci.points_to(p))
                 for p in sorted(demanded, key=str)}
        return len(json.dumps(table, sort_keys=True,
                              separators=(",", ":")).encode("utf-8"))
