"""Flow- and context-sensitive (FSCS) alias analysis for one cluster.

This module assembles the paper's Section 3 pipeline for a single
cluster ``P``:

1. the cluster's tracked pointers ``V_P`` and relevant statements
   ``St_P`` come from Algorithm 1 (:mod:`repro.core.relevant`);
2. FSCI points-to sets are computed on the sliced program
   (:mod:`.fsci`) — this plays the role of Algorithm 2's dovetailing:
   the dataflow fixpoint naturally resolves lower-depth pointers before
   the facts for higher-depth ones stabilize, and the summary engine
   consumes the finished result;
3. function summaries and alias queries run on the
   :class:`~.summaries.SummaryEngine` (Algorithms 4/5).

Alias queries follow Theorem 5: pointers ``p`` and ``q`` may alias at a
location iff backward maximally-complete-update-sequence *origins* of the
two intersect.  The paper computes the alias set of ``p`` with a backward
pass (set ``A``) followed by a forward pass (set ``Q``); since a cluster
is small we instead compute origins for every candidate in the cluster
and intersect, which returns the same set and reuses one engine.

Context-sensitive queries take an explicit call chain and splice
summaries along it only; context-insensitive queries union over all
callers (Algorithm 3's behaviour).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import AnalysisBudgetExceeded
from ..ir import CallGraph, CallStmt, Loc, MemObject, Program, Var
from .constraints import TRUE, Constraint, merge
from .fsci import FSCI, FSCIResult, slice_functions
from .summaries import (
    AddrTerm,
    DerefTerm,
    NullTerm,
    ObjTerm,
    SummaryEngine,
    SummaryEntry,
    SummaryTuple,
    Term,
    UnknownTerm,
)

#: A call context: the chain of function names from the program entry to
#: the function containing the query location (the paper's f1 ... fn).
Context = Sequence[str]


class ClusterFSCS:
    """FSCS analysis scoped to one cluster.

    Parameters
    ----------
    cluster:
        The cluster's pointers (a Steensgaard partition or an Andersen
        cluster).
    tracked:
        ``V_P`` from Algorithm 1; defaults to ``cluster``.
    relevant:
        ``St_P`` from Algorithm 1 as a set of locations; ``None`` means
        every statement is relevant (the unclustered baseline).
    budget:
        Engine step budget (``AnalysisBudgetExceeded`` on overrun).
    """

    def __init__(self, program: Program,
                 cluster: Iterable[Var],
                 tracked: Optional[Iterable[MemObject]] = None,
                 relevant: Optional[Set[Loc]] = None,
                 callgraph: Optional[CallGraph] = None,
                 fsci: Optional[FSCIResult] = None,
                 max_cond_atoms: int = 4,
                 budget: Optional[int] = None,
                 max_fsci_iterations: Optional[int] = None,
                 deadline: Optional[float] = None) -> None:
        self.program = program
        self.cluster: FrozenSet[Var] = frozenset(cluster)
        self.tracked: Optional[FrozenSet[MemObject]] = (
            frozenset(tracked) if tracked is not None else None)
        self.relevant = relevant
        self.callgraph = callgraph or CallGraph(program)
        self._fsci = fsci
        self._max_fsci_iterations = max_fsci_iterations
        self._engine: Optional[SummaryEngine] = None
        self._max_cond_atoms = max_cond_atoms
        self._budget = budget
        self._deadline = deadline

    @property
    def fsci(self) -> FSCIResult:
        """The cluster's FSCI result, computed lazily on the *restricted*
        supergraph: only functions from which a relevant statement is
        reachable matter (transparent functions pass tracked state
        through unchanged), which is exactly the locality the paper's
        per-cluster summarization exploits."""
        if self._fsci is None:
            functions = None
            if self.relevant is not None:
                functions = slice_functions(self.program, self.callgraph,
                                            self.relevant)
            self._fsci = FSCI(self.program, tracked=self.tracked,
                              relevant=self.relevant, functions=functions,
                              max_iterations=self._max_fsci_iterations,
                              callgraph=self.callgraph,
                              deadline=self._deadline).run()
        return self._fsci

    @property
    def engine(self) -> SummaryEngine:
        if self._engine is None:
            self._engine = SummaryEngine(
                self.program, fsci=self.fsci, relevant=self.relevant,
                callgraph=self.callgraph,
                max_cond_atoms=self._max_cond_atoms, budget=self._budget,
                deadline=self._deadline)
        return self._engine

    # ------------------------------------------------------------------
    # summaries (the precomputation the paper's Table 1 times)
    # ------------------------------------------------------------------
    def analyze(self) -> Dict[str, int]:
        """Compute exit summaries for every non-transparent function and
        every cluster pointer — the paper's per-cluster summary
        construction — and return basic statistics."""
        tuples = 0
        functions = 0
        terms = [ObjTerm(p) for p in sorted(self.cluster, key=str)]
        for func in sorted(self.program.functions):
            if self.engine.is_transparent(func):
                continue
            functions += 1
            for term in terms:
                tuples += self.engine.summary_size(func, term)
        return {
            "summarized_functions": functions,
            "summary_entries": tuples,
            "engine_steps": self.engine.steps,
            "fsci_iterations": self.fsci.iterations,
        }

    def summary_tuples(self, func: str) -> List[SummaryTuple]:
        """Readable summary tuples for ``func`` over the cluster."""
        return self.engine.function_summary(func, self.cluster)

    # ------------------------------------------------------------------
    # origin computation (Theorem 5 machinery)
    # ------------------------------------------------------------------
    def origins(self, p: Var, loc: Loc,
                context: Optional[Context] = None,
                after: bool = True) -> FrozenSet[SummaryEntry]:
        """Backward origins of ``p``'s value at ``loc``.

        Results are pairs ``(term, cond)`` where ``term`` is a terminal
        (``&obj`` / ``NULL`` / unknown) or a non-terminal expressed at the
        *program* entry (an uninitialized carry-in).
        """
        start = self.engine.backward_from(loc, ObjTerm(p), after=after)
        if context is None:
            return self._spread_all_callers(loc.function, start)
        return self._spread_context(loc.function, start, context)

    def _spread_all_callers(self, func: str,
                            entries: FrozenSet[SummaryEntry]
                            ) -> FrozenSet[SummaryEntry]:
        """Algorithm 3 style: propagate entry facts through every caller
        transitively until the program entry."""
        results: Set[SummaryEntry] = set()
        seen: Set[Tuple[str, Term, Constraint]] = set()
        work: List[Tuple[str, Term, Constraint]] = []

        def push(f: str, term: Term, cond: Constraint) -> None:
            if term.is_terminal:
                results.add((term, cond))
                return
            key = (f, term, cond)
            if key not in seen:
                seen.add(key)
                work.append(key)

        for term, cond in entries:
            push(func, term, cond)
        while work:
            f, term, cond = work.pop()
            callers = self.callgraph.callers(f)
            if f == self.program.entry or not callers:
                results.add((term, cond))
                continue
            for g in sorted(callers):
                for site in self.callgraph.call_sites_of(g, f):
                    spliced = self.engine.backward_from(
                        site, term, cond, after=False)
                    for t, c in spliced:
                        push(g, t, c)
        return frozenset(results)

    def _spread_context(self, func: str, entries: FrozenSet[SummaryEntry],
                        context: Context) -> FrozenSet[SummaryEntry]:
        """Splice along one specific call chain f1 ... fn (fn == func)."""
        chain = list(context)
        if not chain or chain[-1] != func:
            raise ValueError(
                f"context must end at {func!r}, got {chain!r}")
        if chain[0] != self.program.entry:
            raise ValueError(
                f"context must start at the entry {self.program.entry!r}")
        current: Set[SummaryEntry] = set(entries)
        for callee, caller in zip(reversed(chain), reversed(chain[:-1])):
            sites = self.callgraph.call_sites_of(caller, callee)
            if not sites:
                raise ValueError(f"{caller!r} never calls {callee!r}")
            nxt: Set[SummaryEntry] = set()
            for term, cond in current:
                if term.is_terminal:
                    nxt.add((term, cond))
                    continue
                for site in sites:
                    nxt.update(self.engine.backward_from(
                        site, term, cond, after=False))
            current = nxt
        return frozenset(current)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def points_to(self, p: Var, loc: Loc,
                  context: Optional[Context] = None,
                  after: bool = True) -> FrozenSet[MemObject]:
        """Objects ``p`` may point to at ``loc`` (after its statement by
        default), context-sensitively when ``context`` is given."""
        return self._objects(self.origins(p, loc, context, after=after),
                             p, loc, after)

    def exit_points_to(self, p: Var) -> FrozenSet[MemObject]:
        """``points_to(p, loc)`` at the program entry's exit, read off
        the entry's exit summary, which :meth:`analyze` leaves final,
        instead of a fresh backward walk."""
        entry = self.program.entry
        exit_loc = Loc(entry, self.program.cfg_of(entry).exit)
        return self._objects(self.engine.exit_summary(entry, ObjTerm(p)),
                             p, exit_loc, True)

    def _objects(self, origins: FrozenSet[SummaryEntry], p: Var, loc: Loc,
                 after: bool) -> FrozenSet[MemObject]:
        """The objects ``p``'s ``origins`` resolve to; an unknown origin
        adds FSCI's points-to set of ``p`` at ``loc``."""
        objs: Set[MemObject] = set()
        unknown = False
        for term, _cond in origins:
            if isinstance(term, AddrTerm):
                objs.add(term.obj)
            elif isinstance(term, UnknownTerm):
                unknown = True
        if unknown:
            getter = self.fsci.pts_after if after else self.fsci.pts_before
            objs.update(getter(loc, p))
        return frozenset(objs)

    def may_alias(self, p: Var, q: Var, loc: Loc,
                  context: Optional[Context] = None,
                  after: bool = True) -> bool:
        """Theorem 5: p and q may alias iff they share an origin."""
        if p == q:
            return True
        op = self.origins(p, loc, context, after=after)
        oq = self.origins(q, loc, context, after=after)
        if any(isinstance(t, UnknownTerm) for t, _ in op) or \
                any(isinstance(t, UnknownTerm) for t, _ in oq):
            return self.fsci.may_alias_at(p, q, loc)
        shared = ({t for t, _ in op if not isinstance(t, NullTerm)}
                  & {t for t, _ in oq if not isinstance(t, NullTerm)})
        return bool(shared)

    def alias_set(self, p: Var, loc: Loc,
                  context: Optional[Context] = None,
                  candidates: Optional[Iterable[Var]] = None,
                  after: bool = True) -> FrozenSet[Var]:
        """All cluster pointers that may alias ``p`` at ``loc``."""
        cands = set(candidates) if candidates is not None else set(self.cluster)
        return frozenset(q for q in cands
                         if self.may_alias(p, q, loc, context, after=after))


def whole_program_fscs(program: Program,
                       budget: Optional[int] = None,
                       max_fsci_iterations: Optional[int] = None,
                       max_cond_atoms: int = 4,
                       timeout_seconds: Optional[float] = None) -> ClusterFSCS:
    """The *unclustered* FSCS baseline (Table 1 column 6): one cluster
    containing every pointer, no slicing.  Expected not to scale — that
    is the point of the experiment (``timeout_seconds`` mirrors the
    paper's 15-minute wall-clock cap)."""
    import time as _time
    deadline = (_time.monotonic() + timeout_seconds
                if timeout_seconds is not None else None)
    return ClusterFSCS(program, cluster=program.pointers, tracked=None,
                       relevant=None, budget=budget,
                       max_cond_atoms=max_cond_atoms,
                       max_fsci_iterations=max_fsci_iterations,
                       deadline=deadline)
