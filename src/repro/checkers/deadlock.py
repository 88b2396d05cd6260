"""Deadlock checker: lock-order cycles over must-alias lock pointers.

The lock-order graph has one node per concrete lock *object* (resolved
by the classic singleton must-alias discipline at each acquisition,
via :class:`~repro.applications.lockset.LocksetAnalysis` over the
demand engine's sliced FSCI) and an edge ``A -> B`` for every site that
acquires ``B`` while ``A`` is must-held.  Edges carry the threads that
can execute them (:func:`~repro.applications.races.thread_assignment`).

A cycle is a *potential deadlock* only when its edges can be driven by
at least two distinct threads — one thread re-ordering its own
acquisitions cannot deadlock with itself under non-reentrant locks, so
single-thread cycles are dropped.  Each finding carries a two-thread
witness schedule ("t1 holds A and waits for B; t2 holds B and waits
for A") plus a trace step per acquisition site.

Thread entries come from ``spawn``-style calls (``pthread_create`` et
al.) whose function-pointer argument resolves syntactically, or are
passed explicitly (CLI ``--threads``).  Fewer than two entries means no
deadlock is possible and the checker reports nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.demand_engine import Client, DemandView
from ..core.bootstrap import BootstrapResult
from ..core.report import Diagnostic
from ..ir import AddrOf, ExternCall, Loc, MemObject, Program, Var
from .base import (
    Checker,
    CheckerContext,
    CheckerRun,
    checker_context,
    register_checker,
    run_checker,
)

RULE_ID = "repro-deadlock"
CHECKER_NAME = "deadlock"

#: Recognized thread-creation primitives (any argument may be the
#: thread's entry function pointer).
SPAWN_FUNCTIONS = {"spawn", "pthread_create", "thread_create",
                   "kthread_run"}

#: Safety valve for cycle enumeration on pathological lock graphs.
_MAX_CYCLE_LEN = 8


def spawn_entries(program: Program) -> List[str]:
    """Thread entry functions named by spawn-style extern calls.

    The function pointer reaches the spawn call through a materialized
    argument variable; walk the program for ``fp = &f`` with ``f`` a
    defined function (the frontend's function-sentinel lowering).
    """
    fp_targets: Dict[Var, Set[str]] = {}
    for _, stmt in program.statements():
        if isinstance(stmt, AddrOf) and isinstance(stmt.target, Var) \
                and stmt.target.name in program.functions:
            fp_targets.setdefault(stmt.lhs, set()).add(stmt.target.name)
    entries: Set[str] = set()
    for _, stmt in program.statements():
        if isinstance(stmt, ExternCall) and stmt.name in SPAWN_FUNCTIONS:
            for arg in stmt.args:
                entries |= fp_targets.get(arg, set())
                if arg.name in program.functions:
                    entries.add(arg.name)
    return sorted(entries)


def resolve_threads(program: Program, thread_entries: Optional[List[str]]
                    ) -> Tuple[List[str], Dict[str, FrozenSet[str]]]:
    """The sorted thread entries (default: :func:`spawn_entries`) and
    the entries reaching each function; no functions at all with fewer
    than two entries, where nothing can race or deadlock."""
    from ..applications.races import thread_assignment
    entries = sorted(thread_entries) if thread_entries is not None \
        else spawn_entries(program)
    return entries, (thread_assignment(program, entries)
                     if len(entries) >= 2 else {})


@dataclass(frozen=True)
class LockOrderEdge:
    """``held -> wanted``: one acquisition of ``wanted`` under ``held``."""

    held: MemObject
    wanted: MemObject
    site: Loc
    threads: FrozenSet[str]


@dataclass
class LockOrderCycle:
    """A thread-realizable cycle in the lock-order graph."""

    edges: Tuple[LockOrderEdge, ...]

    @property
    def nodes(self) -> Tuple[MemObject, ...]:
        return tuple(e.held for e in self.edges)

    @property
    def key(self) -> str:
        return "->".join(str(n) for n in self.nodes + (self.nodes[0],))


def _build_edges(locks, threads: Dict[str, FrozenSet[str]]
                 ) -> List[LockOrderEdge]:
    edges: List[LockOrderEdge] = []
    for site in locks.sites:
        if not site.is_lock:
            continue
        wanted = locks.resolution.get(site.loc, frozenset())
        if len(wanted) != 1:
            continue  # ambiguous acquisition: no must-edge
        (target,) = wanted
        tset = threads.get(site.loc.function, frozenset())
        for held in locks.held_before(site.loc):
            if held != target:
                edges.append(LockOrderEdge(
                    held=held, wanted=target, site=site.loc,
                    threads=tset))
    return edges


def _find_cycles(edges: List[LockOrderEdge]) -> List[LockOrderCycle]:
    """Simple cycles, each enumerated once (rooted at its minimal node),
    kept only when driveable by two distinct threads."""
    adj: Dict[MemObject, List[LockOrderEdge]] = {}
    for e in edges:
        adj.setdefault(e.held, []).append(e)
    order = {n: i for i, n in enumerate(sorted(adj, key=str))}
    cycles: List[LockOrderCycle] = []

    def dfs(start: MemObject, node: MemObject,
            path: List[LockOrderEdge], on_path: Set[MemObject]) -> None:
        if len(path) >= _MAX_CYCLE_LEN:
            return
        for edge in sorted(adj.get(node, ()),
                           key=lambda e: (str(e.wanted), str(e.site))):
            nxt = edge.wanted
            if order.get(nxt, -1) < order[start]:
                continue
            if nxt == start:
                cycles.append(LockOrderCycle(edges=tuple(path + [edge])))
            elif nxt not in on_path:
                on_path.add(nxt)
                dfs(start, nxt, path + [edge], on_path)
                on_path.discard(nxt)

    for start in sorted(adj, key=str):
        dfs(start, start, [], {start})
    realizable = []
    seen: Set[Tuple] = set()
    for cycle in cycles:
        union: Set[str] = set()
        for e in cycle.edges:
            union |= e.threads
        if len(union) < 2:
            continue  # one thread alone cannot deadlock with itself
        key = (cycle.key, tuple(e.site for e in cycle.edges))
        if key in seen:
            continue
        seen.add(key)
        realizable.append(cycle)
    return realizable


@dataclass
class LockOrderReport:
    """One round of the deadlock client: the thread-realizable cycles
    (sorted by key) and the thread entries they were checked against."""

    cycles: List[LockOrderCycle]
    thread_entries: List[str]


def _witness(cycle: LockOrderCycle) -> str:
    """A two-thread schedule: assign distinct threads to two edges."""
    picks: List[Tuple[str, LockOrderEdge]] = []
    used: Set[str] = set()
    for e in cycle.edges:
        fresh = sorted(e.threads - used)
        t = fresh[0] if fresh else (sorted(e.threads)[0] if e.threads
                                    else "?")
        used.add(t)
        picks.append((t, e))
    return "; ".join(
        f"{t} holds {e.held} and waits for {e.wanted}"
        for t, e in picks)


def _cycle_diagnostic(ctx: CheckerContext,
                      cycle: LockOrderCycle) -> Diagnostic:
    message = (f"potential deadlock: lock-order cycle {cycle.key} "
               f"({_witness(cycle)})")
    trace = tuple(
        ctx.trace_step(e.site,
                       f"acquires {e.wanted} while holding {e.held}")
        for e in cycle.edges)
    return ctx.diagnostic(
        rule_id=RULE_ID, severity="warning", message=message,
        loc=cycle.edges[0].site, checker=CHECKER_NAME,
        subject=cycle.key, trace=trace)


@register_checker
class DeadlockChecker(Checker):
    """Lock-order cycles over must-alias lock pointers.  Thread entries
    default to the functions passed to spawn-like primitives."""

    name = CHECKER_NAME
    rule_id = RULE_ID
    description = "lock-order cycle realizable by two threads"

    def __init__(self, thread_entries: Optional[List[str]] = None) -> None:
        self.thread_entries = thread_entries

    def interesting(self, program: Program) -> Set[Var]:
        from ..applications.lockset import lock_pointers
        return set(lock_pointers(program))

    def client(self, ctx: CheckerContext) -> Client:
        from ..applications.lockset import LocksetAnalysis

        program = ctx.program
        entries, threads = resolve_threads(program, self.thread_entries)

        def cycles(view: DemandView):
            if view.fsci is None or not threads:
                return LockOrderReport([], entries), ()
            locks = LocksetAnalysis(program, fsci=view.fsci).run()
            found = _find_cycles(_build_edges(locks, threads))
            return LockOrderReport(sorted(found, key=lambda c: c.key),
                                   entries), ()
        return cycles

    def report(self, ctx: CheckerContext, value: LockOrderReport
               ) -> List[Diagnostic]:
        return [_cycle_diagnostic(ctx, c) for c in value.cycles]


def run_deadlocks(program: Program,
                  result: Optional[BootstrapResult] = None,
                  ctx: Optional[CheckerContext] = None,
                  thread_entries: Optional[List[str]] = None,
                  max_rounds: int = 10,
                  budget: Optional[int] = None,
                  whole_program: bool = False) -> CheckerRun:
    """Demand-driven deadlock / lock-order-cycle analysis; ``run.value``
    is the :class:`LockOrderReport`.

    ``whole_program=True`` seeds the engine with every pointer in the
    program (the bench baseline): same client, no cluster savings.
    """
    return run_checker(checker_context(program, result, ctx),
                       DeadlockChecker(thread_entries), max_rounds, budget,
                       seeds=set(program.pointers) if whole_program
                       else None)
