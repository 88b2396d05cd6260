"""Memory-leak checker: allocation sites provably dead at program exit.

A site leaks when, at the program's exit node, **no** live reference can
still reach it: the join state at ``main``'s exit covers every path, so
a site absent from the reachability closure over that state is
unreachable on *all* executions — a must-fact, reported as an error
with a witness trace (allocation, then the unreachable exit).

Flow-sensitive frees are honored through the shared
:class:`~repro.checkers.heapfacts.FreeFacts`: a site freed on *any*
path is excluded (it is not *provably* leaked on every path), and a
site re-allocated after a free starts a fresh lifetime, exactly as the
use-after-free family sees it.

Soundness of the demand-driven slice: clusters are alias-closed
(Theorem 7), so every cell that may hold a candidate site's address —
and, inductively, every cell on a root-to-site chain — lives in the
site's own cluster and is therefore tracked once the allocation
pointer's cluster is selected.  Untracked cells provably cannot reach a
candidate site, which is why the exit-state closure below may skip
them without demanding more clusters.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.demand_engine import Client, DemandView
from ..core.bootstrap import BootstrapResult
from ..core.report import Diagnostic
from ..ir import AddrOf, AllocSite, Loc, MemObject, NullAssign, Program, Var
from .base import (
    Checker,
    CheckerContext,
    CheckerRun,
    checker_context,
    register_checker,
    run_checker,
)

RULE_ID = "repro-memory-leak"
CHECKER_NAME = "leak"


def allocation_sites(program: Program) -> List[Tuple[Loc, AllocSite, Var]]:
    """Every heap allocation: ``(loc, site, receiving pointer)``."""
    out: List[Tuple[Loc, AllocSite, Var]] = []
    for loc, stmt in program.statements():
        if isinstance(stmt, AddrOf) and isinstance(stmt.target, AllocSite):
            out.append((loc, stmt.target, stmt.lhs))
    return out


def allocation_pointers(program: Program) -> Set[Var]:
    """The leak query's seed set: pointers receiving an allocation, plus
    pointers handed to a deallocator (so free resolution is in-slice)."""
    seeds: Set[Var] = set()
    for _, _, ptr in allocation_sites(program):
        seeds.add(ptr)
    for _, stmt in program.statements():
        if isinstance(stmt, NullAssign) and stmt.is_free:
            seeds.add(stmt.lhs)
    return seeds & program.pointers


def _exit_reachable(cells: Dict[MemObject, FrozenSet[MemObject]],
                    roots: Set[MemObject]) -> Set[MemObject]:
    """Objects transitively reachable from the roots through the exit
    state.  Untracked cells have no entry in ``cells`` and stop the
    walk — sound for candidate sites per the module docstring."""
    reachable: Set[MemObject] = set()
    frontier = [r for r in roots]
    while frontier:
        cell = frontier.pop()
        for target in cells.get(cell, ()):  # type: ignore[call-overload]
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    return reachable


def _leak_diagnostic(ctx: CheckerContext, loc: Loc, site: AllocSite,
                     exit_loc: Loc) -> Diagnostic:
    program = ctx.program
    span = program.span_at(loc)
    pos = (f"line {span.line}" if span is not None
           else f"{loc.function}:{loc.index}")
    message = (f"allocation {site} ({pos}) is leaked: no live reference "
               f"remains at program exit and it is never freed")
    trace = (ctx.trace_step(loc, f"{site} allocated here"),
             ctx.trace_step(exit_loc,
                            "program exit: no path retains a reference"))
    return ctx.diagnostic(
        rule_id=RULE_ID, severity="error", message=message, loc=loc,
        checker=CHECKER_NAME, subject=str(site), trace=trace)


def _exit_loc(program: Program) -> Loc:
    return Loc(program.entry, program.cfg_of(program.entry).exit)


@register_checker
class LeakChecker(Checker):
    """Allocation sites no live reference reaches at program exit.  The
    value handed to :meth:`report` is the leaked sites in allocation
    order."""

    name = CHECKER_NAME
    rule_id = RULE_ID
    description = "allocation with no live reference at program exit"

    def interesting(self, program: Program) -> Set[Var]:
        return allocation_pointers(program)

    def client(self, ctx: CheckerContext) -> Client:
        program = ctx.program
        exit_loc = _exit_loc(program)
        sites = allocation_sites(program)
        roots: Set[MemObject] = set(program.globals) \
            | program.functions[program.entry].variables()

        def leaked_sites(view: DemandView):
            if view.fsci is None:
                return [], ()
            cells = view.fsci.cells_after(exit_loc)
            reachable = _exit_reachable(cells, roots)
            facts = ctx.free_facts(view.fsci)
            leaked: List[Tuple[Loc, AllocSite]] = []
            for loc, site, ptr in sites:
                if site in reachable:
                    continue
                if not view.fsci.reached_before(loc):
                    continue  # the allocation itself never executes
                if facts.freed_before(exit_loc, site):
                    continue  # freed on some path: not provably leaked
                leaked.append((loc, site))
            leaked.sort(key=lambda pair: (pair[0].function, pair[0].index))
            return [site for _, site in leaked], ()
        return leaked_sites

    def report(self, ctx: CheckerContext, value: List[AllocSite]
               ) -> List[Diagnostic]:
        allocated_at: Dict[AllocSite, Loc] = {}
        for loc, site, _ in allocation_sites(ctx.program):
            allocated_at.setdefault(site, loc)
        exit_loc = _exit_loc(ctx.program)
        return [_leak_diagnostic(ctx, allocated_at[site], site, exit_loc)
                for site in value]


def run_leaks(program: Program,
              result: Optional[BootstrapResult] = None,
              ctx: Optional[CheckerContext] = None,
              max_rounds: int = 10,
              budget: Optional[int] = None,
              whole_program: bool = False) -> CheckerRun:
    """Demand-driven memory-leak analysis; ``run.value`` lists the
    leaked sites.

    ``whole_program=True`` seeds the engine with every pointer in the
    program (the bench baseline): same client, no cluster savings.
    """
    return run_checker(checker_context(program, result, ctx),
                       LeakChecker(), max_rounds, budget,
                       seeds=set(program.pointers) if whole_program
                       else None)
