"""Race checker: the paper's motivating client on the shared checker path.

Lockset race detection needs must-aliases of lock pointers only, so
"we need to consider only clusters having at least one lock pointer"
(:mod:`repro.core.queries`).  The accesses it pairs also need the
points-to sets of the pointers dereferenced in thread code.  The checker
seeds the demand engine with exactly those pointers and runs
:func:`~repro.applications.races.find_races` over the sliced FSCI of
their clusters; every other cluster is skipped.

Thread entries follow the deadlock checker's rule
(:func:`~repro.checkers.deadlock.resolve_threads`): the functions passed
to spawn-like primitives unless passed explicitly (CLI ``--threads``).
Fewer than two entries means no race is possible and the checker
selects nothing.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..analysis.demand_engine import Client, DemandView
from ..analysis.fsci import FSCI
from ..applications.lockset import lock_pointers
from ..applications.races import (
    RACE_RULE_ID,
    RaceWarning,
    find_races,
    race_diagnostics,
)
from ..core.bootstrap import BootstrapResult
from ..core.report import Diagnostic
from ..ir import Program, Var
from .base import (
    Checker,
    CheckerContext,
    CheckerRun,
    checker_context,
    dereferences,
    register_checker,
    run_checker,
)
from .deadlock import resolve_threads


@register_checker
class RaceChecker(Checker):
    """Conflicting shared accesses from two threads with no common lock.
    Thread entries default to the functions passed to spawn-like
    primitives."""

    name = "races"
    rule_id = RACE_RULE_ID
    description = "unsynchronized conflicting accesses from two threads"

    def __init__(self, thread_entries: Optional[List[str]] = None) -> None:
        self.thread_entries = thread_entries

    def interesting(self, program: Program) -> Set[Var]:
        _, threads = resolve_threads(program, self.thread_entries)
        if not threads:
            return set()
        return set(lock_pointers(program)) | {
            ptr for loc, ptr in dereferences(program)
            if loc.function in threads}

    def client(self, ctx: CheckerContext) -> Client:
        program = ctx.program
        _, threads = resolve_threads(program, self.thread_entries)

        def races(view: DemandView):
            # Every pointer the races rest on is a seed, so one round
            # suffices: the seeds are always in view.tracked.
            if not threads:
                return [], ()
            fsci = view.fsci
            if fsci is None:
                # Nothing to resolve, but direct copies of globals can
                # still race: an FSCI over the empty slice answers the
                # lockset's and the accesses' (empty) queries.
                fsci = FSCI(program, tracked=(), relevant=set(),
                            callgraph=ctx.result.callgraph).run()
            return find_races(program, fsci, threads), ()
        return races

    def report(self, ctx: CheckerContext, value: List[RaceWarning]
               ) -> List[Diagnostic]:
        return race_diagnostics(ctx.program, value)


def run_races(program: Program,
              result: Optional[BootstrapResult] = None,
              ctx: Optional[CheckerContext] = None,
              thread_entries: Optional[List[str]] = None) -> CheckerRun:
    """Demand-driven race detection; ``run.value`` is the list of
    :class:`~repro.applications.races.RaceWarning`."""
    return run_checker(checker_context(program, result, ctx),
                       RaceChecker(thread_entries))
