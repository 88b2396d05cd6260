"""Data race warnings from locksets + alias information.

Two accesses race when they may touch the same shared object from
different threads with no common lock held.  Thread structure is given
as entry functions: each one models a thread (a driver's ioctl handler
vs. its interrupt handler, say).

The alias side uses the bootstrapped analysis exactly as the paper
advertises: :class:`~repro.checkers.races.RaceChecker` runs
:func:`find_races` over a sliced FSCI of only the clusters holding lock
pointers or pointers dereferenced in thread code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..analysis.fsci import FSCIResult
from ..ir import (
    AllocSite,
    CallGraph,
    Copy,
    Load,
    Loc,
    MemObject,
    Program,
    Store,
)
from .lockset import LocksetAnalysis, LocksetResult


@dataclass(frozen=True)
class Access:
    """One shared-memory access.

    ``threads`` is the set of thread entries whose execution can reach
    the access — a *set* because a function called from several thread
    entries runs in each of them.
    """

    loc: Loc
    obj: MemObject
    is_write: bool
    threads: FrozenSet[str]

    @property
    def thread(self) -> str:
        """Back-compat label: the sorted thread set joined with ``+``."""
        return "+".join(sorted(self.threads))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "write" if self.is_write else "read"
        return f"{kind} of {self.obj} at {self.loc} [{self.thread}]"


@dataclass(frozen=True)
class RaceWarning:
    first: Access
    second: Access

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"possible race: {self.first} vs {self.second}"


def _is_shared(obj: MemObject) -> bool:
    """Globals and heap objects are shared between threads."""
    if isinstance(obj, AllocSite):
        return True
    return obj.function is None


def collect_accesses(program: Program, fsci: FSCIResult,
                     thread_entries: Dict[str, FrozenSet[str]]
                     ) -> List[Access]:
    """Shared accesses per location.

    ``thread_entries`` maps every reachable function to the set of
    thread entries reaching it (use :func:`thread_assignment`).  Direct
    reads/writes of globals and stores/loads through pointers (resolved
    with the flow-sensitive points-to) are collected.
    """
    accesses: List[Access] = []
    for loc, stmt in program.statements():
        threads = thread_entries.get(loc.function)
        if not threads:
            continue
        if isinstance(stmt, Store):
            for obj in fsci.pts_before(loc, stmt.lhs):
                if _is_shared(obj):
                    accesses.append(Access(loc, obj, True, threads))
            if _is_shared(stmt.rhs):
                accesses.append(Access(loc, stmt.rhs, False, threads))
        elif isinstance(stmt, Load):
            for obj in fsci.pts_before(loc, stmt.rhs):
                if _is_shared(obj):
                    accesses.append(Access(loc, obj, False, threads))
        elif isinstance(stmt, Copy):
            if _is_shared(stmt.rhs):
                accesses.append(Access(loc, stmt.rhs, False, threads))
            if _is_shared(stmt.lhs):
                accesses.append(Access(loc, stmt.lhs, True, threads))
    return accesses


def thread_assignment(program: Program,
                      entries: Iterable[str]) -> Dict[str, FrozenSet[str]]:
    """Map each function to the *set* of thread entries it is reachable
    from.

    Representing shared callees as honest sets (not merged labels like
    ``"t1+t2"``) matters for soundness: two accesses inside a helper
    called from both threads can still race with each other, which a
    label-equality check would miss."""
    cg = CallGraph(program)
    assignment: Dict[str, Set[str]] = {}
    for entry in entries:
        for fn in cg.reachable_from(entry):
            assignment.setdefault(fn, set()).add(entry)
    return {fn: frozenset(s) for fn, s in assignment.items()}


def find_races(program: Program, fsci: FSCIResult,
               threads: Dict[str, FrozenSet[str]]) -> List[RaceWarning]:
    """Race warnings from locksets and shared accesses.

    ``fsci`` resolves lock sites and dereferences: the checker passes
    the demand engine's sliced FSCI over the lock pointers' and the
    threads' dereferenced pointers' clusters (Theorem 6 makes it agree
    with a whole-program FSCI on every one of them).  ``threads`` maps
    each function to the thread entries reaching it
    (:func:`thread_assignment`).
    """
    locksets: LocksetResult = LocksetAnalysis(program, fsci).run()
    accesses = collect_accesses(program, fsci, threads)
    by_obj: Dict[MemObject, List[Access]] = {}
    for a in accesses:
        by_obj.setdefault(a.obj, []).append(a)
    warnings: List[RaceWarning] = []
    seen: Set[Tuple[Loc, Loc, MemObject]] = set()
    for obj, group in sorted(by_obj.items(), key=lambda kv: str(kv[0])):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if len(a.threads | b.threads) <= 1:
                    # Only a single thread can ever reach both
                    # accesses; any multi-entry overlap (including a
                    # shared helper reachable from both threads) can
                    # interleave and must be checked.
                    continue
                if not (a.is_write or b.is_write):
                    continue
                if locksets.held_before(a.loc) & locksets.held_before(b.loc):
                    continue  # a common lock protects both
                key = (min(a.loc, b.loc), max(a.loc, b.loc), obj)
                if key in seen:
                    continue
                seen.add(key)
                first, second = sorted((a, b), key=lambda x: x.loc)
                warnings.append(RaceWarning(first, second))
    return warnings


RACE_RULE_ID = "repro-data-race"


def race_diagnostics(program: Program,
                     warnings: List[RaceWarning]) -> List["Diagnostic"]:
    """Render race warnings through the shared diagnostic pipeline.

    The ``subject`` names the object and the conflicting access's
    function and line, so deduplication merges only races whose two ends
    share lines, never two races that merely share their first access.
    """
    from ..core.report import Diagnostic, TraceStep
    out: List[Diagnostic] = []
    for w in warnings:
        first, second = w.first, w.second
        kind1 = "write" if first.is_write else "read"
        kind2 = "write" if second.is_write else "read"
        span2 = program.span_at(second.loc)
        line2 = span2.line if span2 is not None else second.loc.index
        out.append(Diagnostic(
            rule_id=RACE_RULE_ID,
            severity="warning",
            message=(f"possible data race on {first.obj}: {kind1} in "
                     f"{first.loc.function} [{first.thread}] vs {kind2} "
                     f"in {second.loc.function} [{second.thread}] with "
                     "no common lock"),
            loc=first.loc,
            span=program.span_at(first.loc),
            file=program.source_path,
            checker="races",
            subject=f"{first.obj} vs {second.loc.function}:{line2}",
            trace=(TraceStep(loc=second.loc, span=span2,
                             note=f"conflicting {kind2} in "
                                  f"{second.loc.function} "
                                  f"[{second.thread}]"),),
        ))
    return out
