"""Lockset computation on top of demand-driven alias queries.

The paper's original motivation was "static data race detection for Linux
device drivers": there, one only needs **must-aliases of lock pointers**,
so only clusters containing lock pointers are analyzed — and since "a
lock pointer can alias only to another lock pointer", those clusters are
made up solely of lock pointers.  This module implements that pipeline:

1. find lock pointers: arguments of recognized lock/unlock primitives;
2. resolve each lock/unlock site to the concrete lock *objects* it
   operates on, using the bootstrapped analysis (must = singleton
   may-points-to at the site, the standard lockset discipline);
3. run a forward must-held dataflow (intersection join) over the
   supergraph to compute the lockset at every location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from ..analysis.dataflow import ForwardDataflow, Supergraph
from ..analysis.fsci import FSCIResult
from ..ir import CallStmt, Loc, MemObject, Program, Statement, Var
from ..ir.program import param_var

#: Recognized locking primitives (first argument is the lock pointer).
LOCK_FUNCTIONS = {"lock", "spin_lock", "spin_lock_irqsave", "mutex_lock",
                  "pthread_mutex_lock", "read_lock", "write_lock",
                  "down", "acquire"}
UNLOCK_FUNCTIONS = {"unlock", "spin_unlock", "spin_unlock_irqrestore",
                    "mutex_unlock", "pthread_mutex_unlock", "read_unlock",
                    "write_unlock", "up", "release"}


@dataclass(frozen=True)
class LockSite:
    """One lock or unlock call site."""

    loc: Loc
    primitive: str
    pointer: Var
    is_lock: bool


def find_lock_sites(program: Program) -> List[LockSite]:
    """Lock/unlock call sites with the lock-pointer argument.

    By the parameter-conduit convention, the lock pointer is whatever was
    copied into ``<primitive>::$param0`` immediately before the call.
    """
    sites: List[LockSite] = []
    for name, fn in program.functions.items():
        cfg = fn.cfg
        for idx, stmt in cfg.statements():
            if not isinstance(stmt, CallStmt) or stmt.callee is None:
                continue
            primitive = stmt.callee
            is_lock = primitive in LOCK_FUNCTIONS
            if not is_lock and primitive not in UNLOCK_FUNCTIONS:
                continue
            pointer = _conduit_source(program, cfg, idx,
                                      param_var(primitive, 0))
            if pointer is not None:
                sites.append(LockSite(loc=Loc(name, idx),
                                      primitive=primitive,
                                      pointer=pointer, is_lock=is_lock))
    return sites


def _conduit_source(program: Program, cfg, call_idx: int,
                    conduit: Var) -> Optional[Var]:
    """Walk back from a call to the Copy that fills its first conduit."""
    from ..ir import Copy
    seen: Set[int] = set()
    frontier = list(cfg.predecessors(call_idx))
    steps = 0
    while frontier and steps < 64:
        steps += 1
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        stmt = cfg.stmt(node)
        if isinstance(stmt, Copy) and stmt.lhs == conduit:
            return stmt.rhs
        frontier.extend(cfg.predecessors(node))
    return None


def lock_pointers(program: Program) -> FrozenSet[Var]:
    """The set of pointers passed to lock/unlock primitives."""
    return frozenset(site.pointer for site in find_lock_sites(program))


class LocksetResult:
    """Must-held locks per location."""

    def __init__(self, engine: ForwardDataflow,
                 sites: List[LockSite],
                 resolution: Dict[Loc, FrozenSet[MemObject]]) -> None:
        self._engine = engine
        self.sites = sites
        self.resolution = resolution

    def held_before(self, loc: Loc) -> FrozenSet[MemObject]:
        state = self._engine.state_before(loc)
        return state if isinstance(state, frozenset) else frozenset()

    def held_after(self, loc: Loc) -> FrozenSet[MemObject]:
        state = self._engine.state_after(loc)
        return state if isinstance(state, frozenset) else frozenset()


#: The lockset lattice: TOP (haven't seen this point yet) or a lock set.
_TOP = None


class LocksetAnalysis:
    """Forward must-held-locks dataflow.

    ``fsci`` resolves each lock site to the lock objects it certainly
    operates on (singleton may-points-to at the site).  The checkers
    pass the demand engine's sliced FSCI over the lock pointers'
    clusters, the paper's way.
    """

    def __init__(self, program: Program, fsci: FSCIResult) -> None:
        self.program = program
        self.fsci = fsci
        self.sites = find_lock_sites(program)
        self._by_loc: Dict[Loc, LockSite] = {s.loc: s for s in self.sites}

    def _resolve(self, site: LockSite) -> FrozenSet[MemObject]:
        pts = self.fsci.pts_before(site.loc, site.pointer)
        if len(pts) == 1:
            return pts  # must-alias: the classic singleton discipline
        return frozenset()  # ambiguous lock pointer: cannot claim "held"

    def run(self) -> LocksetResult:
        resolution = {s.loc: self._resolve(s) for s in self.sites}

        def transfer(loc: Loc, stmt: Statement, state):
            if state is _TOP:
                state = frozenset()
            site = self._by_loc.get(loc)
            if site is None:
                return state
            locks = resolution[loc]
            if site.is_lock:
                return state | locks
            # Unlock: ambiguous unlocks must clear everything they might
            # release; with singleton resolution this is exact.
            pts = self.fsci.pts_before(loc, site.pointer)
            return state - (pts or state)

        def join(a, b):
            if a is _TOP:
                return b
            if b is _TOP:
                return a
            return a & b  # must semantics

        # The primitives' bodies are irrelevant and, worse, routing the
        # state through them would meet (intersect) the locksets of every
        # call site.  Exclude them: calls to excluded functions fall
        # through in the supergraph.
        functions = set(self.program.functions) \
            - LOCK_FUNCTIONS - UNLOCK_FUNCTIONS
        graph = Supergraph(self.program, functions=functions)
        engine: ForwardDataflow = ForwardDataflow(
            graph, transfer, join, initial=frozenset(), bottom=_TOP)
        engine.run()
        return LocksetResult(engine, self.sites, resolution)
