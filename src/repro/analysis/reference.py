"""Frozenset reference solvers: the oracle the kernels answer to.

:class:`~.andersen.Andersen` and :class:`~.fsci.FSCI` solve over dense
int bit masks (:mod:`.kernel`), and :class:`~.summaries.SummaryEngine`
over interned term and constraint ids.  This module holds the frozenset
implementations of the same three fixpoints:

* :class:`ReferenceAndersen` — the difference-propagation worklist with
  periodic SCC collapse over ``Set[MemObject]`` points-to sets;
* :class:`ReferenceFSCI` — the forward dataflow over frozenset states,
  with explicit :data:`UNINIT` / :data:`NULL_VALUE` sentinels, answering
  through :class:`ReferenceFSCIResult`.  It runs on
  :class:`ReferenceDataflow` over a :class:`ReferenceSupergraph`, the
  ``Loc``-keyed engine :mod:`.dataflow` had before it numbered nodes,
  so the FSCI differential compares two independent engines;
* :class:`ReferenceSummaryEngine` — Algorithms 4 and 5 over
  :class:`~.summaries.Term` objects and :data:`~.constraints.Constraint`
  frozensets, re-deriving every inverse transfer and satisfiability
  verdict on each step.

The first two are subclasses that override ``run``; the summary engine
stands alone with the kernel engine's public API.  Each returns results
that must match its kernel accessor by accessor (the summary engine's
``steps`` aside, which count a different worklist order).  The
differential suites (``tests/test_kernel.py``,
``tests/test_summary_kernel.py``, ``tests/test_dataflow_kernel.py``,
and per corpus program in ``tests/test_parallel_diff.py``) enforce
that, and
``python -m repro.bench.profile_solvers --gate BENCH_kernel.json`` times
the kernels against these solvers.  The gate compares the
kernel/reference time ratio with the committed baseline, so any change
here moves the baseline too.  No analysis path imports this module;
only the tests and the solver bench do.
"""

from __future__ import annotations

import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from ..errors import AnalysisBudgetExceeded
from ..ir import (
    AddrOf,
    Assume,
    CallGraph,
    CallStmt,
    Copy,
    Load,
    Loc,
    MemObject,
    NullAssign,
    Program,
    Statement,
    Store,
    Var,
)
from .andersen import Andersen, AndersenResult
from .constraints import (
    TRUE,
    Constraint,
    SatOracle,
    conjoin,
    merge,
    null_atom,
    points_to_atom,
    same_object_atom,
)
from .fsci import BOTTOM, EMPTY, FSCI, FSCIResult
from .summaries import (
    AddrTerm,
    DerefTerm,
    NullTerm,
    ObjTerm,
    SummaryEntry,
    SummaryTuple,
    Term,
    UnknownTerm,
)
from .unionfind import UnionFind


class ReferenceAndersen(Andersen):
    """:class:`~.andersen.Andersen` with frozenset points-to sets."""

    def run(self) -> AndersenResult:
        return self._run_reference()

    def _run_reference(self) -> AndersenResult:
        addr: List[Tuple[MemObject, MemObject]] = []   # lhs ⊇ {target}
        copies: List[Tuple[MemObject, MemObject]] = [] # lhs ⊇ rhs
        loads: List[Tuple[Var, Var]] = []              # lhs ⊇ *rhs
        stores: List[Tuple[Var, Var]] = []             # *lhs ⊇ rhs
        for stmt in self._statements:
            if isinstance(stmt, AddrOf):
                addr.append((stmt.lhs, stmt.target))
            elif isinstance(stmt, Copy):
                copies.append((stmt.lhs, stmt.rhs))
            elif isinstance(stmt, Load):
                loads.append((stmt.lhs, stmt.rhs))
            elif isinstance(stmt, Store):
                stores.append((stmt.lhs, stmt.rhs))

        uf: UnionFind[MemObject] = UnionFind()
        pts: Dict[MemObject, Set[MemObject]] = {}
        delta: Dict[MemObject, Set[MemObject]] = {}
        succs: Dict[MemObject, Set[MemObject]] = {}
        load_cons: Dict[MemObject, List[MemObject]] = {}
        store_cons: Dict[MemObject, List[MemObject]] = {}
        # Edges already materialized for complex constraints.
        done_edges: Set[Tuple[MemObject, MemObject]] = set()

        def rep(n: MemObject) -> MemObject:
            return uf.find(n)

        def add_edge(src: MemObject, dst: MemObject) -> None:
            src, dst = rep(src), rep(dst)
            if src == dst:
                return
            if dst in succs.setdefault(src, set()):
                return
            succs[src].add(dst)
            new = pts.get(src, set()) - pts.get(dst, set())
            if new:
                pts.setdefault(dst, set()).update(new)
                delta.setdefault(dst, set()).update(new)

        for lhs, target in addr:
            pts.setdefault(rep(lhs), set()).add(target)
            delta.setdefault(rep(lhs), set()).add(target)
        for lhs, rhs in copies:
            add_edge(rhs, lhs)
        for lhs, rhs in loads:
            load_cons.setdefault(rep(rhs), []).append(lhs)
        for lhs, rhs in stores:
            store_cons.setdefault(rep(lhs), []).append(rhs)

        rounds_since_collapse = 0
        while delta:
            node, new_objs = delta.popitem()
            node = rep(node)
            if not new_objs:
                continue
            # Complex constraints: node's points-to grew, so loads from
            # and stores through node gain edges.
            for dst in load_cons.get(node, ()):  # dst = *node
                for obj in new_objs:
                    key = (rep(obj), rep(dst))
                    if key not in done_edges:
                        done_edges.add(key)
                        add_edge(obj, dst)
            for src in store_cons.get(node, ()):  # *node = src
                for obj in new_objs:
                    key = (rep(src), rep(obj))
                    if key not in done_edges:
                        done_edges.add(key)
                        add_edge(src, obj)
            # Propagate along copy edges.
            for dst in list(succs.get(node, ())):
                dst = rep(dst)
                if dst == node:
                    continue
                fresh = new_objs - pts.get(dst, set())
                if fresh:
                    pts.setdefault(dst, set()).update(fresh)
                    delta.setdefault(dst, set()).update(fresh)
            rounds_since_collapse += 1
            if (self._cycle_elimination and not delta
                    and rounds_since_collapse > len(succs)):
                rounds_since_collapse = 0
                self._collapse_sccs(uf, pts, delta, succs, load_cons, store_cons)

        # Canonicalize: every object maps to its representative's set,
        # with members of merged classes sharing the same set.
        final: Dict[MemObject, FrozenSet[MemObject]] = {}
        for obj in set(self.program.objects) | set(pts):
            final[obj] = frozenset(pts.get(rep(obj), ()))
        return AndersenResult(final, set(self.program.pointers))

    @staticmethod
    def _collapse_sccs(uf: UnionFind[MemObject],
                       pts: Dict[MemObject, Set[MemObject]],
                       delta: Dict[MemObject, Set[MemObject]],
                       succs: Dict[MemObject, Set[MemObject]],
                       load_cons: Dict[MemObject, List[MemObject]],
                       store_cons: Dict[MemObject, List[MemObject]]) -> None:
        """Collapse copy-edge SCCs (pointer equivalence), remapping every
        side table onto class representatives."""
        nodes = list(succs)
        index: Dict[MemObject, int] = {}
        low: Dict[MemObject, int] = {}
        on_stack: Set[MemObject] = set()
        stack: List[MemObject] = []
        counter = [0]
        merged_any = [False]

        def connect(root: MemObject) -> None:
            work: List[Tuple[MemObject, Iterable[MemObject]]] = \
                [(root, iter(list(succs.get(root, ()))))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    nxt = uf.find(nxt)
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(list(succs.get(nxt, ())))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == index[node]:
                    comp: List[MemObject] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1:
                        merged_any[0] = True
                        base = comp[0]
                        for other in comp[1:]:
                            uf.union(base, other)

        for n in nodes:
            if uf.find(n) == n and n not in index:
                connect(n)
        if not merged_any[0]:
            return
        # Rebuild side tables keyed by representatives.
        for table in (pts, delta):
            old = list(table.items())
            table.clear()
            for key, val in old:
                table.setdefault(uf.find(key), set()).update(val)
        old_succs = list(succs.items())
        succs.clear()
        for key, val in old_succs:
            r = uf.find(key)
            succs.setdefault(r, set()).update(uf.find(v) for v in val)
            succs[r].discard(r)
        for cons in (load_cons, store_cons):
            old_cons = list(cons.items())
            cons.clear()
            for key, val in old_cons:
                cons.setdefault(uf.find(key), []).extend(val)
        # Merged classes may now have unpropagated facts.
        for key, val in list(pts.items()):
            delta.setdefault(key, set()).update(val)


# -- the Loc-keyed dataflow engine ---------------------------------------
#
# :mod:`.dataflow` before it numbered supergraph nodes: states, worklist
# entries and successor lists keyed by ``Loc``.  It backs only
# :class:`ReferenceFSCI`, so the differential suites compare two
# independent engines.

State = TypeVar("State")


class ReferenceSupergraph:
    """Interprocedural CFG: intra edges + call/return edges.

    Only functions reachable from the entry are included.  Calls to
    unknown targets (unresolved function pointers with no candidates)
    fall through to the call node's intraprocedural successors, which is
    sound under our convention that argument copies are explicit caller
    statements.
    """

    def __init__(self, program: Program,
                 functions: Optional[Iterable[str]] = None) -> None:
        self.program = program
        names = set(functions) if functions is not None else set(program.functions)
        #: The included functions, sorted — the canonical deterministic
        #: iteration order for clients walking the graph's statements.
        self.names: List[str] = sorted(names)
        self._succs: Dict[Loc, List[Loc]] = {}
        self._preds: Dict[Loc, List[Loc]] = {}
        self.entry = Loc(program.entry, program.cfg_of(program.entry).entry)
        # Sorted for determinism: node order must not depend on the set's
        # hash-seeded iteration order, or worker processes (with their own
        # PYTHONHASHSEED) would traverse the supergraph differently than
        # the parent.
        for name in self.names:
            cfg = program.cfg_of(name)
            for idx, stmt in cfg.statements():
                loc = Loc(name, idx)
                succs: List[Loc] = []
                if isinstance(stmt, CallStmt):
                    targets = [t for t in stmt.targets
                               if t in program.functions and t in names]
                    for t in targets:
                        callee_cfg = program.cfg_of(t)
                        succs.append(Loc(t, callee_cfg.entry))
                        # Return edge: callee exit -> call's successors.
                        exit_loc = Loc(t, callee_cfg.exit)
                        rets = self._succs.setdefault(exit_loc, [])
                        for s in cfg.successors(idx):
                            ret = Loc(name, s)
                            if ret not in rets:
                                rets.append(ret)
                    if not targets:
                        succs.extend(Loc(name, s) for s in cfg.successors(idx))
                else:
                    succs.extend(Loc(name, s) for s in cfg.successors(idx))
                existing = self._succs.setdefault(loc, [])
                for s in succs:
                    if s not in existing:
                        existing.append(s)
        for src, dsts in self._succs.items():
            for d in dsts:
                self._preds.setdefault(d, []).append(src)

    def successors(self, loc: Loc) -> List[Loc]:
        return self._succs.get(loc, [])

    def predecessors(self, loc: Loc) -> List[Loc]:
        return self._preds.get(loc, [])

    def nodes(self) -> List[Loc]:
        seen: Set[Loc] = set()
        out: List[Loc] = []
        for loc in self._succs:
            if loc not in seen:
                seen.add(loc)
                out.append(loc)
        for loc in self._preds:
            if loc not in seen:
                seen.add(loc)
                out.append(loc)
        return out


class ReferenceDataflow(Generic[State]):
    """Worklist forward fixpoint over a supergraph.

    ``transfer(loc, stmt, state)`` must return a *new* state (states are
    treated as immutable); ``join`` combines predecessor outputs;
    ``initial`` is the entry fact; states compare with ``==``.
    """

    def __init__(
        self,
        graph: ReferenceSupergraph,
        transfer: Callable[[Loc, Statement, State], State],
        join: Callable[[State, State], State],
        initial: State,
        bottom: State,
    ) -> None:
        self.graph = graph
        self.transfer = transfer
        self.join = join
        self.initial = initial
        self.bottom = bottom
        self._in: Dict[Loc, State] = {}
        self._out: Dict[Loc, State] = {}
        self.iterations = 0

    def run(self, max_iterations: Optional[int] = None,
            deadline: Optional[float] = None) -> None:
        """Run to fixpoint; ``deadline`` is an absolute time.monotonic()
        value standing in for the paper's wall-clock timeout."""
        program = self.graph.program
        self._in[self.graph.entry] = self.initial
        worklist: List[Loc] = [self.graph.entry]
        queued: Set[Loc] = {self.graph.entry}
        while worklist:
            loc = worklist.pop()
            queued.discard(loc)
            self.iterations += 1
            if max_iterations is not None and self.iterations > max_iterations:
                raise TimeoutError(
                    f"dataflow exceeded {max_iterations} iterations")
            if deadline is not None and self.iterations % 256 == 0 \
                    and time.monotonic() > deadline:
                raise TimeoutError("dataflow exceeded its deadline")
            in_state = self._in.get(loc, self.bottom)
            stmt = program.stmt_at(loc)
            out_state = self.transfer(loc, stmt, in_state)
            if loc in self._out and self._out[loc] == out_state:
                continue
            self._out[loc] = out_state
            for succ in self.graph.successors(loc):
                old = self._in.get(succ, self.bottom)
                new = self.join(old, out_state)
                if succ not in self._in or new != old:
                    self._in[succ] = new
                    if succ not in queued:
                        queued.add(succ)
                        worklist.append(succ)

    def state_before(self, loc: Loc) -> State:
        return self._in.get(loc, self.bottom)

    def state_after(self, loc: Loc) -> State:
        return self._out.get(loc, self.bottom)


# -- FSCI over frozenset states ------------------------------------------


class _Uninit:
    """Sentinel 'value': the cell may still hold its original garbage."""

    _instance: Optional["_Uninit"] = None

    def __new__(cls) -> "_Uninit":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<uninit>"


UNINIT = _Uninit()
UNINIT_SET: FrozenSet[object] = frozenset({UNINIT})


class _Null:
    """Sentinel 'value': the cell holds NULL (defined, points nowhere).

    NULL must be explicit for the same reason UNINIT must: an empty set
    would vanish in joins and turn "v4 or NULL" into a fake must-fact,
    enabling an unsound strong update on a path where the store is a
    concrete no-op."""

    _instance: Optional["_Null"] = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<null>"


NULL_VALUE = _Null()
NULL_SET: FrozenSet[object] = frozenset({NULL_VALUE})

_SENTINELS = (UNINIT, NULL_VALUE)

PtsState = Dict[MemObject, FrozenSet[object]]


def _value(state: PtsState, cell: object) -> FrozenSet[object]:
    """The abstract value of ``cell``: missing key means uninitialized."""
    v = state.get(cell)
    return v if v is not None else UNINIT_SET


def _join(a: Optional[PtsState], b: Optional[PtsState]) -> Optional[PtsState]:
    if a is None:
        return b
    if b is None:
        return a
    if a is b:
        return a
    out: PtsState = {}
    for k, v in a.items():
        w = b.get(k)
        out[k] = v | (w if w is not None else UNINIT_SET)
    for k, w in b.items():
        if k not in a:
            out[k] = w | UNINIT_SET
    return out


def _strip(objs: FrozenSet[object]) -> FrozenSet[MemObject]:
    """Drop the UNINIT/NULL sentinels for clients wanting real objects."""
    if UNINIT in objs or NULL_VALUE in objs:
        return frozenset(o for o in objs if o not in _SENTINELS)
    return objs  # type: ignore[return-value]


class ReferenceFSCIResult(FSCIResult):
    """:class:`~.fsci.FSCIResult` over frozenset-valued states."""

    def __init__(self, engine: ReferenceDataflow, universe: Set[Var]) -> None:
        self._engine = engine
        self.universe = universe
        self._summary: Optional[Dict[MemObject, FrozenSet[MemObject]]] = None

    def _state_before(self, loc: Loc) -> PtsState:
        state = self._engine.state_before(loc)
        return state if state is not None else {}

    def _state_after(self, loc: Loc) -> PtsState:
        state = self._engine.state_after(loc)
        return state if state is not None else {}

    def pts_before(self, loc: Loc, p: MemObject) -> FrozenSet[MemObject]:
        """Objects ``p`` may point to just before ``loc`` executes."""
        return _strip(_value(self._state_before(loc), p))

    def pts_after(self, loc: Loc, p: MemObject) -> FrozenSet[MemObject]:
        return _strip(_value(self._state_after(loc), p))

    def maybe_uninit_before(self, loc: Loc, p: MemObject) -> bool:
        """May ``p`` still be uninitialized just before ``loc``?

        The must-fact gate for clients like the constraint oracle: a
        singleton may-set is only a must-fact when this is False."""
        return UNINIT in _value(self._state_before(loc), p)

    def must_point_to(self, p: MemObject, obj: MemObject, loc: Loc) -> bool:
        value = _value(self._state_before(loc), p)
        return value == frozenset({obj})

    def may_null_before(self, loc: Loc, p: MemObject) -> bool:
        """May ``p`` be NULL (or uninitialized garbage) before ``loc``?"""
        value = _value(self._state_before(loc), p)
        return NULL_VALUE in value or UNINIT in value

    def must_null_before(self, loc: Loc, p: MemObject) -> bool:
        return _value(self._state_before(loc), p) == NULL_SET

    def explicit_null_before(self, loc: Loc, p: MemObject) -> bool:
        """May ``p`` hold an explicitly-assigned NULL before ``loc``?

        Unlike :meth:`may_null_before` this ignores UNINIT: a pointer
        that was merely never initialized on some path does not count.
        Checkers use this to separate "dereference of NULL" from
        "dereference of garbage"."""
        return NULL_VALUE in _value(self._state_before(loc), p)

    def maybe_uninit_only_before(self, loc: Loc, p: MemObject) -> bool:
        """Is ``p`` *definitely* uninitialized garbage before ``loc``?"""
        return _value(self._state_before(loc), p) == UNINIT_SET

    def cells_after(self, loc: Loc) -> Dict[MemObject, FrozenSet[MemObject]]:
        """Every tracked cell's (sentinel-stripped) value after ``loc``.

        Used by escape checks: scanning the state at a function's exit
        reveals which outliving cells still hold addresses of locals."""
        return {k: _strip(v) for k, v in self._state_after(loc).items()}

    def may_values_equal(self, p: MemObject, q: MemObject, loc: Loc) -> bool:
        """May ``p`` and ``q`` hold the same value before ``loc``?

        Unlike :meth:`may_alias_at` this includes the non-object cases:
        uninitialized garbage may equal anything, and two NULLs are
        equal."""
        if p == q:
            return True
        vp = _value(self._state_before(loc), p)
        vq = _value(self._state_before(loc), q)
        if UNINIT in vp or UNINIT in vq:
            return True
        if NULL_VALUE in vp and NULL_VALUE in vq:
            return True
        return bool(_strip(vp) & _strip(vq))

    def must_values_equal(self, p: MemObject, q: MemObject, loc: Loc) -> bool:
        """Do ``p`` and ``q`` definitely hold the same value?"""
        if p == q:
            return True
        vp = _value(self._state_before(loc), p)
        vq = _value(self._state_before(loc), q)
        if vp == NULL_SET and vq == NULL_SET:
            return True
        return (len(vp) == 1 and vp == vq and UNINIT not in vp
                and NULL_VALUE not in vp)

    # -- PointsToResult (flow-insensitive projection) ---------------------
    def points_to(self, p: Var) -> FrozenSet[MemObject]:
        if self._summary is None:
            summary: Dict[MemObject, Set[MemObject]] = {}
            for state in self._engine._out.values():
                if state is None:
                    continue
                for k, v in state.items():
                    summary.setdefault(k, set()).update(_strip(v))
            self._summary = {k: frozenset(v) for k, v in summary.items()}
        return self._summary.get(p, EMPTY)


class ReferenceFSCI(FSCI):
    """:class:`~.fsci.FSCI` with frozenset transfer functions."""

    def run(self) -> FSCIResult:
        graph = ReferenceSupergraph(self.program, functions=self._functions)
        engine: ReferenceDataflow[Optional[PtsState]] = ReferenceDataflow(
            graph, self._transfer, _join, initial={}, bottom=BOTTOM)
        engine.run(max_iterations=self._max_iterations,
                   deadline=self._deadline)
        return ReferenceFSCIResult(engine, set(self.program.pointers))

    def _transfer(self, loc: Loc, stmt: Statement, state: PtsState) -> PtsState:
        if self._relevant is not None and loc not in self._relevant \
                and stmt.is_pointer_assign:
            return state
        if isinstance(stmt, Copy):
            if not self._is_tracked(stmt.lhs):
                return state
            out = dict(state)
            out[stmt.lhs] = _value(state, stmt.rhs)
            return out
        if isinstance(stmt, AddrOf):
            if not self._is_tracked(stmt.lhs):
                return state
            out = dict(state)
            out[stmt.lhs] = frozenset({stmt.target})
            return out
        if isinstance(stmt, Load):
            if not self._is_tracked(stmt.lhs):
                return state
            gathered: Set[object] = set()
            targets = _value(state, stmt.rhs)
            if UNINIT in targets or NULL_VALUE in targets:
                # Loading through garbage or NULL is UB; the value read
                # is garbage (matches the concrete oracle's model).
                gathered.add(UNINIT)
            for obj in targets:
                if obj not in _SENTINELS:
                    gathered.update(_value(state, obj))
            out = dict(state)
            out[stmt.lhs] = frozenset(gathered)
            return out
        if isinstance(stmt, Store):
            targets = _value(state, stmt.lhs)
            real = [o for o in targets if o not in _SENTINELS]
            if not real:
                return state
            rhs_value = _value(state, stmt.rhs)
            out = dict(state)
            if len(real) == 1 and len(targets) == 1:
                (only,) = real
                if self._is_tracked(only) and self._strong_updatable(only):
                    out[only] = rhs_value
                    return out
            for obj in real:
                if self._is_tracked(obj):
                    out[obj] = _value(state, obj) | rhs_value
            return out
        if isinstance(stmt, NullAssign):
            if not self._is_tracked(stmt.lhs):
                return state
            out = dict(state)
            out[stmt.lhs] = NULL_SET
            return out
        if isinstance(stmt, Assume):
            return self._refine(state, stmt)
        return state

    def _refine(self, state: PtsState, stmt: Assume) -> PtsState:
        """Path-sensitive refinement (paper Section 3): an assume only
        restricts executions, so intersecting values is sound.  UNINIT
        blocks refinement — garbage can compare equal to anything."""
        lv = _value(state, stmt.lhs)
        if stmt.rhs is None:
            if UNINIT in lv:
                return state
            keep = (lv & NULL_SET) if stmt.equal else (lv - NULL_SET)
            if keep == lv or not self._is_tracked(stmt.lhs):
                return state
            out = dict(state)
            out[stmt.lhs] = keep
            return out
        rv = _value(state, stmt.rhs)
        if not stmt.equal or UNINIT in lv or UNINIT in rv:
            return state  # != refines nothing set-wise, in general
        common = lv & rv
        out = dict(state)
        if self._is_tracked(stmt.lhs):
            out[stmt.lhs] = common
        if self._is_tracked(stmt.rhs):
            out[stmt.rhs] = common
        return out


# -- FSCS summaries over frozenset terms and constraints ------------------


class ReferenceSummaryEngine:
    """Backward interprocedural summary computation for one cluster, over
    frozenset terms and constraints (the kernel engine's oracle).

    Parameters
    ----------
    program:
        The program under analysis.
    fsci:
        The cluster's FSCI result; the oracle for Algorithm 4's
        ``PT_s^m`` sets and for constraint satisfiability.  ``None``
        degrades gracefully to :class:`UnknownTerm` where memory
        disambiguation would be needed.
    relevant:
        The cluster's ``St_P`` (locations).  Statements at other
        locations are skips, as in the paper's reduced program.  ``None``
        keeps every statement (the unclustered baseline).
    max_cond_atoms:
        Constraint size cap.
    budget:
        Maximum number of worklist items processed engine-wide; exceeded
        budgets raise :class:`~repro.errors.AnalysisBudgetExceeded`.
    """

    def __init__(self, program: Program,
                 fsci: Optional[FSCIResult] = None,
                 relevant: Optional[Set[Loc]] = None,
                 callgraph: Optional[CallGraph] = None,
                 max_cond_atoms: int = 4,
                 budget: Optional[int] = None,
                 deadline: Optional[float] = None,
                 path_sensitive: bool = True) -> None:
        self.program = program
        self.fsci = fsci
        self.relevant = relevant
        self.path_sensitive = path_sensitive
        self.sat = SatOracle(fsci)
        self.max_cond_atoms = max_cond_atoms
        self.budget = budget
        self.deadline = deadline
        self.steps = 0
        self._callgraph = callgraph or CallGraph(program)
        self._summaries: Dict[Tuple[str, Term], FrozenSet[SummaryEntry]] = {}
        self._deps: Dict[Tuple[str, Term], Set[Tuple[str, Term]]] = {}
        self._done: Set[Tuple[str, Term]] = set()
        self._transparent = self._compute_transparent()

    # ------------------------------------------------------------------
    # transparency: functions that cannot touch the cluster at all
    # ------------------------------------------------------------------
    def _compute_transparent(self) -> Set[str]:
        """Functions from which no relevant pointer assignment is
        reachable; the paper's observation that most functions need no
        summaries for a given cluster."""
        if self.relevant is not None:
            # Relevant locations are canonical by construction.
            modifiers = {loc.function for loc in self.relevant}
        else:
            modifiers = {loc.function
                         for loc, stmt in self.program.statements()
                         if stmt.is_pointer_assign}
        influencing = self._callgraph.ancestors_of(modifiers)
        return set(self.program.functions) - influencing

    def is_transparent(self, func: str) -> bool:
        return func in self._transparent

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def exit_summary(self, func: str, term: Term) -> FrozenSet[SummaryEntry]:
        """Value of ``term`` at ``func``'s exit, at-entry or terminal."""
        if term.is_terminal:
            return frozenset({(term, TRUE)})
        if self.is_transparent(func):
            return frozenset({(term, TRUE)})
        key = (func, term)
        if key in self._done:
            return self._summaries[key]
        self._fixpoint(key)
        return self._summaries[key]

    def summary_size(self, func: str, term: Term) -> int:
        """``len(exit_summary(func, term))``."""
        return len(self.exit_summary(func, term))

    def function_summary(self, func: str,
                         pointers: Iterable[Var]) -> List[SummaryTuple]:
        """Paper-style summary tuples for ``func``'s exit location, for
        each pointer of interest (used by reports and Figure 5 tests)."""
        cfg = self.program.cfg_of(func)
        exit_loc = Loc(func, cfg.exit)
        out: List[SummaryTuple] = []
        for p in sorted(pointers, key=str):
            for term, cond in self.exit_summary(func, ObjTerm(p)):
                if term == ObjTerm(p) and not cond:
                    continue  # identity entries are implicit in the paper
                out.append(SummaryTuple(p, exit_loc, term, cond))
        return out

    def backward_from(self, loc: Loc, term: Term,
                      cond: Constraint = TRUE,
                      after: bool = True) -> FrozenSet[SummaryEntry]:
        """Value of ``term`` at ``loc`` (after its statement when
        ``after``), expressed at the enclosing function's entry or as
        terminals."""
        if term.is_terminal and not self.path_sensitive:
            return frozenset({(term, cond)})
        cfg = self.program.cfg_of(loc.function)
        if after:
            starts = [(loc.index, term, cond)]
        else:
            starts = [(p, term, cond) for p in cfg.predecessors(loc.index)]
            if loc.index == cfg.entry:
                return frozenset({(term, cond)})
        return self._walk(loc.function, starts)

    # ------------------------------------------------------------------
    # fixpoint driver
    # ------------------------------------------------------------------
    def _fixpoint(self, root: Tuple[str, Term]) -> None:
        worklist: List[Tuple[str, Term]] = [root]
        queued = {root}
        while worklist:
            key = worklist.pop()
            queued.discard(key)
            old = self._summaries.get(key, frozenset())
            self._summaries.setdefault(key, frozenset())
            self._done.add(key)
            requested: Set[Tuple[str, Term]] = set()
            new = self._compute_exit(key, requested)
            for req in requested:
                self._deps.setdefault(req, set()).add(key)
                if req not in self._done and req not in queued:
                    worklist.append(req)
                    queued.add(req)
            if new != old:
                self._summaries[key] = new | old
                for dep in self._deps.get(key, ()):
                    if dep not in queued:
                        worklist.append(dep)
                        queued.add(dep)

    def _compute_exit(self, key: Tuple[str, Term],
                      requested: Set[Tuple[str, Term]]) -> FrozenSet[SummaryEntry]:
        func, term = key
        cfg = self.program.cfg_of(func)
        return self._walk(func, [(cfg.exit, term, TRUE)], requested)

    # ------------------------------------------------------------------
    # the backward walk (Algorithm 5's worklist, intraprocedural steps)
    # ------------------------------------------------------------------
    def _walk(self, func: str,
              starts: List[Tuple[int, Term, Constraint]],
              requested: Optional[Set[Tuple[str, Term]]] = None
              ) -> FrozenSet[SummaryEntry]:
        cfg = self.program.cfg_of(func)
        results: Set[SummaryEntry] = set()
        processed: Set[Tuple[int, Term, Constraint]] = set()
        work: List[Tuple[int, Term, Constraint]] = []

        def push(node: int, term: Term, cond: Constraint) -> None:
            if term.is_terminal and not self.path_sensitive:
                # Resolved value: nothing before can change it.  With
                # path sensitivity on we keep walking to collect the
                # branch constraints that gate this path segment.
                results.add((term, cond))
                return
            item = (node, term, cond)
            if item not in processed:
                processed.add(item)
                work.append(item)

        for node, term, cond in starts:
            push(node, term, cond)

        while work:
            self.steps += 1
            if self.budget is not None and self.steps > self.budget:
                raise AnalysisBudgetExceeded("summary-engine", self.steps)
            if self.deadline is not None and self.steps % 256 == 0 \
                    and time.monotonic() > self.deadline:
                raise AnalysisBudgetExceeded("summary-engine", self.steps)
            node, term, cond = work.pop()
            loc = Loc(func, node)
            stmt = cfg.stmt(node)
            conts = self._inverse(loc, stmt, term, cond, requested)
            for t, c in conts:
                if not self.sat.satisfiable(c):
                    continue
                if t.is_terminal and not self.path_sensitive:
                    results.add((t, c))
                elif node == cfg.entry:
                    results.add((t, c))
                else:
                    preds = cfg.predecessors(node)
                    if not preds:
                        results.add((t, c))
                    for pred in preds:
                        push(pred, t, c)
        return frozenset(results)

    # ------------------------------------------------------------------
    # Algorithm 4: inverse transfer of one statement over a term
    # ------------------------------------------------------------------
    def _inverse(self, loc: Loc, stmt: Statement, term: Term,
                 cond: Constraint,
                 requested: Optional[Set[Tuple[str, Term]]]
                 ) -> List[SummaryEntry]:
        if term.is_terminal and not isinstance(stmt, Assume):
            # A resolved value only collects branch constraints.
            return [(term, cond)]
        if isinstance(stmt, CallStmt):
            return self._inverse_call(stmt, term, cond, requested)
        if isinstance(stmt, Assume):
            # Path sensitivity (paper Section 3): record the branching
            # constraint; the FSCI-backed oracle weeds out infeasible
            # tuples at satisfiability-check time.
            if not self.path_sensitive:
                return [(term, cond)]
            if stmt.rhs is None:
                atom = null_atom(loc, stmt.lhs, stmt.equal)
            else:
                atom = same_object_atom(loc, stmt.lhs, stmt.rhs, stmt.equal)
            refined = conjoin(cond, atom, self.max_cond_atoms)
            return [(term, refined)] if refined is not None else []
        if not stmt.is_pointer_assign:
            return [(term, cond)]
        if self.relevant is not None and loc not in self.relevant:
            # Outside St_P the reduced program executes a skip.
            return [(term, cond)]
        if isinstance(stmt, Copy):
            return self._inverse_write(loc, stmt.lhs, ObjTerm(stmt.rhs),
                                       term, cond)
        if isinstance(stmt, AddrOf):
            return self._inverse_write(loc, stmt.lhs, AddrTerm(stmt.target),
                                       term, cond)
        if isinstance(stmt, Load):
            return self._inverse_write(loc, stmt.lhs, DerefTerm(stmt.rhs),
                                       term, cond)
        if isinstance(stmt, NullAssign):
            return self._inverse_write(loc, stmt.lhs, NullTerm(), term, cond)
        if isinstance(stmt, Store):
            return self._inverse_store(loc, stmt.lhs, stmt.rhs, term, cond)
        return [(term, cond)]

    def _inverse_write(self, loc: Loc, lhs: Var, value: Term,
                       term: Term, cond: Constraint) -> List[SummaryEntry]:
        """Inverse of a direct write ``lhs = <value>`` (Algorithm 4's
        "r is a pointer variable" arm)."""
        if isinstance(term, ObjTerm):
            if term.obj == lhs:
                return [(value, cond)]
            return [(term, cond)]
        assert isinstance(term, DerefTerm)
        s = term.var
        if s == lhs:
            # The cell *s names changes identity across this statement:
            # after it, s holds <value>, so *s is the content of the cell
            # behind <value> — evaluated AFTER the statement, because the
            # statement may have written that very cell (s = &s etc.).
            return self._deref_after_write(loc, lhs, value, cond)
        # The write may also have landed in the cell s points to, iff
        # s -> lhs at this point (Algorithm 4 lines 10-18).
        pts_s = self._pts_before(loc, s)
        if pts_s is not None and lhs not in pts_s:
            return [(term, cond)]
        out: List[SummaryEntry] = []
        hit = conjoin(cond, points_to_atom(loc, s, lhs, True),
                      self.max_cond_atoms)
        if hit is not None:
            out.append((value, hit))
        miss = conjoin(cond, points_to_atom(loc, s, lhs, False),
                       self.max_cond_atoms)
        if miss is not None:
            out.append((term, miss))
        return out

    def _inverse_store(self, loc: Loc, u: Var, t: Var,
                       term: Term, cond: Constraint) -> List[SummaryEntry]:
        """Inverse of ``*u = t`` (Algorithm 4's "r is of the form ~u")."""
        value = ObjTerm(t)
        if isinstance(term, ObjTerm):
            v = term.obj
            pts_u = self._pts_before(loc, u)
            if pts_u is not None and v not in pts_u:
                return [(term, cond)]
            out: List[SummaryEntry] = []
            hit = conjoin(cond, points_to_atom(loc, u, v, True),
                          self.max_cond_atoms)
            if hit is not None:
                out.append((value, hit))
            miss = conjoin(cond, points_to_atom(loc, u, v, False),
                           self.max_cond_atoms)
            if miss is not None:
                out.append((term, miss))
            return out
        assert isinstance(term, DerefTerm)
        s = term.var
        if s == u:
            return [(value, cond)]
        out: List[SummaryEntry] = []
        # The store may overwrite the *base* variable s itself (when u
        # points to s), changing which cell *s denotes; resolve that
        # branch through FSCI at the after-state (fully conservative).
        pts_u = self._pts_before(loc, u)
        base_cond: Optional[Constraint] = cond
        if pts_u is None or s in pts_u:
            hit = conjoin(cond, points_to_atom(loc, u, s, True),
                          self.max_cond_atoms)
            if hit is not None:
                out.extend(self._resolve_deref_after(loc, s, hit))
            base_cond = conjoin(cond, points_to_atom(loc, u, s, False),
                                self.max_cond_atoms)
            if base_cond is None:
                return out
        # With s unchanged, the store affects *s only if s and u point to
        # the same cell (Algorithm 4 lines 28-35).
        if not self._may_alias_at(loc, s, u):
            out.append((term, base_cond))
            return out
        hit = conjoin(base_cond, same_object_atom(loc, s, u, True),
                      self.max_cond_atoms)
        if hit is not None:
            out.append((value, hit))
        miss = conjoin(base_cond, same_object_atom(loc, s, u, False),
                       self.max_cond_atoms)
        if miss is not None:
            out.append((term, miss))
        return out

    def _resolve_deref_after(self, loc: Loc, s: Var,
                             cond: Constraint) -> List[SummaryEntry]:
        """Fully resolve the term ``*s`` at the state after ``loc``'s
        statement, through FSCI facts (sound over-approximation)."""
        if self.fsci is None:
            return [(UnknownTerm(), cond)]
        objs: Set[MemObject] = set()
        for cell in self.fsci.pts_after(loc, s):
            objs.update(self.fsci.pts_after(loc, cell))
        return [(AddrTerm(o), cond) for o in objs] or [(UnknownTerm(), cond)]

    def _inverse_call(self, stmt: CallStmt, term: Term, cond: Constraint,
                      requested: Optional[Set[Tuple[str, Term]]]
                      ) -> List[SummaryEntry]:
        """Splice callee exit summaries (Algorithm 5 lines 9-18)."""
        targets = [g for g in stmt.targets if g in self.program.functions]
        if not targets:
            return [(term, cond)]
        out: List[SummaryEntry] = []
        for g in targets:
            if self.is_transparent(g):
                out.append((term, cond))
                continue
            key = (g, term)
            if requested is not None:
                requested.add(key)
                entries = self._summaries.setdefault(key, frozenset())
                if key not in self._done:
                    # Will be (re)computed by the fixpoint driver; the
                    # current (possibly empty) value is a monotone
                    # under-approximation that the driver repairs.
                    pass
            else:
                entries = self.exit_summary(g, term)
            for w, c in entries:
                combined = merge(cond, c, self.max_cond_atoms)
                if combined is not None:
                    out.append((w, combined))
        return out

    # ------------------------------------------------------------------
    # FSCI plumbing
    # ------------------------------------------------------------------
    def _pts_before(self, loc: Loc, p: Var) -> Optional[FrozenSet[MemObject]]:
        if self.fsci is None:
            return None
        return self.fsci.pts_before(loc, p)

    def _may_alias_at(self, loc: Loc, a: Var, b: Var) -> bool:
        if self.fsci is None:
            return True
        pa = self.fsci.pts_before(loc, a)
        pb = self.fsci.pts_before(loc, b)
        # Empty sets mean "uninitialized here as far as FSCI knows";
        # err toward aliasing.
        return bool(pa & pb) or not pa or not pb

    def _deref_after_write(self, loc: Loc, lhs: Var, value: Term,
                           cond: Constraint) -> List[SummaryEntry]:
        """The term ``*(value)`` evaluated just after ``lhs = <value>``.

        The write changed exactly one cell — ``lhs`` — whose content
        after the statement is ``value`` itself; every other cell's
        content equals its before-statement content, so the term can
        continue backward symbolically.  Unrepresentable cases resolve
        through FSCI (sound: FSCI over-approximates every execution)."""
        if isinstance(value, AddrTerm):
            if value.obj == lhs:
                # s = &s: *s is s's own content = the assigned value.
                return [(value, cond)]
            return [(ObjTerm(value.obj), cond)]
        if isinstance(value, NullTerm):
            return []  # *NULL: no defined value flows
        if isinstance(value, ObjTerm) and isinstance(value.obj, Var):
            q = value.obj
            # If q points to the written cell itself, *s is the assigned
            # value (= q's value); otherwise the cell was untouched and
            # *q-before-statement is correct.
            pts_q = self._pts_before(loc, q)
            out: List[SummaryEntry] = []
            if pts_q is None or lhs in pts_q:
                hit = conjoin(cond, points_to_atom(loc, q, lhs, True),
                              self.max_cond_atoms)
                if hit is not None:
                    out.append((ObjTerm(q), hit))
                miss = conjoin(cond, points_to_atom(loc, q, lhs, False),
                               self.max_cond_atoms)
                if miss is not None:
                    out.append((DerefTerm(q), miss))
                return out
            return [(DerefTerm(q), cond)]
        if self.fsci is None:
            return [(UnknownTerm(), cond)]
        # Coarse fallback: the possible cells after the statement are the
        # FSCI points-to of lhs there; their contents are FSCI facts too.
        objs: Set[MemObject] = set()
        for cell in self.fsci.pts_after(loc, lhs):
            objs.update(self.fsci.pts_after(loc, cell))
        return [(AddrTerm(o), cond) for o in objs] or [(UnknownTerm(), cond)]
