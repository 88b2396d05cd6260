"""Frozenset reference solvers: the oracle the bitmask kernels answer to.

:class:`~.andersen.Andersen` and :class:`~.fsci.FSCI` solve over dense
int bit masks (:mod:`.kernel`).  This module holds frozenset
implementations of the same two fixpoints, as subclasses that override
``run``:

* :class:`ReferenceAndersen` — the difference-propagation worklist with
  periodic SCC collapse over ``Set[MemObject]`` points-to sets;
* :class:`ReferenceFSCI` — the forward dataflow over frozenset states,
  with explicit :data:`UNINIT` / :data:`NULL_VALUE` sentinels, answering
  through :class:`ReferenceFSCIResult`.

Both return results that must match the kernels accessor by accessor.
The differential suites (``tests/test_kernel.py``, and per corpus
program in ``tests/test_parallel_diff.py``) enforce that, and
``python -m repro.bench.profile_solvers --gate BENCH_kernel.json`` times
the kernels against these solvers.  The gate compares the
kernel/reference time ratio with the committed baseline, so any change
here moves the baseline too.  No analysis path imports this module;
only the tests and the solver bench do.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ir import (
    AddrOf,
    Assume,
    Copy,
    Load,
    Loc,
    MemObject,
    NullAssign,
    Statement,
    Store,
    Var,
)
from .andersen import Andersen, AndersenResult
from .dataflow import ForwardDataflow, Supergraph
from .fsci import BOTTOM, EMPTY, FSCI, FSCIResult
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

    def __init__(self, engine: ForwardDataflow, universe: Set[Var]) -> None:
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
        graph = Supergraph(self.program, functions=self._functions)
        engine: ForwardDataflow[Optional[PtsState]] = ForwardDataflow(
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
