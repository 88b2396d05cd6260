"""Must-alias analysis: the complement the lockset application needs.

The paper's race-detection motivation requires *must*-aliases of lock
pointers ("we need to compute must-aliases only for lock pointers").
A singleton may-points-to set is not a must-fact (uninitialized or NULL
paths hide in the join), so this module runs a dedicated forward
must-points-to dataflow with **intersection** semantics:

* each cell maps to one definite value — a specific object, NULL,
  definitely-uninitialized, or unknown (⊤);
* the join of two different definite values is ⊤;
* ambiguous stores invalidate every cell they might touch.

``must_alias(p, q, loc)`` holds when both resolve to the same concrete
object at ``loc`` — exactly the discipline locksets want.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Union

from ..ir import (
    AddrOf,
    AllocSite,
    Assume,
    CallGraph,
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
from .base import PointerAnalysis
from .dataflow import ForwardDataflow, Supergraph


class _Top:
    """⊤: the cell's value is not known definitely."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover
        return "<top>"


class _MustNull:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover
        return "<must-null>"


class _MustUninit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover
        return "<must-uninit>"


TOP = _Top()
MUST_NULL = _MustNull()
MUST_UNINIT = _MustUninit()

#: A definite value: a specific object, definitely-NULL,
#: definitely-uninitialized, or ⊤.
MustVal = Union[MemObject, _Top, _MustNull, _MustUninit]

#: State: cell -> definite value; a missing key means MUST_UNINIT.
MustState = Dict[MemObject, MustVal]

BOTTOM = None


def _get(state: MustState, cell: object) -> MustVal:
    return state.get(cell, MUST_UNINIT)


def _join(a: Optional[MustState], b: Optional[MustState]
          ) -> Optional[MustState]:
    if a is None:
        return b
    if b is None:
        return a
    if a is b:
        return a
    out: MustState = {}
    for k in set(a) | set(b):
        va, vb = _get(a, k), _get(b, k)
        out[k] = va if va == vb else TOP
    return out


class MustAliasResult:
    """Definite per-location value facts."""

    def __init__(self, engine: ForwardDataflow) -> None:
        self._engine = engine

    def _before(self, loc: Loc) -> MustState:
        state = self._engine.state_before(loc)
        return state if state is not None else {}

    def _after(self, loc: Loc) -> MustState:
        state = self._engine.state_after(loc)
        return state if state is not None else {}

    def value_before(self, loc: Loc, p: MemObject) -> MustVal:
        return _get(self._before(loc), p)

    def value_after(self, loc: Loc, p: MemObject) -> MustVal:
        return _get(self._after(loc), p)

    def must_point_to(self, p: Var, loc: Loc) -> Optional[MemObject]:
        """The single object ``p`` definitely points to before ``loc``,
        or ``None`` when unknown/NULL/uninitialized."""
        value = self.value_before(loc, p)
        if value in (TOP, MUST_NULL, MUST_UNINIT):
            return None
        return value  # type: ignore[return-value]

    def must_null(self, p: Var, loc: Loc) -> bool:
        return self.value_before(loc, p) is MUST_NULL

    def must_alias(self, p: Var, q: Var, loc: Loc) -> bool:
        """Do ``p`` and ``q`` definitely point to the same object?"""
        if p == q:
            return True
        vp = self.must_point_to(p, loc)
        return vp is not None and vp == self.must_point_to(q, loc)


class MustAlias(PointerAnalysis):
    """Forward interprocedural must-points-to fixpoint.

    ``invalidate_on_ambiguous_store`` controls the conservative big
    hammer: by default an ambiguous store wipes the whole state (always
    sound); passing a may-analysis result would allow finer kills, but
    the whole-state wipe keeps this module dependency-free.
    """

    name = "must-alias"

    def __init__(self, program: Program,
                 functions: Optional[Iterable[str]] = None,
                 max_iterations: Optional[int] = None) -> None:
        super().__init__(program)
        self._functions = set(functions) if functions is not None else None
        self._max_iterations = max_iterations
        self._recursive = CallGraph(program).recursive

    def _single_instance(self, obj: MustVal) -> bool:
        if not isinstance(obj, Var):
            return False
        return obj.function is None or obj.function not in self._recursive

    def _transfer(self, loc: Loc, stmt: Statement,
                  state: MustState) -> MustState:
        if isinstance(stmt, Copy):
            out = dict(state)
            out[stmt.lhs] = _get(state, stmt.rhs)
            return out
        if isinstance(stmt, AddrOf):
            out = dict(state)
            out[stmt.lhs] = stmt.target
            return out
        if isinstance(stmt, NullAssign):
            out = dict(state)
            out[stmt.lhs] = MUST_NULL
            return out
        if isinstance(stmt, Load):
            out = dict(state)
            target = _get(state, stmt.rhs)
            if target in (TOP, MUST_NULL, MUST_UNINIT):
                out[stmt.lhs] = TOP if target is TOP else MUST_UNINIT
            else:
                out[stmt.lhs] = _get(state, target)
            return out
        if isinstance(stmt, Store):
            target = _get(state, stmt.lhs)
            if target is MUST_NULL or target is MUST_UNINIT:
                # Definitely writes nowhere meaningful (concrete UB).
                return state
            if target is TOP:
                # Could write anything: all definite facts die.
                return {k: TOP for k in state}
            out = dict(state)
            if self._single_instance(target):
                out[target] = _get(state, stmt.rhs)  # strong update
            else:
                out[target] = TOP  # multi-instance cell: weak -> unknown
            return out
        if isinstance(stmt, Assume):
            out = dict(state)
            lv = _get(state, stmt.lhs)
            if stmt.rhs is None:
                if stmt.equal and lv is TOP:
                    out[stmt.lhs] = MUST_NULL
                    return out
                return state
            rv = _get(state, stmt.rhs)
            if stmt.equal:
                # Equality lets a definite value cross over.
                if lv is TOP and rv not in (TOP, MUST_UNINIT):
                    out[stmt.lhs] = rv
                    return out
                if rv is TOP and lv not in (TOP, MUST_UNINIT):
                    out[stmt.rhs] = lv
                    return out
            return state
        return state

    def run(self) -> MustAliasResult:
        graph = Supergraph(self.program, functions=self._functions)
        engine: ForwardDataflow[Optional[MustState]] = ForwardDataflow(
            graph, self._transfer, _join, initial={}, bottom=BOTTOM)
        engine.run(max_iterations=self._max_iterations)
        return MustAliasResult(engine)
