"""Flow-sensitive, context-insensitive (FSCI) points-to analysis.

Paper Section 3 computes FSCI points-to sets demand-style (Algorithm 3, by
splicing maximally complete update sequences through all callers).  The
same information is the fixpoint of a forward may-points-to dataflow over
the interprocedural supergraph; we implement that fixpoint directly — it
is simpler to make industrial-strength, and on bootstrapped slices the
state is tiny.  The summary engine (Algorithms 4/5) consumes this result
as its oracle for

* the points-to set of ``s`` at location ``m`` (``PT_s^m`` in Algorithm 4),
* constraint satisfiability (Definition 8 atoms), and
* "can function ``g`` semantically modify pointer ``q``".

The analysis can be *sliced*: given a cluster's tracked pointer set
``V_P`` and relevant statement set ``St_P`` (paper Algorithm 1), every
other statement is treated as a skip, exactly like the paper's reduced
program ``Prog_P``.

The abstract domain tracks *uninitializedness* explicitly (the
:data:`UNINIT_BIT` sentinel; a missing key means "uninitialized").  This
is what makes strong updates sound: a store through a pointer whose
may-set is a singleton **and** lacks ``UNINIT_BIT`` definitely writes
that one cell — without the sentinel, a path on which the pointer was
never assigned would silently disappear in the join and the "singleton"
would not be a must-fact (a bug our property-based fuzzing actually
caught).  NULL is explicit (:data:`NULL_BIT`) for the same reason: an
empty set would vanish in joins and turn "v4 or NULL" into a fake
must-fact.

States are solved on the bitmask kernel (:mod:`.kernel`);
:class:`~.reference.ReferenceFSCI`, the same fixpoint over frozensets,
is the oracle the differential suites compare it against.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set

from ..ir import (
    AddrOf,
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
from .base import PointerAnalysis, PointsToResult
from .dataflow import ForwardDataflow, Supergraph
from .kernel import NodeTable, popcount


EMPTY: FrozenSet[MemObject] = frozenset()

#: Lattice bottom for unreached nodes (distinct from {} == "all uninit").
BOTTOM = None

# -- kernel (mask) encoding of the domain ---------------------------------
#
# A state is ``Dict[int, int]``: dense cell id -> value mask.  The two
# reserved low bits carry the sentinels, object ``i`` sits at bit
# ``_RESERVED + i``, and a missing key means {UNINIT} — a bijection with
# the reference solver's frozenset domain, so the fixpoint trajectory
# (state equality, join results, iteration counts) is identical.

UNINIT_BIT = 1
NULL_BIT = 2
_SENT_MASK = UNINIT_BIT | NULL_BIT
_RESERVED = 2

#: A kernel state (mask-valued); ``None`` is still lattice bottom.
MaskState = Dict[int, int]


def _join_kernel(a: Optional[MaskState],
                 b: Optional[MaskState]) -> Optional[MaskState]:
    """Pointwise union; missing keys join as UNINIT."""
    if a is None:
        return b
    if b is None:
        return a
    if a is b:
        return a
    out: MaskState = {}
    bget = b.get
    for k, v in a.items():
        w = bget(k)
        out[k] = (v | w) if w is not None else (v | UNINIT_BIT)
    for k, w in b.items():
        if k not in a:
            out[k] = w | UNINIT_BIT
    return out


class FSCIResult(PointsToResult):
    """Location-indexed points-to facts.

    The engine's states are mask-valued (see the kernel encoding notes
    above); every accessor decodes through the :class:`NodeTable` at the
    API boundary and returns plain frozensets / booleans.
    """

    def __init__(self, engine: ForwardDataflow, universe: Set[Var],
                 table: NodeTable) -> None:
        self._engine = engine
        self.universe = universe
        self._table = table
        self._summary: Optional[Dict[MemObject, FrozenSet[MemObject]]] = None

    # -- mask plumbing ---------------------------------------------------
    def _mask_before(self, loc: Loc, p: MemObject) -> int:
        state = self._engine.state_before(loc)
        if state is None:
            return UNINIT_BIT
        idx = self._table.id_of(p)
        if idx is None:
            return UNINIT_BIT
        return state.get(idx, UNINIT_BIT)

    def _mask_after(self, loc: Loc, p: MemObject) -> int:
        state = self._engine.state_after(loc)
        if state is None:
            return UNINIT_BIT
        idx = self._table.id_of(p)
        if idx is None:
            return UNINIT_BIT
        return state.get(idx, UNINIT_BIT)

    # -- decoded accessors ----------------------------------------------
    def pts_before(self, loc: Loc, p: MemObject) -> FrozenSet[MemObject]:
        """Objects ``p`` may point to just before ``loc`` executes."""
        return self._table.objects_of(self._mask_before(loc, p))

    def pts_after(self, loc: Loc, p: MemObject) -> FrozenSet[MemObject]:
        return self._table.objects_of(self._mask_after(loc, p))

    def reached_before(self, loc: Loc) -> bool:
        """Was ``loc`` visited by the fixpoint?  Unreached locations sit
        at lattice bottom: no execution of the analyzed supergraph gets
        there, so their facts never flow anywhere."""
        return self._engine.state_before(loc) is not None

    def maybe_uninit_before(self, loc: Loc, p: MemObject) -> bool:
        """May ``p`` still be uninitialized just before ``loc``?

        The must-fact gate for clients like the constraint oracle: a
        singleton may-set is only a must-fact when this is False."""
        return bool(self._mask_before(loc, p) & UNINIT_BIT)

    def must_point_to(self, p: MemObject, obj: MemObject, loc: Loc) -> bool:
        idx = self._table.id_of(obj)
        if idx is None:
            return False
        return self._mask_before(loc, p) == 1 << (_RESERVED + idx)

    def may_null_before(self, loc: Loc, p: MemObject) -> bool:
        """May ``p`` be NULL (or uninitialized garbage) before ``loc``?"""
        return bool(self._mask_before(loc, p) & _SENT_MASK)

    def must_null_before(self, loc: Loc, p: MemObject) -> bool:
        return self._mask_before(loc, p) == NULL_BIT

    def explicit_null_before(self, loc: Loc, p: MemObject) -> bool:
        """May ``p`` hold an explicitly-assigned NULL before ``loc``?

        Unlike :meth:`may_null_before` this ignores UNINIT: a pointer
        that was merely never initialized on some path does not count.
        Checkers use this to separate "dereference of NULL" from
        "dereference of garbage"."""
        return bool(self._mask_before(loc, p) & NULL_BIT)

    def maybe_uninit_only_before(self, loc: Loc, p: MemObject) -> bool:
        """Is ``p`` *definitely* uninitialized garbage before ``loc``?"""
        return self._mask_before(loc, p) == UNINIT_BIT

    def cells_after(self, loc: Loc) -> Dict[MemObject, FrozenSet[MemObject]]:
        """Every tracked cell's (sentinel-stripped) value after ``loc``.

        Used by escape checks: scanning the state at a function's exit
        reveals which outliving cells still hold addresses of locals."""
        state = self._engine.state_after(loc)
        if state is None:
            return {}
        table = self._table
        return {table.obj_of(k): table.objects_of(v)
                for k, v in state.items()}

    def may_point_to(self, p: MemObject, obj: MemObject, loc: Loc) -> bool:
        return obj in self.pts_before(loc, p)

    def may_values_equal(self, p: MemObject, q: MemObject, loc: Loc) -> bool:
        """May ``p`` and ``q`` hold the same value before ``loc``?

        Unlike :meth:`may_alias_at` this includes the non-object cases:
        uninitialized garbage may equal anything, and two NULLs are
        equal."""
        if p == q:
            return True
        vp = self._mask_before(loc, p)
        vq = self._mask_before(loc, q)
        if (vp | vq) & UNINIT_BIT:
            return True
        if vp & vq & NULL_BIT:
            return True
        return bool(vp & vq & ~_SENT_MASK)

    def must_values_equal(self, p: MemObject, q: MemObject, loc: Loc) -> bool:
        """Do ``p`` and ``q`` definitely hold the same value?"""
        if p == q:
            return True
        vp = self._mask_before(loc, p)
        vq = self._mask_before(loc, q)
        if vp == NULL_BIT and vq == NULL_BIT:
            return True
        return vp == vq and not vp & _SENT_MASK and popcount(vp) == 1

    def may_alias_at(self, p: Var, q: Var, loc: Loc) -> bool:
        if p == q:
            return True
        return bool(self.pts_before(loc, p) & self.pts_before(loc, q))

    # -- PointsToResult (flow-insensitive projection) ---------------------
    def points_to(self, p: Var) -> FrozenSet[MemObject]:
        if self._summary is None:
            acc: Dict[int, int] = {}
            for state in self._engine._out.values():
                if state is None:
                    continue
                for k, v in state.items():
                    acc[k] = acc.get(k, 0) | v
            table = self._table
            self._summary = {table.obj_of(k): table.objects_of(v)
                             for k, v in acc.items()}
        return self._summary.get(p, EMPTY)

    @property
    def iterations(self) -> int:
        return self._engine.iterations


class FSCI(PointerAnalysis):
    """Forward interprocedural may-points-to fixpoint.

    Parameters
    ----------
    tracked:
        Restrict the state to these objects (the cluster's ``V_P``);
        ``None`` tracks everything.
    relevant:
        Set of locations whose statements are executed; all others act as
        skips (the paper's ``St_P`` slicing).  ``None`` keeps everything.
    functions:
        Restrict the supergraph to these functions (calls to others fall
        through); used to confine a cluster's FSCI to the functions that
        can influence it.
    max_iterations:
        Abort knob for the deliberately-unscalable unclustered baseline.
    """

    name = "fsci"

    def __init__(self, program: Program,
                 tracked: Optional[Iterable[MemObject]] = None,
                 relevant: Optional[Set[Loc]] = None,
                 functions: Optional[Iterable[str]] = None,
                 max_iterations: Optional[int] = None,
                 callgraph: Optional[CallGraph] = None,
                 deadline: Optional[float] = None) -> None:
        super().__init__(program)
        self._tracked: Optional[FrozenSet[MemObject]] = (
            frozenset(tracked) if tracked is not None else None)
        self._relevant = relevant
        self._functions = set(functions) if functions is not None else None
        self._max_iterations = max_iterations
        self._deadline = deadline
        # Strong updates are only safe for single-instance cells: globals
        # and locals of non-recursive functions, never allocation sites.
        cg = callgraph or CallGraph(program)
        scc_of = cg.scc_of()
        self._recursive = {f for f in program.functions
                           if len(scc_of[f]) > 1 or f in cg.callees(f)}

    # ------------------------------------------------------------------
    def _is_tracked(self, obj: MemObject) -> bool:
        return self._tracked is None or obj in self._tracked

    def _strong_updatable(self, obj: object) -> bool:
        if not isinstance(obj, Var):
            return False
        return obj.function is None or obj.function not in self._recursive

    def run(self) -> FSCIResult:
        """Solve with per-location transfer closures over mask states."""
        graph = Supergraph(self.program, functions=self._functions)
        table = NodeTable(reserved=_RESERVED)
        ops = self._compile_kernel(graph, table)

        def transfer(loc: Loc, stmt: Statement,
                     state: MaskState) -> MaskState:
            f = ops.get(loc)
            return f(state) if f is not None else state

        engine: ForwardDataflow[Optional[MaskState]] = ForwardDataflow(
            graph, transfer, _join_kernel, initial={}, bottom=BOTTOM)
        engine.run(max_iterations=self._max_iterations,
                   deadline=self._deadline)
        return FSCIResult(engine, set(self.program.pointers), table)

    def _compile_kernel(self, graph: Supergraph, table: NodeTable
                        ) -> Dict[Loc, Callable[[MaskState], MaskState]]:
        """Intern every operand of the graph's statements (statement
        order, hence hash-seed independent) and compile each location's
        transfer function to a closure over mask states.  Locations with
        no entry are skips — sliced-out assigns, calls, frees."""
        stmts = []
        for name in graph.names:
            cfg = self.program.cfg_of(name)
            for idx, stmt in cfg.statements():
                stmts.append((Loc(name, idx), stmt))
        intern = table.intern
        for _loc, stmt in stmts:
            if isinstance(stmt, (Copy, Load, Store)):
                intern(stmt.lhs)
                intern(stmt.rhs)
            elif isinstance(stmt, AddrOf):
                intern(stmt.lhs)
                intern(stmt.target)
            elif isinstance(stmt, NullAssign):
                intern(stmt.lhs)
            elif isinstance(stmt, Assume):
                intern(stmt.lhs)
                if stmt.rhs is not None:
                    intern(stmt.rhs)
        # Per-id gates (every id a mask can ever hold was interned above,
        # so these arrays are complete).
        tracked_arr = [self._is_tracked(table.obj_of(i))
                       for i in range(len(table))]
        strong_arr = [tracked_arr[i] and self._strong_updatable(table.obj_of(i))
                      for i in range(len(table))]
        ops: Dict[Loc, Callable[[MaskState], MaskState]] = {}
        relevant = self._relevant
        for loc, stmt in stmts:
            if relevant is not None and loc not in relevant \
                    and stmt.is_pointer_assign:
                continue
            op = self._compile_stmt(stmt, table, tracked_arr, strong_arr)
            if op is not None:
                ops[loc] = op
        return ops

    def _compile_stmt(self, stmt: Statement, table: NodeTable,
                      tracked_arr: List[bool], strong_arr: List[bool]
                      ) -> Optional[Callable[[MaskState], MaskState]]:
        """One statement's mask transfer; ``None`` means "behaves as a
        skip"."""
        intern = table.intern
        if isinstance(stmt, Copy):
            if not self._is_tracked(stmt.lhs):
                return None
            li, ri = intern(stmt.lhs), intern(stmt.rhs)

            def op_copy(state: MaskState, li: int = li,
                        ri: int = ri) -> MaskState:
                out = dict(state)
                out[li] = state.get(ri, UNINIT_BIT)
                return out
            return op_copy
        if isinstance(stmt, AddrOf):
            if not self._is_tracked(stmt.lhs):
                return None
            li = intern(stmt.lhs)
            tbit = 1 << (_RESERVED + intern(stmt.target))

            def op_addr(state: MaskState, li: int = li,
                        tbit: int = tbit) -> MaskState:
                out = dict(state)
                out[li] = tbit
                return out
            return op_addr
        if isinstance(stmt, Load):
            if not self._is_tracked(stmt.lhs):
                return None
            li, ri = intern(stmt.lhs), intern(stmt.rhs)

            def op_load(state: MaskState, li: int = li,
                        ri: int = ri) -> MaskState:
                targets = state.get(ri, UNINIT_BIT)
                # Garbage or NULL targets read garbage; real targets
                # contribute their cells' values.
                gathered = UNINIT_BIT if targets & _SENT_MASK else 0
                real = targets >> _RESERVED
                while real:
                    low = real & -real
                    gathered |= state.get(low.bit_length() - 1, UNINIT_BIT)
                    real ^= low
                out = dict(state)
                out[li] = gathered
                return out
            return op_load
        if isinstance(stmt, Store):
            li, ri = intern(stmt.lhs), intern(stmt.rhs)

            def op_store(state: MaskState, li: int = li,
                         ri: int = ri) -> MaskState:
                targets = state.get(li, UNINIT_BIT)
                real = targets & ~_SENT_MASK
                if not real:
                    return state
                rhs_value = state.get(ri, UNINIT_BIT)
                out = dict(state)
                if targets == real and not real & (real - 1):
                    # Exactly one target, no sentinels: strong update if
                    # the cell is tracked and single-instance.
                    only = real.bit_length() - 1 - _RESERVED
                    if strong_arr[only]:
                        out[only] = rhs_value
                        return out
                bits = real >> _RESERVED
                while bits:
                    low = bits & -bits
                    oid = low.bit_length() - 1
                    if tracked_arr[oid]:
                        out[oid] = state.get(oid, UNINIT_BIT) | rhs_value
                    bits ^= low
                return out
            return op_store
        if isinstance(stmt, NullAssign):
            if not self._is_tracked(stmt.lhs):
                return None
            li = intern(stmt.lhs)

            def op_null(state: MaskState, li: int = li) -> MaskState:
                out = dict(state)
                out[li] = NULL_BIT
                return out
            return op_null
        if isinstance(stmt, Assume):
            li = intern(stmt.lhs)
            lt = self._is_tracked(stmt.lhs)
            if stmt.rhs is None:
                if not lt:
                    return None
                eq = stmt.equal

                def op_assume_null(state: MaskState, li: int = li,
                                   eq: bool = eq) -> MaskState:
                    lv = state.get(li, UNINIT_BIT)
                    if lv & UNINIT_BIT:
                        return state
                    keep = (lv & NULL_BIT) if eq else (lv & ~NULL_BIT)
                    if keep == lv:
                        return state
                    out = dict(state)
                    out[li] = keep
                    return out
                return op_assume_null
            ri = intern(stmt.rhs)
            rt = self._is_tracked(stmt.rhs)
            if not stmt.equal or not (lt or rt):
                return None  # != refines nothing set-wise, in general

            def op_assume(state: MaskState, li: int = li, ri: int = ri,
                          lt: bool = lt, rt: bool = rt) -> MaskState:
                lv = state.get(li, UNINIT_BIT)
                rv = state.get(ri, UNINIT_BIT)
                if (lv | rv) & UNINIT_BIT:
                    return state
                common = lv & rv
                out = dict(state)
                if lt:
                    out[li] = common
                if rt:
                    out[ri] = common
                return out
            return op_assume
        return None
