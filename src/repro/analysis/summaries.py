"""Summary-based backward value tracking (paper Definitions 3-8,
Algorithms 4 and 5).

The central object is a *term* describing a pointer value during the
backward traversal of maximally complete update sequences:

* :class:`ObjTerm` ``(v)``   — the value currently stored in cell ``v``
  (a variable or a heap cell); the paper's plain pointer ``q``.
* :class:`DerefTerm` ``(s)`` — the value stored in the cell ``s`` points
  to; the paper's ``~s``.
* :class:`AddrTerm` ``(o)``  — the resolved value ``&o``; a terminal.
* :class:`NullTerm`          — the resolved value ``NULL``; a terminal.
* :class:`UnknownTerm`       — sound top (used when a value escapes the
  term language and no FSCI oracle is available to resolve it).

:class:`SummaryEngine` computes, per function ``f`` and term ``t``, the
**exit summary**: the set of ``(term', cond)`` pairs such that the value
of ``t`` at ``f``'s exit equals the value of ``term'`` at ``f``'s *entry*
(or is fully resolved to a terminal) under points-to constraints ``cond``.
These are exactly the paper's summary tuples ``(p, exit_f, q, cond)``;
:meth:`SummaryEngine.backward_from` provides the same for arbitrary
interior locations, which is what alias queries use.

Summaries are solved by tabulation over ``(function, term)`` keys — the
effect of the paper's reverse-topological SCC processing, computed on
demand.  Each open key has one resumable backward walk, which keeps its
worklist, its processed ``(node, term, condition)`` items and its
entries in the order found; each item is processed once.  A call item
registers with its callee's key and takes the entries found so far;
every later entry reaches it exactly once, when the callee's walk
drains.  A call that opens a new key runs the callee's walk first, on
an explicit stack, so nothing recurses per call level.  When no walk
has work left every opened key is final; a raise (budget or deadline)
drops every open walk instead, so no partial summary survives it.
:meth:`SummaryEngine.backward_from` runs the same driver with a query
walk.  Recursion needs no special case: a key inside a recursive SCC
waits on keys that are still open, and receives their later entries.
Constraint growth is capped (see :mod:`.constraints`); capping only
weakens conditions, which over-approximates — the sound direction.

The engine is a kernel over dense ints, as :class:`~.fsci.FSCI` is over
bit masks; terms and constraints become objects only at the public API:

* terms are interned to ids, and constraints are hash-consed to ids
  (``0`` is ``TRUE``), each with its satisfiability decided once, when
  it is interned, from memoized per-atom :class:`~.constraints.SatOracle`
  verdicts;
* ``conjoin`` and ``merge`` are memoized on ids and fall back to
  :func:`~.constraints.conjoin` / :func:`~.constraints.merge`, which
  keep the cap rule;
* each walked function gets one node-kind table (skip, assume, call or
  pointer transfer; a call whose callees are all transparent is a
  skip), and each pointer-transfer node an Algorithm-4 *recipe* per
  term: the continuation terms with the atoms to conjoin, built on
  first use, which is the only time FSCI is consulted;
* a walk moves an item to its node's *jump targets*, not its
  predecessors: a non-terminal term jumps over runs of skip nodes, and
  a terminal term over every node but assumes, since nothing else can
  change it.  The entry and predecessor-less nodes stay as stops, and a
  key's walk starts at the jump targets of its function's exit.  The
  lists depend only on the CFG and the node kinds, so every engine over
  one program shares them (the program keeps them with its other
  caches); each is filled on first use, and a fill is idempotent, so
  concurrent engines may race on it;
* worklists hold int triples, entries and waiters are lists in the
  order found and FSCI-resolved objects are emitted sorted, so
  ``steps`` repeats under every ``PYTHONHASHSEED``.

A step is one ``(node, term, condition)`` item of one walk, processed
once; the budget counts steps.  Summaries stay in id form and are
decoded on each call.
:class:`~.reference.ReferenceSummaryEngine`, the same algorithm over
frozensets, is the oracle ``tests/test_summary_kernel.py`` compares it
against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import AnalysisBudgetExceeded
from ..ir import (
    CFG,
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
from .constraints import (
    TRUE,
    Atom,
    Constraint,
    SatOracle,
    conjoin,
    format_constraint,
    merge,
    null_atom,
    points_to_atom,
    same_object_atom,
)
from .fsci import FSCIResult


class Term:
    """Base class for backward-tracked value terms."""

    __slots__ = ()
    is_terminal = False


@dataclass(frozen=True, order=True)
class ObjTerm(Term):
    """The value stored in cell ``obj``."""

    obj: MemObject

    def __str__(self) -> str:
        return str(self.obj)


@dataclass(frozen=True, order=True)
class DerefTerm(Term):
    """The value stored in the cell ``var`` points to (the paper's ~var)."""

    var: Var

    def __str__(self) -> str:
        return f"*{self.var}"


@dataclass(frozen=True, order=True)
class AddrTerm(Term):
    """The resolved value ``&obj`` — the tracked pointer points to obj."""

    obj: MemObject
    is_terminal = True

    def __str__(self) -> str:
        return f"&{self.obj}"


@dataclass(frozen=True)
class NullTerm(Term):
    """The resolved value NULL."""

    is_terminal = True

    def __str__(self) -> str:
        return "NULL"


@dataclass(frozen=True)
class UnknownTerm(Term):
    """Sound top element: the value could be anything."""

    is_terminal = True

    def __str__(self) -> str:
        return "?"


#: One summary entry: the tracked value equals ``term`` (at function entry
#: if non-terminal) under ``cond``.
SummaryEntry = Tuple[Term, Constraint]


@dataclass(frozen=True)
class SummaryTuple:
    """A paper-style summary tuple ``(p, loc, q, cond)`` for reporting."""

    pointer: Var
    loc: Loc
    source: Term
    cond: Constraint

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"({self.pointer}, {self.loc}, {self.source}, "
                f"{format_constraint(self.cond)})")


#: Node kinds of a function's transfer table.
_SKIP, _ASSUME, _CALL, _TRANSFER = 0, 1, 2, 3

_TRANSFERS = (Copy, AddrOf, Load, NullAssign, Store)

#: One Algorithm-4 continuation in object form: the value becomes
#: ``term`` once ``atoms`` are conjoined, in order, to the condition.
_Step = Tuple[Term, Tuple[Atom, ...]]

#: The recipe of a transfer node that leaves a term unchanged.
_IDENTITY: Any = object()

#: Summary entries in id form: (term id, constraint id) pairs, in the
#: order found.
_Entries = Sequence[Tuple[int, int]]

#: A summary key: (function, term id).
_Key = Tuple[str, int]

#: ``bytes.translate`` tables from node kinds to jump masks (1 marks a
#: node jumped over): skips for non-terminal terms, every node but
#: assumes for terminal ones.
_KINDS = bytes((_SKIP, _ASSUME, _CALL, _TRANSFER))
_SKIP_MASK = bytes.maketrans(_KINDS, b"\1\0\0\0")
_TERMINAL_MASK = bytes.maketrans(_KINDS, b"\1\0\1\1")

#: Jump lists: per node, its jump targets, ``None`` until first used.
_JumpLists = List[Optional[Tuple[int, ...]]]


class _Shared:
    """What every engine over one function shares: the call nodes (with
    their statements), the assume nodes (with their atoms) and the
    pointer-transfer nodes, found once, and the jump lists of each jump
    mask, filled lazily.  Concurrent engines may race to build one or
    to fill a jump list; both are idempotent."""

    __slots__ = ("calls", "assumes", "transfers", "jumps")

    def __init__(self, cfg: CFG) -> None:
        self.calls: List[Tuple[int, CallStmt]] = []
        self.assumes: List[Tuple[int, Atom]] = []
        self.transfers: Set[int] = set()
        self.jumps: Dict[bytes, _JumpLists] = {}
        for idx, stmt in cfg.statements():
            if isinstance(stmt, CallStmt):
                self.calls.append((idx, stmt))
            elif isinstance(stmt, Assume):
                loc = Loc(cfg.function, idx)
                self.assumes.append((idx, null_atom(
                    loc, stmt.lhs, stmt.equal) if stmt.rhs is None
                    else same_object_atom(loc, stmt.lhs, stmt.rhs,
                                          stmt.equal)))
            elif isinstance(stmt, _TRANSFERS):
                self.transfers.add(idx)

    def jump_lists(self, mask: bytes) -> _JumpLists:
        lists = self.jumps.get(mask)
        if lists is None:
            lists = self.jumps.setdefault(mask, [None] * len(mask))
        return lists


def _fill(lists: _JumpLists, mask: bytes, preds: List[List[int]],
          entry: int, node: int) -> Tuple[int, ...]:
    """The jump targets of ``node``: its predecessors, where each node
    ``mask`` marks is replaced by its own predecessors, except the entry
    and predecessor-less nodes, which stay as stops.  Deterministic, so
    two engines filling the same list store equal tuples."""
    targets: List[int] = []
    seen: Set[int] = set()
    frontier = list(preds[node])
    while frontier:
        p = frontier.pop()
        if p in seen:
            continue
        seen.add(p)
        if mask[p] and p != entry and preds[p]:
            frontier.extend(preds[p])
        else:
            targets.append(p)
    out = lists[node] = tuple(targets)
    return out


class _FunctionTable:
    """One function's node-kind table, built when the engine first walks
    the function.

    ``ops[n]`` is ``None`` for a skip, the atom id of an assume, the
    callee tuple of a call (``None`` standing for a transparent callee)
    or, for a pointer transfer, the dict from term id to recipe.  A
    recipe is a tuple of ``(term id, atom ids)`` continuations, or
    :data:`_IDENTITY`.  ``preds`` is the CFG's own predecessor lists,
    not a copy: the daemon keeps every cluster's engine alive.
    ``jumps``/``skips`` are the shared jump lists and mask of
    non-terminal terms, ``tjumps``/``tskips`` those of terminal ones."""

    __slots__ = ("kinds", "ops", "preds", "entry", "exit",
                 "jumps", "skips", "tjumps", "tskips")

    def __init__(self, cfg: CFG, shared: _Shared, kinds: List[int],
                 ops: List[Any]) -> None:
        assert cfg.exit is not None
        self.kinds = kinds
        self.ops = ops
        self.preds = cfg._preds
        self.entry = cfg.entry
        self.exit = cfg.exit
        raw = bytes(kinds)
        self.skips = raw.translate(_SKIP_MASK)
        self.tskips = raw.translate(_TERMINAL_MASK)
        self.jumps = shared.jump_lists(self.skips)
        self.tjumps = shared.jump_lists(self.tskips)


class _Walk:
    """One resumable backward walk: an open key's, from its function's
    exit, or a :meth:`SummaryEngine.backward_from` query's (``starts``,
    distinct items).

    ``work`` holds the items still to process and ``processed`` every
    item ever queued.  ``results`` are the entries found, in order, and
    ``found`` their set.  ``waiters`` are the call items that take this
    key's entries, each ``[caller walk, call node, condition id,
    entries delivered]``.  ``queued`` is true while the walk is on the
    driver's stack."""

    __slots__ = ("func", "table", "work", "processed", "results", "found",
                 "waiters", "queued")

    def __init__(self, func: str, table: _FunctionTable,
                 starts: Iterable[Tuple[int, int, int]]) -> None:
        self.func = func
        self.table = table
        self.work: List[Tuple[int, int, int]] = list(starts)
        self.processed: Set[Tuple[int, int, int]] = set(self.work)
        self.results: List[Tuple[int, int]] = []
        self.found: Set[Tuple[int, int]] = set()
        self.waiters: List[List[Any]] = []
        self.queued = False


class SummaryEngine:
    """Backward interprocedural summary computation for one cluster.

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
        # St_P as node indices per function.
        self._relevant_nodes: Dict[str, Set[int]] = {}
        for loc in relevant or ():
            self._relevant_nodes.setdefault(loc.function, set()).add(loc.index)
        self._transparent = self._compute_transparent()
        # Interned terms and atoms; hash-consed constraints (id 0 is
        # TRUE), each with its satisfiability.
        self._term_ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._terminal: List[bool] = []
        self._atom_ids: Dict[Atom, int] = {}
        self._atoms: List[Atom] = []
        self._atom_sat: Dict[Atom, bool] = {}
        self._cond_ids: Dict[Constraint, int] = {}
        self._conds: List[Constraint] = []
        self._cond_sat: List[bool] = []
        self._cond_id(TRUE)
        # conjoin memo per atom id (cond id -> cond id); merge memo.
        self._conjoin_memo: List[Dict[int, int]] = []
        self._merge_memo: Dict[Tuple[int, int], int] = {}
        self._tables: Dict[str, _FunctionTable] = {}
        # Per function, what every engine over this program shares; the
        # program drops it with its other caches (invalidate_caches).
        self._shared: Dict[str, _Shared] = program.__dict__.setdefault(
            "_summary_shared", {})
        # Final summaries, and the walks of the keys still open.
        self._summaries: Dict[_Key, _Entries] = {}
        self._walks: Dict[_Key, _Walk] = {}

    # ------------------------------------------------------------------
    # transparency: functions that cannot touch the cluster at all
    # ------------------------------------------------------------------
    def _compute_transparent(self) -> Set[str]:
        """Functions from which no relevant pointer assignment is
        reachable; the paper's observation that most functions need no
        summaries for a given cluster."""
        if self.relevant is not None:
            # Relevant locations are canonical by construction.
            modifiers = set(self._relevant_nodes)
        else:
            modifiers = {loc.function
                         for loc, stmt in self.program.statements()
                         if stmt.is_pointer_assign}
        influencing = self._callgraph.ancestors_of(modifiers)
        return set(self.program.functions) - influencing

    def is_transparent(self, func: str) -> bool:
        return func in self._transparent

    # ------------------------------------------------------------------
    # public API: Term / Constraint objects in and out
    # ------------------------------------------------------------------
    def exit_summary(self, func: str, term: Term) -> FrozenSet[SummaryEntry]:
        """Value of ``term`` at ``func``'s exit, at-entry or terminal."""
        return self._decode(self._exit(func, self._term_id(term)))

    def summary_size(self, func: str, term: Term) -> int:
        """``len(exit_summary(func, term))``, counted in id form."""
        return len(self._exit(func, self._term_id(term)))

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
            nodes: Tuple[int, ...] = (loc.index,)
        elif loc.index == cfg.entry:
            return frozenset({(term, cond)})
        else:
            nodes = cfg.predecessors(loc.index)
        tid, cid = self._term_id(term), self._cond_id(cond)
        walk = _Walk(loc.function, self._table(loc.function),
                     [(node, tid, cid) for node in nodes])
        self._solve(walk)
        return self._decode(walk.results)

    def _decode(self, entries: Iterable[Tuple[int, int]]
                ) -> FrozenSet[SummaryEntry]:
        terms, conds = self._terms, self._conds
        return frozenset([(terms[t], conds[c]) for t, c in entries])

    # ------------------------------------------------------------------
    # interning and memoized constraint algebra
    # ------------------------------------------------------------------
    def _term_id(self, term: Term) -> int:
        tid = self._term_ids.get(term)
        if tid is None:
            tid = self._term_ids[term] = len(self._terms)
            self._terms.append(term)
            self._terminal.append(term.is_terminal)
        return tid

    def _atom_id(self, atom: Atom) -> int:
        aid = self._atom_ids.get(atom)
        if aid is None:
            aid = self._atom_ids[atom] = len(self._atoms)
            self._atoms.append(atom)
            self._conjoin_memo.append({})
        return aid

    def _cond_id(self, cond: Constraint) -> int:
        """Hash-cons ``cond``, deciding its satisfiability on first
        sight."""
        cid = self._cond_ids.get(cond)
        if cid is None:
            cid = self._cond_ids[cond] = len(self._conds)
            self._conds.append(cond)
            self._cond_sat.append(all(self._atom_satisfiable(a)
                                      for a in cond))
        return cid

    def _atom_satisfiable(self, atom: Atom) -> bool:
        verdict = self._atom_sat.get(atom)
        if verdict is None:
            verdict = self._atom_sat[atom] = self.sat.atom_satisfiable(atom)
        return verdict

    def _conjoin(self, cid: int, aid: int) -> int:
        """Id of ``cond ∧ atom``; ``-1`` where :func:`conjoin` refutes."""
        memo = self._conjoin_memo[aid]
        out = memo.get(cid)
        if out is None:
            cond = conjoin(self._conds[cid], self._atoms[aid],
                           self.max_cond_atoms)
            out = memo[cid] = -1 if cond is None else self._cond_id(cond)
        return out

    def _merge(self, a: int, b: int) -> int:
        """Id of ``a ∧ b``; ``-1`` where :func:`merge` refutes."""
        if not b:
            return a
        out = self._merge_memo.get((a, b))
        if out is None:
            cond = merge(self._conds[a], self._conds[b], self.max_cond_atoms)
            out = self._merge_memo[a, b] = \
                -1 if cond is None else self._cond_id(cond)
        return out

    # ------------------------------------------------------------------
    # tabulation driver
    # ------------------------------------------------------------------
    def _exit(self, func: str, tid: int) -> _Entries:
        """The exit summary of ``(func, term id)`` in id form."""
        if self._terminal[tid] or func in self._transparent:
            return ((tid, 0),)
        key = (func, tid)
        entries = self._summaries.get(key)
        if entries is None:
            self._solve(key)
            entries = self._summaries[key]
        return entries

    def _open(self, key: _Key) -> _Walk:
        """Open ``key``'s walk at the jump targets of its function's
        exit, a skip node."""
        func, tid = key
        table = self._table(func)
        walk = self._walks[key] = _Walk(func, table, ())
        self._advance(walk, table.exit, ((tid, 0),))
        return walk

    def _solve(self, root: Union[_Key, _Walk]) -> None:
        """Run ``root`` (a key to open, or a query walk) and every walk it
        opens until none has work left, then make every opened key
        final.

        The stack holds the walks with work to do, a callee above its
        caller; a walk that drains delivers its new entries to its
        waiters and queues them again."""
        stack: List[_Walk] = []
        try:
            walk = root if isinstance(root, _Walk) else self._open(root)
            walk.queued = True
            stack.append(walk)
            while stack:
                walk = stack[-1]
                self._drain(walk, stack)
                if stack[-1] is not walk:
                    continue  # a call opened callees: they run first
                stack.pop()
                walk.queued = False
                results = walk.results
                found = len(results)
                for waiter in walk.waiters:
                    seen = waiter[3]
                    if seen == found:
                        continue
                    waiter[3] = found
                    caller = waiter[0]
                    self._advance(caller, waiter[1], self._merged(
                        waiter[2], results[seen:found]))
                    if not caller.queued:
                        caller.queued = True
                        stack.append(caller)
        except BaseException:
            # An open walk's entries are partial: keep none of them.
            self._walks.clear()
            raise
        for key, walk in self._walks.items():
            self._summaries[key] = walk.results
        self._walks.clear()

    # ------------------------------------------------------------------
    # the backward walk (Algorithm 5's worklist, intraprocedural steps)
    # ------------------------------------------------------------------
    def _drain(self, walk: _Walk, stack: List[_Walk]) -> None:
        """Process ``walk``'s items until its worklist is empty, or until
        a call opens callee walks (pushed onto ``stack``)."""
        table = walk.table
        kinds, ops = table.kinds, table.ops
        work = walk.work
        func = walk.func
        terminal = self._terminal
        budget, deadline = self.budget, self.deadline
        advance = self._advance
        while work:
            self.steps = steps = self.steps + 1
            if budget is not None and steps > budget:
                raise AnalysisBudgetExceeded("summary-engine", steps)
            if deadline is not None and steps % 256 == 0 \
                    and time.monotonic() > deadline:
                raise AnalysisBudgetExceeded("summary-engine", steps)
            node, tid, cid = work.pop()
            kind = kinds[node]
            conts: Iterable[Tuple[int, int]]
            if kind == _SKIP or (terminal[tid] and kind != _ASSUME):
                # The term and condition carry over unchanged (a
                # resolved value only collects branch constraints):
                # the start of a walk, or a stop.
                conts = ((tid, cid),)
            elif kind == _TRANSFER:
                conts = self._transfer(func, node, ops[node], tid, cid)
            elif kind == _ASSUME:
                # Path sensitivity (paper Section 3): record the
                # branching constraint; satisfiability weeds out
                # infeasible tuples.
                c = self._conjoin(cid, ops[node])
                conts = ((tid, c),) if c >= 0 else ()
            else:
                advance(walk, node,
                        self._splice(walk, node, ops[node], tid, cid, stack))
                if stack[-1] is not walk:
                    return
                continue
            advance(walk, node, conts)

    def _advance(self, walk: _Walk, node: int,
                 conts: Iterable[Tuple[int, int]]) -> None:
        """Carry the continuations of an item at ``node`` backward: into
        the walk's results at a stop (or for a resolved value without
        path sensitivity), else to the node's jump targets for the
        term's kind."""
        table = walk.table
        cond_sat, terminal = self._cond_sat, self._terminal
        preds = table.preds
        stop = node == table.entry or not preds[node]
        path_sensitive = self.path_sensitive
        processed, work = walk.processed, walk.work
        for t, c in conts:
            if not cond_sat[c]:
                continue
            resolved = terminal[t]
            if stop or (resolved and not path_sensitive):
                entry = (t, c)
                if entry not in walk.found:
                    walk.found.add(entry)
                    walk.results.append(entry)
                continue
            if resolved:
                lists, mask = table.tjumps, table.tskips
            else:
                lists, mask = table.jumps, table.skips
            targets = lists[node]
            if targets is None:
                targets = _fill(lists, mask, preds, table.entry, node)
            for pred in targets:
                nxt = (pred, t, c)
                if nxt not in processed:
                    processed.add(nxt)
                    work.append(nxt)

    def _transfer(self, func: str, node: int, recipes: Dict[int, Any],
                  tid: int, cid: int) -> List[Tuple[int, int]]:
        """Apply a pointer-transfer node's recipe for ``tid``, building
        it on first use."""
        recipe = recipes.get(tid)
        if recipe is None:
            recipe = recipes[tid] = self._recipe(func, node, tid)
        if recipe is _IDENTITY:
            return [(tid, cid)]
        out: List[Tuple[int, int]] = []
        for t, atoms in recipe:
            c = cid
            for aid in atoms:
                c = self._conjoin(c, aid)
                if c < 0:
                    break
            else:
                out.append((t, c))
        return out

    def _splice(self, walk: _Walk, node: int,
                callees: Tuple[Optional[str], ...], tid: int, cid: int,
                stack: List[_Walk]) -> List[Tuple[int, int]]:
        """Splice callee exit summaries (Algorithm 5 lines 9-18).  The
        call item takes a final summary whole; it registers with a key
        still open, taking the entries found so far, and opens (and
        queues) the walk of a key not seen yet."""
        out: List[Tuple[int, int]] = []
        for g in callees:
            if g is None:  # transparent callee
                out.append((tid, cid))
                continue
            key = (g, tid)
            entries = self._summaries.get(key)
            if entries is None:
                callee = self._walks.get(key)
                if callee is None:
                    callee = self._open(key)
                    callee.queued = True
                    stack.append(callee)
                entries = callee.results
                callee.waiters.append([walk, node, cid, len(entries)])
            out.extend(self._merged(cid, entries))
        return out

    def _merged(self, cid: int, entries: Iterable[Tuple[int, int]]
                ) -> List[Tuple[int, int]]:
        """Callee ``entries`` under the call item's condition ``cid``."""
        out: List[Tuple[int, int]] = []
        for w, c in entries:
            m = self._merge(cid, c)
            if m >= 0:
                out.append((w, m))
        return out

    # ------------------------------------------------------------------
    # per-function node-kind tables
    # ------------------------------------------------------------------
    def _table(self, func: str) -> _FunctionTable:
        table = self._tables.get(func)
        if table is None:
            table = self._tables[func] = self._compile(func)
        return table

    def _compile(self, func: str) -> _FunctionTable:
        cfg = self.program.cfg_of(func)
        shared = self._shared.get(func)
        if shared is None:
            shared = self._shared.setdefault(func, _Shared(cfg))
        kinds = [_SKIP] * len(cfg)
        ops: List[Any] = [None] * len(cfg)
        functions, transparent = self.program.functions, self._transparent
        for idx, stmt in shared.calls:
            callees = tuple(None if g in transparent else g
                            for g in stmt.targets if g in functions)
            if any(g is not None for g in callees):
                # Transparent callees alone leave every term as is.
                kinds[idx], ops[idx] = _CALL, callees
        if self.path_sensitive:
            for idx, atom in shared.assumes:
                kinds[idx], ops[idx] = _ASSUME, self._atom_id(atom)
        # Outside St_P the reduced program executes a skip.
        transfers = shared.transfers if self.relevant is None else \
            shared.transfers.intersection(
                self._relevant_nodes.get(func, ()))
        for idx in transfers:
            kinds[idx], ops[idx] = _TRANSFER, {}
        return _FunctionTable(cfg, shared, kinds, ops)

    # ------------------------------------------------------------------
    # Algorithm 4: inverse transfer of one statement over a term, in
    # object form; built once per (transfer node, term)
    # ------------------------------------------------------------------
    def _recipe(self, func: str, node: int, tid: int) -> Any:
        term = self._terms[tid]
        steps = self._inverse(Loc(func, node),
                              self.program.cfg_of(func).stmt(node), term)
        if steps == [(term, ())]:
            return _IDENTITY
        return tuple((self._term_id(t), tuple(map(self._atom_id, atoms)))
                     for t, atoms in steps)

    def _inverse(self, loc: Loc, stmt: Statement, term: Term) -> List[_Step]:
        if isinstance(stmt, Copy):
            return self._inverse_write(loc, stmt.lhs, ObjTerm(stmt.rhs), term)
        if isinstance(stmt, AddrOf):
            return self._inverse_write(loc, stmt.lhs, AddrTerm(stmt.target),
                                       term)
        if isinstance(stmt, Load):
            return self._inverse_write(loc, stmt.lhs, DerefTerm(stmt.rhs),
                                       term)
        if isinstance(stmt, NullAssign):
            return self._inverse_write(loc, stmt.lhs, NullTerm(), term)
        assert isinstance(stmt, Store)
        return self._inverse_store(loc, stmt.lhs, stmt.rhs, term)

    def _inverse_write(self, loc: Loc, lhs: Var, value: Term,
                       term: Term) -> List[_Step]:
        """Inverse of a direct write ``lhs = <value>`` (Algorithm 4's
        "r is a pointer variable" arm)."""
        if isinstance(term, ObjTerm):
            return [(value if term.obj == lhs else term, ())]
        assert isinstance(term, DerefTerm)
        s = term.var
        if s == lhs:
            # The cell *s names changes identity across this statement:
            # after it, s holds <value>, so *s is the content of the cell
            # behind <value> — evaluated AFTER the statement, because the
            # statement may have written that very cell (s = &s etc.).
            return self._deref_after_write(loc, lhs, value)
        # The write may also have landed in the cell s points to, iff
        # s -> lhs at this point (Algorithm 4 lines 10-18).
        pts_s = self._pts_before(loc, s)
        if pts_s is not None and lhs not in pts_s:
            return [(term, ())]
        return [(value, (points_to_atom(loc, s, lhs, True),)),
                (term, (points_to_atom(loc, s, lhs, False),))]

    def _inverse_store(self, loc: Loc, u: Var, t: Var,
                       term: Term) -> List[_Step]:
        """Inverse of ``*u = t`` (Algorithm 4's "r is of the form ~u")."""
        value = ObjTerm(t)
        if isinstance(term, ObjTerm):
            v = term.obj
            pts_u = self._pts_before(loc, u)
            if pts_u is not None and v not in pts_u:
                return [(term, ())]
            return [(value, (points_to_atom(loc, u, v, True),)),
                    (term, (points_to_atom(loc, u, v, False),))]
        assert isinstance(term, DerefTerm)
        s = term.var
        if s == u:
            return [(value, ())]
        out: List[_Step] = []
        base: Tuple[Atom, ...] = ()
        # The store may overwrite the *base* variable s itself (when u
        # points to s), changing which cell *s denotes; resolve that
        # branch through FSCI at the after-state (fully conservative).
        pts_u = self._pts_before(loc, u)
        if pts_u is None or s in pts_u:
            hit = (points_to_atom(loc, u, s, True),)
            out.extend((w, hit) for w in self._contents_after(loc, s))
            base = (points_to_atom(loc, u, s, False),)
        # With s unchanged, the store affects *s only if s and u point to
        # the same cell (Algorithm 4 lines 28-35).
        if not self._may_alias_at(loc, s, u):
            out.append((term, base))
            return out
        out.append((value, base + (same_object_atom(loc, s, u, True),)))
        out.append((term, base + (same_object_atom(loc, s, u, False),)))
        return out

    def _deref_after_write(self, loc: Loc, lhs: Var,
                           value: Term) -> List[_Step]:
        """The term ``*(value)`` evaluated just after ``lhs = <value>``.

        The write changed exactly one cell — ``lhs`` — whose content
        after the statement is ``value`` itself; every other cell's
        content equals its before-statement content, so the term can
        continue backward symbolically.  Unrepresentable cases resolve
        through FSCI (sound: FSCI over-approximates every execution)."""
        if isinstance(value, AddrTerm):
            if value.obj == lhs:
                # s = &s: *s is s's own content = the assigned value.
                return [(value, ())]
            return [(ObjTerm(value.obj), ())]
        if isinstance(value, NullTerm):
            return []  # *NULL: no defined value flows
        if isinstance(value, ObjTerm) and isinstance(value.obj, Var):
            q = value.obj
            # If q points to the written cell itself, *s is the assigned
            # value (= q's value); otherwise the cell was untouched and
            # *q-before-statement is correct.
            pts_q = self._pts_before(loc, q)
            if pts_q is None or lhs in pts_q:
                return [(ObjTerm(q), (points_to_atom(loc, q, lhs, True),)),
                        (DerefTerm(q), (points_to_atom(loc, q, lhs, False),))]
            return [(DerefTerm(q), ())]
        # Coarse fallback: the possible cells after the statement are the
        # FSCI points-to of lhs there; their contents are FSCI facts too.
        return [(w, ()) for w in self._contents_after(loc, lhs)]

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

    def _contents_after(self, loc: Loc, p: Var) -> List[Term]:
        """The term ``*p`` fully resolved at the state after ``loc``'s
        statement through FSCI facts (sound over-approximation), in a
        fixed object order."""
        if self.fsci is None:
            return [UnknownTerm()]
        objs: Set[MemObject] = set()
        for cell in self.fsci.pts_after(loc, p):
            objs.update(self.fsci.pts_after(loc, cell))
        return [AddrTerm(o) for o in sorted(objs, key=repr)] \
            or [UnknownTerm()]
