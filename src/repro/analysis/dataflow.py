"""A small interprocedural dataflow framework over dense node ids.

The FSCI stage (paper Algorithm 3 computes the same information
demand-style) is a forward may analysis over the *supergraph*: each
function's CFG plus call edges (call node -> callee entry) and return
edges (callee exit -> call-node successors).  Running it over a cluster's
sliced statement set keeps the state tiny; the unclustered baseline runs
it over everything and is exactly the slow configuration Table 1 reports.

Every supergraph node gets a dense integer id, numbered once per graph:
the included functions are laid out in sorted order, and a node's id is
its function's offset plus its CFG index, so ids do not depend on the
hash seed.  Successors are int lists and :class:`ForwardDataflow` keeps
its states in node-indexed lists, so the worklist loop hashes no
:class:`~repro.ir.Loc`.  ``Loc`` stays the currency at the boundary:
``state_before``/``state_after`` and ``Supergraph.successors``,
``predecessors`` and ``nodes`` take and return locations.

Clients provide transfer and join over an opaque state type.  A
transfer is either a function of ``(loc, stmt, state)``, bound once per
node, or a node-indexed table of ``state -> state`` closures that FSCI
compiles itself (``None`` entries are skips).

The solve is sparse, as the paper's reduced program ``Prog_P`` is: its
*anchors* are the entry and every node with a transfer, and only they
are visited.  An anchor's out-state moves along its forward jump list
(its successors, each skip node replaced by its own successors), and a
skip node's state is rebuilt on first query as the join of the
out-states of the anchors that reach it over skips.  An iteration is
one anchor visit.  A callable transfer binds every node, so every node
is an anchor and the jump lists are the successor lists.  The dense
engine this one replaced survives in :mod:`.reference` as the oracle
of ``tests/test_dataflow_kernel.py``, which holds every state equal.
"""

from __future__ import annotations

import time
from functools import partial
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from ..ir import CallStmt, Loc, Program, Statement

State = TypeVar("State")

#: A supergraph node is a dense integer id (see :class:`Supergraph`).
Node = int

#: A compiled per-node transfer; ``None`` behaves as a skip.
NodeOp = Optional[Callable[[State], State]]

#: A location-level transfer: ``(loc, stmt, state) -> state``.
Transfer = Callable[[Loc, Statement, State], State]

#: Jump lists: per node, its jump targets, ``None`` until first used.
JumpLists = List[Optional[Tuple[Node, ...]]]

#: Marks a node whose state was never set ("not in the map").
_UNSET = object()

#: Marks a skip node whose state was not rebuilt yet.
_UNBUILT = object()


def _over_skips(skips: bytes, edges: List[List[Node]],
                node: Node) -> Tuple[Node, ...]:
    """``node``'s neighbours along ``edges`` (successor or predecessor
    lists), where each node ``skips`` marks is replaced by its own
    neighbours, in depth-first edge order: its forward jump targets
    over successors, the anchors that reach it over predecessors."""
    targets: List[Node] = []
    seen: Set[Node] = set()
    frontier = edges[node][::-1]
    while frontier:
        n = frontier.pop()
        if n in seen:
            continue
        seen.add(n)
        if skips[n]:
            frontier.extend(edges[n][::-1])
        else:
            targets.append(n)
    return tuple(targets)


class Supergraph:
    """Interprocedural CFG: intra edges + call/return edges.

    Only the given functions (default: all) are included.  Calls to
    unknown targets (unresolved function pointers with no candidates)
    and to excluded functions fall through to the call node's
    intraprocedural successors, which is sound under our convention that
    argument copies are explicit caller statements.

    Node ``i`` of function ``f`` has id ``offset(f) + i``.  When the
    program's entry function is excluded, its entry node still gets one
    id past the end, with no edges, so a solve visits it exactly once.
    """

    def __init__(self, program: Program,
                 functions: Optional[Iterable[str]] = None) -> None:
        names = set(functions) if functions is not None else set(program.functions)
        #: The included functions, sorted — the canonical deterministic
        #: iteration order, and the node layout.
        self.names: List[str] = sorted(names)
        #: Function -> (first node id, node count).
        self._layout: Dict[str, Tuple[int, int]] = {}
        #: Node id -> statement.
        self.stmts: List[Statement] = []
        for name in self.names:
            stmts = program.cfg_of(name)._stmts
            self._layout[name] = (len(self.stmts), len(stmts))
            self.stmts.extend(stmts)
        #: Ids below this belong to included functions.
        self.function_nodes = len(self.stmts)
        entry_cfg = program.cfg_of(program.entry)
        self.entry = Loc(program.entry, entry_cfg.entry)
        if program.entry in self._layout:
            self.entry_id: Node = self._layout[program.entry][0] + entry_cfg.entry
        else:
            self.entry_id = len(self.stmts)
            self.stmts.append(entry_cfg.stmt(entry_cfg.entry))
        self._succs: List[List[Node]] = [None] * len(self.stmts)  # type: ignore[list-item]
        self._preds: Optional[List[List[Node]]] = None
        self._locs: Optional[List[Loc]] = None
        self._build_edges(program)

    def _build_edges(self, program: Program) -> None:
        succs = self._succs
        layout = self._layout
        for name in self.names:
            cfg = program.cfg_of(name)
            base = layout[name][0]
            cfg_succs = cfg._succs
            for idx, stmt in enumerate(cfg._stmts):
                own = [base + s for s in cfg_succs[idx]]
                if isinstance(stmt, CallStmt):
                    called = []
                    for t in stmt.targets:
                        if t not in layout:
                            continue
                        callee = program.cfg_of(t)
                        callee_base = layout[t][0]
                        called.append(callee_base + callee.entry)
                        # Return edge: callee exit -> call's successors.
                        rets = succs[callee_base + callee.exit]
                        if rets is None:
                            rets = succs[callee_base + callee.exit] = []
                        for ret in own:
                            if ret not in rets:
                                rets.append(ret)
                    if called:
                        own = called
                existing = succs[base + idx]
                if existing is None:
                    # A CFG's edge lists hold no duplicates; call targets
                    # may (one callee named twice).
                    if len(own) > 1 and len(set(own)) < len(own):
                        own = list(dict.fromkeys(own))
                    succs[base + idx] = own
                    continue
                for s in own:
                    if s not in existing:
                        existing.append(s)
        if succs[-1] is None:
            succs[-1] = []  # the excluded entry's node

    # -- node ids --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.stmts)

    def node_of(self, loc: Loc) -> Optional[Node]:
        """The id of ``loc``, or ``None`` when it is not in the graph."""
        span = self._layout.get(loc.function)
        if span is None:
            return self.entry_id if loc == self.entry else None
        if 0 <= loc.index < span[1]:
            return span[0] + loc.index
        return None

    @property
    def locs(self) -> List[Loc]:
        """Node id -> location, built on first use."""
        if self._locs is None:
            locs = [Loc(name, idx) for name in self.names
                    for idx in range(self._layout[name][1])]
            if len(locs) < len(self.stmts):
                locs.append(self.entry)
            self._locs = locs
        return self._locs

    def bind(self, transfer: Transfer) -> List[NodeOp]:
        """A location-level transfer as a node-indexed table."""
        return [partial(transfer, loc, stmt)
                for loc, stmt in zip(self.locs, self.stmts)]

    def pred_lists(self) -> List[List[Node]]:
        """Node id -> predecessor ids, built on first use."""
        if self._preds is None:
            preds: List[List[Node]] = [[] for _ in self.stmts]
            for src, dsts in enumerate(self._succs):
                for d in dsts:
                    preds[d].append(src)
            self._preds = preds
        return self._preds

    # -- the Loc API -----------------------------------------------------
    def successors(self, loc: Loc) -> List[Loc]:
        node = self.node_of(loc)
        if node is None:
            return []
        locs = self.locs
        return [locs[s] for s in self._succs[node]]

    def predecessors(self, loc: Loc) -> List[Loc]:
        node = self.node_of(loc)
        if node is None:
            return []
        locs = self.locs
        return [locs[p] for p in self.pred_lists()[node]]

    def nodes(self) -> List[Loc]:
        """Every location of the included functions, in id order."""
        return self.locs[:self.function_nodes]


class ForwardDataflow(Generic[State]):
    """Sparse worklist forward fixpoint over a supergraph.

    ``transfer`` is either ``transfer(loc, stmt, state)``, which must
    return a *new* state (states are treated as immutable), or a
    node-indexed list of ``state -> state`` closures (``None`` = skip).
    ``join`` combines predecessor outputs and has ``bottom`` as its
    identity; ``initial`` is the entry fact; states compare with
    ``==``.

    The worklist holds only anchors (the entry and every node with a
    transfer), is LIFO over node ids and pushes an anchor's jump
    targets in depth-first edge order.  ``iterations`` counts anchor
    visits.  A skip node's state is the join of the out-states of the
    anchors that reach it over skips, rebuilt on its first query and
    memoized; the rebuild is idempotent, so threads may race on it.
    """

    def __init__(
        self,
        graph: Supergraph,
        transfer: Union[Transfer, Sequence[NodeOp]],
        join: Callable[[State, State], State],
        initial: State,
        bottom: State,
    ) -> None:
        self.graph = graph
        self.ops: Sequence[NodeOp] = (
            graph.bind(transfer) if callable(transfer) else transfer)
        self.join = join
        self.initial = initial
        self.bottom = bottom
        skips = bytearray(op is None for op in self.ops)
        skips[graph.entry_id] = 0
        #: 1 marks a skip node: neither the entry nor a transfer.
        self._skips = bytes(skips)
        #: Forward jump lists, filled on first use; the successor lists
        #: themselves when no node is a skip.
        self._jumps: JumpLists = (
            [None] * len(graph) if 1 in skips
            else graph._succs)  # type: ignore[assignment]
        self._in: List[object] = [_UNSET] * len(graph)
        self._out: List[object] = [_UNSET] * len(graph)
        #: Skip node -> its rebuilt state.
        self._rebuilt: Dict[Node, object] = {}
        self.iterations = 0

    def run(self, max_iterations: Optional[int] = None,
            deadline: Optional[float] = None) -> None:
        """Run to fixpoint; ``deadline`` is an absolute time.monotonic()
        value standing in for the paper's wall-clock timeout."""
        succs = self.graph._succs
        jumps, skips = self._jumps, self._skips
        ops = self.ops
        join = self.join
        ins, outs = self._in, self._out
        entry = self.graph.entry_id
        ins[entry] = self.initial
        worklist: List[Node] = [entry]
        queued = bytearray(len(ins))
        queued[entry] = 1
        iterations = self.iterations
        try:
            while worklist:
                node = worklist.pop()
                queued[node] = 0
                iterations += 1
                if max_iterations is not None and iterations > max_iterations:
                    raise TimeoutError(
                        f"dataflow exceeded {max_iterations} iterations")
                if deadline is not None and not iterations & 255 \
                        and time.monotonic() > deadline:
                    raise TimeoutError("dataflow exceeded its deadline")
                in_state = ins[node]  # set before the node was queued
                op = ops[node]
                out_state = op(in_state) if op is not None else in_state
                prev = outs[node]
                if prev is out_state or (prev is not _UNSET
                                         and prev == out_state):
                    continue
                outs[node] = out_state
                targets = jumps[node]
                if targets is None:
                    targets = jumps[node] = _over_skips(skips, succs, node)
                for succ in targets:
                    old = ins[succ]
                    if old is _UNSET:
                        ins[succ] = out_state  # join(bottom, out_state)
                    else:
                        new = join(old, out_state)
                        if new is old or new == old:
                            continue
                        ins[succ] = new
                    if not queued[succ]:
                        queued[succ] = 1
                        worklist.append(succ)
        finally:
            self.iterations = iterations

    def _skip_state(self, node: Node) -> object:
        """The state of skip node ``node``, before and after it: the
        join of the out-states of the anchors that reach it over skips
        (``_UNSET`` when none was reached)."""
        state = self._rebuilt.get(node, _UNBUILT)
        if state is not _UNBUILT:
            return state
        state = _UNSET
        for anchor in _over_skips(self._skips, self.graph.pred_lists(), node):
            out = self._out[anchor]
            if out is not _UNSET:
                state = out if state is _UNSET else self.join(state, out)
        self._rebuilt[node] = state
        return state

    def _state(self, loc: Loc, states: List[object]) -> State:
        node = self.graph.node_of(loc)
        if node is None:
            return self.bottom
        state = self._skip_state(node) if self._skips[node] else states[node]
        return self.bottom if state is _UNSET else state  # type: ignore[return-value]

    def state_before(self, loc: Loc) -> State:
        return self._state(loc, self._in)

    def state_after(self, loc: Loc) -> State:
        return self._state(loc, self._out)

    def states_after(self) -> List[State]:
        """Every anchor out-state the solve set, in node order.  A skip
        node's state joins some of them, so these cover every object
        any state holds."""
        return [s for s in self._out if s is not _UNSET]  # type: ignore[misc]
