"""Control-flow graphs over location-indexed statements.

A :class:`CFG` holds one statement per *location*.  Locations are dense
integer indices local to a function; :class:`Loc` pairs them with the
function name so they are globally unique and printable as
``function:index`` (the paper's ``1a``, ``2b``, ... labels name the same
points).

Conditional branches carry no predicate: the paper treats all conditionals
as non-deterministic ("all conditional statements ... are treated as
evaluating to true"), so an ``if`` simply becomes a location with two
successors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .statements import Skip, Statement


@dataclass(frozen=True, order=True)
class Loc:
    """A global program location: (function name, index within function)."""

    function: str
    index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.function}:{self.index}"


@dataclass(frozen=True, order=True)
class Span:
    """A source span (1-based line/column) attached to a CFG node.

    The frontend plumbs token positions through the parser and normalizer
    so diagnostics point at real source lines; programs built directly
    through the builder API simply have no spans (``None``).
    """

    line: int
    column: int = 0
    end_line: Optional[int] = None
    end_column: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.column:
            return f"{self.line}:{self.column}"
        return str(self.line)


class CFG:
    """A single function's control-flow graph.

    Nodes are integer indices ``0 .. len(self) - 1``; node ``i`` executes
    ``self.stmt(i)`` and then transfers control to each of
    ``self.successors(i)``.  Every CFG has a unique :attr:`entry` and a
    unique synthetic :attr:`exit` node holding a ``Skip``.
    """

    def __init__(self, function: str) -> None:
        self.function = function
        self._stmts: List[Statement] = []
        self._spans: List[Optional[Span]] = []
        self._succs: List[List[int]] = []
        self._preds: List[List[int]] = []
        self.entry: int = self.add_node(Skip("entry"))
        self.exit: Optional[int] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, stmt: Statement, span: Optional[Span] = None) -> int:
        """Append a node holding ``stmt``; returns its index."""
        idx = len(self._stmts)
        self._stmts.append(stmt)
        self._spans.append(span)
        self._succs.append([])
        self._preds.append([])
        return idx

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self._succs[src]:
            self._succs[src].append(dst)
            self._preds[dst].append(src)

    def set_stmt(self, idx: int, stmt: Statement) -> None:
        self._stmts[idx] = stmt

    def set_span(self, idx: int, span: Optional[Span]) -> None:
        self._spans[idx] = span

    def seal(self) -> None:
        """Finalize the graph: create the exit node if missing and route
        every successor-less node to it."""
        if self.exit is None:
            self.exit = self.add_node(Skip("exit"))
        for idx in range(len(self._stmts)):
            if idx != self.exit and not self._succs[idx]:
                self.add_edge(idx, self.exit)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._stmts)

    def stmt(self, idx: int) -> Statement:
        return self._stmts[idx]

    def successors(self, idx: int) -> Tuple[int, ...]:
        return tuple(self._succs[idx])

    def predecessors(self, idx: int) -> Tuple[int, ...]:
        return tuple(self._preds[idx])

    def nodes(self) -> range:
        return range(len(self._stmts))

    def loc(self, idx: int) -> Loc:
        return Loc(self.function, idx)

    def span(self, idx: int) -> Optional[Span]:
        """The source span of node ``idx`` (``None`` for synthetic
        nodes and builder-constructed programs)."""
        return self._spans[idx]

    def statements(self) -> Iterator[Tuple[int, Statement]]:
        """Iterate over ``(index, statement)`` pairs."""
        return iter(enumerate(self._stmts))

    def reverse_postorder(self) -> List[int]:
        """Nodes in reverse postorder from the entry (good worklist order
        for forward dataflow)."""
        seen = [False] * len(self._stmts)
        order: List[int] = []
        # Iterative DFS to survive deep synthetic CFGs.
        stack: List[Tuple[int, int]] = [(self.entry, 0)]
        seen[self.entry] = True
        while stack:
            node, child = stack[-1]
            succs = self._succs[node]
            if child < len(succs):
                stack[-1] = (node, child + 1)
                nxt = succs[child]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def reachable(self) -> List[int]:
        """Nodes reachable from the entry."""
        return self.reverse_postorder()

    def validate(self) -> None:
        """Raise ``ValueError`` on structural inconsistencies."""
        if self.exit is None:
            raise ValueError(f"CFG for {self.function} was never sealed")
        for idx in self.nodes():
            for s in self._succs[idx]:
                if not 0 <= s < len(self._stmts):
                    raise ValueError(f"edge {idx}->{s} out of range")
                if idx not in self._preds[s]:
                    raise ValueError(f"pred list missing {idx}->{s}")
        if self._succs[self.exit]:
            raise ValueError("exit node must have no successors")

