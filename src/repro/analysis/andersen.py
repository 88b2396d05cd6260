"""Andersen's inclusion-based points-to analysis (PhD thesis, 1994).

The second cascade stage.  Unlike Steensgaard's analysis it respects the
direction of assignments, so its points-to sets are smaller, but they are
*not* equivalence classes: a pointer may belong to several **Andersen
clusters** (the sets of pointers that point to a common object), which
together form a *disjunctive alias cover* (paper Theorem 7).

The solver is a standard difference-propagation worklist over a constraint
graph with on-the-fly load/store edge addition and periodic SCC collapse
(cycle elimination), and can be restricted to a statement subset — that is
how bootstrapping runs it "on the sliced sub-program only".

The worklist runs on the bitmask kernel: every object is interned to a
dense int (:class:`~.kernel.NodeTable`) and points-to sets are int bit
masks, so difference propagation carries only the delta mask
(``new & ~old``) and SCC collapse unions masks instead of rebuilding
sets.  :class:`~.reference.ReferenceAndersen`, the same worklist over
frozensets, is the oracle the differential suites compare it against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..ir import (
    AddrOf,
    Copy,
    Load,
    MemObject,
    Program,
    Statement,
    Store,
    Var,
)
from .base import PointerAnalysis, PointsToResult
from .kernel import IntUnionFind, NodeTable, iter_bits


class AndersenResult(PointsToResult):
    """Points-to sets plus cluster extraction.

    ``table`` (set by :meth:`Andersen.run`) provides the dense interned
    ids that make :meth:`clusters` iterate in a hash-seed-independent
    order; without it (the frozenset reference solver), string order
    stands in.
    """

    def __init__(self, pts: Dict[MemObject, FrozenSet[MemObject]],
                 universe: Set[Var],
                 table: Optional[NodeTable] = None) -> None:
        self._pts = pts
        self.universe = universe
        self._table = table

    def points_to(self, p: Var) -> FrozenSet[MemObject]:
        return self._pts.get(p, frozenset())

    def points_to_obj(self, o: MemObject) -> FrozenSet[MemObject]:
        """Points-to content of any abstract object (heap cells included)."""
        return self._pts.get(o, frozenset())

    def clusters(self, pointers: Optional[Iterable[Var]] = None,
                 include_singletons: bool = True) -> List[FrozenSet[Var]]:
        """Andersen clusters over ``pointers`` (default: the universe).

        One cluster per pointed-to object: the set of pointers whose
        points-to sets contain it.  Pointers with empty points-to sets
        cannot alias anything; with ``include_singletons`` they are
        emitted as singleton clusters so the result still covers every
        pointer (convenient for the cascade's bookkeeping).

        Every intermediate iteration runs in a deterministic order —
        interned-id order when the kernel built this result, string
        order otherwise — never raw set order, so cluster emission is
        identical under every ``PYTHONHASHSEED`` (pinned by the
        hash-seed test in ``tests/test_kernel.py``).
        """
        ptrs = set(pointers) if pointers is not None else set(self.universe)
        order = self._stable_order
        by_obj: Dict[MemObject, Set[Var]] = {}
        covered: Set[Var] = set()
        for p in sorted(ptrs, key=order):
            for obj in sorted(self.points_to(p), key=order):
                by_obj.setdefault(obj, set()).add(p)
                covered.add(p)
        clusters = {frozenset(c) for c in by_obj.values()}
        if include_singletons:
            for p in sorted(ptrs - covered, key=order):
                clusters.add(frozenset({p}))
        return sorted(clusters, key=lambda s: (-len(s), sorted(map(str, s))))

    def _stable_order(self, obj: MemObject):
        """Hash-seed-independent sort key: dense interned id when the
        kernel's table is attached (ints compare fastest), qualified
        string otherwise."""
        if self._table is not None:
            idx = self._table.id_of(obj)
            if idx is not None:
                return (0, idx)
        return (1, str(obj))

    def max_cluster_size(self, pointers: Optional[Iterable[Var]] = None) -> int:
        return max((len(c) for c in self.clusters(pointers)), default=0)


class Andersen(PointerAnalysis):
    """Worklist inclusion-constraint solver.

    Parameters
    ----------
    program:
        The program providing the object universe.
    statements:
        Optional statement subset to solve over (the bootstrapped mode);
        defaults to every statement in the program.
    cycle_elimination:
        Collapse constraint-graph SCCs periodically.  Identical results,
        usually faster on large inputs.
    """

    name = "andersen"

    def __init__(self, program: Program,
                 statements: Optional[Iterable[Statement]] = None,
                 cycle_elimination: bool = True) -> None:
        super().__init__(program)
        if statements is None:
            stmts: List[Statement] = [s for _, s in program.statements()]
        else:
            stmts = list(statements)
        self._statements = stmts
        self._cycle_elimination = cycle_elimination

    def run(self) -> AndersenResult:
        """Objects are interned to dense ints (statement order, hence
        deterministic) and points-to / successor sets are int bit masks.
        Mask content is never rep-mapped — it holds the original
        pointed-to objects — only graph *nodes* go through the
        union-find."""
        table = NodeTable()
        intern = table.intern
        addr: List[Tuple[int, int]] = []   # lhs ⊇ {target}
        copies: List[Tuple[int, int]] = [] # lhs ⊇ rhs
        loads: List[Tuple[int, int]] = []  # lhs ⊇ *rhs
        stores: List[Tuple[int, int]] = [] # *lhs ⊇ rhs
        for stmt in self._statements:
            if isinstance(stmt, AddrOf):
                addr.append((intern(stmt.lhs), intern(stmt.target)))
            elif isinstance(stmt, Copy):
                copies.append((intern(stmt.lhs), intern(stmt.rhs)))
            elif isinstance(stmt, Load):
                loads.append((intern(stmt.lhs), intern(stmt.rhs)))
            elif isinstance(stmt, Store):
                stores.append((intern(stmt.lhs), intern(stmt.rhs)))

        n = len(table)
        uf = IntUnionFind(n)
        find = uf.find
        pts: List[int] = [0] * n
        succs: List[int] = [0] * n
        delta: Dict[int, int] = {}
        load_cons: Dict[int, List[int]] = {}
        store_cons: Dict[int, List[int]] = {}
        # Edges already materialized for complex constraints, keyed
        # src * n + dst over representatives.
        done_edges: Set[int] = set()
        # Nodes whose successor mask is nonzero (the reference solver's
        # trigger compares against len(succs), whose keys always hold
        # nonempty sets); recomputed after each collapse.
        succ_nodes = 0

        def add_edge(src: int, dst: int) -> None:
            nonlocal succ_nodes
            src, dst = find(src), find(dst)
            if src == dst:
                return
            bit = 1 << dst
            have = succs[src]
            if have & bit:
                return
            if not have:
                succ_nodes += 1
            succs[src] = have | bit
            new = pts[src] & ~pts[dst]
            if new:
                pts[dst] |= new
                delta[dst] = delta.get(dst, 0) | new

        for lhs, target in addr:
            r = find(lhs)
            bit = 1 << target
            pts[r] |= bit
            delta[r] = delta.get(r, 0) | bit
        for lhs, rhs in copies:
            add_edge(rhs, lhs)
        for lhs, rhs in loads:
            load_cons.setdefault(find(rhs), []).append(lhs)
        for lhs, rhs in stores:
            store_cons.setdefault(find(lhs), []).append(rhs)

        rounds_since_collapse = 0
        while delta:
            node, new_mask = delta.popitem()
            node = find(node)
            if not new_mask:
                continue
            for dst in load_cons.get(node, ()):  # dst = *node
                for obj in iter_bits(new_mask):
                    key = find(obj) * n + find(dst)
                    if key not in done_edges:
                        done_edges.add(key)
                        add_edge(obj, dst)
            for src in store_cons.get(node, ()):  # *node = src
                for obj in iter_bits(new_mask):
                    key = find(src) * n + find(obj)
                    if key not in done_edges:
                        done_edges.add(key)
                        add_edge(src, obj)
            # Propagate along copy edges (mask read after the complex
            # constraints above, so freshly added edges are included —
            # same as the reference solver's list() snapshot).
            for dst in iter_bits(succs[node]):
                dst = find(dst)
                if dst == node:
                    continue
                fresh = new_mask & ~pts[dst]
                if fresh:
                    pts[dst] |= fresh
                    delta[dst] = delta.get(dst, 0) | fresh
            rounds_since_collapse += 1
            if (self._cycle_elimination and not delta
                    and rounds_since_collapse > succ_nodes):
                rounds_since_collapse = 0
                self._collapse_sccs_kernel(
                    n, uf, pts, delta, succs, load_cons, store_cons)
                succ_nodes = sum(1 for m in succs if m)

        # Canonicalize exactly like the reference solver: one entry per
        # program object plus every representative holding facts, each
        # decoding its class representative's mask.
        final: Dict[MemObject, FrozenSet[MemObject]] = {}
        keys = set(self.program.objects)
        keys.update(table.obj_of(i) for i in range(n) if pts[i])
        empty: FrozenSet[MemObject] = frozenset()
        for obj in keys:
            idx = table.id_of(obj)
            if idx is None:
                final[obj] = empty
            else:
                final[obj] = table.objects_of(pts[find(idx)])
        return AndersenResult(final, set(self.program.pointers), table=table)

    @staticmethod
    def _collapse_sccs_kernel(n: int, uf: IntUnionFind,
                              pts: List[int], delta: Dict[int, int],
                              succs: List[int],
                              load_cons: Dict[int, List[int]],
                              store_cons: Dict[int, List[int]]) -> None:
        """Collapse copy-edge SCCs (pointer equivalence): Tarjan over
        the copy graph, then classes merge by OR-ing masks onto the
        representative, and every side table is remapped onto class
        representatives."""
        find = uf.find
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        counter = [0]
        merged_any = [False]

        def connect(root: int) -> None:
            work: List[Tuple[int, Iterator[int]]] = \
                [(root, iter_bits(succs[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    nxt = find(nxt)
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter_bits(succs[nxt])))
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
                    comp: List[int] = []
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

        for i in range(n):
            if succs[i] and find(i) == i and i not in index:
                connect(i)
        if not merged_any[0]:
            return
        # Fold every absorbed node's masks into its representative.
        for i in range(n):
            r = find(i)
            if r == i:
                continue
            if pts[i]:
                pts[r] |= pts[i]
                pts[i] = 0
            if succs[i]:
                succs[r] |= succs[i]
                succs[i] = 0
        # Remap successor masks onto representatives; drop self-loops.
        for i in range(n):
            m = succs[i]
            if not m:
                continue
            remapped = 0
            for dst in iter_bits(m):
                remapped |= 1 << find(dst)
            succs[i] = remapped & ~(1 << i)
        old_delta = list(delta.items())
        delta.clear()
        for key, val in old_delta:
            r = find(key)
            delta[r] = delta.get(r, 0) | val
        for cons in (load_cons, store_cons):
            old_cons = list(cons.items())
            cons.clear()
            for key, val in old_cons:
                cons.setdefault(find(key), []).extend(val)
        # Merged classes may now have unpropagated facts.
        for i in range(n):
            if pts[i]:
                delta[i] = delta.get(i, 0) | pts[i]
