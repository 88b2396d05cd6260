"""Call graphs, SCC condensation, and function-pointer resolution.

The paper's summary engine (Section 3) processes strongly connected
components of the call graph in reverse topological order;
:mod:`repro.analysis.summaries` gets that effect on demand, by
tabulation.  :attr:`CallGraph.recursive`, computed once per call graph,
tells the dataflow analyses which functions' locals may have several
live instances.

Function pointers are handled "as in Emami et al.": an indirect call's
candidate targets are the functions its pointer may point to under a
flow-insensitive points-to analysis.  :func:`resolve_indirect_calls`
patches candidate target lists into the IR and adds the sound
parameter/return copy plumbing for every candidate.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from .cfg import Loc
from .program import Function, Program, param_var, retval_var
from .statements import CallStmt, Copy, MemObject, Var


class CallGraph:
    """Static call graph over function names."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.edges: Dict[str, Set[str]] = {f: set() for f in program.functions}
        self.redges: Dict[str, Set[str]] = {f: set() for f in program.functions}
        self.sites: Dict[Tuple[str, str], List[Loc]] = {}
        self._recursive: Optional[FrozenSet[str]] = None
        for loc, stmt in program.call_sites:
            for target in stmt.targets:
                if target in program.functions:
                    self._add(loc.function, target, loc)

    def _add(self, caller: str, callee: str, loc: Loc) -> None:
        self.edges[caller].add(callee)
        self.redges[callee].add(caller)
        self.sites.setdefault((caller, callee), []).append(loc)

    def callees(self, f: str) -> Set[str]:
        return self.edges.get(f, set())

    def callers(self, f: str) -> Set[str]:
        return self.redges.get(f, set())

    def call_sites_of(self, caller: str, callee: str) -> List[Loc]:
        return self.sites.get((caller, callee), [])

    # ------------------------------------------------------------------
    def sccs(self) -> List[List[str]]:
        """Tarjan SCCs, returned in *reverse topological* order (callees
        before callers), which is exactly the order summary computation
        wants."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        out: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work: List[Tuple[str, Iterable[str]]] = [(root, iter(sorted(self.edges[root])))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(self.edges[succ]))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp: List[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    out.append(comp)

        for f in sorted(self.program.functions):
            if f not in index:
                strongconnect(f)
        # Tarjan emits components in reverse topological order already.
        return out

    def scc_of(self) -> Dict[str, FrozenSet[str]]:
        return {f: frozenset(comp) for comp in self.sccs() for f in comp}

    @property
    def recursive(self) -> FrozenSet[str]:
        """The functions on a call-graph cycle (in an SCC of two or more,
        or calling themselves), computed once per call graph."""
        if self._recursive is None:
            self._recursive = frozenset(
                f for comp in self.sccs() for f in comp
                if len(comp) > 1 or f in self.edges[f])
        return self._recursive

    def is_recursive(self, f: str) -> bool:
        return f in self.recursive

    def reachable_from(self, root: str) -> Set[str]:
        seen = {root}
        frontier = [root]
        while frontier:
            f = frontier.pop()
            for g in self.edges.get(f, ()):
                if g not in seen:
                    seen.add(g)
                    frontier.append(g)
        return seen

    def ancestors_of(self, targets: Iterable[str]) -> Set[str]:
        """All functions from which some target is reachable (the targets
        themselves included).  One reverse BFS — used to find which
        functions can possibly influence a cluster."""
        seen = {t for t in targets if t in self.redges}
        frontier = list(seen)
        while frontier:
            f = frontier.pop()
            for g in self.redges.get(f, ()):
                if g not in seen:
                    seen.add(g)
                    frontier.append(g)
        return seen


def resolve_indirect_calls(
    program: Program,
    points_to: Callable[[Var], Set[MemObject]],
) -> int:
    """Fill in candidate targets for every indirect call.

    ``points_to`` maps a function-pointer variable to the abstract objects
    it may reference; objects that are :class:`Var` named like a function
    in the program are treated as that function (the frontend represents
    ``fp = &f`` as an address-of on the sentinel variable ``Var(f)``).

    For each resolved candidate ``g`` the recorded staged-argument copies
    get mirrored into ``g``'s parameter conduits, and return plumbing is
    added, keeping the all-flow-is-copies invariant.  Returns the number
    of call sites resolved.
    """
    plumbing = getattr(program, "_indirect_plumbing", [])
    resolved = 0
    for entry in plumbing:
        if len(entry) == 4:
            func_name, node, staged, ret = entry
            staged_shadows = tuple({} for _ in staged)
        else:
            func_name, node, staged, ret, staged_shadows = entry
        fn = program.functions[func_name]
        stmt = fn.cfg.stmt(node)
        if not isinstance(stmt, CallStmt) or not stmt.is_indirect:
            continue
        candidates: List[str] = []
        for obj in points_to(stmt.fp):
            if isinstance(obj, Var) and obj.function is None \
                    and obj.name in program.functions:
                candidates.append(obj.name)
        candidates = sorted(set(candidates))
        object.__setattr__(stmt, "targets", tuple(candidates))
        # Splice parameter/return copies for every candidate around the
        # call node: staged -> g::$paramI before, ret = g::$retval after.
        cfg = fn.cfg
        pre: List[int] = []
        for g in candidates:
            for i, conduit in enumerate(staged):
                pre.append(cfg.add_node(Copy(param_var(g, i), conduit)))
                for path, shadow_src in staged_shadows[i].items():
                    target = Var(f"{param_var(g, i).name}__{path}", g)
                    pre.append(cfg.add_node(Copy(target, shadow_src)))
        if pre:
            preds = cfg.predecessors(node)
            first = pre[0]
            for p in preds:
                cfg._succs[p] = [first if s == node else s for s in cfg._succs[p]]
                cfg._preds[node].remove(p)
                cfg._preds[first].append(p)
            for a, b in zip(pre, pre[1:]):
                cfg.add_edge(a, b)
            cfg.add_edge(pre[-1], node)
        if ret is not None and candidates:
            # One return-copy per candidate, as alternative branches: the
            # call returns through exactly one callee.
            succs = cfg.successors(node)
            cfg._succs[node] = []
            for s in succs:
                cfg._preds[s].remove(node)
            for g in candidates:
                post = cfg.add_node(Copy(ret, retval_var(g)))
                cfg.add_edge(node, post)
                for s in succs:
                    cfg.add_edge(post, s)
        resolved += 1
    program.invalidate_caches()
    return resolved


def function_sentinel(name: str) -> Var:
    """The abstract object standing for a function's code (the target of
    ``fp = &f``)."""
    return Var(name)
