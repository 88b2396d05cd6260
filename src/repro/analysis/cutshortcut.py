"""Cut-shortcut: cheap context sensitivity without contexts (Ma et al.).

Flow-insensitive Andersen conflates every call site of a function: all
arguments merge into the parameter conduits and the merged return value
flows back to *every* caller.  Full context sensitivity (our FSCS) fixes
that at exponential cost.  "Context Sensitivity without Contexts" (see
PAPERS.md) recovers most of the precision at Andersen cost by a graph
transformation instead of context cloning:

* **cut** — for a callee whose return value provably derives only from
  its own parameters and address-taken constants (no heap read, no
  global written elsewhere), delete the per-site return copy
  ``x = $retval(g)``: the conflating edge through the shared return
  conduit is severed.
* **shortcut** — replace each deleted edge with direct per-site edges
  from the summary's sources: ``x = arg_k`` for a ``(param, k)`` source
  (the *cut-shortcut* around the callee's body) and ``x = &obj`` for an
  ``(addr, obj)`` source.

The parameter copies and the callee's body stay in the graph, so every
other flow (side effects through globals and the heap) is still solved
by the standard Andersen fixpoint; only the return conflation is
bypassed.  Each rewritten site then sees exactly its own arguments'
targets — the context-sensitive answer for return flow — while the
whole thing remains one (kernel-backed) Andersen run over a same-size
constraint graph.

Return summaries are computed per function in reverse-topological call
graph SCC order (:meth:`repro.ir.callgraph.CallGraph.sccs`): a source
set is the fixpoint of following copy definitions backwards from
``$retval`` across the whole program, stopping at parameters of the
summarized function, address-of constants, or anything heap-tainted
(loads, extern-call results, other functions' parameters, unsummarized
— e.g. recursive — callees' return values).  A summary that exceeds
``source_bound`` sources, or touches the heap, marks the function
non-shortcuttable and its sites keep their original return copies.

Site association relies on the builder/normalizer lowering invariant
that parameter copies ``$paramK(g) = arg`` immediately precede their
``CallStmt`` in a straight-line chain and the return copy immediately
follows it (``repro.ir.builder.FunctionBuilder.call`` and the
indirect-call splice both guarantee this).  Anything that does not
match the shape exactly — extra predecessors, interleaved statements,
stray parameter copies outside a recognized chain — conservatively
keeps the original return copy, so hand-built IR degrades to plain
Andersen instead of losing flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ir import (
    CFG,
    AddrOf,
    CallStmt,
    Copy,
    ExternCall,
    Load,
    Loc,
    MemObject,
    Program,
    Statement,
    Var,
)
from ..ir.callgraph import CallGraph
from ..ir.program import param_var, retval_var
from .andersen import Andersen, AndersenResult
from .base import PointsToResult

#: Summaries larger than this many sources fall back to heap (classic
#: Andersen return flow) — the same cost-bounding idea as the
#: field-sensitive sharing bound.
DEFAULT_SOURCE_BOUND = 8

#: A return-value source: ``("param", k)`` or ``("addr", obj)``.
Source = Tuple[str, object]


@dataclass(frozen=True)
class RetSummary:
    """Where a function's return value can come from."""

    sources: FrozenSet[Source]
    heap: bool

    @property
    def shortcuttable(self) -> bool:
        return not self.heap


def _is_param(v: Var) -> Optional[int]:
    """The parameter index if ``v`` is a ``$paramK`` conduit."""
    if v.name.startswith("$param") and "__" not in v.name:
        suffix = v.name[len("$param"):]
        if suffix.isdigit():
            return int(suffix)
    return None


class CutShortcutTransform:
    """The precomputed constraint-graph transformation for one program.

    ``shortcut_edges`` maps each cut return-copy *location* to the
    shortcut statements that stand in for it; :meth:`transform_statements`
    applies the map to any located statement sequence, so the whole
    program and per-cluster slices share one precomputation.  Keying by
    location (not statement value) matters: statements are frozen
    dataclasses, so two occurrences of ``x = $retval(g)`` compare equal
    even when only one of them sits in a recognized call-site shape —
    the unrecognized occurrence must keep its original return copy.
    """

    def __init__(self, program: Program,
                 source_bound: int = DEFAULT_SOURCE_BOUND) -> None:
        self.program = program
        self.source_bound = max(1, source_bound)
        self.callgraph = CallGraph(program)
        #: Per-function return summaries (reverse topological order).
        self.summaries: Dict[str, RetSummary] = {}
        #: Functions whose return sites can be cut.
        self.shortcuttable: Set[str] = set()
        #: Cut return copies: (location, statement, callee).
        self.cut_edges: List[Tuple[Loc, Copy, str]] = []
        #: Added shortcut statements per cut location.
        self.shortcut_edges: Dict[Loc, List[Statement]] = {}
        #: The cut statement recorded at each location (guards
        #: :meth:`transform_statements` against stale locations).
        self._cut_stmt: Dict[Loc, Copy] = {}
        self._defs = self._index_defs()
        self._binders = self._index_binders()
        for comp in self.callgraph.sccs():
            for g in sorted(comp):
                self.summaries[g] = self._summarize(g)
        self.shortcuttable = {
            g for g, s in self.summaries.items() if s.shortcuttable}
        self._associate_sites()

    @classmethod
    def of(cls, program: Program,
           source_bound: int = DEFAULT_SOURCE_BOUND
           ) -> "CutShortcutTransform":
        """Per-program transform cache, keyed by source bound so callers
        with different bounds (the cascade's configured bound vs. the
        resilience rung's default) never thrash each other's entry."""
        bound = max(1, source_bound)
        cache = getattr(program, "_cutshortcut_transforms", None)
        if not isinstance(cache, dict):
            cache = {}
            program._cutshortcut_transforms = cache  # type: ignore[attr-defined]
        cached = cache.get(bound)
        if cached is None or cached.program is not program:
            cached = cls(program, bound)
            cache[bound] = cached
        return cached

    # -- summaries -------------------------------------------------------
    def _index_defs(self) -> Dict[Var, List[Statement]]:
        """Program-wide definition sites per variable (copies follow
        values through globals regardless of which function wrote
        them)."""
        defs: Dict[Var, List[Statement]] = {}
        for _loc, stmt in self.program.statements():
            if isinstance(stmt, (Copy, AddrOf, Load)):
                defs.setdefault(stmt.lhs, []).append(stmt)
            elif isinstance(stmt, ExternCall) and stmt.result is not None:
                defs.setdefault(stmt.result, []).append(stmt)
        return defs

    def _index_binders(self) -> Dict[str, Set[str]]:
        """Which functions contain a real parameter copy per callee."""
        binders: Dict[str, Set[str]] = {}
        for loc, stmt in self.program.statements():
            if isinstance(stmt, Copy) and _is_param(stmt.lhs) is not None \
                    and stmt.lhs.function is not None:
                binders.setdefault(stmt.lhs.function, set()).add(loc.function)
        return binders

    def _defines_ret_everywhere(self, g: str) -> bool:
        """Does every entry→exit path through ``g`` write ``$retval``?

        The IR's return conduit is a plain variable, so a path that
        skips the write leaves the *previous* activation's value in it —
        a cross-site flow no per-site shortcut covers.  Checked by BFS
        from entry with retval-defining nodes as barriers: reaching the
        exit means some path dodges every write.
        """
        fn = self.program.functions.get(g)
        if fn is None:
            return False
        cfg = fn.cfg
        rv = retval_var(g)
        seen = {cfg.entry}
        stack = [cfg.entry]
        while stack:
            n = stack.pop()
            if cfg.stmt(n).defined_var() == rv:
                continue
            if n == cfg.exit:
                return False
            for s in cfg.successors(n):
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return True

    def _rebind_hazard(self, g: str) -> bool:
        """Can a call executed *during* ``g``'s body rebind ``g``'s
        parameter conduits?  (Again a consequence of conduits being
        plain variables: an inner bound call to ``g`` overwrites the
        outer activation's parameters, so the return no longer derives
        from this site's arguments.)  True when any function reachable
        from ``g`` in the call graph binds ``g``'s parameters.
        """
        binders = self._binders.get(g)
        if not binders:
            return False
        reach: Set[str] = set()
        stack = [g]
        while stack:
            h = stack.pop()
            for c in self.callgraph.edges.get(h, ()):
                if c not in reach:
                    reach.add(c)
                    stack.append(c)
        return bool(reach & binders)

    def _summarize(self, g: str) -> RetSummary:
        sources: Set[Source] = set()
        seen: Set[Var] = set()
        stack: List[Var] = [retval_var(g)]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            if v.function is not None and v.function != g:
                k = _is_param(v)
                if k is not None or v.name == "$retval":
                    # Another function's conduit: its parameter is bound
                    # per *its* sites; its return value is summarized
                    # separately.  Inline an already-computed callee
                    # summary when it is context-free (addr-only);
                    # anything else is heap for our purposes.
                    if v.name == "$retval":
                        callee = self.summaries.get(v.function)
                        if callee is not None and callee.shortcuttable \
                                and all(s[0] == "addr"
                                        for s in callee.sources):
                            sources |= callee.sources
                            continue
                    return RetSummary(frozenset(), heap=True)
            elif v.function == g:
                k = _is_param(v)
                if k is not None:
                    sources.add(("param", k))
                    continue
            for stmt in self._defs.get(v, ()):
                if isinstance(stmt, Copy):
                    stack.append(stmt.rhs)
                elif isinstance(stmt, AddrOf):
                    sources.add(("addr", stmt.target))
                else:  # Load or extern-call result: heap
                    return RetSummary(frozenset(), heap=True)
            if len(sources) > self.source_bound:
                return RetSummary(frozenset(), heap=True)
        if self._defs.get(retval_var(g)) \
                and not self._defines_ret_everywhere(g):
            return RetSummary(frozenset(), heap=True)
        if any(s[0] == "param" for s in sources) and self._rebind_hazard(g):
            return RetSummary(frozenset(), heap=True)
        return RetSummary(frozenset(sources), heap=False)

    # -- site association ------------------------------------------------
    def _associate_sites(self) -> None:
        for fname in sorted(self.program.functions):
            fn = self.program.functions[fname]
            cfg = fn.cfg
            claimed: Set[int] = set()
            candidates: List[Tuple[int, Copy, str, int]] = []
            for idx, stmt in cfg.statements():
                if not (isinstance(stmt, Copy) and stmt.rhs.name == "$retval"
                        and stmt.rhs.function is not None
                        and stmt.rhs.function != fname):
                    continue
                g = stmt.rhs.function
                if g not in self.shortcuttable \
                        or g not in self.program.functions:
                    continue
                preds = cfg.predecessors(idx)
                if len(preds) != 1:
                    continue
                call = cfg.stmt(preds[0])
                if not isinstance(call, CallStmt) or not (
                        call.callee == g or g in call.targets):
                    continue
                candidates.append((idx, stmt, g, preds[0]))
            cuts: List[Tuple[int, Copy, str, List[Statement]]] = []
            stray_for: Set[str] = set()
            for idx, stmt, g, site in candidates:
                args = self._site_args(cfg, site, g, claimed)
                summary = self.summaries[g]
                repl: List[Statement] = []
                for src in sorted(summary.sources, key=str):
                    if src[0] == "addr":
                        repl.append(AddrOf(stmt.lhs, src[1]))
                    elif src[1] in args:
                        for rhs in args[src[1]]:
                            repl.append(Copy(stmt.lhs, rhs))
                    else:
                        # A site that passes no value for this parameter
                        # reads whatever an earlier call left in the
                        # conduit: fall back to the shared conduit edge
                        # (exactly Andersen's flow for this source, so
                        # the site loses nothing and stays sound).
                        repl.append(Copy(stmt.lhs, param_var(g, src[1])))
                cuts.append((idx, stmt, g, repl))
            # Any parameter copy targeting g outside a recognized chain
            # means the association is unreliable for that callee in
            # this function: keep its return copies.
            for idx, stmt in cfg.statements():
                if idx in claimed or not isinstance(stmt, Copy):
                    continue
                lhs = stmt.lhs
                if _is_param(lhs) is not None and lhs.function is not None \
                        and lhs.function in self.shortcuttable:
                    stray_for.add(lhs.function)
            for idx, stmt, g, repl in cuts:
                if g in stray_for:
                    continue
                loc = Loc(fname, idx)
                self.cut_edges.append((loc, stmt, g))
                self.shortcut_edges[loc] = repl
                self._cut_stmt[loc] = stmt

    def _site_args(self, cfg: CFG, site: int, g: str,
                   claimed: Set[int]) -> Dict[int, List[Var]]:
        """Arguments bound at one call site: walk the straight-line
        parameter-copy chain immediately preceding the call.

        Only copies binding ``g``'s own parameters are claimed; a copy
        binding a *different* callee's parameters stays visible to the
        stray-parameter-copy scan (it is claimed when that callee's own
        site in the same chain — e.g. an indirect call's other
        candidate — is associated, and flags the callee as unreliable
        otherwise).
        """
        args: Dict[int, List[Var]] = {}
        cur = site
        while True:
            preds = cfg.predecessors(cur)
            if len(preds) != 1:
                return args
            stmt = cfg.stmt(preds[0])
            if not (isinstance(stmt, Copy)
                    and stmt.lhs.name.startswith("$param")):
                return args
            k = _is_param(stmt.lhs)
            if k is not None and stmt.lhs == param_var(g, k):
                args.setdefault(k, []).append(stmt.rhs)
                claimed.add(preds[0])
            cur = preds[0]

    # -- application -----------------------------------------------------
    def transform_statements(
            self, located: Iterable[Tuple[Loc, Statement]]
    ) -> List[Statement]:
        """Rewrite a located statement sequence: statements at cut
        locations become their shortcut statements, everything else
        passes through.  Keyed by location, so a value-equal return
        copy at a site :meth:`_associate_sites` did not cut (stray
        copies, multi-predecessor sites) keeps its original conflating
        edge — conservative, never flow-losing.  A location whose
        statement no longer matches the recorded cut (a stale or
        foreign location) also passes through unchanged."""
        out: List[Statement] = []
        for loc, stmt in located:
            repl = self.shortcut_edges.get(loc)
            if repl is not None and self._cut_stmt.get(loc) == stmt:
                out.extend(repl)
            else:
                out.append(stmt)
        return out

    def stats(self) -> Dict[str, int]:
        return {
            "shortcuttable_functions": len(self.shortcuttable),
            "cut_edges": len(self.cut_edges),
            "shortcut_edges": sum(
                len(v) for v in self.shortcut_edges.values()),
        }


class CutShortcutResult(PointsToResult):
    """An Andersen result over the transformed graph, plus the
    transformation metadata (for diagnostics and ``repro dot``)."""

    def __init__(self, andersen: AndersenResult,
                 transform: CutShortcutTransform) -> None:
        self.andersen = andersen
        self.transform = transform
        self.universe = andersen.universe

    def points_to(self, p: Var) -> FrozenSet[MemObject]:
        return self.andersen.points_to(p)

    def points_to_obj(self, o: MemObject) -> FrozenSet[MemObject]:
        return self.andersen.points_to_obj(o)

    def clusters(self, pointers: Optional[Iterable[Var]] = None,
                 include_singletons: bool = True) -> List[FrozenSet[Var]]:
        return self.andersen.clusters(pointers, include_singletons)

    def max_cluster_size(self) -> int:
        return self.andersen.max_cluster_size()


class CutShortcut:
    """Run kernel-backed Andersen over the cut-shortcut transformed
    constraint graph."""

    name = "cutshortcut"

    def __init__(self, program: Program,
                 statements: Optional[Iterable[Tuple[Loc, Statement]]] = None,
                 source_bound: int = DEFAULT_SOURCE_BOUND) -> None:
        #: ``statements`` is a located ``(Loc, Statement)`` iterable (a
        #: slice of ``program.statements()``); locations select which
        #: return copies the transform may rewrite.
        self.program = program
        self._statements = statements
        self._source_bound = source_bound

    def run(self) -> CutShortcutResult:
        transform = CutShortcutTransform.of(self.program,
                                            self._source_bound)
        located = self._statements
        if located is None:
            located = self.program.statements()
        transformed = transform.transform_statements(located)
        andersen = Andersen(self.program, statements=transformed).run()
        return CutShortcutResult(andersen, transform)
