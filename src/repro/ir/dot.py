"""Graphviz (DOT) exports for the structures the paper draws.

Figure 2 of the paper contrasts the Steensgaard and Andersen points-to
graphs of one program; these helpers emit the same pictures for any
program, plus a call-graph dump for debugging:

    python -m repro analyze file.c --dot steensgaard > g.dot
    dot -Tsvg g.dot -o g.svg
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from .program import Program
from .statements import MemObject, Var


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def _set_label(objs: Iterable[MemObject]) -> str:
    names = sorted(str(o) for o in objs)
    if len(names) > 6:
        names = names[:6] + ["..."]
    return "{" + ", ".join(names) + "}"


def steensgaard_dot(result) -> str:
    """The class-level points-to graph of a
    :class:`~repro.analysis.steensgaard.SteensgaardResult` (paper
    Figure 2, left).  Every node is a partition; out-degree ≤ 1."""
    lines = ["digraph steensgaard {", "  rankdir=LR;",
             "  node [shape=box, fontsize=10];"]
    index: Dict[frozenset, int] = {}

    def node(members) -> int:
        key = frozenset(members)
        if key not in index:
            index[key] = len(index)
            lines.append(f"  n{index[key]} "
                         f"[label={_quote(_set_label(members))}];")
        return index[key]

    for part in result.partitions():
        node(part)
    for src, dst in result.class_graph():
        lines.append(f"  n{node(src)} -> n{node(dst)};")
    lines.append("}")
    return "\n".join(lines)


def andersen_dot(result, pointers: Optional[Iterable[Var]] = None) -> str:
    """The points-to graph of an
    :class:`~repro.analysis.andersen.AndersenResult` (paper Figure 2,
    right): one node per object, one edge per points-to fact."""
    universe = sorted(set(pointers) if pointers is not None
                      else result.universe, key=str)
    lines = ["digraph andersen {", "  rankdir=LR;",
             "  node [shape=ellipse, fontsize=10];"]
    emitted: Set[str] = set()

    def node(obj: MemObject) -> str:
        name = str(obj)
        if name not in emitted:
            emitted.add(name)
            lines.append(f"  {_quote(name)};")
        return _quote(name)

    for p in universe:
        for target in sorted(result.points_to(p), key=str):
            lines.append(f"  {node(p)} -> {node(target)};")
    lines.append("}")
    return "\n".join(lines)


def cutshortcut_dot(result) -> str:
    """The cut-shortcut rewrite of the return flow (accepts a
    :class:`~repro.analysis.cutshortcut.CutShortcutResult` or the bare
    transform): each severed per-site return copy is a dashed grey
    ``cut`` edge through the shared return conduit, and the per-site
    ``shortcut`` edges that replace it are dashed black."""
    from .statements import AddrOf
    transform = getattr(result, "transform", result)
    lines = ["digraph cutshortcut {", "  rankdir=LR;",
             "  node [shape=ellipse, fontsize=10];"]
    emitted: Set[str] = set()

    def node(name: str) -> str:
        if name not in emitted:
            emitted.add(name)
            lines.append(f"  {_quote(name)};")
        return _quote(name)

    for loc, stmt, callee in sorted(
            transform.cut_edges, key=lambda e: (str(e[0]), str(e[1]))):
        lhs = node(str(stmt.lhs))
        conduit = node(str(stmt.rhs))
        lines.append(f"  {conduit} -> {lhs} "
                     f"[style=dashed, color=gray, "
                     f"label={_quote(f'cut @{loc.function}')}];")
        for repl in transform.shortcut_edges.get(loc, ()):
            if isinstance(repl, AddrOf):
                src = node(f"&{repl.target}")
            else:
                src = node(str(repl.rhs))
            lines.append(f"  {src} -> {lhs} "
                         f"[style=dashed, label=\"shortcut\"];")
    lines.append("}")
    return "\n".join(lines)


def callgraph_dot(program: Program) -> str:
    """The resolved call graph (indirect edges dashed)."""
    from .callgraph import CallGraph
    from .statements import CallStmt
    cg = CallGraph(program)
    indirect_pairs: Set[tuple] = set()
    for loc, stmt in program.call_sites:
        if isinstance(stmt, CallStmt) and stmt.is_indirect:
            for t in stmt.targets:
                indirect_pairs.add((loc.function, t))
    lines = ["digraph callgraph {", "  node [shape=box, fontsize=10];"]
    for f in sorted(program.functions):
        lines.append(f"  {_quote(f)};")
    for caller in sorted(program.functions):
        for callee in sorted(cg.callees(caller)):
            style = " [style=dashed]" if (caller, callee) in indirect_pairs \
                else ""
            lines.append(f"  {_quote(caller)} -> {_quote(callee)}{style};")
    lines.append("}")
    return "\n".join(lines)
