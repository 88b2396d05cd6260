"""Demand-driven query helpers.

The paper's flexibility pitch: "based on the application, we may not be
interested in accurate aliases for all pointers in the program but only a
small subset. ... for lockset computation used in data race detection, we
need to compute must-aliases only for lock pointers.  Thus we need to
consider only clusters having at least one lock pointer."

These helpers select exactly those clusters and report how much of the
program was skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from ..ir import Program, Var
from .bootstrap import BootstrapResult
from .clusters import Cluster


def resolve_pointer(program: Program, name: str) -> Var:
    """Resolve ``name`` or ``func::name`` to one of ``program``'s
    pointers.

    Bare names match globals directly; a bare name that is only declared
    locally resolves iff exactly one function declares it.  Raises
    :class:`LookupError` (with a human-readable message) on unknown or
    ambiguous names — the CLI and the query daemon share this resolution
    so their answers stay comparable.
    """
    if "::" in name:
        func, base = name.split("::", 1)
        var = Var(base, func)
    else:
        var = Var(name)
        if var not in program.pointers:
            candidates = [p for p in program.pointers if p.name == name]
            if len(candidates) == 1:
                return candidates[0]
            if candidates:
                raise LookupError(
                    f"ambiguous name {name!r}: "
                    + ", ".join(sorted(c.qualified for c in candidates)))
    if var not in program.pointers:
        raise LookupError(f"unknown pointer {name!r}")
    return var


@dataclass(frozen=True)
class DemandSelection:
    """The clusters a demand-driven query actually needs."""

    selected: List[Cluster]
    total_clusters: int
    selected_pointers: int
    total_pointers: int

    @property
    def cluster_fraction(self) -> float:
        if self.total_clusters == 0:
            return 0.0
        return len(self.selected) / self.total_clusters

    @property
    def pointer_fraction(self) -> float:
        if self.total_pointers == 0:
            return 0.0
        return self.selected_pointers / self.total_pointers


def select_clusters(result: BootstrapResult,
                    interesting: Iterable[Var],
                    pure: bool = False) -> DemandSelection:
    """Clusters containing at least one interesting pointer.

    With ``pure=True`` keep only clusters made up *solely* of interesting
    pointers — the paper notes this suffices for lock pointers, "since a
    lock pointer can alias only to another lock pointer".
    """
    wanted = set(interesting)
    selected: List[Cluster] = []
    for c in result.clusters:
        inter = c.members & wanted
        if not inter:
            continue
        if pure and not (c.pointer_members <= wanted):
            continue
        selected.append(c)
    all_clusters = result.clusters
    return DemandSelection(
        selected=selected,
        total_clusters=len(all_clusters),
        selected_pointers=len({m for c in selected for m in c.pointer_members}),
        total_pointers=len(result.program.pointers),
    )

