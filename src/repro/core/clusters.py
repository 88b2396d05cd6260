"""Andersen clustering — stage two of the cascade.

A Steensgaard partition whose cardinality exceeds the *Andersen
threshold* (60 in the paper's benchmark suite) is refined by running
Andersen's analysis **on the partition's relevant-statement slice only**
(that is the bootstrapping step: the cheaper analysis has already shrunk
the problem the expensive one sees).  Each Andersen points-to set then
becomes a cluster; together they form a disjunctive alias cover of the
partition (Theorem 7), possibly overlapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Set

from ..analysis.andersen import Andersen, AndersenResult
from ..analysis.cutshortcut import CutShortcutTransform
from ..analysis.oneflow import OneFlow
from ..analysis.steensgaard import SteensgaardResult
from ..ir import Loc, MemObject, Program, Var
from .relevant import RelevantSlice, relevant_statements

#: The paper's empirically determined default threshold.
DEFAULT_ANDERSEN_THRESHOLD = 60


@dataclass(frozen=True)
class Cluster:
    """One unit of independent FSCS work.

    ``origin`` records which cascade stage produced it ("steensgaard",
    "oneflow" or "andersen"); ``parent_size`` is the size of the
    Steensgaard partition it came from (Table 1 reports both).
    """

    members: FrozenSet[MemObject]
    slice: RelevantSlice
    origin: str
    parent_size: int
    #: The slice of the Steensgaard partition this cluster refines; FSCI
    #: may be shared between siblings through it (a sound superset).
    parent_slice: Optional[RelevantSlice] = None

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def pointer_members(self) -> FrozenSet[Var]:
        return frozenset(m for m in self.members if isinstance(m, Var))

    @property
    def fsci_key(self) -> Optional[FrozenSet[Loc]]:
        """The key under which siblings share one FSCI pass: the parent
        slice's statements (``None`` for a cluster that runs its own).
        The analysis memo caches by it, and the processes backend keeps
        the clusters of one key in one worker."""
        if self.parent_slice is None:
            return None
        return self.parent_slice.statements

    def __len__(self) -> int:
        return len(self.members)


def andersen_refine(program: Program, steens: SteensgaardResult,
                    partition: FrozenSet[MemObject],
                    slice_: Optional[RelevantSlice] = None,
                    transform: Optional["CutShortcutTransform"] = None
                    ) -> List[FrozenSet[MemObject]]:
    """Split ``partition`` into Andersen clusters using only its slice.

    Overlap is expected (Andersen points-to sets are not equivalence
    classes); the union of the returned clusters covers the partition.
    ``transform`` applies the cut-shortcut rewrite to the slice before
    solving, so per-site return flow stops gluing otherwise-unrelated
    pointers into one cluster; the transformed solution is still sound
    (⊇ every concrete flow), so the cover property is unchanged.
    """
    if slice_ is None:
        slice_ = relevant_statements(program, steens, partition)
    if transform is not None:
        stmts = transform.transform_statements(
            (loc, program.stmt_at(loc)) for loc in slice_.statements)
    else:
        stmts = [program.stmt_at(loc) for loc in slice_.statements]
    result = Andersen(program, statements=stmts).run()
    return _clusters_over(result.points_to_obj, partition)


def oneflow_refine(program: Program, steens: SteensgaardResult,
                   partition: FrozenSet[MemObject],
                   slice_: Optional[RelevantSlice] = None
                   ) -> List[FrozenSet[MemObject]]:
    """Optional middle cascade stage: refine with Das One-Flow instead of
    (or before) Andersen."""
    if slice_ is None:
        slice_ = relevant_statements(program, steens, partition)
    stmts = [program.stmt_at(loc) for loc in slice_.statements]
    result = OneFlow(program, statements=stmts).run()
    return _clusters_over(result.points_to, partition)


def _clusters_over(points_to, partition: FrozenSet[MemObject]
                   ) -> List[FrozenSet[MemObject]]:
    by_obj = {}
    covered: Set[MemObject] = set()
    for p in partition:
        for obj in points_to(p):
            by_obj.setdefault(obj, set()).add(p)
            covered.add(p)
    clusters = {frozenset(c) for c in by_obj.values()}
    for p in partition - covered:
        clusters.add(frozenset({p}))
    return sorted(clusters, key=lambda s: (-len(s), sorted(map(str, s))))
