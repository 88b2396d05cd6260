"""Algorithm 1: relevant pointers ``V_P`` and statements ``St_P``.

Given a cluster ``P`` (a Steensgaard partition, an Andersen cluster, or
any pointer set), compute

* ``V_P`` — every object whose value may affect aliases of pointers in
  ``P`` (paper: "the set of variables (or references or dereferences
  thereof) which may affect aliases of pointers in P"), and
* ``St_P`` — the locations of all statements that may modify those
  values.  Outside ``St_P`` the reduced program ``Prog_P`` behaves as
  skips (Theorem 6 proves no alias is lost).

The closure is the paper's fixpoint, phrased over our normalized
statement forms:

* ``p = q``   with ``p ∈ V_P``                adds ``q``;
* ``p = &o``  with ``p ∈ V_P``                adds nothing (the address
  is a constant; ``o``'s *content* cannot affect ``p``'s aliases);
* ``p = *y``  with ``p ∈ V_P``                adds ``y`` and every member
  of ``y``'s pointee partition — the cells ``*y`` may denote;
* ``*x = r``  where ``x``'s pointee partition meets ``V_P`` (this covers
  both the paper's ``q > p`` case, transitively via the fixpoint, and
  the cyclic ``q = ~q`` case)                 adds ``x`` and ``r``;
* ``assume p == q`` / ``assume p != q`` with either operand in ``V_P``
  adds the other operand.  This case is ours, not the paper's: our FSCI
  refines state through assumes (Section 3 path sensitivity), so ``q``'s
  value can *restrict* ``p``'s aliases.  Dropping ``q``'s definitions
  from the slice would leave ``q`` uninitialised there, disable the
  refinement, and let the sliced run report aliases the full run rules
  out — strictly more facts, which breaks Theorem 6's equality.

The fixpoint runs as a worklist over per-variable statement indexes
built once per (program, Steensgaard result) pair and cached — the
cascade calls this for every cluster, so the index pays for itself
immediately.

Figure 3 of the paper is reproduced as a unit test: for ``P = {a, b}``
the slice keeps ``x = &a``, ``y = &b`` and ``*x = *y`` but drops
``p = x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..analysis.steensgaard import SteensgaardResult
from ..ir import (
    AddrOf,
    Assume,
    Copy,
    Load,
    Loc,
    MemObject,
    NullAssign,
    Program,
    Store,
    Var,
)


@dataclass(frozen=True)
class RelevantSlice:
    """The result of Algorithm 1 for one cluster."""

    cluster: FrozenSet[MemObject]
    vp: FrozenSet[MemObject]
    statements: FrozenSet[Loc]

    @property
    def size(self) -> int:
        return len(self.statements)

    def functions(self) -> FrozenSet[str]:
        """Functions containing at least one relevant statement — the
        only ones needing summaries for this cluster."""
        return frozenset(loc.function for loc in self.statements)


class RelevantIndex:
    """Per-variable statement indexes supporting the worklist closure."""

    def __init__(self, program: Program, steens: SteensgaardResult) -> None:
        self.program = program
        self.steens = steens
        # Direct assignments (Copy/AddrOf/Load/NullAssign) by lhs.
        self.assigns_by_lhs: Dict[Var, List[Tuple[Loc, object]]] = {}
        # Stores indexed by the partition their write may land in.
        self.stores_by_target_part: Dict[object, List[Tuple[Loc, Store]]] = {}
        # Two-operand assumes indexed by each operand (FSCI refines both
        # sides, so relevance flows across the comparison either way).
        self.assumes_by_operand: Dict[Var, List[Tuple[Loc, Assume]]] = {}
        for loc, stmt in program.statements():
            if isinstance(stmt, (Copy, AddrOf, Load, NullAssign)):
                self.assigns_by_lhs.setdefault(stmt.lhs, []).append((loc, stmt))
            elif isinstance(stmt, Store):
                # A store may land in any partition of the lhs' pointee
                # cells — exactly one for classic Steensgaard, possibly
                # several for the field-sensitive variant (per-field
                # cells split a pointee class across partitions).
                for key in steens.pointee_keys(stmt.lhs):
                    self.stores_by_target_part.setdefault(key, []).append(
                        (loc, stmt))
            elif isinstance(stmt, Assume) and stmt.rhs is not None:
                for operand in (stmt.lhs, stmt.rhs):
                    self.assumes_by_operand.setdefault(operand, []).append(
                        (loc, stmt))

    @classmethod
    def of(cls, program: Program, steens: SteensgaardResult
           ) -> "RelevantIndex":
        cached = getattr(steens, "_relevant_index", None)
        if cached is None or cached.program is not program:
            cached = cls(program, steens)
            steens._relevant_index = cached  # type: ignore[attr-defined]
        return cached


def relevant_statements(program: Program, steens: SteensgaardResult,
                        cluster: Iterable[MemObject]) -> RelevantSlice:
    """Run Algorithm 1 for ``cluster``."""
    index = RelevantIndex.of(program, steens)
    vp: Set[MemObject] = set(cluster)
    worklist: List[MemObject] = list(vp)
    statements: Set[Loc] = set()

    def add(obj: MemObject) -> None:
        if obj not in vp:
            vp.add(obj)
            worklist.append(obj)

    while worklist:
        v = worklist.pop()
        # Direct assignments to v: statements are relevant; track sources.
        for loc, stmt in index.assigns_by_lhs.get(v, ()):
            statements.add(loc)
            if isinstance(stmt, Copy):
                add(stmt.rhs)
            elif isinstance(stmt, Load):
                add(stmt.rhs)
                pointees = steens.pointee_partition(stmt.rhs)
                if pointees:
                    for m in pointees:
                        add(m)
            # AddrOf / NullAssign introduce no new tracked values.
        # Stores that may write v's cell.
        key = steens._part_of.get(v)
        if key is not None:
            for loc, stmt in index.stores_by_target_part.get(key, ()):
                statements.add(loc)
                add(stmt.lhs)
                add(stmt.rhs)
        # Assumes comparing v against another pointer: the other side's
        # value gates the refinement of v, so it (and hence its defining
        # statements, via the fixpoint) must survive the slice.
        for loc, stmt in index.assumes_by_operand.get(v, ()):
            statements.add(loc)
            add(stmt.lhs)
            assert stmt.rhs is not None  # single-operand assumes not indexed
            add(stmt.rhs)
    return RelevantSlice(cluster=frozenset(cluster), vp=frozenset(vp),
                         statements=frozenset(statements))

