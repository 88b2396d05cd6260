"""Points-to constraints attached to summary tuples (paper Definition 8).

A summary tuple ``(p, loc, q, c1 ∧ ... ∧ ck)`` records a maximally
complete update sequence that is valid only under points-to side
conditions.  Each atom is one of the four forms from the paper:

* ``l : r → s``   — ``r`` points to ``s`` at ``l``       (:data:`POINTS_TO`)
* ``l : r ↛ s``   — ``r`` does not point to ``s`` at ``l``
* ``l : r ≐ s``   — ``r`` and ``s`` point to the same object at ``l``
* ``l : r ≭ s``   — they do not

Satisfiability is checked against the cluster's FSCI result exactly as the
paper prescribes ("the satisfiability of cond can be checked at the time
of computing the frontier"): a positive atom is satisfiable when the FSCI
may-facts allow it; a negative atom is only unsatisfiable when the FSCI
may-set *forces* the positive fact (singleton must-like case), plus purely
syntactic contradictions.  Everything errs toward satisfiable, which is
the sound direction for may-alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from ..ir import Loc, MemObject, Var

POINTS_TO = "pt"      # r -> s
SAME_OBJECT = "same"  # r and s point to the same object

#: Pseudo-object standing for NULL in branch-condition atoms
#: (``l: r -> $NULL$`` reads "r is NULL at l").
NULL_MARKER = Var("$NULL$")


@dataclass(frozen=True, order=True)
class Atom:
    """One points-to side condition."""

    kind: str            # POINTS_TO or SAME_OBJECT
    loc: Loc
    r: Var
    s: MemObject
    positive: bool = True

    def negated(self) -> "Atom":
        return Atom(self.kind, self.loc, self.r, self.s, not self.positive)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == POINTS_TO:
            op = "->" if self.positive else "-/->"
        else:
            op = "==" if self.positive else "!="
        return f"{self.loc}: {self.r} {op} {self.s}"


def _object_order(obj: MemObject) -> Tuple:
    if isinstance(obj, Var):
        return (0, obj.name, obj.function is not None, obj.function or "")
    return (1, obj.label)


def atom_order(atom: Atom) -> Tuple:
    """Sort key of atoms: a total order that agrees with the dataclass
    order of :class:`Atom` wherever that is defined.  (It is not defined
    between a variable and an allocation site, nor between a global and
    a local of the same name.)"""
    return (atom.kind, atom.loc, _object_order(atom.r),
            _object_order(atom.s), atom.positive)


#: A conjunction of atoms.  The empty conjunction is ``true``.
Constraint = FrozenSet[Atom]

TRUE: Constraint = frozenset()


def points_to_atom(loc: Loc, r: Var, s: MemObject, positive: bool = True) -> Atom:
    return Atom(POINTS_TO, loc, r, s, positive)


def null_atom(loc: Loc, r: Var, positive: bool = True) -> Atom:
    """Branch-condition atom: ``r`` is (not) NULL at ``loc`` — the
    paper's path-sensitivity extension records these in summary tuples."""
    return Atom(POINTS_TO, loc, r, NULL_MARKER, positive)


def same_object_atom(loc: Loc, r: Var, s: Var, positive: bool = True) -> Atom:
    return Atom(SAME_OBJECT, loc, r, s, positive)


def conjoin(cond: Constraint, atom: Atom,
            max_atoms: Optional[int] = None) -> Optional[Constraint]:
    """``cond ∧ atom``.

    Syntactic contradictions (``a`` and ``¬a`` both present) are *kept*,
    not pruned: atoms name **static** locations, and one backward path
    may traverse the same location in several dynamic instances (loop
    iterations, repeated calls), where both polarities can genuinely
    hold.  Only the FSCI oracle — whose facts quantify over every
    dynamic instance — may declare a condition unsatisfiable.  (Pruning
    here was a soundness bug our fuzzing caught: a cell written on the
    second of two calls to the same function lost its update.)

    When the conjunction would exceed ``max_atoms``, the result keeps the
    smallest ``max_atoms - 1`` atoms in :func:`atom_order` plus ``atom``
    itself (or the smallest ``max_atoms`` when ``atom`` is among them).
    Weakening a condition only admits more aliases, which is the sound
    direction for a may analysis (documented cap; the paper suggests
    BDDs for the same growth problem).

    The ``Optional`` return type is kept for future refinements that can
    prove single-visit locations; current callers handle ``None``.
    """
    out = cond | {atom}
    if max_atoms is not None and len(out) > max_atoms:
        kept = sorted(out, key=atom_order)[:max_atoms]
        if atom not in kept:
            kept = kept[: max_atoms - 1] + [atom]
        out = frozenset(kept)
    return out


def merge(a: Constraint, b: Constraint,
          max_atoms: Optional[int] = None) -> Optional[Constraint]:
    """Conjunction of two constraints (see :func:`conjoin` on why
    syntactic contradictions survive).

    ``b``'s atoms are conjoined in :func:`atom_order`: under the cap,
    :func:`conjoin` keeps the newest atom, so a set-iteration order would
    make the result follow ``PYTHONHASHSEED``."""
    out: Optional[Constraint] = a
    for atom in sorted(b, key=atom_order):
        out = conjoin(out, atom, max_atoms)
        if out is None:
            return None
    return out


class SatOracle:
    """Constraint satisfiability against an FSCI result.

    ``fsci`` may be ``None`` (everything satisfiable — used before the
    cluster's FSCI pass exists, and in tests).
    """

    def __init__(self, fsci=None) -> None:
        self._fsci = fsci

    def atom_satisfiable(self, atom: Atom) -> bool:
        if self._fsci is None:
            return True
        if atom.kind == POINTS_TO:
            if atom.s == NULL_MARKER:
                if atom.positive:
                    return self._fsci.may_null_before(atom.loc, atom.r)
                return not self._fsci.must_null_before(atom.loc, atom.r)
            if atom.positive:
                # Garbage may point anywhere: a possibly-uninitialized
                # pointer satisfies any positive points-to.
                return (atom.s in self._fsci.pts_before(atom.loc, atom.r)
                        or self._fsci.maybe_uninit_before(atom.loc, atom.r))
            # r -/-> s refutable only if r MUST point to s (singleton
            # may-set with no uninitialized path).
            return not self._fsci.must_point_to(atom.r, atom.s, atom.loc)
        # SAME_OBJECT atoms assert *value* equality (they come from store
        # disambiguation and from branch conditions alike).
        if atom.positive:
            return self._fsci.may_values_equal(atom.r, atom.s, atom.loc)
        return not self._fsci.must_values_equal(atom.r, atom.s, atom.loc)

    def satisfiable(self, cond: Constraint) -> bool:
        return all(self.atom_satisfiable(a) for a in cond)


def format_constraint(cond: Constraint) -> str:
    if not cond:
        return "true"
    return " ∧ ".join(str(a) for a in sorted(cond, key=atom_order))
