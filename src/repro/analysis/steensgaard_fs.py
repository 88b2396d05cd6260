"""Field-sensitive Steensgaard without oversharing (Kuderski et al.).

Classic Steensgaard keeps **one** pointee cell per union-find class, so
two independent facts get conflated the moment objects share a class:

* every field of every object in the class shares one contents cell, and
* every value ever *stored* through a pointer into the class is unified
  with that cell — and therefore with every other stored value — even
  when no load ever reads the cell back.

The second point is what makes ``frontend/normalize.py``'s struct
flattening overshare: the normalizer mirrors each pointer-typed struct
field write into a per-``(struct, field)`` summary cell
(``Store($fld$S$f, src)`` aimed at ``AllocSite("field:S.f")``).  Summary
cells are write-mostly by construction, yet classic unification merges
the pointee classes of *all* the stored sources into one giant
partition, inflating every downstream cost (slice sizes, FSCS solve
time, key hashing, fleet routing weight).

This module keeps unification's near-linear cost while splitting both
axes, following "Unification-based Pointer Analysis without Oversharing"
(see PAPERS.md):

* **cells are ``(class, field key)`` pairs** — each union-find class
  carries one contents cell per *field key* (derived from the
  normalizer's naming conventions, see :func:`field_key`), and class
  joins merge cell tables pointwise by key, never across keys.  A class
  that accumulates more than ``sharing_bound`` distinct keys collapses
  back to a single shared cell (the classic fallback), bounding the
  per-class cost exactly like the paper's type-based sharing limit.
* **store unification is deferred on heap-only classes.**  A store into
  a class containing only allocation sites (no variable — i.e. contents
  that can only ever be read back through a ``Load``) records the stored
  value in a class-wide pending *inflow* list instead of unifying.  The
  first load observing the class flushes every pending inflow (so
  anything a program can read is fully unified — classic behaviour), but
  classes that are written and never read keep their sources in separate
  partitions.  Classes containing a variable store eagerly from birth,
  because a variable's value can be read by a plain ``Copy`` without any
  ``Load``; this keeps ``may_alias``/``same_partition`` an alias cover
  over the pointer universe (see the soundness note below).  Observation
  and deferral are *class*-granular: a load reads through a single value
  cell, so it necessarily conflates every field slot of the class it
  reads — the per-field split only pays off on classes no load touches,
  which is exactly the write-mostly registry shape the normalizer emits.

Because every difference from the classic solver only *removes* or
*splits* unifications, the resulting partitions refine classic
Steensgaard's (every field-sensitive partition is contained in exactly
one classic partition — the cover check in ``tests``), and Theorem 2's
"partitions cover clusters" invariant continues to hold, so the cascade
can use this result everywhere a :class:`SteensgaardResult` is accepted.

Soundness
---------

For any pointer variable ``p``, ``points_to(p)`` and partition
membership are computed from eagerly-unified state only — a variable's
value cell is observed from birth, and every ``Load`` observes the cells
it reads — so the classic argument applies unchanged: any value flow
between variables joins their cells, hence two variables that may alias
share a partition.  Deferred (never-observed) inflows exist only on
heap-only cells; they are folded into :meth:`points_to` for allocation
sites as a set *union* (no unification), so points-to facts remain
over-approximations while the partitions stay finer.

Unlike the classic result the partition-level points-to graph here has
out-degree greater than one (one partition's members can keep per-field
pointees apart), so the hierarchy helpers (`depth_of`, ``higher_than``,
cycle collapse) run over a multigraph, and ``pointee_keys`` exposes the
full successor set — ``core/relevant.py`` indexes stores under every
key.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ir import (
    AddrOf,
    AllocSite,
    Copy,
    Load,
    MemObject,
    Program,
    Statement,
    Store,
    Var,
)
from .steensgaard import Steensgaard, SteensgaardResult, _Key
from .unionfind import UnionFind

#: Collapse a class's per-field cell table past this many distinct keys.
DEFAULT_SHARING_BOUND = 8

#: The cell key a collapsed (over-bound) class keeps.
COLLAPSED_KEY = "*"


def field_key(obj: object) -> str:
    """The field key an abstract object carries, from the normalizer's
    naming conventions.

    * ``AllocSite("field:S.f")`` — a per-(struct, field) summary cell —
      keys as ``"S.f"``;
    * ``Var("$fld$S$f")`` — the matching summary pointer — also
      ``"S.f"``;
    * flattened struct locals ``base__leaf`` key as ``"leaf"`` (their
      struct tag is not recoverable after flattening);
    * everything else (plain variables, heap sites, fresh cells) keys as
      ``""``.

    Objects with different keys are "type-incompatible" in the sense of
    the sharing bound: their contents cells are never unified while
    their class stays under the bound.
    """
    if isinstance(obj, AllocSite):
        label = obj.label
        if label.startswith("field:"):
            return label[len("field:"):]
        return ""
    if isinstance(obj, Var):
        name = obj.name
        if name.startswith("$fld$"):
            return ".".join(name[len("$fld$"):].split("$"))
        if not name.startswith("$") and "__" in name:
            return name.split("__", 1)[1].replace("__", ".")
    return ""


class _FSSolver:
    """One field-sensitive unification pass over a statement sequence.

    All bookkeeping is keyed by union-find root and maintained under
    three class-level invariants (restored after every merge):

    * an **observed** class (some ``Load`` read through it) holds one
      shared contents class across all of its field slots and carries no
      deferred inflows.  A load's left-hand side has a single value
      cell, so unification necessarily conflates every slot the load may
      read; making the conflation a class invariant keeps later joins
      sound when they introduce *new* field keys into the class.
    * an unobserved class **containing a variable** stores eagerly:
      every stored value joins every field slot (a variable's value is
      readable by a plain ``Copy``, so deferring would break the alias
      cover), and the stored values are remembered as *writers* so slots
      a later join introduces can be replayed.
    * an unobserved **heap-only** class defers: stored values accumulate
      in a class-wide pending list and only unify when a load observes
      the class (or a merge adds a variable) — the oversharing fix.
    """

    def __init__(self, sharing_bound: int = DEFAULT_SHARING_BOUND) -> None:
        self.bound = max(1, sharing_bound)
        self.uf: UnionFind[object] = UnionFind()
        # Per-class cell table: root -> {field key -> cell member}.
        # Cell members are arbitrary members of the contents class,
        # re-canonicalized through find on access (same convention as
        # the classic solver's single-cell table).
        self._cells: Dict[object, Dict[str, object]] = {}
        # Field keys of a class's registered program objects (fresh
        # cell markers never contribute a key).
        self._fks: Dict[object, Set[str]] = {}
        # True when the class contains at least one Var.
        self._has_var: Dict[object, bool] = {}
        # Classes some Load has read through.
        self._observed: Set[object] = set()
        # Class-wide deferred stores (heap-only, unobserved classes).
        self._inflows: Dict[object, List[Var]] = {}
        # Values stored eagerly while the class was unobserved —
        # replayed onto field slots a later join introduces.
        self._writers: Dict[object, List[Var]] = {}
        # Classes whose cell table hit the sharing bound and collapsed.
        self._collapsed: Set[object] = set()
        self._fresh = 0

    # -- class-level accessors ------------------------------------------
    def _root(self, item: object) -> object:
        return self.uf.find(item)

    def _fresh_cell(self) -> object:
        self._fresh += 1
        return ("$cell", self._fresh)

    def register(self, obj: MemObject) -> object:
        """Record a program object's field key / var-ness on its class."""
        known = obj in self.uf
        root = self._root(obj)
        if not known:
            self._fks.setdefault(root, set()).add(field_key(obj))
            if isinstance(obj, Var) and not self._has_var.get(root):
                self._set_has_var(root)
        return root

    def _set_has_var(self, root: object) -> None:
        """Mark a class as containing a variable, converting any
        deferred inflows to eager stores — variable values are readable
        without a Load."""
        self._has_var[root] = True
        pending = self._inflows.pop(root, None)
        for v in pending or ():
            self._eager_store(self._root(root), v)

    # -- cells ----------------------------------------------------------
    def _slot_key(self, root: object, fk: str) -> str:
        if root in self._collapsed:
            return COLLAPSED_KEY
        return fk

    def cell(self, item: object, fk: str = "") -> object:
        """The contents class of ``item``'s class under field key
        ``fk``, created on demand."""
        root = self._root(item)
        fk = self._slot_key(root, fk)
        table = self._cells.setdefault(root, {})
        member = table.get(fk)
        if member is None:
            member = self._fresh_cell()
            self.uf.add(member)
            table[fk] = member
            self._on_new_slot(root, fk)
            # The invariant fixups may have collapsed the table or
            # merged the owner class — re-read the slot.
            root = self._root(item)
            member = self._cells[root][self._slot_key(root, fk)]
        return self._root(member)

    def _on_new_slot(self, root: object, fk: str) -> None:
        """Restore class invariants after a slot creation: observed
        classes share one contents class across slots, unobserved
        var-holding classes have every writer in every slot."""
        if root in self._observed:
            table = self._cells[root]
            others = [m for k, m in table.items() if k != fk]
            if others:
                self.join(table[fk], others[0])
            return
        for v in list(self._writers.get(root, ())):
            r = self._root(root)
            self.join(self.cell(r, fk), self.var_cell(v))
        self._check_bound(self._root(root))

    def var_cell(self, v: MemObject) -> object:
        """The value cell of ``v`` itself: slot ``(class(v), fk(v))``."""
        self.register(v)
        return self.cell(v, field_key(v))

    def access_fks(self, root: object) -> List[str]:
        """Every field key a load/store through a pointer into this
        class must touch: keys of registered members plus keys of
        already-created cells (unions may have added either first)."""
        if root in self._collapsed:
            return [COLLAPSED_KEY]
        fks = set(self._fks.get(root, ()))
        fks.update(self._cells.get(root, {}).keys())
        if not fks:
            fks.add("")
        return sorted(fks)

    def _check_bound(self, root: object) -> None:
        """Collapse the class's cell table once it exceeds the sharing
        bound — the classic single-cell fallback."""
        root = self._root(root)
        if root in self._collapsed:
            return
        table = self._cells.get(root, {})
        if len(table) <= self.bound:
            return
        # Mark collapsed *before* joining: a slot's contents class can
        # be the owner itself (the cyclic case), in which case the joins
        # below re-enter the owner's bookkeeping and must already see
        # the collapsed layout.
        items = sorted(table.items())
        base = items[0][1]
        self._collapsed.add(root)
        self._cells[root] = {COLLAPSED_KEY: base}
        for _fk, member in items[1:]:
            self.join(base, member)

    def _merge_slots(self, root: object) -> None:
        """Join every existing slot of the class into one contents
        class (the observed-class invariant)."""
        while True:
            root = self._root(root)
            table = self._cells.get(root, {})
            roots = sorted({self._root(m) for m in table.values()},
                           key=str)
            if len(roots) <= 1:
                return
            self.join(roots[0], roots[1])

    def _any_slot(self, root: object) -> object:
        """Some slot of an observed class — they all share one contents
        class, so any field key works."""
        root = self._root(root)
        return self.cell(root, self.access_fks(root)[0])

    def _observe_class(self, root: object) -> object:
        """A Load read through the class: merge its slots, flush every
        deferred inflow, and keep stores eager from now on."""
        root = self._root(root)
        if root in self._observed:
            return root
        self._observed.add(root)
        self._writers.pop(root, None)  # moot once the slots are one
        self._merge_slots(root)
        pending = self._inflows.pop(self._root(root), None)
        for v in pending or ():
            self.join(self._any_slot(root), self.var_cell(v))
        return self._root(root)

    def _eager_store(self, root: object, value: Var) -> None:
        """Join ``value`` into every field slot of the class, recording
        it for replay onto slots a later join introduces."""
        root = self._root(root)
        self._writers.setdefault(root, []).append(value)
        for fk in self.access_fks(root):
            r = self._root(root)
            self.join(self.cell(r, fk), self.var_cell(value))

    # -- join ------------------------------------------------------------
    def join(self, a: object, b: object) -> object:
        """Unify the classes of ``a`` and ``b``, merging their cell
        tables pointwise by field key (Steensgaard's join, split per
        field), then restore the class invariants."""
        ra, rb = self._root(a), self._root(b)
        if ra == rb:
            return ra
        cells_a = self._cells.pop(ra, None) or {}
        cells_b = self._cells.pop(rb, None) or {}
        fks_a = self._fks.pop(ra, None) or set()
        fks_b = self._fks.pop(rb, None) or set()
        in_a = self._inflows.pop(ra, None) or []
        in_b = self._inflows.pop(rb, None) or []
        wr_a = self._writers.pop(ra, None) or []
        wr_b = self._writers.pop(rb, None) or []
        observed = ra in self._observed or rb in self._observed
        self._observed.discard(ra)
        self._observed.discard(rb)
        var_a = self._has_var.pop(ra, False)
        var_b = self._has_var.pop(rb, False)
        collapsed = ra in self._collapsed or rb in self._collapsed
        self._collapsed.discard(ra)
        self._collapsed.discard(rb)
        # Access sets before the merge: a side's writers have reached
        # exactly its own slots, so the other side's contribution is
        # what needs replaying below.
        acc_a = fks_a | set(cells_a)
        acc_b = fks_b | set(cells_b)

        root = self.uf.union(ra, rb)

        fks = fks_a | fks_b
        if fks:
            self._fks[root] = fks
        if var_a or var_b:
            self._has_var[root] = True
        if collapsed:
            self._collapsed.add(root)
        if observed:
            self._observed.add(root)

        merged: Dict[str, object] = dict(cells_a)
        deferred_joins: List[Tuple[object, object]] = []
        for fk, member in cells_b.items():
            existing = merged.get(fk)
            if existing is None:
                merged[fk] = member
            else:
                deferred_joins.append((existing, member))
        if collapsed and len(merged) > 1:
            items = sorted(merged.items())
            base = items[0][1]
            for _fk, member in items[1:]:
                deferred_joins.append((base, member))
            merged = {COLLAPSED_KEY: base}
        if merged:
            self._cells[root] = merged
        if in_a or in_b:
            self._inflows[root] = in_a + in_b
        if wr_a or wr_b:
            self._writers[root] = wr_a + wr_b

        # Resolve pointwise cell joins after the tables are in place so
        # recursive joins see consistent state.
        for x, y in deferred_joins:
            self.join(x, y)

        root = self._root(root)
        self._check_bound(root)
        root = self._root(root)

        # Restore the class invariants the merge may have broken.
        if root in self._observed:
            self._merge_slots(root)
            root = self._root(root)
            self._writers.pop(root, None)
            pending = self._inflows.pop(root, None)
            for v in pending or ():
                self.join(self._any_slot(root), self.var_cell(v))
        elif self._has_var.get(root):
            # A var-free side's pendings become eager, and each side's
            # writers replay onto the field slots only the other side
            # knew about.
            pending = self._inflows.pop(root, None)
            for v in pending or ():
                self._eager_store(self._root(root), v)
            for writers, missing in ((wr_a, acc_b - acc_a),
                                     (wr_b, acc_a - acc_b)):
                for fk in sorted(missing):
                    for v in writers:
                        r = self._root(root)
                        self.join(self.cell(r, self._slot_key(r, fk)),
                                  self.var_cell(v))
        return self._root(root)

    # -- statement transfer ---------------------------------------------
    def process(self, stmt: Statement) -> None:
        if isinstance(stmt, Copy):
            # x = y : unify value cells of x and y.
            self.join(self.var_cell(stmt.lhs), self.var_cell(stmt.rhs))
        elif isinstance(stmt, AddrOf):
            # x = &t : t joins x's value cell.
            self.register(stmt.target)
            self.join(self.var_cell(stmt.lhs), stmt.target)
        elif isinstance(stmt, Load):
            # x = *y : y's pointee class is observed (slots merge,
            # pending stores flush) and its contents join x's value
            # cell.
            self.register(stmt.lhs)
            self.register(stmt.rhs)
            target = self._observe_class(self.var_cell(stmt.rhs))
            self.join(self.var_cell(stmt.lhs), self._any_slot(target))
        elif isinstance(stmt, Store):
            # *x = y : y's value flows into every field cell of x's
            # targets; unobserved heap-only classes record the inflow
            # instead of unifying (the deferred-store rule).
            self.register(stmt.lhs)
            self.register(stmt.rhs)
            target = self._root(self.var_cell(stmt.lhs))
            if target in self._observed:
                self.join(self._any_slot(target), self.var_cell(stmt.rhs))
            elif self._has_var.get(target):
                self._eager_store(target, stmt.rhs)
            else:
                self._inflows.setdefault(target, []).append(stmt.rhs)
        # NullAssign / calls / skip have no unification effect.

    # -- result-time helpers --------------------------------------------
    def pending_inflows(self, root: object) -> List[Var]:
        return self._inflows.get(self._root(root), [])


class SteensgaardFSResult(SteensgaardResult):
    """Field-sensitive partitions with the classic result's API.

    The partition graph is a multigraph (``_succ`` maps a partition key
    to a *set* of successor keys), so every hierarchy method is
    reimplemented; the classic single-successor ``_edges`` table is never
    populated.
    """

    def __init__(self, program: Program, solver: _FSSolver,
                 universe: Set[Var]) -> None:
        self.program = program
        self._fs = solver
        self.universe = universe
        # Materialize every program object's value slot: slot creation
        # runs the invariant fixups (observed classes merge the new slot
        # in, writers replay onto it), so after this loop every object's
        # partition key resolves through its cell table entry.
        for obj in sorted(program.objects, key=str):
            solver.var_cell(obj)
        self._derive_fs()
        self._collapse_cycles_fs()
        self._build_depths_fs()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _partition_key(self, obj: MemObject, root: object) -> _Key:
        solver = self._fs
        table = solver._cells.get(root)
        fk = solver._slot_key(root, field_key(obj))
        if table is not None and fk in table:
            return ("c", solver._root(table[fk]))
        return ("t", (root, fk))

    def _derive_fs(self) -> None:
        solver = self._fs
        self._node_members: Dict[object, Set[MemObject]] = {}
        for obj in sorted(self.program.objects, key=str):
            self._node_members.setdefault(solver._root(obj), set()).add(obj)
        self._part_of: Dict[MemObject, _Key] = {}
        parts: Dict[_Key, Set[MemObject]] = {}
        for root, members in self._node_members.items():
            for m in members:
                key = self._partition_key(m, root)
                parts.setdefault(key, set()).add(m)
                self._part_of[m] = key
        self._parts: Dict[_Key, FrozenSet[MemObject]] = {
            k: frozenset(v) for k, v in parts.items()}
        # Partition-level points-to edges.  Partition P keyed by cell
        # class c points to the partitions of the objects living in c —
        # out-degree can exceed one because c's members can carry
        # different field keys (their own value cells differ).
        self._succ: Dict[_Key, Set[_Key]] = {}
        self._selfloops: Set[_Key] = set()
        for key in self._parts:
            if key[0] != "c":
                continue
            targets = self._node_members.get(key[1])
            if not targets:
                continue
            for m in targets:
                tkey = self._part_of[m]
                if tkey == key:
                    self._selfloops.add(key)
                else:
                    self._succ.setdefault(key, set()).add(tkey)

    def _collapse_cycles_fs(self) -> None:
        while True:
            sccs = self._cyclic_sccs()
            if not sccs:
                return
            for comp in sccs:
                cells = sorted((k[1] for k in comp if k[0] == "c"), key=str)
                if len(cells) > 1:
                    base = cells[0]
                    for other in cells[1:]:
                        self._fs.join(base, other)
            self._derive_fs()

    def _cyclic_sccs(self) -> List[List[_Key]]:
        """Tarjan over the partition multigraph; returns the non-trivial
        strongly connected components (self-loops excluded — they are
        the paper's legal cyclic case)."""
        index: Dict[_Key, int] = {}
        low: Dict[_Key, int] = {}
        on_stack: Set[_Key] = set()
        stack: List[_Key] = []
        counter = [0]
        out: List[List[_Key]] = []
        keys = sorted(self._parts, key=str)

        for start in keys:
            if start in index:
                continue
            work: List[Tuple[_Key, List[_Key], int]] = [
                (start, sorted(self._succ.get(start, ()), key=str), 0)]
            index[start] = low[start] = counter[0]
            counter[0] += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node, succs, i = work[-1]
                if i < len(succs):
                    work[-1] = (node, succs, i + 1)
                    nxt = succs[i]
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append(
                            (nxt, sorted(self._succ.get(nxt, ()), key=str), 0))
                    elif nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp: List[_Key] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1:
                        out.append(comp)
        return out

    def _build_depths_fs(self) -> None:
        indeg: Dict[_Key, int] = {k: 0 for k in self._parts}
        for _src, dsts in self._succ.items():
            for dst in dsts:
                indeg[dst] += 1
        order: List[_Key] = sorted(
            (k for k, d in indeg.items() if d == 0), key=str)
        depth: Dict[_Key, int] = {k: 0 for k in order}
        i = 0
        while i < len(order):
            node = order[i]
            i += 1
            for dst in sorted(self._succ.get(node, ()), key=str):
                depth[dst] = max(depth.get(dst, 0), depth[node] + 1)
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    order.append(dst)
        self._depth = depth

    # ------------------------------------------------------------------
    # PointsToResult interface
    # ------------------------------------------------------------------
    def points_to(self, p: Var) -> FrozenSet[MemObject]:
        key = self._part_of.get(p)
        if key is None or key[0] != "c":
            return frozenset(self._pending_targets(p))
        objs: Set[MemObject] = set(self._node_members.get(key[1], ()))
        objs |= self._pending_targets(p)
        return frozenset(objs)

    def _pending_targets(self, obj: MemObject) -> Set[MemObject]:
        """Targets held via deferred (never-observed) stores into
        ``obj``'s value slot — folded in as a set union, not a
        unification, so the partitions stay finer while points-to stays
        a sound over-approximation.  Stored values are always variables,
        whose own cells are observed from birth, so one level suffices.
        Variables never carry pending inflows themselves (their classes
        are eager), making this a no-op on the pointer universe."""
        solver = self._fs
        if obj not in solver.uf:
            return set()
        values = solver.pending_inflows(solver._root(obj))
        if not values:
            return set()
        out: Set[MemObject] = set()
        for v in values:
            vkey = self._part_of.get(v)
            if vkey is not None and vkey[0] == "c":
                out |= self._node_members.get(vkey[1], set())
        return out

    # ------------------------------------------------------------------
    # partitions / hierarchy API used by the bootstrap core
    # ------------------------------------------------------------------
    def higher_than(self, p: MemObject, q: MemObject) -> bool:
        kp, kq = self._part_of.get(p), self._part_of.get(q)
        if kp is None or kq is None or kp == kq:
            return False
        seen: Set[_Key] = set()
        frontier = [kp]
        while frontier:
            node = frontier.pop()
            for nxt in self._succ.get(node, ()):
                if nxt == kq:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def pointee_partition(self, p: MemObject) -> Optional[FrozenSet[MemObject]]:
        """The union of the partitions holding the cells ``*p`` may
        denote.  Classic results return exactly one partition; here a
        pointee class can span several (one per field key), and the
        union is the sound cover ``core/relevant.py`` needs."""
        key = self._part_of.get(p)
        if key is None:
            return None
        members: Set[MemObject] = set()
        if key in self._selfloops:
            members |= self._parts[key]
        for succ in self._succ.get(key, ()):
            members |= self._parts[succ]
        return frozenset(members) if members else None

    def pointee_keys(self, p: MemObject) -> Tuple[_Key, ...]:
        """All partition keys ``*p`` may denote — the multi-successor
        counterpart of following the classic single edge."""
        key = self._part_of.get(p)
        if key is None:
            return ()
        keys: Set[_Key] = set()
        if key in self._selfloops:
            keys.add(key)
        keys.update(self._succ.get(key, ()))
        return tuple(sorted(keys, key=str))

    def is_cyclic_partition(self, p: MemObject) -> bool:
        key = self._part_of.get(p)
        return key is not None and key in self._selfloops

    def class_graph(self) -> List[Tuple[FrozenSet[MemObject], FrozenSet[MemObject]]]:
        pairs = []
        for src in sorted(self._succ, key=str):
            for dst in sorted(self._succ[src], key=str):
                pairs.append((self._parts[src], self._parts[dst]))
        return pairs

    # Diagnostics -------------------------------------------------------
    def sharing_stats(self) -> Dict[str, int]:
        """How much oversharing the field split avoided: counts of
        multi-key cell tables, collapsed classes, and cells whose
        deferred stores never unified."""
        solver = self._fs
        multi = sum(1 for t in solver._cells.values() if len(t) > 1)
        deferred = sum(len(vs) for vs in solver._inflows.values())
        return {
            "multi_field_classes": multi,
            "collapsed_classes": len(solver._collapsed),
            "deferred_stores": deferred,
        }


class SteensgaardFS(Steensgaard):
    """Run the field-sensitive Steensgaard variant.

    Drop-in for :class:`Steensgaard`: same constructor shape plus the
    ``sharing_bound`` knob, and the result subclasses
    :class:`SteensgaardResult` so every cascade consumer accepts it.
    """

    name = "steensgaard_fs"

    def __init__(self, program: Program,
                 statements: Optional[Iterable[Statement]] = None,
                 sharing_bound: int = DEFAULT_SHARING_BOUND) -> None:
        super().__init__(program, statements)
        self._sharing_bound = sharing_bound

    def run(self) -> SteensgaardFSResult:
        solver = _FSSolver(sharing_bound=self._sharing_bound)
        stmts = self._statements
        if stmts is None:
            stmts = (s for _, s in self.program.statements())
        for stmt in stmts:
            solver.process(stmt)
        for obj in sorted(self.program.objects, key=str):
            solver.register(obj)
        return SteensgaardFSResult(self.program, solver,
                                   set(self.program.pointers))
