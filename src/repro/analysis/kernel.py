"""Dense-integer solver kernels: interning and bitset points-to sets.

The pure-Python solvers spend most of their time hashing ``Var``
dataclasses and churning frozensets (``BENCH_parallel.json``: the
processes backend is dominated by solver + serialization cost, not by
parallelism).  Pavlogiannis' complexity analysis of Andersen's analysis
("The Fine-Grained and Parallel Complexity of Andersen's Pointer
Analysis", PAPERS.md) frames the cubic set-saturation as exactly the
workload that rewards dense bit-parallel set representations: a union is
one machine-word-parallel big-int ``|``, a difference-propagation delta
is ``new & ~old``, and membership is a shift — no per-element hashing
anywhere.

This module is that representation, shared by the Andersen worklist and
the FSCI dataflow:

* :class:`NodeTable` — interns :class:`~repro.ir.Var` /
  :class:`~repro.ir.AllocSite` objects to dense integer ids (insertion
  order, so a deterministic construction order makes every downstream
  iteration hash-seed independent) and decodes bit masks back to the
  *same* frozensets the reference solvers (:mod:`.reference`) produce.
  ``reserved`` low bits let flow-sensitive clients keep sentinel values
  (UNINIT/NULL) inside the same mask.
* :class:`BitSet` — a mutable set of interned ids backed by one int,
  with the diff-propagation primitive :meth:`BitSet.or_into` returning
  the delta mask of genuinely new bits.
* :class:`IntUnionFind` — union-find over dense ids (SCC collapse
  merges classes by OR-ing masks instead of rebuilding frozensets).
* :func:`popcount` / :func:`iter_bits` — mask helpers shared by every
  kernel client (``int.bit_count`` when available, a portable fallback
  otherwise).

The kernels are an internal representation only: every public analysis
API still materializes the exact frozensets it always returned, which is
what lets the bit-identity differential suites act as the acceptance
oracle for this layer (see ``tests/test_kernel.py``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

from ..ir import MemObject

try:  # Python >= 3.10
    _bit_count = int.bit_count

    def popcount(mask: int) -> int:
        """Number of set bits in ``mask``."""
        return _bit_count(mask)
except AttributeError:  # pragma: no cover - exercised on Python 3.9 CI
    def popcount(mask: int) -> int:
        """Number of set bits in ``mask``."""
        return bin(mask).count("1")


def iter_bits(mask: int) -> Iterator[int]:
    """Bit positions set in ``mask``, ascending (hence deterministic)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class NodeTable:
    """Interns memory objects to dense integer ids.

    ``reserved`` low bit positions are kept free of objects so clients
    can pack sentinel flags into the same mask (the FSCI kernel uses bit
    0 for UNINIT and bit 1 for NULL); object ``i`` occupies bit
    ``reserved + i``.  Mask decoding is memoized: the same mask value
    always returns the same frozenset object, which keeps oracle-heavy
    consumers (the summary engine asks for the same points-to sets over
    and over) from re-materializing sets in a loop.
    """

    __slots__ = ("_ids", "_objs", "reserved", "_decode")

    def __init__(self, objects: Iterable[MemObject] = (),
                 reserved: int = 0) -> None:
        self._ids: Dict[MemObject, int] = {}
        self._objs: List[MemObject] = []
        self.reserved = reserved
        self._decode: Dict[int, FrozenSet[MemObject]] = {}
        for obj in objects:
            self.intern(obj)

    def __len__(self) -> int:
        return len(self._objs)

    def __contains__(self, obj: MemObject) -> bool:
        return obj in self._ids

    def intern(self, obj: MemObject) -> int:
        """The id of ``obj``, assigning the next dense id on first use."""
        idx = self._ids.get(obj)
        if idx is None:
            idx = len(self._objs)
            self._ids[obj] = idx
            self._objs.append(obj)
        return idx

    def id_of(self, obj: MemObject) -> Optional[int]:
        """The id of ``obj`` if interned, else ``None`` (never interns)."""
        return self._ids.get(obj)

    def obj_of(self, idx: int) -> MemObject:
        return self._objs[idx]

    def bit(self, obj: MemObject) -> int:
        """The single-bit mask of ``obj`` (interning it if needed)."""
        return 1 << (self.reserved + self.intern(obj))

    def mask_of(self, objects: Iterable[MemObject]) -> int:
        """The mask holding every object in ``objects``."""
        mask = 0
        base = self.reserved
        for obj in objects:
            mask |= 1 << (base + self.intern(obj))
        return mask

    def objects_of(self, mask: int) -> FrozenSet[MemObject]:
        """The frozenset a mask denotes; reserved bits are ignored.

        Memoized by mask value — callers may treat the result as
        canonical (two equal masks share one frozenset object).
        """
        cached = self._decode.get(mask)
        if cached is None:
            base = self.reserved
            objs = self._objs
            cached = frozenset(
                objs[pos - base] for pos in iter_bits(mask >> base << base))
            self._decode[mask] = cached
        return cached

    def ids_of(self, mask: int) -> Iterator[int]:
        """Interned ids set in ``mask`` (reserved bits ignored)."""
        base = self.reserved
        for pos in iter_bits(mask >> base):
            yield pos


class BitSet:
    """A mutable set of dense ids backed by a single int.

    The reference model for the differential property suite is a plain
    ``set[int]``: every operation here must agree with it exactly
    (``tests/test_kernel.py``).
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0) -> None:
        self.bits = bits

    # -- diff propagation ------------------------------------------------
    def or_into(self, mask: int) -> int:
        """Union ``mask`` in; return the delta mask of genuinely new
        bits (empty delta == nothing to propagate)."""
        new = mask & ~self.bits
        if new:
            self.bits |= new
        return new

    # -- plain set operations --------------------------------------------
    def add(self, idx: int) -> None:
        self.bits |= 1 << idx

    def discard(self, idx: int) -> None:
        self.bits &= ~(1 << idx)

    def __contains__(self, idx: int) -> bool:
        return bool((self.bits >> idx) & 1)

    def __len__(self) -> int:
        return popcount(self.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitSet):
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitSet({{{', '.join(map(str, self))}}})"

    def copy(self) -> "BitSet":
        return BitSet(self.bits)

    def isdisjoint(self, mask: int) -> bool:
        return not (self.bits & mask)

    def difference_mask(self, mask: int) -> int:
        """Bits of this set not in ``mask`` (the would-be delta of
        ``or_into`` run in the other direction)."""
        return self.bits & ~mask

    def objects(self, table: NodeTable) -> FrozenSet[MemObject]:
        """Decode back to the interned objects (via ``table``).  Bits
        here are dense ids, so they sit ``table.reserved`` positions
        below the table's mask encoding."""
        return table.objects_of(self.bits << table.reserved)


class IntUnionFind:
    """Union-find over dense integer ids (path-halving find).

    ``union(a, b)`` attaches ``b``'s root under ``a``'s root, so merge
    order — not hash order — decides representatives; deterministic
    inputs give deterministic classes.
    """

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the classes of ``a`` and ``b``; returns the surviving
        root (``a``'s)."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra
