"""JSON (de)serialization of IR programs, clusters and slices.

The plain encoding gives whole programs a stable, comparable form (the
benchmark digests its inputs with it); the wire encoding describes the
cascade's work units for the summary cache, the daemon's store and the
fleet's routing.  The format is versioned and round-trips exactly:

    data = program_to_dict(prog)
    prog2 = program_from_dict(data)
    assert format_program(prog) == format_program(prog2)

Two encodings exist:

* the *plain* dict encoding above, where every ``Var``/``AllocSite``
  appears as an inline ``{"n", "f"}`` / ``{"alloc"}`` dict — verbose but
  self-contained;
* the *wire* encoding (:class:`SymbolTable`, :func:`program_to_wire`,
  :func:`slice_to_wire`, :func:`cluster_to_wire` and their inverses),
  where each distinct symbol is emitted once in a shared table and every
  occurrence is an integer index.  It round-trips the cascade's work
  units — Algorithm 1 slices and :class:`~repro.core.clusters.Cluster`
  (members, slice, origin, parent provenance) as one self-contained
  payload per cluster (see :mod:`repro.core.shipping`).  Cluster
  payloads repeat the same symbols dozens of times, so interning them
  once per payload is what keeps them small.  All collection fields are emitted in a canonical
  sorted order, so equal values serialize to byte-identical JSON — the
  summary cache hashes these payloads.  The same encoders run over
  :data:`INLINE` in place of a table to describe a payload's content
  without interning it (the shipping layer's content keys).

Both encodings share one statement codec, so they cannot drift apart.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from .cfg import CFG, Loc, Span
from .program import Function, Program
from .statements import (
    AddrOf,
    AllocSite,
    Assume,
    CallStmt,
    Copy,
    ExternCall,
    Load,
    MemObject,
    NullAssign,
    ReturnStmt,
    Skip,
    Statement,
    Store,
    Var,
)

#: Version 2 added optional source spans and the NullAssign reason tag;
#: version 3 added ExternCall (library-call) statements.  Older dumps
#: (no spans / no extern calls) still load.
FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)


def _var(v: Var) -> Dict[str, Any]:
    return {"n": v.name, "f": v.function}


def _obj(o: MemObject) -> Dict[str, Any]:
    if isinstance(o, AllocSite):
        return {"alloc": o.label}
    return _var(o)


def _load_var(d: Dict[str, Any]) -> Var:
    return Var(d["n"], d.get("f"))


def _load_obj(d: Dict[str, Any]) -> MemObject:
    if "alloc" in d:
        return AllocSite(d["alloc"])
    return _load_var(d)


def _stmt_to(stmt: Statement, var: Any, obj: Any) -> Dict[str, Any]:
    """Statement encoder, parameterized over the symbol codec: ``var`` /
    ``obj`` map a Var / MemObject to its wire form (inline dict for the
    plain format, table index for the interned format)."""
    if isinstance(stmt, Copy):
        return {"k": "copy", "l": var(stmt.lhs), "r": var(stmt.rhs)}
    if isinstance(stmt, AddrOf):
        return {"k": "addr", "l": var(stmt.lhs), "t": obj(stmt.target)}
    if isinstance(stmt, Load):
        return {"k": "load", "l": var(stmt.lhs), "r": var(stmt.rhs)}
    if isinstance(stmt, Store):
        return {"k": "store", "l": var(stmt.lhs), "r": var(stmt.rhs)}
    if isinstance(stmt, NullAssign):
        out: Dict[str, Any] = {"k": "null", "l": var(stmt.lhs)}
        if stmt.reason != "null":
            out["reason"] = stmt.reason
        return out
    if isinstance(stmt, Assume):
        return {"k": "assume", "l": var(stmt.lhs),
                "r": var(stmt.rhs) if stmt.rhs is not None else None,
                "eq": stmt.equal}
    if isinstance(stmt, CallStmt):
        return {"k": "call", "callee": stmt.callee,
                "fp": var(stmt.fp) if stmt.fp is not None else None,
                "targets": list(stmt.targets)}
    if isinstance(stmt, ExternCall):
        return {"k": "extern", "name": stmt.name,
                "args": [var(a) for a in stmt.args],
                "res": var(stmt.result) if stmt.result is not None
                else None}
    if isinstance(stmt, ReturnStmt):
        return {"k": "return"}
    if isinstance(stmt, Skip):
        return {"k": "skip", "note": stmt.note}
    raise TypeError(f"unserializable statement {type(stmt).__name__}")


def _stmt_from(d: Dict[str, Any], var: Any, obj: Any) -> Statement:
    """Statement decoder, inverse of :func:`_stmt_to` under the matching
    symbol codec."""
    kind = d["k"]
    if kind == "copy":
        return Copy(var(d["l"]), var(d["r"]))
    if kind == "addr":
        return AddrOf(var(d["l"]), obj(d["t"]))
    if kind == "load":
        return Load(var(d["l"]), var(d["r"]))
    if kind == "store":
        return Store(var(d["l"]), var(d["r"]))
    if kind == "null":
        return NullAssign(var(d["l"]), reason=d.get("reason", "null"))
    if kind == "assume":
        rhs = var(d["r"]) if d.get("r") is not None else None
        return Assume(var(d["l"]), rhs, d["eq"])
    if kind == "call":
        stmt = CallStmt(callee=d.get("callee"),
                        fp=var(d["fp"]) if d.get("fp") is not None else None)
        object.__setattr__(stmt, "targets", tuple(d.get("targets", ())))
        return stmt
    if kind == "extern":
        return ExternCall(
            d["name"],
            tuple(var(a) for a in d.get("args", ())),
            var(d["res"]) if d.get("res") is not None else None)
    if kind == "return":
        return ReturnStmt()
    if kind == "skip":
        return Skip(d.get("note", ""))
    raise ValueError(f"unknown statement kind {kind!r}")


def _stmt(stmt: Statement) -> Dict[str, Any]:
    return _stmt_to(stmt, _var, _obj)


def _load_stmt(d: Dict[str, Any]) -> Statement:
    return _stmt_from(d, _load_var, _load_obj)


def _span(span: Optional[Span]) -> Optional[List[Any]]:
    if span is None:
        return None
    return [span.line, span.column, span.end_line, span.end_column]


def _load_span(data: Optional[List[Any]]) -> Optional[Span]:
    if data is None:
        return None
    return Span(data[0], data[1], data[2], data[3])


def program_to_dict(program: Program) -> Dict[str, Any]:
    """A JSON-safe dict capturing the whole program."""
    functions: Dict[str, Any] = {}
    for name, fn in program.functions.items():
        cfg = fn.cfg
        functions[name] = {
            "params": [_var(p) for p in fn.params],
            "locals": sorted((_var(v) for v in fn.locals),
                             key=lambda d: (d["n"], d["f"] or "")),
            "entry": cfg.entry,
            "exit": cfg.exit,
            "stmts": [_stmt(cfg.stmt(i)) for i in cfg.nodes()],
            "succs": [list(cfg.successors(i)) for i in cfg.nodes()],
        }
        spans = [_span(cfg.span(i)) for i in cfg.nodes()]
        if any(s is not None for s in spans):
            functions[name]["spans"] = spans
    return {
        "version": FORMAT_VERSION,
        "entry": program.entry,
        "globals": sorted((_var(g) for g in program.globals),
                          key=lambda d: d["n"]),
        "functions": functions,
    }


def program_from_dict(data: Dict[str, Any]) -> Program:
    """Inverse of :func:`program_to_dict`."""
    if data.get("version") not in _READABLE_VERSIONS:
        raise ValueError(f"unsupported IR format version "
                         f"{data.get('version')!r}")
    functions: Dict[str, Function] = {}
    for name, fd in data["functions"].items():
        cfg = CFG(name)
        # Node 0 (the entry Skip) was created by the constructor; replace
        # its statement and append the rest.
        stmts = [_load_stmt(s) for s in fd["stmts"]]
        cfg.set_stmt(0, stmts[0])
        for stmt in stmts[1:]:
            cfg.add_node(stmt)
        for src, succs in enumerate(fd["succs"]):
            for dst in succs:
                cfg.add_edge(src, dst)
        for idx, span_data in enumerate(fd.get("spans", ())):
            cfg.set_span(idx, _load_span(span_data))
        cfg.entry = fd["entry"]
        cfg.exit = fd["exit"]
        fn = Function(name=name,
                      params=[_load_var(p) for p in fd["params"]],
                      locals={_load_var(v) for v in fd["locals"]},
                      cfg=cfg)
        functions[name] = fn
    return Program(functions, entry=data["entry"],
                   globals_={_load_var(g) for g in data["globals"]})


# ----------------------------------------------------------------------
# interned wire encoding (symbols shipped once, referenced by index)
# ----------------------------------------------------------------------

def _mem_key(o: MemObject) -> tuple:
    """Canonical sort key for a MemObject: equal collections encode in
    one order, whatever their set-iteration order."""
    if isinstance(o, AllocSite):
        return (1, o.label, "")
    return (0, o.name, o.function or "")


class SymbolTable:
    """Interns ``Var``/``AllocSite`` symbols and function names to dense
    wire indices.

    ``syms`` is the JSON-safe symbol table shipped alongside the wire
    dicts: an ``AllocSite`` encodes as its bare label string, a ``Var``
    as ``[name]`` (global) or ``[name, fn_index]`` — the string/list
    split is the type tag.  ``fnames`` is the parallel function-name
    table; variables' owning functions, call targets and slice locations
    all refer into it, so a function's name crosses the wire once no
    matter how many statements mention it.  Indices are assigned in
    first-reference order, so encoding the same values in the same order
    yields byte-identical tables regardless of hash seed.
    """

    __slots__ = ("_ids", "syms", "_fn_ids", "fnames")

    def __init__(self) -> None:
        self._ids: Dict[MemObject, int] = {}
        self.syms: List[Any] = []
        self._fn_ids: Dict[str, int] = {}
        self.fnames: List[str] = []

    def __len__(self) -> int:
        return len(self.syms)

    def ref(self, obj: MemObject) -> int:
        """The wire index of ``obj``, interning it on first use."""
        idx = self._ids.get(obj)
        if idx is None:
            idx = len(self.syms)
            self._ids[obj] = idx
            if isinstance(obj, AllocSite):
                self.syms.append(obj.label)
            elif obj.function is None:
                self.syms.append([obj.name])
            else:
                self.syms.append([obj.name, self.fref(obj.function)])
        return idx

    def fref(self, name: str) -> int:
        """The wire index of function name ``name``."""
        idx = self._fn_ids.get(name)
        if idx is None:
            idx = len(self.fnames)
            self._fn_ids[name] = idx
            self.fnames.append(name)
        return idx

    def clone(self) -> "SymbolTable":
        """An independent copy — per-payload tails must not leak between
        sibling clusters sharing one base table."""
        out = SymbolTable()
        out._ids = dict(self._ids)
        out.syms = list(self.syms)
        out._fn_ids = dict(self._fn_ids)
        out.fnames = list(self.fnames)
        return out


class InlineSymbols:
    """The symbol codec of :class:`SymbolTable` without the table: a
    symbol encodes as the entry :attr:`SymbolTable.syms` would hold for
    it, with its function named instead of indexed, and a function name
    as itself.  Wire dicts built with it have the interned encoding's
    structure, values and order, minus the indices, so they describe a
    payload's content without the cost of building one (see
    :func:`~repro.core.shipping.cluster_content_keys`)."""

    __slots__ = ()

    def ref(self, obj: MemObject) -> Any:
        if isinstance(obj, AllocSite):
            return obj.label
        if obj.function is None:
            return [obj.name]
        return [obj.name, obj.function]

    def fref(self, name: str) -> str:
        return name


#: The shared stateless instance.
INLINE = InlineSymbols()

#: What the wire encoders take as ``table``.
SymbolCodec = Union[SymbolTable, InlineSymbols]


def symbols_to_wire(objs: Iterable[MemObject],
                    table: SymbolCodec) -> List[Any]:
    """A symbol collection in canonical order, each symbol through
    ``table`` (a :class:`SymbolTable` or :data:`INLINE`)."""
    return [table.ref(o) for o in sorted(objs, key=_mem_key)]


def decode_symbols(syms: List[Any], fnames: List[str]) -> List[MemObject]:
    """Materialize a shipped symbol table back into objects."""
    out: List[MemObject] = []
    for s in syms:
        if isinstance(s, str):
            out.append(AllocSite(s))
        elif len(s) == 1:
            out.append(Var(s[0], None))
        else:
            out.append(Var(s[0], fnames[s[1]]))
    return out


# Wire statements are arrays ``[kind_code, ...operands]`` rather than
# keyed dicts: a sliced sub-program is mostly Skip("sliced") markers and
# call sites, so per-statement key strings would dominate the shipped
# bytes.  The arrays are packed from / unpacked to the exact dicts the
# shared statement codec produces, so the two layers cannot drift.
_WIRE_KINDS = ("copy", "addr", "load", "store", "null", "assume", "call",
               "extern", "return", "skip")
_WIRE_CODE = {k: i for i, k in enumerate(_WIRE_KINDS)}
#: The overwhelmingly common Skip note in shipped sub-programs; packed
#: as a bare ``[code]``.
_SLICED_NOTE = "sliced"


def _pack_stmt(d: Dict[str, Any], fref: Any) -> List[Any]:
    kind = d["k"]
    code = _WIRE_CODE[kind]
    if kind in ("copy", "load", "store"):
        return [code, d["l"], d["r"]]
    if kind == "addr":
        return [code, d["l"], d["t"]]
    if kind == "null":
        reason = d.get("reason", "null")
        return [code, d["l"]] if reason == "null" else [code, d["l"], reason]
    if kind == "assume":
        return [code, d["l"], d["r"], 1 if d["eq"] else 0]
    if kind == "call":
        callee = d["callee"]
        return [code, fref(callee) if callee is not None else None,
                d["fp"], [fref(t) for t in d["targets"]]]
    if kind == "extern":
        return [code, d["name"], d["args"], d["res"]]
    if kind == "return":
        return [code]
    note = d.get("note", "")
    return [code] if note == _SLICED_NOTE else [code, note]


def _unpack_stmt(a: List[Any], fnames: List[str]) -> Dict[str, Any]:
    kind = _WIRE_KINDS[a[0]]
    if kind in ("copy", "load", "store"):
        return {"k": kind, "l": a[1], "r": a[2]}
    if kind == "addr":
        return {"k": kind, "l": a[1], "t": a[2]}
    if kind == "null":
        out: Dict[str, Any] = {"k": kind, "l": a[1]}
        if len(a) > 2:
            out["reason"] = a[2]
        return out
    if kind == "assume":
        return {"k": kind, "l": a[1], "r": a[2], "eq": bool(a[3])}
    if kind == "call":
        return {"k": kind,
                "callee": fnames[a[1]] if a[1] is not None else None,
                "fp": a[2], "targets": [fnames[t] for t in a[3]]}
    if kind == "extern":
        return {"k": kind, "name": a[1], "args": a[2], "res": a[3]}
    if kind == "return":
        return {"k": kind}
    return {"k": kind, "note": a[1] if len(a) > 1 else _SLICED_NOTE}


def function_to_wire(fn: Function, table: SymbolCodec,
                     stmts: Optional[Sequence[Statement]] = None
                     ) -> Dict[str, Any]:
    """One function of :func:`program_to_wire`.  ``stmts`` stands in for
    the CFG's node statements (a sliced body over the same CFG shape),
    so a function can be encoded as it would ship without first being
    rebuilt."""
    ref = table.ref
    cfg = fn.cfg
    if stmts is None:
        stmts = [cfg.stmt(i) for i in cfg.nodes()]
    return {
        "params": [ref(p) for p in fn.params],
        "locals": symbols_to_wire(fn.locals, table),
        "entry": cfg.entry,
        "exit": cfg.exit,
        "stmts": [_pack_stmt(_stmt_to(stmt, ref, ref), table.fref)
                  for stmt in stmts],
        "succs": [list(cfg.successors(i)) for i in cfg.nodes()],
    }


def program_to_wire(program: Program, table: SymbolTable) -> Dict[str, Any]:
    """Like :func:`program_to_dict` with every symbol replaced by its
    table index.  Structure (and therefore the decoder's traversal) is
    otherwise identical; collections keep the plain format's canonical
    symbol order."""
    functions = {name: function_to_wire(fn, table)
                 for name, fn in program.functions.items()}
    return {
        "entry": program.entry,
        "globals": symbols_to_wire(program.globals, table),
        "functions": functions,
    }


def program_from_wire(data: Dict[str, Any], objs: List[MemObject],
                      fnames: List[str]) -> Program:
    """Inverse of :func:`program_to_wire` given the decoded symbol list
    and the function-name table.

    Spans are not part of the wire format: shipped sub-programs drop
    them on purpose (fingerprint stability), so nothing is lost.
    """
    sym = objs.__getitem__
    functions: Dict[str, Function] = {}
    for name, fd in data["functions"].items():
        cfg = CFG(name)
        stmts = [_stmt_from(_unpack_stmt(s, fnames), sym, sym)
                 for s in fd["stmts"]]
        cfg.set_stmt(0, stmts[0])
        for stmt in stmts[1:]:
            cfg.add_node(stmt)
        for src, succs in enumerate(fd["succs"]):
            for dst in succs:
                cfg.add_edge(src, dst)
        cfg.entry = fd["entry"]
        cfg.exit = fd["exit"]
        functions[name] = Function(
            name=name,
            params=[objs[i] for i in fd["params"]],
            locals={objs[i] for i in fd["locals"]},
            cfg=cfg)
    return Program(functions, entry=data["entry"],
                   globals_={objs[i] for i in data["globals"]})


def slice_to_wire(slice_: "RelevantSlice",
                  table: SymbolCodec) -> Dict[str, Any]:
    """A JSON-safe encoding of one Algorithm 1 slice (canonically
    sorted), its symbols interned into ``table`` (or inlined, with
    :data:`INLINE`)."""
    return {
        "cluster": symbols_to_wire(slice_.cluster, table),
        "vp": symbols_to_wire(slice_.vp, table),
        "stmts": [[table.fref(fn), idx] for fn, idx in
                  sorted((loc.function, loc.index)
                         for loc in slice_.statements)],
    }


def slice_from_wire(data: Dict[str, Any], objs: List[MemObject],
                    fnames: List[str]) -> "RelevantSlice":
    """Inverse of :func:`slice_to_wire`."""
    from ..core.relevant import RelevantSlice
    return RelevantSlice(
        cluster=frozenset(objs[i] for i in data["cluster"]),
        vp=frozenset(objs[i] for i in data["vp"]),
        statements=frozenset(Loc(fnames[d[0]], d[1])
                             for d in data["stmts"]))


def cluster_to_wire(cluster: "Cluster", table: SymbolCodec,
                    parent_wire: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """A JSON-safe encoding of one cascade cluster, parent provenance
    included (the process backend reconstructs the exact sibling-shared
    FSCI setup from it).  ``parent_wire`` lets the caller reuse an
    already-encoded parent slice (sibling clusters ship one shared
    encoding)."""
    out: Dict[str, Any] = {
        "members": symbols_to_wire(cluster.members, table),
        "slice": slice_to_wire(cluster.slice, table),
        "origin": cluster.origin,
        "parent_size": cluster.parent_size,
    }
    if cluster.parent_slice is not None:
        out["parent_slice"] = (parent_wire if parent_wire is not None
                               else slice_to_wire(cluster.parent_slice, table))
    return out


def cluster_from_wire(data: Dict[str, Any], objs: List[MemObject],
                      fnames: List[str]) -> "Cluster":
    """Inverse of :func:`cluster_to_wire`."""
    from ..core.clusters import Cluster
    parent = data.get("parent_slice")
    return Cluster(
        members=frozenset(objs[i] for i in data["members"]),
        slice=slice_from_wire(data["slice"], objs, fnames),
        origin=data["origin"],
        parent_size=data["parent_size"],
        parent_slice=(slice_from_wire(parent, objs, fnames)
                      if parent is not None else None))
