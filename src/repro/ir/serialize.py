"""JSON (de)serialization of IR programs, and the wire encoding of the
cascade's work units.

Two encodings share one statement codec, so they cannot drift apart:

* the *plain* dict encoding gives whole programs a stable, comparable,
  versioned form that round-trips exactly (the benchmark digests its
  inputs with it):

      data = program_to_dict(prog)
      prog2 = program_from_dict(data)
      assert format_program(prog) == format_program(prog2)

* the *wire* encoding (:func:`function_to_wire`, :func:`slice_to_wire`,
  :func:`cluster_to_wire`) describes the content of a cluster's work
  unit — its sliced functions, its Algorithm 1 slices, members, origin
  and parent provenance — for the content key that names the cluster
  in the summary cache, the daemon's store and the fleet's routing
  (see :mod:`repro.core.shipping`).  It is one-way: nothing decodes it.
  All collection fields are emitted in a canonical sorted order, so
  equal values serialize to byte-identical JSON whatever the hash seed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from .cfg import CFG, Span
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
    ``obj`` map a Var / MemObject to its encoded form (a keyed dict in
    the plain format, :func:`_sym`'s compact form on the wire)."""
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


def _stmt(stmt: Statement) -> Dict[str, Any]:
    return _stmt_to(stmt, _var, _obj)


def _load_stmt(d: Dict[str, Any]) -> Statement:
    """Inverse of :func:`_stmt`."""
    kind = d["k"]
    if kind == "copy":
        return Copy(_load_var(d["l"]), _load_var(d["r"]))
    if kind == "addr":
        return AddrOf(_load_var(d["l"]), _load_obj(d["t"]))
    if kind == "load":
        return Load(_load_var(d["l"]), _load_var(d["r"]))
    if kind == "store":
        return Store(_load_var(d["l"]), _load_var(d["r"]))
    if kind == "null":
        return NullAssign(_load_var(d["l"]), reason=d.get("reason", "null"))
    if kind == "assume":
        rhs = _load_var(d["r"]) if d.get("r") is not None else None
        return Assume(_load_var(d["l"]), rhs, d["eq"])
    if kind == "call":
        fp = d.get("fp")
        stmt = CallStmt(callee=d.get("callee"),
                        fp=_load_var(fp) if fp is not None else None)
        object.__setattr__(stmt, "targets", tuple(d.get("targets", ())))
        return stmt
    if kind == "extern":
        return ExternCall(
            d["name"],
            tuple(_load_var(a) for a in d.get("args", ())),
            _load_var(d["res"]) if d.get("res") is not None else None)
    if kind == "return":
        return ReturnStmt()
    if kind == "skip":
        return Skip(d.get("note", ""))
    raise ValueError(f"unknown statement kind {kind!r}")


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
# wire encoding (the cluster identity's content)
# ----------------------------------------------------------------------

def _mem_key(o: MemObject) -> tuple:
    """Canonical sort key for a MemObject: equal collections encode in
    one order, whatever their set-iteration order."""
    if isinstance(o, AllocSite):
        return (1, o.label, "")
    return (0, o.name, o.function or "")


def _sym(obj: MemObject) -> Any:
    """A symbol's wire form: an ``AllocSite`` as its bare label string,
    a ``Var`` as ``[name]`` (global) or ``[name, function]`` — the
    string/list split is the type tag."""
    if isinstance(obj, AllocSite):
        return obj.label
    if obj.function is None:
        return [obj.name]
    return [obj.name, obj.function]


def symbols_to_wire(objs: Iterable[MemObject]) -> List[Any]:
    """A symbol collection in canonical order."""
    return [_sym(o) for o in sorted(objs, key=_mem_key)]


# Wire statements are arrays ``[kind_code, ...operands]`` rather than
# keyed dicts, packed from the exact dicts the shared statement codec
# produces, so the two encodings cannot drift.
_WIRE_CODE = {k: i for i, k in enumerate(
    ("copy", "addr", "load", "store", "null", "assume", "call", "extern",
     "return", "skip"))}
#: The overwhelmingly common Skip note in sliced sub-programs; packed
#: as a bare ``[code]``.
_SLICED_NOTE = "sliced"


def _pack_stmt(d: Dict[str, Any]) -> List[Any]:
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
        return [code, d["callee"], d["fp"], d["targets"]]
    if kind == "extern":
        return [code, d["name"], d["args"], d["res"]]
    if kind == "return":
        return [code]
    note = d.get("note", "")
    return [code] if note == _SLICED_NOTE else [code, note]


def function_to_wire(fn: Function,
                     stmts: Optional[Sequence[Statement]] = None
                     ) -> Dict[str, Any]:
    """One function's wire encoding: params, locals, entry/exit, packed
    statements and successors.  ``stmts`` stands in for the CFG's node
    statements (a sliced body over the same CFG shape), so a function
    can be encoded as its slice keeps it without first being rebuilt.
    Spans are not part of it."""
    cfg = fn.cfg
    if stmts is None:
        stmts = [cfg.stmt(i) for i in cfg.nodes()]
    return {
        "params": [_sym(p) for p in fn.params],
        "locals": symbols_to_wire(fn.locals),
        "entry": cfg.entry,
        "exit": cfg.exit,
        "stmts": [_pack_stmt(_stmt_to(stmt, _sym, _sym)) for stmt in stmts],
        "succs": [list(cfg.successors(i)) for i in cfg.nodes()],
    }


def slice_to_wire(slice_: "RelevantSlice") -> Dict[str, Any]:
    """A JSON-safe encoding of one Algorithm 1 slice, canonically
    sorted."""
    return {
        "cluster": symbols_to_wire(slice_.cluster),
        "vp": symbols_to_wire(slice_.vp),
        "stmts": sorted([loc.function, loc.index]
                        for loc in slice_.statements),
    }


def cluster_to_wire(cluster: "Cluster",
                    parent_wire: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """A JSON-safe encoding of one cascade cluster, parent provenance
    included (siblings share one FSCI over the parent slice, so it is
    part of what each one's analysis depends on).  ``parent_wire`` lets
    the caller reuse an already-encoded parent slice."""
    out: Dict[str, Any] = {
        "members": symbols_to_wire(cluster.members),
        "slice": slice_to_wire(cluster.slice),
        "origin": cluster.origin,
        "parent_size": cluster.parent_size,
    }
    if cluster.parent_slice is not None:
        out["parent_slice"] = (parent_wire if parent_wire is not None
                               else slice_to_wire(cluster.parent_slice))
    return out
