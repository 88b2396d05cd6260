"""Cluster payloads: the identity of a cluster's sliced sub-program.

The paper's scalability story rests on clusters being independent work
units: "the clusters can be analyzed independently of each other ...
making the analysis embarrassingly parallel".  A cluster's *sliced
sub-program* (the paper's reduced program ``Prog_P``) is all that its
analysis depends on (Theorem 6), so its encoding is the cluster's
identity across runs, edits and machines: the summary-cache key, the
daemon's cluster-store key and the fleet's routing key.  Payloads are
built only where such a fingerprint is consumed; the processes backend
(:mod:`~repro.core.parallel`) forks workers that inherit the program and
ships no payload at all.

* :func:`cluster_subprogram` — restrict the program to the functions
  from which the cluster's slice is reachable, replacing irrelevant
  pointer assignments with skips.  Control flow, calls, returns and
  assumes are preserved, so FSCI/FSCS on the sub-program compute exactly
  what they compute on the full program restricted to the slice
  (Theorem 6; ``tests/test_parallel_diff.py`` solves every decoded
  payload to check it).
* :func:`build_payload` — one JSON-safe dict per cluster: sub-program,
  cluster, analysis knobs, in the versioned IR wire format
  (:func:`payload_program` and :func:`payload_cluster` decode it).
* :func:`payload_fingerprint` — content hash of a payload; the summary
  cache key.  Source spans are dropped from sub-programs, so edits that
  do not change a cluster's sliced sub-program (touching other
  functions, or only line numbers) keep its fingerprint — and its cached
  summary — valid.
* :func:`cluster_content_keys` — a hash over exactly what a payload
  encodes, read straight off the program and the cluster (one slicing
  rule, :func:`_reduce`, serves it and :func:`cluster_subprogram`), so
  it is equal exactly when the fingerprint is.
  :func:`cluster_fingerprints`, the one place fingerprints are made,
  remembers each key's fingerprint in a caller-owned map: a reload then
  encodes only the clusters an edit changed.
* :func:`cluster_outcome` — the canonical result of analyzing one
  cluster, identical on every backend.
"""

from __future__ import annotations

import hashlib
import json
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..analysis.fscs import ClusterFSCS
from ..ir import CallGraph, CFG, Loc, Program, Var
from ..ir.program import Function
from ..ir.serialize import (
    INLINE,
    SymbolTable,
    cluster_from_wire,
    cluster_to_wire,
    decode_symbols,
    function_to_wire,
    program_from_wire,
    program_to_wire,
    slice_to_wire,
    symbols_to_wire,
)
from ..ir.statements import AddrOf, CallStmt, ReturnStmt, Skip, Statement
from .clusters import Cluster
from .relevant import RelevantSlice

#: Bump when the payload layout or the analysis semantics behind cached
#: outcomes change; part of every fingerprint, so stale cache entries
#: simply stop matching.  Version 2 interns every symbol into a
#: per-payload table (``syms``) shipped once, with statements and
#: slices referring to symbols by index; ``base_syms`` marks the table
#: prefix shared by sibling clusters of one partition.
PAYLOAD_VERSION = 2

_SLICED = Skip("sliced")


def _base_slice(cluster: Cluster) -> RelevantSlice:
    """The slice the shared FSCI pass runs on: the parent partition's
    when present (siblings share it), else the cluster's own."""
    return cluster.parent_slice if cluster.parent_slice is not None \
        else cluster.slice


def _stmt_vars(stmt: Statement) -> Set[Var]:
    out: Set[Var] = set(stmt.used_vars())
    defined = stmt.defined_var()
    if defined is not None:
        out.add(defined)
    if isinstance(stmt, AddrOf) and isinstance(stmt.target, Var):
        out.add(stmt.target)
    return out


#: One kept function after slicing: its node statements, the variables
#: the surviving statements mention, and the program functions it calls.
_Body = Tuple[List[Statement], Set[Var], Set[str]]


def _sliced_body(program: Program, name: str,
                 relevant: AbstractSet[int]) -> _Body:
    """The slicing rule, one kept function at a time: a pointer
    assignment whose node index is not in ``relevant`` becomes
    ``Skip("sliced")``; every other statement survives and its
    variables count as used."""
    stmts: List[Statement] = []
    used: Set[Var] = set()
    callees: Set[str] = set()
    for idx, stmt in program.cfg_of(name).statements():
        if stmt.is_pointer_assign and idx not in relevant:
            stmt = _SLICED
        else:
            used |= _stmt_vars(stmt)
        if isinstance(stmt, CallStmt):
            callees.update(t for t in stmt.targets if t in program.functions)
        stmts.append(stmt)
    return stmts, used, callees


def _reduce(program: Program, cluster: Cluster, callgraph: CallGraph,
            bodies: Dict[Tuple[str, FrozenSet[int]], _Body]
            ) -> Tuple[List[Tuple[str, FrozenSet[int], List[Statement]]],
                       List[str], Set[Var]]:
    """The shape of the cluster's ``Prog_P``: each kept function (sorted)
    as ``(name, relevant node indices, sliced body)``, the stub names
    (sorted) and the globals the sub-program keeps.  ``bodies``
    memoizes :func:`_sliced_body` by ``(name, relevant indices)``."""
    base = _base_slice(cluster)
    relevant: Dict[str, Set[int]] = {}
    for loc in base.statements:
        relevant.setdefault(loc.function, set()).add(loc.index)
    keep = callgraph.ancestors_of(relevant)
    keep.add(program.entry)
    used: Set[Var] = set(base.vp) | set(cluster.members)
    kept = []
    stubs: Set[str] = set()
    for name in sorted(keep):
        rel = frozenset(relevant.get(name, ()))
        body = bodies.get((name, rel))
        if body is None:
            body = bodies[name, rel] = _sliced_body(program, name, rel)
        stmts, fn_used, callees = body
        used |= fn_used
        stubs |= callees - keep
        kept.append((name, rel, stmts))
    return kept, sorted(stubs), program.globals & used


def _stub(fn: Function) -> Function:
    """An empty, transparent stand-in for a callee that is not kept."""
    cfg = CFG(fn.name)
    cfg.exit = cfg.add_node(ReturnStmt())
    cfg.add_edge(cfg.entry, cfg.exit)
    return Function(name=fn.name, params=list(fn.params), locals=set(),
                    cfg=cfg)


def cluster_subprogram(program: Program, cluster: Cluster,
                       callgraph: Optional[CallGraph] = None) -> Program:
    """The cluster's shippable reduced program ``Prog_P``.

    Kept functions are exactly the ones the cluster's FSCI would visit on
    the full program: ancestors of the slice's functions, plus the entry.
    Within them, CFG shape is preserved node-for-node (``Loc`` indices in
    the slice stay valid), calls/returns/assumes survive, and pointer
    assignments outside the slice become skips — which is precisely how
    the sliced FSCI treats them on the full program, so the sub-program
    is observationally identical for this cluster.  Source spans are
    intentionally dropped: they do not affect analysis and would make
    fingerprints churn on unrelated edits.

    Functions a kept function calls but that are not themselves kept are
    retained as empty *stubs*.  A non-kept callee is no ancestor of a
    slice function, so nothing in its call subtree is relevant — it acts
    as the identity for the cluster.  The stub preserves exactly that:
    the summary engine sees a transparent callee (an identity disjunct at
    every multi-target call site — dropping it loses points-to facts),
    and the supergraph keeps the call's flow-through path.
    """
    kept, stubs, globals_ = _reduce(program, cluster,
                                    callgraph or CallGraph(program), {})
    functions: Dict[str, Function] = {}
    for name, _, stmts in kept:
        src = program.cfg_of(name)
        cfg = CFG(name)
        cfg.set_stmt(0, stmts[0])
        for stmt in stmts[1:]:
            cfg.add_node(stmt)
        for idx in src.nodes():
            for succ in src.successors(idx):
                cfg.add_edge(idx, succ)
        cfg.entry = src.entry
        cfg.exit = src.exit
        fn = program.functions[name]
        functions[name] = Function(name=name, params=list(fn.params),
                                   locals=set(fn.locals), cfg=cfg)
    for name in stubs:
        functions[name] = _stub(program.functions[name])
    return Program(functions, entry=program.entry, globals_=globals_)


def build_payload(program: Program, cluster: Cluster,
                  callgraph: Optional[CallGraph] = None,
                  max_cond_atoms: int = 4,
                  budget: Optional[int] = None,
                  subprogram_cache: Optional[Dict[int, Any]] = None,
                  ) -> Dict[str, Any]:
    """Everything one cluster's analysis depends on, JSON-safe.

    The payload is the interned wire format (:data:`PAYLOAD_VERSION`):
    one symbol table per payload, everything else referring to symbols
    by index.

    Sibling clusters of one partition share a base slice and hence a
    sub-program; pass one ``subprogram_cache`` dict across a batch of
    ``build_payload`` calls to serialize each sub-program and its
    symbol-table prefix only once (the cache is keyed by base-slice
    identity, so it is only valid while the cluster objects it served
    are alive).
    """
    base = _base_slice(cluster)
    config = {"max_cond_atoms": max_cond_atoms, "budget": budget}
    entry = None
    if subprogram_cache is not None:
        entry = subprogram_cache.get(id(base))
    if entry is None:
        sub = cluster_subprogram(program, cluster, callgraph)
        table = SymbolTable()
        # Intern order matters for sibling sharing: sub-program symbols
        # first, then the base slice's — every sibling then carries an
        # identical ``syms[:base_syms]`` prefix.
        sub_wire = program_to_wire(sub, table)
        base_wire = slice_to_wire(base, table)
        entry = (sub_wire, base_wire, table, len(table), len(table.fnames))
        if subprogram_cache is not None:
            subprogram_cache[id(base)] = entry
    sub_wire, base_wire, base_table, base_syms, base_fnames = entry
    table = base_table.clone()
    if cluster.parent_slice is not None:
        cluster_wire = cluster_to_wire(cluster, table, parent_wire=base_wire)
    else:
        # base is the cluster's own slice; reuse its encoding.
        cluster_wire = cluster_to_wire(cluster, table)
        cluster_wire["slice"] = base_wire
    return {
        "version": PAYLOAD_VERSION,
        "syms": table.syms,
        "fnames": table.fnames,
        "base_syms": base_syms,
        "base_fnames": base_fnames,
        "subprogram": sub_wire,
        "cluster": cluster_wire,
        "config": config,
    }


def _digest(data: Any) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cluster_content_keys(program: Program, clusters: Sequence[Cluster],
                         callgraph: Optional[CallGraph] = None,
                         max_cond_atoms: int = 4,
                         budget: Optional[int] = None) -> List[str]:
    """One content key per cluster, input order: a SHA-256 over exactly
    what :func:`build_payload` encodes, read without building a payload.

    The key covers each kept function after slicing (params, locals,
    entry/exit, statements, successors), the stubs' names and params,
    the globals used, the cluster (members, slice, parent slice, origin,
    ``parent_size``), the knobs and :data:`PAYLOAD_VERSION`, in the
    payload's own order, and shares :func:`_reduce` and the wire
    encoders with it.  Two clusters therefore share a content key
    exactly when their payloads — and so their fingerprints — are
    equal (``tests/test_shipping_keys.py``).  Function digests are
    memoized for the batch by ``(function, relevant indices)``, so
    sibling clusters and the functions many slices pass through are
    hashed once.
    """
    cg = callgraph or CallGraph(program)
    config = {"max_cond_atoms": max_cond_atoms, "budget": budget}
    bodies: Dict[Tuple[str, FrozenSet[int]], _Body] = {}
    # (name, relevant indices) -> digest; a stub's indices are None.
    digests: Dict[Tuple[str, Optional[FrozenSet[int]]], str] = {}
    bases: Dict[int, Tuple[str, Dict[str, Any]]] = {}
    keys: List[str] = []
    for cluster in clusters:
        base = _base_slice(cluster)
        entry = bases.get(id(base))
        if entry is None:
            kept, stubs, globals_ = _reduce(program, cluster, cg, bodies)
            functions = []
            for name, rel, stmts in kept:
                digest = digests.get((name, rel))
                if digest is None:
                    digest = digests[name, rel] = _digest(function_to_wire(
                        program.functions[name], INLINE, stmts))
                functions.append((name, digest))
            for name in stubs:
                digest = digests.get((name, None))
                if digest is None:
                    digest = digests[name, None] = _digest(function_to_wire(
                        _stub(program.functions[name]), INLINE))
                functions.append((name, digest))
            sub = _digest([program.entry, functions,
                           symbols_to_wire(globals_, INLINE)])
            entry = bases[id(base)] = (sub, slice_to_wire(base, INLINE))
        sub, base_wire = entry
        wire = cluster_to_wire(cluster, INLINE, parent_wire=base_wire)
        keys.append(_digest([PAYLOAD_VERSION, config, sub, wire]))
    return keys


def cluster_fingerprints(program: Program, clusters: Sequence[Cluster],
                         callgraph: Optional[CallGraph] = None,
                         max_cond_atoms: int = 4,
                         budget: Optional[int] = None,
                         known: Optional[Any] = None,
                         encoded: Optional[List[int]] = None,
                         ) -> List[str]:
    """Payload fingerprints for a batch of clusters, input order — the
    one place fingerprints are made.

    Without ``known`` every cluster's payload is built (one shared
    ``subprogram_cache`` across the batch, so sibling clusters serialize
    their sub-program once) and hashed.  ``known`` maps content keys
    (:func:`cluster_content_keys`) to fingerprints — a ``dict``, or
    anything with ``get`` and item assignment: a cluster whose key it
    holds takes the remembered fingerprint and builds nothing; only the
    others are encoded.  Every cluster's key is then recorded in it.
    The input index of every cluster whose payload was built is
    appended to ``encoded``.

    The fingerprints are byte-identical either way, which makes them
    valid shard keys: the fleet coordinator routes by them without
    paying for any cluster's actual FSCS analysis, and the keys agree
    with the summary-cache identity every worker caches under.
    """
    cg = callgraph or CallGraph(program)
    cache: Dict[int, Any] = {}
    keys: Sequence[Optional[str]] = [None] * len(clusters)
    if known is not None:
        keys = cluster_content_keys(program, clusters, cg,
                                    max_cond_atoms=max_cond_atoms,
                                    budget=budget)
    fingerprints: List[str] = []
    for i, (cluster, key) in enumerate(zip(clusters, keys)):
        fp = known.get(key) if known is not None else None
        if fp is None:
            payload = build_payload(program, cluster, cg,
                                    max_cond_atoms=max_cond_atoms,
                                    budget=budget, subprogram_cache=cache)
            fp = payload_fingerprint(payload)
            if encoded is not None:
                encoded.append(i)
        if known is not None:
            known[key] = fp
        fingerprints.append(fp)
    return fingerprints


def payload_fingerprint(payload: Dict[str, Any]) -> str:
    """Content hash of a payload — the summary-cache key.

    Two clusters (across runs, across edited sources) share a
    fingerprint iff their sliced sub-programs, members, slices and
    analysis knobs are identical, which is exactly when their cached
    outcomes are interchangeable.
    """
    return _digest(payload)


def payload_program(payload: Dict[str, Any]) -> Program:
    """Decode a payload's sub-program."""
    fnames = payload["fnames"]
    return program_from_wire(payload["subprogram"],
                             decode_symbols(payload["syms"], fnames),
                             fnames)


def payload_cluster(payload: Dict[str, Any]) -> Cluster:
    """Decode a payload's cluster."""
    fnames = payload["fnames"]
    return cluster_from_wire(payload["cluster"],
                             decode_symbols(payload["syms"], fnames),
                             fnames)


def cluster_outcome(analysis: ClusterFSCS) -> Dict[str, Any]:
    """The canonical, picklable result of analyzing one cluster.

    ``stats`` is the summary-construction accounting
    (:meth:`ClusterFSCS.analyze`); ``points_to`` maps every cluster
    pointer to its sorted points-to set at the end of the program entry —
    the observable the differential suite compares bit-for-bit across
    backends.
    """
    stats = analysis.analyze()
    program = analysis.program
    exit_loc = Loc(program.entry, program.cfg_of(program.entry).exit)
    points_to: Dict[str, List[str]] = {}
    for p in sorted(analysis.cluster, key=str):
        objs = analysis.points_to(p, exit_loc)
        points_to[str(p)] = sorted(str(o) for o in objs)
    return {"stats": stats, "points_to": points_to}
