"""Cluster identity: the content key of a cluster's sliced sub-program.

The paper's scalability story rests on clusters being independent work
units: "the clusters can be analyzed independently of each other ...
making the analysis embarrassingly parallel".  A cluster's *sliced
sub-program* (the paper's reduced program ``Prog_P``) is all that its
analysis depends on (Theorem 6), so one hash of it names the cluster
across runs, edits and machines: the summary-cache key, the daemon's
cluster-store key, the fleet's routing key and what fault selectors
match.  Nothing is shipped: the processes backend
(:mod:`~repro.core.parallel`) forks workers that inherit the program.

* :func:`cluster_subprogram` — restrict the program to the functions
  from which the cluster's slice is reachable, replacing irrelevant
  pointer assignments with skips.  Control flow, calls, returns and
  assumes are preserved, so FSCI/FSCS on the sub-program compute exactly
  what they compute on the full program restricted to the slice
  (Theorem 6; ``tests/test_parallel_diff.py`` solves every cluster's
  sub-program to check it).
* :func:`build_payload` — the cluster's identity record: the version,
  the analysis knobs, a digest of the sub-program and the cluster's
  wire encoding, read straight off the program and the cluster (one
  slicing rule, :func:`_reduce`, serves it and
  :func:`cluster_subprogram`).
* :func:`payload_fingerprint` — the record's hash, the content key.
  Source spans are not part of it, so edits that do not change a
  cluster's sliced sub-program (touching other functions, or only line
  numbers) keep its fingerprint — and its cached summary — valid.
  :func:`cluster_fingerprints` makes them for a batch.
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
    cluster_to_wire,
    function_to_wire,
    slice_to_wire,
    symbols_to_wire,
)
from ..ir.statements import AddrOf, CallStmt, ReturnStmt, Skip, Statement
from .clusters import Cluster
from .relevant import RelevantSlice

#: Bump when the identity record's layout or the analysis semantics
#: behind cached outcomes change; part of every fingerprint, so stale
#: cache entries simply stop matching.  Version 3 is the record of
#: :func:`build_payload`.
PAYLOAD_VERSION = 3

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
    """The cluster's reduced program ``Prog_P``.

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
                  subprogram_cache: Optional[Dict[str, Any]] = None,
                  ) -> List[Any]:
    """The cluster's identity record, JSON-safe:
    ``[PAYLOAD_VERSION, config, sub-program digest, cluster wire]``.

    The sub-program digest covers the entry, each kept function after
    slicing (params, locals, entry/exit, statements, successors), the
    stubs' names and params and the globals used, each function by its
    own digest; the cluster wire covers members, slice, parent slice,
    origin and ``parent_size``; ``config`` holds the knobs.  These are
    exactly the inputs of the cluster's analysis (Theorem 6), so equal
    records give equal outcomes (``tests/test_shipping_keys.py``).

    ``subprogram_cache`` is the batch memo: pass one dict across a batch
    of calls and sliced bodies, function digests and each base slice's
    sub-program digest are computed once — sibling clusters share a
    base slice, and many slices pass through the same functions.  Base
    entries are keyed by base-slice identity, so the memo is only valid
    while the cluster objects it served are alive.
    """
    memo = subprogram_cache if subprogram_cache is not None else {}
    bodies = memo.setdefault("bodies", {})
    # (name, relevant indices) -> digest; a stub's indices are None.
    digests: Dict[Tuple[str, Optional[FrozenSet[int]]], str] = \
        memo.setdefault("digests", {})
    bases: Dict[int, Tuple[str, Dict[str, Any]]] = \
        memo.setdefault("bases", {})
    base = _base_slice(cluster)
    entry = bases.get(id(base))
    if entry is None:
        kept, stubs, globals_ = _reduce(program, cluster,
                                        callgraph or CallGraph(program),
                                        bodies)
        functions = []
        for name, rel, stmts in kept:
            digest = digests.get((name, rel))
            if digest is None:
                digest = digests[name, rel] = _digest(function_to_wire(
                    program.functions[name], stmts))
            functions.append((name, digest))
        for name in stubs:
            digest = digests.get((name, None))
            if digest is None:
                digest = digests[name, None] = _digest(function_to_wire(
                    _stub(program.functions[name])))
            functions.append((name, digest))
        sub = _digest([program.entry, functions, symbols_to_wire(globals_)])
        entry = bases[id(base)] = (sub, slice_to_wire(base))
    sub, base_wire = entry
    config = {"max_cond_atoms": max_cond_atoms, "budget": budget}
    return [PAYLOAD_VERSION, config, sub,
            cluster_to_wire(cluster, parent_wire=base_wire)]


def _digest(data: Any) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def payload_fingerprint(payload: List[Any]) -> str:
    """Content hash of an identity record (:func:`build_payload`) — the
    cluster's key in the summary cache, the daemon's store, fleet
    routing and fault selectors.

    Two clusters (across runs, across edited sources) share a
    fingerprint iff their sliced sub-programs, members, slices and
    analysis knobs are identical, which is exactly when their cached
    outcomes are interchangeable.
    """
    return _digest(payload)


def cluster_fingerprints(program: Program, clusters: Sequence[Cluster],
                         callgraph: Optional[CallGraph] = None,
                         max_cond_atoms: int = 4,
                         budget: Optional[int] = None) -> List[str]:
    """Fingerprints for a batch of clusters, input order — the one place
    fingerprints are made: one identity record per cluster through one
    shared batch memo, each hashed.

    The fingerprints depend on nothing but the clusters' content, which
    makes them valid shard keys: the fleet coordinator routes by them
    without paying for any cluster's actual FSCS analysis, and the keys
    agree with the summary-cache identity every worker caches under.
    """
    cg = callgraph or CallGraph(program)
    memo: Dict[str, Any] = {}
    # Both calls go through this module's globals, so a wrapper bound
    # to either name (perfbench's ``shipping`` layer) sees every call.
    return [payload_fingerprint(build_payload(
        program, cluster, cg, max_cond_atoms=max_cond_atoms,
        budget=budget, subprogram_cache=memo)) for cluster in clusters]


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
