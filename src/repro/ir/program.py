"""Whole-program IR: functions, variables and abstract objects.

The :class:`Program` is the unit every analysis consumes.  It owns

* one :class:`Function` (with CFG) per source function,
* the set of global variables,
* derived indexes: all pointer-relevant variables, all allocation sites,
  and per-variable definition/use site maps.

Parameter and return-value plumbing follows the convention set by the
normalizer: calling ``g(a)`` emits ``g::$param0 = a`` before the call and
``x = g::$retval`` after it, with matching :class:`~.statements.Copy`
statements, so interprocedural pointer flow is entirely made of canonical
assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .cfg import CFG, Loc, Span
from .statements import (
    AddrOf,
    AllocSite,
    CallStmt,
    MemObject,
    Statement,
    Var,
)

PARAM_PREFIX = "$param"
RETVAL_NAME = "$retval"


def param_var(function: str, index: int) -> Var:
    """The conduit variable for ``function``'s ``index``-th parameter."""
    return Var(f"{PARAM_PREFIX}{index}", function)


def retval_var(function: str) -> Var:
    """The conduit variable carrying ``function``'s return value."""
    return Var(RETVAL_NAME, function)


@dataclass
class Function:
    """A function: its parameters (conduit vars), locals and CFG."""

    name: str
    params: List[Var] = field(default_factory=list)
    locals: Set[Var] = field(default_factory=set)
    cfg: CFG = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.cfg is None:
            self.cfg = CFG(self.name)

    @property
    def retval(self) -> Var:
        return retval_var(self.name)

    def variables(self) -> Set[Var]:
        return set(self.params) | self.locals | {self.retval}


class Program:
    """A whole program plus derived, cached indexes.

    Mutating the IR after index access is not supported; build fully, then
    analyze.  ``entry`` defaults to ``main`` when present.
    """

    def __init__(self, functions: Dict[str, Function], entry: Optional[str] = None,
                 globals_: Optional[Set[Var]] = None) -> None:
        self.functions: Dict[str, Function] = dict(functions)
        self.globals: Set[Var] = set(globals_ or set())
        if entry is None:
            entry = "main" if "main" in self.functions else next(iter(self.functions), None)
        if entry is None or entry not in self.functions:
            raise ValueError(f"entry function {entry!r} not in program")
        self.entry: str = entry
        #: Source file the program was parsed from, when known (set by
        #: :func:`repro.frontend.parse_program`); used by diagnostics.
        self.source_path: Optional[str] = None
        #: Source lines suppressed with ``// repro:ignore`` comments:
        #: ``{line: None}`` blankets the line, ``{line: frozenset of
        #: rule ids}`` suppresses only those rules (see
        #: :func:`repro.frontend.lexer.scan_suppressions`).
        self.suppressed_lines: Dict[int, Optional[frozenset]] = {}
        self._pointers: Optional[Set[Var]] = None
        self._objects: Optional[Set[MemObject]] = None
        self._assign_sites: Optional[Dict[Var, List[Loc]]] = None
        self._call_sites: Optional[List[Tuple[Loc, CallStmt]]] = None
        for fn in self.functions.values():
            fn.cfg.validate()

    # ------------------------------------------------------------------
    # iteration helpers
    # ------------------------------------------------------------------
    def statements(self) -> Iterator[Tuple[Loc, Statement]]:
        """Every statement in the program with its location."""
        for fn in self.functions.values():
            for idx, stmt in fn.cfg.statements():
                yield Loc(fn.name, idx), stmt

    def stmt_at(self, loc: Loc) -> Statement:
        return self.functions[loc.function].cfg.stmt(loc.index)

    def span_at(self, loc: Loc) -> Optional[Span]:
        """The source span recorded for ``loc`` (``None`` when the
        program was built without frontend position information)."""
        return self.functions[loc.function].cfg.span(loc.index)

    def cfg_of(self, name: str) -> CFG:
        return self.functions[name].cfg

    # ------------------------------------------------------------------
    # derived indexes (computed lazily, cached)
    # ------------------------------------------------------------------
    @property
    def pointers(self) -> Set[Var]:
        """Every variable that occurs in a canonical pointer assignment.

        This is the paper's set ``P``: the universe the bootstrapping
        cascade partitions.  Address-taken non-pointer variables (pure
        pointees) are *objects* but also appear here so partitions cover
        them, matching the paper's examples where ``{a, b}`` (ints whose
        addresses are taken) is itself a Steensgaard partition.
        """
        if self._pointers is None:
            ptrs: Set[Var] = set()
            for _, stmt in self.statements():
                if not stmt.is_pointer_assign:
                    continue
                lhs = getattr(stmt, "lhs", None)
                if isinstance(lhs, Var):
                    ptrs.add(lhs)
                for v in stmt.used_vars():
                    ptrs.add(v)
                if isinstance(stmt, AddrOf) and isinstance(stmt.target, Var):
                    ptrs.add(stmt.target)
            self._pointers = ptrs
        return self._pointers

    @property
    def objects(self) -> Set[MemObject]:
        """Every abstract memory object: variables plus allocation sites."""
        if self._objects is None:
            objs: Set[MemObject] = set(self.pointers)
            for _, stmt in self.statements():
                if isinstance(stmt, AddrOf) and isinstance(stmt.target, AllocSite):
                    objs.add(stmt.target)
            self._objects = objs
        return self._objects

    @property
    def alloc_sites(self) -> Set[AllocSite]:
        return {o for o in self.objects if isinstance(o, AllocSite)}

    def assignments_to(self, var: Var) -> List[Loc]:
        """Locations whose statement directly assigns to ``var``."""
        if self._assign_sites is None:
            sites: Dict[Var, List[Loc]] = {}
            for loc, stmt in self.statements():
                defined = stmt.defined_var()
                if defined is not None:
                    sites.setdefault(defined, []).append(loc)
            self._assign_sites = sites
        return self._assign_sites.get(var, [])

    @property
    def call_sites(self) -> List[Tuple[Loc, CallStmt]]:
        if self._call_sites is None:
            self._call_sites = [
                (loc, stmt) for loc, stmt in self.statements()
                if isinstance(stmt, CallStmt)
            ]
        return self._call_sites

    # ------------------------------------------------------------------
    # statistics (used by the bench harness)
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        n_stmts = sum(len(fn.cfg) for fn in self.functions.values())
        n_ptr = sum(1 for _, s in self.statements() if s.is_pointer_assign)
        return {
            "functions": len(self.functions),
            "locations": n_stmts,
            "pointer_assignments": n_ptr,
            "pointers": len(self.pointers),
            "alloc_sites": len(self.alloc_sites),
        }

    def invalidate_caches(self) -> None:
        """Drop derived indexes (call after late IR rewrites such as
        indirect-call resolution)."""
        self._pointers = None
        self._objects = None
        self._assign_sites = None
        self._call_sites = None
        # Location-keyed cut-shortcut transforms, the summary engine's
        # node tables and FSCI's supergraphs go stale with the IR.
        self.__dict__.pop("_cutshortcut_transforms", None)
        self.__dict__.pop("_summary_shared", None)
        self.__dict__.pop("_fsci_graphs", None)
