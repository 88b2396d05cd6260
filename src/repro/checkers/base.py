"""Checker framework: base class, registry, the one checker runner.

Every checker runs through :func:`run_checker`, which owns what each
checker would otherwise reimplement:

* **demand-driven cluster selection** — a checker names its interesting
  pointers; the shared :class:`~repro.analysis.demand_engine.
  DemandEngine` selects only the clusters containing them
  (``core.queries.select_clusters``) and runs one sliced FSCI over the
  union of their ``V_P`` / ``St_P`` (sound: Algorithm 1's slice
  contains every statement that can affect a member's value).  A
  checker whose :meth:`Checker.client` demands more pointers gets their
  clusters in a further round;
* **free-provenance facts** — shared between the use-after-free and
  double-free checkers, and used by null-deref to stay out of their way;
* **finishing** — findings on degraded clusters carry the achieved
  precision; shadow variables and normalizer temporaries produce
  textual duplicates that collapse by (rule, function, line, subject);
  ``// repro:ignore`` lines are dropped; the stats describe the
  clusters the demand loop actually analyzed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..analysis.demand_engine import Client, DemandEngine, EngineStats
from ..analysis.fsci import FSCIResult
from ..core.bootstrap import BootstrapAnalyzer, BootstrapResult
from ..core.queries import DemandSelection
from ..core.report import (
    Diagnostic,
    TraceStep,
    dedup_diagnostics,
    suppress_diagnostics,
)
from ..ir import Load, Loc, Program, Store, Var
from .heapfacts import FreeFacts


def root_name(var: Var) -> str:
    """The user-visible name behind a (possibly shadow) variable:
    ``p__next`` names ``p``; renamed block-scoped locals keep their
    source name."""
    name = var.name.split("__", 1)[0]
    return name.split("$", 1)[0] if not name.startswith("$") else name


def display_name(var: Var) -> str:
    """``root_name`` with normalizer temporaries rendered generically."""
    name = root_name(var)
    if name.startswith("$t"):
        return "<expression>"
    return name


def dereferences(program: Program) -> List[Tuple[Loc, Var]]:
    """Every (location, pointer) pair where memory is read or written
    through the pointer: ``x = *p`` and ``*p = x``."""
    out: List[Tuple[Loc, Var]] = []
    for loc, stmt in program.statements():
        if isinstance(stmt, Load):
            out.append((loc, stmt.rhs))
        elif isinstance(stmt, Store):
            out.append((loc, stmt.lhs))
    return out


class CheckerContext:
    """Shared state for the checkers run over one bootstrap result: the
    demand engine (whose sliced-FSCI cache they share) and the
    free-provenance facts."""

    def __init__(self, program: Program, result: BootstrapResult) -> None:
        self.program = program
        self.result = result
        self.engine = DemandEngine(program, result)
        self._free_cache: Dict[int, FreeFacts] = {}

    def free_facts(self, fsci: FSCIResult) -> FreeFacts:
        """Free-provenance facts over ``fsci``'s points-to view (cached)."""
        key = id(fsci)
        facts = self._free_cache.get(key)
        if facts is None:
            facts = FreeFacts(self.program, fsci)
            self._free_cache[key] = facts
        return facts

    def trace_step(self, loc: Loc, note: str) -> TraceStep:
        return TraceStep(loc=loc, span=self.program.span_at(loc), note=note)

    def diagnostic(self, rule_id: str, severity: str, message: str,
                   loc: Loc, checker: str, subject: str,
                   trace: Tuple[TraceStep, ...] = ()) -> Diagnostic:
        return Diagnostic(
            rule_id=rule_id, severity=severity, message=message, loc=loc,
            span=self.program.span_at(loc),
            file=self.program.source_path,
            checker=checker, subject=subject, trace=trace)


def checker_context(program: Program,
                    result: Optional[BootstrapResult] = None,
                    ctx: Optional[CheckerContext] = None
                    ) -> CheckerContext:
    """``ctx`` itself, or a fresh context over ``result`` (bootstrapping
    ``program`` when that is missing too)."""
    if ctx is not None:
        return ctx
    if result is None:
        result = BootstrapAnalyzer(program).run()
    return CheckerContext(program, result)


class Checker:
    """Base class: subclass, set the class attributes, implement
    :meth:`interesting` and :meth:`report`; a checker that needs more
    than the seeds' clusters also overrides :meth:`client`."""

    name: str = ""
    rule_id: str = ""
    description: str = ""

    def interesting(self, program: Program) -> Set[Var]:
        """The pointers whose aliases this checker needs: the demand
        loop's seeds."""
        raise NotImplementedError

    def client(self, ctx: CheckerContext) -> Client:
        """The demand engine's per-round callback.  The default runs one
        round and hands the sliced FSCI over the seeds' clusters to
        :meth:`report`; it demands nothing, so the loop stops there."""
        return lambda view: (view.fsci, ())

    def report(self, ctx: CheckerContext, value: Any) -> List[Diagnostic]:
        """The findings in the last round's ``value`` (never ``None``:
        a round that analyzed nothing has nothing to report)."""
        raise NotImplementedError


CHECKER_REGISTRY: Dict[str, type] = {}


def register_checker(cls: type) -> type:
    """Class decorator adding a checker to the registry."""
    if not getattr(cls, "name", ""):
        raise ValueError(f"{cls.__name__} needs a non-empty name")
    CHECKER_REGISTRY[cls.name] = cls
    return cls


@dataclass
class CheckerStats:
    """Per-checker demand-driven accounting (the paper's savings pitch)."""

    checker: str
    findings: int
    suppressed: int
    clusters_selected: int
    clusters_total: int
    pointers_selected: int
    pointers_total: int

    @property
    def clusters_skipped(self) -> int:
        return self.clusters_total - self.clusters_selected


@dataclass
class CheckerRun:
    """Everything one :func:`run_checker` call produced."""

    diagnostics: List[Diagnostic]
    stats: CheckerStats
    selection: DemandSelection
    demanded: FrozenSet[Var]
    rounds: int
    engine: EngineStats
    #: The client's last-round result: the sliced FSCI, the leaked
    #: sites, the lock-order report or the taint report.
    value: Any


def run_checker(ctx: CheckerContext, checker: Checker,
                max_rounds: int = 10, budget: Optional[int] = None,
                seeds: Optional[Iterable[Var]] = None) -> CheckerRun:
    """Run ``checker`` through the demand loop and finish its findings.

    ``seeds`` replaces :meth:`Checker.interesting` (the whole-program
    baselines seed every pointer).  ``max_rounds`` and ``budget`` bound
    the loop as in :meth:`DemandEngine.run`.
    """
    program = ctx.program
    if seeds is None:
        seeds = checker.interesting(program)
    outcome = ctx.engine.run(seeds, checker.client(ctx),
                             max_rounds=max_rounds, budget=budget)
    selection = outcome.selection
    raw = [] if outcome.value is None \
        else checker.report(ctx, outcome.value)
    # Findings that rest on clusters the resilience layer degraded are
    # still sound (coarser may-facts can only add findings, not hide
    # them) but carry the achieved precision level so every emitter
    # marks them.
    level = ctx.result.degraded_precision_of(selection.selected)
    if level is not None:
        raw = [replace(d, precision=level) for d in raw]
    kept, dropped = suppress_diagnostics(dedup_diagnostics(raw), program)
    stats = CheckerStats(
        checker=checker.name,
        findings=len(kept),
        suppressed=dropped,
        clusters_selected=len(selection.selected),
        clusters_total=selection.total_clusters,
        pointers_selected=selection.selected_pointers,
        pointers_total=selection.total_pointers,
    )
    return CheckerRun(diagnostics=kept, stats=stats, selection=selection,
                      demanded=outcome.demanded, rounds=outcome.rounds,
                      engine=outcome.stats, value=outcome.value)


@dataclass
class CheckReport:
    """Everything one ``run_checkers`` call produced."""

    diagnostics: List[Diagnostic]
    stats: List[CheckerStats]


def run_checkers(program: Program,
                 names: Optional[Iterable[str]] = None,
                 result: Optional[BootstrapResult] = None) -> CheckReport:
    """Run the selected checkers (default: all registered) and return the
    deduplicated, suppression-filtered report."""
    ctx = checker_context(program, result)
    selected = list(names) if names is not None \
        else sorted(CHECKER_REGISTRY)
    runs: List[CheckerRun] = []
    for name in selected:
        cls = CHECKER_REGISTRY.get(name)
        if cls is None:
            raise ValueError(
                f"unknown checker {name!r} (have: "
                f"{', '.join(sorted(CHECKER_REGISTRY))})")
        runs.append(run_checker(ctx, cls()))
    return CheckReport(
        diagnostics=dedup_diagnostics(
            [d for run in runs for d in run.diagnostics]),
        stats=[run.stats for run in runs])
