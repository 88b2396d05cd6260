"""The taint checker: demand-driven driver around the taint engine.

:class:`TaintChecker` runs the paper's demand loop on the shared
:class:`~repro.analysis.demand_engine.DemandEngine`, through
:func:`~repro.checkers.base.run_checker` like every checker
(:func:`run_taint` is the one-call form).  The engine resolves indirect
loads and stores through a points-to resolver backed by a *sliced*
FSCI covering only the clusters that contain pointers taint actually
moves through.  Clusters are alias-closed (every pointer that
can reach a tainted object shares a cluster with the pointer that
tainted it), so the loop converges on exactly the alias facts the client
needs:

1. run the engine with the clusters demanded so far (initially none);
2. the engine reports the pointers it could not resolve while taint was
   in flight;
3. select their clusters, extend the sliced FSCI, re-run — until no new
   pointer is demanded.

Findings come out as ordinary :class:`~repro.core.report.Diagnostic`
objects with full witness traces, so every emitter (text / JSON /
SARIF ``codeFlows``) works unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..analysis.demand_engine import Client, DemandView, make_resolver
from ..analysis.taint import (
    TaintEngine,
    TaintFlow,
    TaintReport,
    TaintSpec,
    source_argument_pointers,
)
from ..core.bootstrap import BootstrapResult
from ..core.report import Diagnostic, TraceStep
from ..ir import Program, Var
from .base import (
    Checker,
    CheckerContext,
    CheckerRun,
    checker_context,
    register_checker,
    run_checker,
)

RULE_ID = "taint-flow"
CHECKER_NAME = "taint"

#: Kept as an alias: bench/taint.py builds its whole-program baseline on
#: the exact resolver the demand loop uses.
_make_resolver = make_resolver


def _flow_diagnostic(ctx: CheckerContext, flow: TaintFlow) -> Diagnostic:
    program = ctx.program
    src_span = program.span_at(flow.source_loc)
    src_pos = (f"line {src_span.line}" if src_span is not None
               else f"{flow.source_loc.function}:{flow.source_loc.index}")
    message = (f"tainted data from {flow.source_fn}() ({src_pos}) reaches "
               f"{flow.sink_fn}() argument {flow.sink_arg}")
    trace = tuple(TraceStep(loc=loc, span=program.span_at(loc), note=note)
                  for loc, note in flow.steps)
    return ctx.diagnostic(
        rule_id=RULE_ID, severity=flow.severity, message=message,
        loc=flow.sink_loc, checker=CHECKER_NAME,
        subject=f"{flow.source_fn}@{src_pos}->{flow.sink_fn}",
        trace=trace)


@register_checker
class TaintChecker(Checker):
    """Tainted data reaching a sensitive sink under ``spec`` (default:
    the built-in rules).  Each round propagates taint with a resolver
    scoped to the selected clusters and demands the pointers it could
    not resolve."""

    name = CHECKER_NAME
    rule_id = RULE_ID
    description = "tainted data reaching a sensitive sink"

    def __init__(self, spec: Optional[TaintSpec] = None) -> None:
        self.spec = spec if spec is not None else TaintSpec.default()

    def interesting(self, program: Program) -> Set[Var]:
        return source_argument_pointers(program, self.spec)

    def client(self, ctx: CheckerContext) -> Client:
        def propagate(view: DemandView):
            report = TaintEngine(ctx.program, self.spec, view.resolver,
                                 callgraph=ctx.result.callgraph).run()
            return report, report.demanded
        return propagate

    def report(self, ctx: CheckerContext, value: TaintReport
               ) -> List[Diagnostic]:
        return [_flow_diagnostic(ctx, flow) for flow in value.flows]


def run_taint(program: Program,
              spec: Optional[TaintSpec] = None,
              result: Optional[BootstrapResult] = None,
              ctx: Optional[CheckerContext] = None,
              max_rounds: int = 10,
              budget: Optional[int] = None) -> CheckerRun:
    """Demand-driven interprocedural taint analysis; ``run.value`` is
    the last round's :class:`~repro.analysis.taint.TaintReport`.

    ``max_rounds`` bounds the demand loop; the demanded-pointer set grows
    monotonically, so the loop normally exits as soon as one engine run
    demands nothing new.  ``budget`` caps the cumulative number of
    cluster slices the query may analyze (``AnalysisBudgetExceeded``
    beyond it).
    """
    return run_checker(checker_context(program, result, ctx),
                       TaintChecker(spec), max_rounds, budget)
