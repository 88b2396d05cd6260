"""Null-dereference checker.

Flow-sensitive via the sliced FSCI: strong updates mean a pointer
re-assigned after a ``p = NULL`` is clean again, and ``if (p)`` guards
refine the NULL away through :class:`~repro.ir.statements.Assume`
conditions.  Interprocedural for free — the FSCI runs over the
supergraph, so ``f(NULL)`` flags the dereference inside ``f``.

Severity: a *must*-NULL dereference is an error (every path crashes); a
*may*-NULL one is a warning.  Pointers whose NULL came from a free are
left to the use-after-free checker (see :mod:`.heapfacts`).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..analysis.fsci import FSCIResult
from ..core.report import Diagnostic, TraceStep
from ..ir import NullAssign, Program, Var
from .base import (
    Checker,
    CheckerContext,
    dereferences,
    display_name,
    register_checker,
    root_name,
)


@register_checker
class NullDerefChecker(Checker):
    name = "null-deref"
    rule_id = "repro-null-deref"
    description = ("dereference of a pointer the flow-sensitive analysis "
                   "proves (or cannot exclude) to be NULL")

    def interesting(self, program: Program) -> Set[Var]:
        return {ptr for _loc, ptr in dereferences(program)}

    def _null_trace(self, ctx: CheckerContext, ptr: Var
                    ) -> Tuple[TraceStep, ...]:
        steps = []
        for loc in ctx.program.assignments_to(ptr):
            stmt = ctx.program.stmt_at(loc)
            if isinstance(stmt, NullAssign) and not stmt.is_free:
                steps.append(ctx.trace_step(
                    loc, f"{display_name(ptr)} set to NULL here"))
        return tuple(steps)

    def report(self, ctx: CheckerContext, fsci: FSCIResult
               ) -> List[Diagnostic]:
        free = ctx.free_facts(fsci)
        out: List[Diagnostic] = []
        for loc, ptr in dereferences(ctx.program):
            if free.prov_before(loc, ptr):
                continue  # freed pointer: the UAF checker owns this
            shown = display_name(ptr)
            if fsci.must_null_before(loc, ptr):
                out.append(ctx.diagnostic(
                    self.rule_id, "error",
                    f"dereference of {shown!r}, which is NULL here "
                    "on every path",
                    loc, self.name, root_name(ptr),
                    trace=self._null_trace(ctx, ptr)))
            elif fsci.explicit_null_before(loc, ptr):
                out.append(ctx.diagnostic(
                    self.rule_id, "warning",
                    f"dereference of {shown!r}, which may be NULL here",
                    loc, self.name, root_name(ptr),
                    trace=self._null_trace(ctx, ptr)))
        return out
