"""Double-free checker.

A free site is a free-tagged ``p = NULL``.  Two ways to refute the
"first free" assumption:

* the operand's value already carries free provenance — ``free(p);
  free(p)`` with no intervening reassignment (error: on that path the
  operand is the *same* freed value);
* the operand may point at an allocation site some path has already
  freed — the aliasing shape ``q = p; free(p); free(q)`` (error when the
  operand must-points at the freed site, warning when it only may).
"""

from __future__ import annotations

from typing import List, Set

from ..analysis.fsci import FSCIResult
from ..core.report import Diagnostic
from ..ir import NullAssign, Program, Var
from .base import (
    Checker,
    CheckerContext,
    display_name,
    register_checker,
    root_name,
)


@register_checker
class DoubleFreeChecker(Checker):
    name = "double-free"
    rule_id = "repro-double-free"
    description = "second free of an already-freed pointer or allocation"

    def interesting(self, program: Program) -> Set[Var]:
        return {stmt.lhs for _loc, stmt in program.statements()
                if isinstance(stmt, NullAssign) and stmt.is_free}

    def report(self, ctx: CheckerContext, fsci: FSCIResult
               ) -> List[Diagnostic]:
        free = ctx.free_facts(fsci)
        out: List[Diagnostic] = []
        for loc, stmt in free.free_sites():
            ptr = stmt.lhs
            shown = display_name(ptr)
            provs = free.prov_before(loc, ptr)
            if provs:
                trace = tuple(ctx.trace_step(f, "first freed here")
                              for f in sorted(provs))
                out.append(ctx.diagnostic(
                    self.rule_id, "error",
                    f"double free of {shown!r}",
                    loc, self.name, root_name(ptr), trace=trace))
                continue
            hits = free.freed_sites_hit(loc, ptr)
            if hits:
                site, frees = hits[0]
                must = fsci.must_point_to(ptr, site, loc)
                trace = tuple(ctx.trace_step(
                    f, f"{site.qualified} first freed here")
                    for f in sorted(frees))
                out.append(ctx.diagnostic(
                    self.rule_id, "error" if must else "warning",
                    f"{shown!r} frees {site.qualified}, which "
                    f"{'is' if must else 'may already be'} freed",
                    loc, self.name, root_name(ptr), trace=trace))
        return out
