"""Use-after-free / dangling-pointer checker.

Two bug shapes:

* **use after free** — a dereference whose pointer either (a) may still
  point at an allocation site some path has already freed (the classic
  ``d = q; free(q); *d`` aliasing case — the FSCI keeps ``d`` aimed at
  the site because only ``q`` was nulled), or (b) is itself the freed
  operand (``free(p); *p`` — its NULL carries free provenance);
* **escaping stack address** — at a function's exit, an outliving cell
  (a global, an allocation site, or the function's return-value conduit)
  still holds the address of one of its locals; the caller receives a
  dangling pointer.
"""

from __future__ import annotations

from typing import List, Set

from ..analysis.fsci import FSCIResult
from ..core.report import Diagnostic
from ..ir import AddrOf, AllocSite, Loc, Program, Var, retval_var
from .base import (
    Checker,
    CheckerContext,
    dereferences,
    display_name,
    register_checker,
    root_name,
)


def _freed_vars(program: Program) -> Set[Var]:
    from ..ir import NullAssign
    return {stmt.lhs for _loc, stmt in program.statements()
            if isinstance(stmt, NullAssign) and stmt.is_free}


def _outliving_cells(program: Program, function: str) -> Set[object]:
    """Cells whose contents survive ``function``'s return."""
    cells: Set[object] = set(program.globals)
    cells.add(retval_var(function))
    cells |= set(program.alloc_sites)
    return cells


@register_checker
class UseAfterFreeChecker(Checker):
    name = "use-after-free"
    rule_id = "repro-use-after-free"
    description = ("dereference of a freed pointer or escape of a stack "
                   "address past its function's lifetime")

    def interesting(self, program: Program) -> Set[Var]:
        wanted = {ptr for _loc, ptr in dereferences(program)}
        wanted |= _freed_vars(program)
        # Escape analysis needs the outliving pointer cells too.
        pointers = program.pointers
        wanted |= {g for g in program.globals if g in pointers}
        wanted |= {retval_var(f) for f in program.functions
                   if retval_var(f) in pointers}
        return wanted

    def report(self, ctx: CheckerContext, fsci: FSCIResult
               ) -> List[Diagnostic]:
        free = ctx.free_facts(fsci)
        out: List[Diagnostic] = []
        out.extend(self._check_dereferences(ctx, fsci, free))
        out.extend(self._check_escapes(ctx, fsci))
        return out

    # ------------------------------------------------------------------
    def _check_dereferences(self, ctx: CheckerContext, fsci, free
                            ) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for loc, ptr in dereferences(ctx.program):
            shown = display_name(ptr)
            provs = free.prov_before(loc, ptr)
            if provs:
                trace = tuple(ctx.trace_step(f, "freed here")
                              for f in sorted(provs))
                out.append(ctx.diagnostic(
                    self.rule_id, "error",
                    f"use of {shown!r} after it was freed",
                    loc, self.name, root_name(ptr), trace=trace))
                continue
            hits = free.freed_sites_hit(loc, ptr)
            if hits:
                site, frees = hits[0]
                trace = tuple(ctx.trace_step(
                    f, f"{site.qualified} freed here")
                    for f in sorted(frees))
                out.append(ctx.diagnostic(
                    self.rule_id, "error",
                    f"dereference of {shown!r}, which may point to "
                    f"freed memory ({site.qualified})",
                    loc, self.name, root_name(ptr), trace=trace))
        return out

    # ------------------------------------------------------------------
    def _check_escapes(self, ctx: CheckerContext, fsci
                       ) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        program = ctx.program
        for fname, fn in program.functions.items():
            if fname == program.entry:
                continue  # main's locals live as long as the program
            exit_loc = Loc(fname, fn.cfg.exit)
            outliving = _outliving_cells(program, fname)
            for cell, value in sorted(fsci.cells_after(exit_loc).items(),
                                      key=lambda kv: str(kv[0])):
                if cell not in outliving:
                    continue
                for obj in sorted(value, key=str):
                    if not (isinstance(obj, Var) and obj.function == fname):
                        continue
                    if obj.name.startswith("$"):
                        continue  # conduits/temps are not stack cells
                    where = ("returned" if cell == retval_var(fname)
                             else f"stored in {cell}")
                    loc = self._addr_taken_at(program, fname, obj) \
                        or exit_loc
                    out.append(ctx.diagnostic(
                        self.rule_id, "warning",
                        f"address of local {root_name(obj)!r} escapes "
                        f"{fname!r} ({where}); it dangles after return",
                        loc, self.name, root_name(obj),
                        trace=(ctx.trace_step(
                            exit_loc, f"{fname} returns with the address "
                            "still reachable"),)))
        return out

    @staticmethod
    def _addr_taken_at(program: Program, fname: str, obj: Var
                       ) -> Loc | None:
        for loc, stmt in program.statements():
            if isinstance(stmt, AddrOf) and stmt.target == obj \
                    and loc.function == fname:
                return loc
        return None
