"""Lowering mini-C ASTs to the normalized pointer IR.

This implements the paper's Remark 1 program model:

* every pointer assignment becomes one of ``x = y``, ``x = &y``,
  ``*x = y``, ``x = *y`` (temporaries split deeper expressions);
* ``p = malloc(...)`` at location *loc* becomes ``p = &alloc@loc``;
  ``free(p)`` and null assignments become ``p = NULL``;
* structures are flattened into one variable per (recursively nested)
  field, named ``base__field``; this makes the analysis field-sensitive;
* pointers whose base type is a struct get **shadow field pointers**: a
  variable ``p`` of type ``S*`` (or ``S**`` ...) carries companions
  ``p__f`` of type ``F*`` (``F**`` ...) per flattened field ``f``, and
  every canonical operation on ``p`` is mirrored on its shadows.  This
  turns ``p->f`` into the canonical load/store ``*(p__f)`` while staying
  inside the four-form model — the flattening trick the paper alludes to;
* pointer arithmetic is naive: ``t = p + i`` aliases ``t`` with every
  pointer operand (paper Section 2, Remark 1);
* conditionals are non-deterministic; ``&&``/``||``/``?:`` evaluate all
  arms for their side effects (a sound over-approximation);
* function pointers become indirect call sites resolved later against a
  flow-insensitive analysis (Emami-style).

Documented limitations (see DESIGN.md): struct-by-value parameters and
returns are rejected; struct pointers laundered through non-struct
pointer variables (e.g. stored in a ``void*`` variable) lose their shadow
fields — direct casts ``(S*)expr`` are transparent and keep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import NormalizationError
from ..ir import (
    AllocSite,
    CallStmt,
    Copy,
    ExternCall,
    Program,
    ProgramBuilder,
    Span,
    Var,
)
from ..ir.builder import FunctionBuilder
from ..ir.program import param_var, retval_var
from . import ast_nodes as A
from .types import (
    INT,
    VOID,
    ArrayType,
    CType,
    FuncType,
    IntType,
    PointerType,
    StructTable,
    StructType,
    element_type,
    is_pointerish,
    pointee,
)

#: Functions with allocator semantics (result is a fresh heap object).
ALLOCATORS = {"malloc", "calloc", "realloc", "valloc", "kmalloc", "kzalloc",
              "xmalloc", "alloca"}
#: Functions with deallocator semantics (argument becomes NULL, per paper).
DEALLOCATORS = {"free", "kfree", "xfree"}


def base_struct(t: CType, structs: StructTable) -> Optional[Tuple[int, StructType]]:
    """If ``t`` is ``S`` or ``S*``..``S**...``, return (pointer depth, S)
    for defined structs; otherwise ``None``."""
    depth = 0
    while isinstance(t, PointerType):
        depth += 1
        t = t.base
    if isinstance(t, ArrayType):
        t = element_type(t)
    if isinstance(t, StructType) and structs.is_defined(t.tag):
        return depth, t
    return None


def shadow_leaves(t: CType, structs: StructTable
                  ) -> List[Tuple[str, CType]]:
    """Flattened field paths and their shadow types for a struct-based
    type at pointer depth ``k``: leaf field ``f : F`` yields shadow type
    ``Ptr^k(F)``."""
    info = base_struct(t, structs)
    if info is None:
        return []
    depth, struct_t = info
    leaves = structs.flatten(struct_t, "")
    out: List[Tuple[str, CType]] = []
    for path, ftype in leaves:
        shadow_t = ftype
        for _ in range(depth):
            shadow_t = PointerType(shadow_t)
        out.append((path.lstrip("_"), shadow_t))  # path starts with "__"
    return out


def _start_span(expr: A.Expr) -> Span:
    """Where ``expr`` starts: a postfix form (call, member access,
    indexing) is placed at its operator, so walk down to its base."""
    while isinstance(expr, (A.Call, A.Member, A.Index)):
        expr = expr.fn if isinstance(expr, A.Call) else expr.base
    return Span(expr.line, expr.col)


# ---------------------------------------------------------------------------
# lowered values
# ---------------------------------------------------------------------------

@dataclass
class Val:
    """An evaluated expression.

    ``kind`` is one of:

    * ``"var"``   — value lives in ``var`` (shadows listed if any);
    * ``"addr"``  — the constant ``&obj`` (``shadow_objs`` for structs);
    * ``"null"``  — NULL;
    * ``"opaque"``— a non-pointer scalar or unknown value.
    """

    kind: str
    ctype: CType
    var: Optional[Var] = None
    obj: Optional[object] = None
    shadows: Dict[str, Var] = field(default_factory=dict)
    shadow_objs: Dict[str, object] = field(default_factory=dict)
    #: For "opaque" values: the variables the value was computed from.
    #: Assignments copy from these, generalizing the paper's naive
    #: pointer-arithmetic rule (result aliases every operand) to all
    #: scalar dataflow — it also keeps reads/writes of shared scalars
    #: visible to clients like the race detector.
    deps: List[Var] = field(default_factory=list)


@dataclass
class LValue:
    """A lowered assignable location.

    ``kind``:
    * ``"var"``   — a direct variable (with shadow companions);
    * ``"deref"`` — ``*ptr`` (``ptr`` with shadow companions: stores
      mirror into ``*ptr__f``).

    ``summary_key`` identifies the (struct tag, flattened field) this
    location instantiates, when it is a struct field: writes are then
    mirrored into the field's type-based summary cell so shadow-less
    readers (``a->b->c`` chains, pointers laundered through memory) still
    observe them — the classic field-based fallback.
    """

    kind: str
    ctype: CType
    var: Optional[Var] = None
    ptr: Optional[Var] = None
    shadows: Dict[str, Var] = field(default_factory=dict)
    summary_key: Optional[Tuple[str, str]] = None


class _Scope:
    """Lexically scoped symbol table (name -> (Var, CType))."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.names: Dict[str, Tuple[Var, CType]] = {}

    def lookup(self, name: str) -> Optional[Tuple[Var, CType]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def define(self, name: str, var: Var, ctype: CType) -> None:
        self.names[name] = (var, ctype)


class _Emitter(FunctionBuilder):
    """FunctionBuilder extended with break/continue frontiers."""

    def __init__(self, program: ProgramBuilder, name: str) -> None:
        super().__init__(program, name, params=())
        self.break_stack: List[List[int]] = []
        self.continue_stack: List[List[int]] = []

    def terminated(self) -> bool:
        return not self._frontier


class Normalizer:
    """Drives the AST -> IR lowering for one translation unit."""

    def __init__(self, unit: A.TranslationUnit, structs: StructTable,
                 entry: str = "main") -> None:
        self.unit = unit
        self.structs = structs
        self.entry = entry
        self.builder = ProgramBuilder()
        self.global_scope = _Scope()
        self.func_types: Dict[str, FuncType] = {}
        self.func_param_names: Dict[str, List[Optional[str]]] = {}
        self.warnings: List[str] = []
        self._temp_counter = 0

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> Program:
        for fn in self.unit.functions:
            ftype = FuncType(ret=fn.ret,
                             params=tuple(p.type for p in fn.params))
            self.func_types[fn.name] = ftype
            self.func_param_names[fn.name] = [p.name for p in fn.params]
            self.global_scope.define(fn.name, Var(fn.name), ftype)
        self._global_inits: List[Tuple[A.Declarator, Var, CType]] = []
        for decl_stmt in self.unit.globals:
            for decl in decl_stmt.decls:
                self._declare_global(decl)
        for fn in self.unit.functions:
            self._lower_function(fn)
        if self.entry not in self.func_types:
            raise NormalizationError(
                f"entry function {self.entry!r} is not defined")
        return self.builder.build(entry=self.entry)

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def _declare_global(self, decl: A.Declarator) -> None:
        if isinstance(decl.type, FuncType):
            # Function prototype.
            self.func_types.setdefault(decl.name, decl.type)
            self.global_scope.define(decl.name, Var(decl.name), decl.type)
            return
        var = self.builder.global_var(decl.name)
        self.global_scope.define(decl.name, var, decl.type)
        if isinstance(decl.type, StructType):
            for path, ftype in self.structs.flatten(decl.type, decl.name):
                self.builder.global_var(path)
        else:
            for path, _stype in shadow_leaves(decl.type, self.structs):
                self.builder.global_var(f"{decl.name}__{path}")
        if decl.init is not None:
            self._global_inits.append((decl, var, decl.type))

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------
    def _lower_function(self, fn: A.FuncDef) -> None:
        em = _Emitter(self.builder, fn.name)
        scope = _Scope(self.global_scope)
        self._em = em
        self._scope = scope
        self._func = fn
        # Bind parameters: conduit -> named local (mirroring shadows).
        em.fn.params = [param_var(fn.name, i) for i in range(len(fn.params))]
        for i, p in enumerate(fn.params):
            if p.name is None:
                continue
            if isinstance(p.type, StructType):
                raise NormalizationError(
                    f"{fn.name}: struct-by-value parameter {p.name!r} is "
                    "not supported (pass a pointer instead)")
            local = self._local(p.name)
            scope.define(p.name, local, p.type)
            conduit = param_var(fn.name, i)
            em.emit(Copy(local, conduit))
            for path, stype in shadow_leaves(p.type, self.structs):
                em.emit(Copy(self._shadow_var(local, path),
                             self._shadow_var(conduit, path)))
        if isinstance(fn.ret, StructType):
            raise NormalizationError(
                f"{fn.name}: struct-by-value return is not supported")
        if fn.name == self.entry:
            self._lower_global_inits()
        self._lower_stmt(fn.body)
        self.builder._functions[fn.name] = em.finish()

    def _lower_global_inits(self) -> None:
        for decl, var, ctype in self._global_inits:
            self._lower_init(var, ctype, decl.init, decl.name)

    # ------------------------------------------------------------------
    # variable helpers
    # ------------------------------------------------------------------
    def _local(self, name: str) -> Var:
        v = Var(name, self._em.name)
        self._em.fn.locals.add(v)
        return v

    def _temp(self, ctype: CType) -> Var:
        self._temp_counter += 1
        return self._local(f"$t{self._temp_counter}")

    def _shadow_var(self, base: Var, path: str) -> Var:
        v = Var(f"{base.name}__{path}", base.function)
        if base.function is not None:
            self._em.fn.locals.add(v)
        else:
            self.builder.globals.add(v)
        return v

    def _shadow_map(self, base: Var, ctype: CType) -> Dict[str, Var]:
        return {path: self._shadow_var(base, path)
                for path, _t in shadow_leaves(ctype, self.structs)}

    def _fresh_label(self, line: int) -> str:
        self._temp_counter += 1
        return f"{self._em.name}:{line}#{self._temp_counter}"

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _lower_stmt(self, stmt: A.Stmt) -> None:
        em = self._em
        if getattr(stmt, "line", 0):
            em.default_span = Span(stmt.line, getattr(stmt, "col", 0))
        if em.terminated() and not isinstance(stmt, (A.Block, A.Empty)):
            # Unreachable code after return/break; still lower it into the
            # CFG as dead nodes? Simpler and sound: skip it.
            return
        if isinstance(stmt, A.Block):
            outer = self._scope
            self._scope = _Scope(outer)
            for s in stmt.body:
                self._lower_stmt(s)
            self._scope = outer
        elif isinstance(stmt, A.DeclStmt):
            for decl in stmt.decls:
                self._lower_local_decl(decl)
        elif isinstance(stmt, A.ExprStmt):
            self._lower_expr(stmt.expr)
        elif isinstance(stmt, A.If):
            self._lower_expr(stmt.cond)
            assumes = self._branch_assumes(stmt.cond)
            cond_node = em.skip("if")
            frontier_after: List[int] = []
            em._frontier = [cond_node]
            self._emit_assume(assumes, True)
            self._lower_stmt(stmt.then)
            frontier_after.extend(em._frontier)
            em._frontier = [cond_node]
            self._emit_assume(assumes, False)
            if stmt.otherwise is not None:
                self._lower_stmt(stmt.otherwise)
            frontier_after.extend(em._frontier)
            em._frontier = frontier_after
        elif isinstance(stmt, A.While):
            self._lower_while(stmt)
        elif isinstance(stmt, A.For):
            self._lower_for(stmt)
        elif isinstance(stmt, A.Switch):
            self._lower_expr(stmt.cond)
            head = em.skip("switch")
            frontier_after: List[int] = [head]  # no arm taken
            em.break_stack.append([])
            for arm in stmt.arms:
                em._frontier = [head]
                self._lower_stmt(arm)
                frontier_after.extend(em._frontier)
            frontier_after.extend(em.break_stack.pop())
            em._frontier = frontier_after
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                val = self._lower_expr(stmt.value)
                ret = retval_var(em.name)
                self._assign_var(ret, self._func.ret, val)
            em.ret()
        elif isinstance(stmt, A.Break):
            if not em.break_stack:
                self.warnings.append("break outside loop/switch ignored")
                return
            em.break_stack[-1].extend(em._frontier)
            em._frontier = []
        elif isinstance(stmt, A.Continue):
            if not em.continue_stack:
                self.warnings.append("continue outside loop ignored")
                return
            em.continue_stack[-1].extend(em._frontier)
            em._frontier = []
        elif isinstance(stmt, A.Empty):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise NormalizationError(f"unhandled statement {type(stmt).__name__}")

    def _lower_while(self, stmt: A.While) -> None:
        em = self._em
        head = em.skip("while")
        em.break_stack.append([])
        em.continue_stack.append([])
        self._lower_expr(stmt.cond)
        assumes = self._branch_assumes(stmt.cond)
        cond_node = em.skip("cond")
        self._emit_assume(assumes, True)
        self._lower_stmt(stmt.body)
        for f in em._frontier + em.continue_stack.pop():
            em._cfg.add_edge(f, head)
        # Loop may exit from the condition (or skip entirely for while,
        # after one iteration for do-while — both covered by cond_node).
        em._frontier = [cond_node]
        self._emit_assume(assumes, False)
        em._frontier.extend(em.break_stack.pop())

    def _lower_for(self, stmt: A.For) -> None:
        em = self._em
        outer = self._scope
        self._scope = _Scope(outer)
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        head = em.skip("for")
        em.break_stack.append([])
        em.continue_stack.append([])
        if stmt.cond is not None:
            self._lower_expr(stmt.cond)
        cond_node = em.skip("cond")
        self._lower_stmt(stmt.body)
        em._frontier.extend(em.continue_stack.pop())
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        for f in em._frontier:
            em._cfg.add_edge(f, head)
        em._frontier = [cond_node] + em.break_stack.pop()
        self._scope = outer

    # ------------------------------------------------------------------
    # path conditions (paper Section 3's path-sensitivity extension)
    # ------------------------------------------------------------------
    def _branch_assumes(self, cond: A.Expr):
        """Extract a pointer path condition from a branch condition.

        Recognized shapes: ``p`` / ``!p`` (pointer truthiness tests NULL)
        and ``a == b`` / ``a != b`` with at least one pointer operand
        (NULL/0 literals map to NULL comparisons).  Returns
        ``(lhs_var, rhs_var_or_None, equal_when_taken)`` or ``None``.
        """
        negate = False
        while isinstance(cond, A.Unary) and cond.op == "!":
            negate = not negate
            cond = cond.operand

        def pointer_var(e: A.Expr):
            if not isinstance(e, A.Ident):
                return None
            bound = self._scope.lookup(e.name)
            if bound is None or not is_pointerish(bound[1]):
                return None
            return bound[0]

        if isinstance(cond, A.Ident):
            var = pointer_var(cond)
            if var is None:
                return None
            # `if (p)` takes the then-arm when p != NULL.
            return (var, None, negate)
        if isinstance(cond, A.Binary) and cond.op in ("==", "!="):
            equal = (cond.op == "==") != negate
            lhs, rhs = pointer_var(cond.left), pointer_var(cond.right)
            null_left = isinstance(cond.left, (A.NullLit,)) or \
                (isinstance(cond.left, A.IntLit) and cond.left.value == 0)
            null_right = isinstance(cond.right, (A.NullLit,)) or \
                (isinstance(cond.right, A.IntLit) and cond.right.value == 0)
            if lhs is not None and null_right:
                return (lhs, None, equal)
            if rhs is not None and null_left:
                return (rhs, None, equal)
            if lhs is not None and rhs is not None:
                return (lhs, rhs, equal)
        return None

    def _emit_assume(self, assumes, taken: bool) -> None:
        """Emit the path condition for the taken/not-taken arm."""
        if assumes is None:
            return
        from ..ir import Assume
        lhs, rhs, equal = assumes
        self._em.emit(Assume(lhs, rhs, equal if taken else not equal))

    def _lower_local_decl(self, decl: A.Declarator) -> None:
        if isinstance(decl.type, FuncType):
            self.func_types.setdefault(decl.name, decl.type)
            self.global_scope.define(decl.name, Var(decl.name), decl.type)
            return
        name = decl.name
        bound = self._scope.lookup(name)
        if bound is not None and bound[0].function == self._em.name:
            # Block-scoped shadowing of another local: rename so the
            # inner variable gets its own cell (the Var namespace is flat
            # per function).  Shadowing a *global* needs no rename — the
            # local lives in the function's own namespace already.
            self._temp_counter += 1
            name = f"{decl.name}${self._temp_counter}"
        var = self._local(name)
        self._scope.define(decl.name, var, decl.type)
        if isinstance(decl.type, StructType):
            for path, _t in self.structs.flatten(decl.type, name):
                self._local(path)
        else:
            self._shadow_map(var, decl.type)
        if decl.init is not None:
            self._lower_init(var, decl.type, decl.init, name)

    def _lower_init(self, var: Var, ctype: CType, init: A.Expr,
                    name: str) -> None:
        if isinstance(ctype, StructType):
            leaves = self.structs.flatten(ctype, name)
            parts = init.parts if isinstance(init, A.Comma) else [init]
            for (path, ftype), part in zip(leaves, parts):
                leaf_var = (Var(path, var.function)
                            if var.function else Var(path))
                self._assign_var(leaf_var, ftype, self._lower_expr(part))
            return
        if isinstance(init, A.Comma) and isinstance(ctype, ArrayType):
            for part in init.parts:
                self._assign_var(var, element_type(ctype),
                                 self._lower_expr(part))
            return
        self._assign_var(var, ctype, self._lower_expr(init))

    # ------------------------------------------------------------------
    # assignment plumbing
    # ------------------------------------------------------------------
    def _assign_var(self, var: Var, ctype: CType, val: Val) -> None:
        """Assign ``val`` into direct variable ``var`` of type ``ctype``,
        mirroring shadow fields when both sides carry them."""
        em = self._em
        shadows = self._shadow_map(var, ctype)
        if val.kind == "null":
            em.emit_null(var) if hasattr(em, "emit_null") else em.null(var)
            for sv in shadows.values():
                em.null(sv)
            return
        if val.kind == "addr":
            if isinstance(val.obj, (Var, AllocSite)):
                em.emit(self._addrof(var, val.obj))
            if isinstance(val.obj, AllocSite) and shadows \
                    and not val.shadow_objs:
                # A fresh heap object assigned to a struct pointer: give
                # each flattened field its own allocation-site cell.
                val.shadow_objs = {
                    path: AllocSite(f"{val.obj.label}__{path}")
                    for path in shadows}
            for path, sv in shadows.items():
                sobj = val.shadow_objs.get(path)
                if sobj is not None:
                    em.emit(self._addrof(sv, sobj))
            return
        if val.kind == "var" and val.var is not None:
            em.emit(Copy(var, val.var))
            for path, sv in shadows.items():
                src = val.shadows.get(path)
                if src is not None:
                    em.emit(Copy(sv, src))
                else:
                    self._note_shadow_loss(var, path)
            return
        # Opaque value: copy from each variable it was computed from.
        for dep in val.deps:
            em.emit(Copy(var, dep))

    def _note_shadow_loss(self, var: Var, path: str) -> None:
        self.warnings.append(
            f"field tracking lost for {var}.{path} (value came through a "
            "non-struct pointer)")

    @staticmethod
    def _addrof(lhs: Var, obj):
        from ..ir import AddrOf
        return AddrOf(lhs, obj)

    def _assign(self, lv: LValue, val: Val) -> None:
        em = self._em
        if lv.kind == "var":
            self._assign_var(lv.var, lv.ctype, val)
            self._mirror_summary(lv, val)
            return
        # deref store: *ptr = value (value must be in a var or NULL).
        src = self._materialize(val, lv.ctype)
        if src is None:
            return
        em.emit(self._store(lv.ptr, src.var))
        for path, sptr in lv.shadows.items():
            s_src = src.shadows.get(path)
            if s_src is not None:
                em.emit(self._store(sptr, s_src))
        self._mirror_summary(lv, src)

    def _mirror_summary(self, lv: LValue, val: Val) -> None:
        """Mirror a struct-field write into the field's type-based
        summary cell, so shadow-less readers observe it."""
        if lv.summary_key is None or not is_pointerish(lv.ctype):
            return
        # Skip when the write already targets the summary cell itself.
        tag, leaf = lv.summary_key
        if lv.ptr is not None and lv.ptr.name == f"$fld${tag}${leaf}":
            return
        src = self._materialize(val, lv.ctype)
        if src is None or src.var is None:
            return
        self._em.emit(self._store(self._summary_ptr(tag, leaf), src.var))

    @staticmethod
    def _store(ptr: Var, rhs: Var):
        from ..ir import Store
        return Store(ptr, rhs)

    def _materialize(self, val: Val, ctype: CType) -> Optional[Val]:
        """Force a value into a variable (for stores, calls, arithmetic)."""
        if val.kind == "var" and val.var is not None:
            return val
        tmp = self._temp(ctype)
        tmp_val = Val(kind="var", ctype=ctype, var=tmp,
                      shadows=self._shadow_map(tmp, ctype))
        self._assign_var(tmp, ctype, val)
        return tmp_val

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _lower_expr(self, expr: A.Expr) -> Val:
        em = self._em
        if getattr(expr, "line", 0):
            em.default_span = Span(expr.line, getattr(expr, "col", 0))
        if isinstance(expr, A.IntLit):
            if expr.value == 0:
                return Val(kind="null", ctype=INT)
            return Val(kind="opaque", ctype=INT)
        if isinstance(expr, (A.StrLit, A.SizeOf)):
            return Val(kind="opaque", ctype=INT)
        if isinstance(expr, A.NullLit):
            return Val(kind="null", ctype=PointerType(VOID))
        if isinstance(expr, A.Ident):
            return self._lower_ident(expr)
        if isinstance(expr, A.Cast):
            inner = self._lower_expr(expr.operand)
            # Casts are transparent for values; retarget the static type.
            inner.ctype = expr.type
            return inner
        if isinstance(expr, A.Comma):
            out = Val(kind="opaque", ctype=INT)
            for part in expr.parts:
                out = self._lower_expr(part)
            return out
        if isinstance(expr, A.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, A.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, A.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, A.Ternary):
            return self._lower_ternary(expr)
        if isinstance(expr, A.Call):
            return self._lower_call(expr)
        if isinstance(expr, (A.Member, A.Index)):
            lv = self._lower_lvalue(expr)
            return self._read_lvalue(lv)
        raise NormalizationError(f"unhandled expression {type(expr).__name__}")

    def _lower_ident(self, expr: A.Ident) -> Val:
        bound = self._scope.lookup(expr.name)
        if bound is None:
            if expr.name in self.func_types:
                return Val(kind="addr", ctype=self.func_types[expr.name],
                           obj=Var(expr.name))
            # Undeclared identifier: tolerate (old-C style), as an int.
            self.warnings.append(f"undeclared identifier {expr.name!r}")
            var = self.builder.global_var(expr.name)
            self.global_scope.define(expr.name, var, INT)
            return Val(kind="var", ctype=INT, var=var)
        var, ctype = bound
        if isinstance(ctype, FuncType):
            # Function designator decays to its address.
            return Val(kind="addr", ctype=ctype, obj=Var(expr.name))
        if isinstance(ctype, ArrayType):
            # Arrays decay to a pointer to their (collapsed) element.
            return Val(kind="addr", ctype=PointerType(element_type(ctype)),
                       obj=var)
        return Val(kind="var", ctype=ctype, var=var,
                   shadows=self._shadow_map(var, ctype))

    def _lower_assign(self, expr: A.Assign) -> Val:
        # Lowering an operand moves the default span to each of its
        # sub-expressions; the assignment's own access anchors at the
        # left operand instead of the last right-hand one.
        if expr.op != "=":
            # Compound assignment: evaluate both sides; pointer identity
            # is unchanged under the naive arithmetic model.
            lv = self._lower_lvalue(expr.lhs)
            self._lower_expr(expr.rhs)
            self._em.default_span = _start_span(expr.lhs)
            return self._read_lvalue(lv)
        val = self._lower_expr(expr.rhs)
        lv = self._lower_lvalue(expr.lhs)
        self._em.default_span = _start_span(expr.lhs)
        self._assign(lv, val)
        return val if val.kind != "opaque" else self._read_lvalue(lv)

    def _lower_unary(self, expr: A.Unary) -> Val:
        if expr.op == "*":
            lv = self._lower_lvalue(expr)
            return self._read_lvalue(lv)
        if expr.op == "&":
            return self._lower_addressof(expr.operand)
        if expr.op in ("++", "--", "p++", "p--"):
            lv = self._lower_lvalue(expr.operand)
            # Pointer stepping keeps the same abstract object.
            return self._read_lvalue(lv)
        # Arithmetic/logical unary: evaluate for effects, value is opaque.
        inner = self._lower_expr(expr.operand)
        return Val(kind="opaque", ctype=INT, deps=self._deps_of(inner))

    def _lower_addressof(self, operand: A.Expr) -> Val:
        if isinstance(operand, A.Ident):
            bound = self._scope.lookup(operand.name)
            if bound is None and operand.name in self.func_types:
                return Val(kind="addr", ctype=PointerType(
                    self.func_types[operand.name]), obj=Var(operand.name))
            if bound is None:
                raise NormalizationError(
                    f"&{operand.name}: undeclared identifier")
            var, ctype = bound
            if isinstance(ctype, FuncType):
                return Val(kind="addr", ctype=PointerType(ctype),
                           obj=Var(operand.name))
            if isinstance(ctype, ArrayType):
                return Val(kind="addr",
                           ctype=PointerType(element_type(ctype)), obj=var)
            out = Val(kind="addr", ctype=PointerType(ctype), obj=var)
            if isinstance(ctype, StructType):
                prefix = var.name
                for path, _t in self.structs.flatten(ctype, prefix):
                    rel = path[len(prefix) + 2:]
                    out.shadow_objs[rel] = (Var(path, var.function)
                                            if var.function else Var(path))
            return out
        if isinstance(operand, A.Unary) and operand.op == "*":
            # &*e == e
            return self._lower_expr(operand.operand)
        if isinstance(operand, (A.Member, A.Index)):
            lv = self._lower_lvalue(operand)
            if lv.kind == "var":
                out = Val(kind="addr", ctype=PointerType(lv.ctype),
                          obj=lv.var)
                if isinstance(lv.ctype, StructType):
                    prefix = lv.var.name
                    for path, _t in self.structs.flatten(lv.ctype, prefix):
                        rel = path[len(prefix) + 2:]
                        out.shadow_objs[rel] = Var(path, lv.var.function)
                return out
            # &(*p ...) — the pointer itself is the address.
            out = Val(kind="var", ctype=PointerType(lv.ctype), var=lv.ptr,
                      shadows=dict(lv.shadows))
            return out
        raise NormalizationError(
            f"cannot take the address of {type(operand).__name__}")

    def _lower_binary(self, expr: A.Binary) -> Val:
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        if expr.op in ("+", "-"):
            ptr_vals = [v for v in (left, right)
                        if v.kind in ("var", "addr") and
                        is_pointerish(v.ctype)]
            if ptr_vals:
                # Naive pointer arithmetic: result aliases all pointer
                # operands (paper Remark 1).
                ctype = ptr_vals[0].ctype
                tmp = self._temp(ctype)
                tmp_shadows = self._shadow_map(tmp, ctype)
                for v in ptr_vals:
                    self._assign_var(tmp, ctype, v)
                return Val(kind="var", ctype=ctype, var=tmp,
                           shadows=tmp_shadows)
        return Val(kind="opaque", ctype=INT,
                   deps=self._deps_of(left) + self._deps_of(right))

    @staticmethod
    def _deps_of(val: Val) -> List[Var]:
        if val.kind == "var" and val.var is not None:
            return [val.var]
        return list(val.deps)

    def _lower_ternary(self, expr: A.Ternary) -> Val:
        em = self._em
        self._lower_expr(expr.cond)
        cond_node = em.skip("ternary")
        # Arm 1
        em._frontier = [cond_node]
        then_val = self._lower_expr(expr.then)
        ctype = then_val.ctype if then_val.kind != "opaque" else INT
        result: Optional[Var] = None
        if then_val.kind != "opaque" or is_pointerish(ctype):
            result = self._temp(then_val.ctype if then_val.kind != "opaque"
                                else PointerType(VOID))
            ctype = then_val.ctype
            self._assign_var(result, ctype, then_val)
        frontier = list(em._frontier)
        # Arm 2
        em._frontier = [cond_node]
        other_val = self._lower_expr(expr.otherwise)
        if result is None and other_val.kind != "opaque":
            result = self._temp(other_val.ctype)
            ctype = other_val.ctype
        if result is not None:
            self._assign_var(result, ctype, other_val)
        em._frontier = frontier + em._frontier
        if result is None:
            return Val(kind="opaque", ctype=INT)
        return Val(kind="var", ctype=ctype, var=result,
                   shadows=self._shadow_map(result, ctype))

    # ------------------------------------------------------------------
    # lvalues
    # ------------------------------------------------------------------
    def _lower_lvalue(self, expr: A.Expr) -> LValue:
        if isinstance(expr, A.Ident):
            bound = self._scope.lookup(expr.name)
            if bound is None:
                self.warnings.append(f"undeclared identifier {expr.name!r}")
                var = self.builder.global_var(expr.name)
                self.global_scope.define(expr.name, var, INT)
                return LValue(kind="var", ctype=INT, var=var)
            var, ctype = bound
            return LValue(kind="var", ctype=ctype, var=var,
                          shadows=self._shadow_map(var, ctype))
        if isinstance(expr, A.Unary) and expr.op == "*":
            base = self._lower_expr(expr.operand)
            mat = self._materialize(base, base.ctype)
            if mat is None or mat.var is None:
                raise NormalizationError("dereference of a non-value")
            try:
                target_t = pointee(base.ctype)
            except NormalizationError:
                target_t = INT
            return LValue(kind="deref", ctype=target_t, ptr=mat.var,
                          shadows=dict(mat.shadows))
        if isinstance(expr, A.Member):
            return self._lower_member_lvalue(expr)
        if isinstance(expr, A.Index):
            # a[i]: collapse the array to one element; through a pointer
            # this is just *p on the (aliased) pointer value.
            base = self._lower_expr(expr.base)
            self._lower_expr(expr.index)
            if base.kind == "addr" and isinstance(base.obj, Var):
                # direct array variable: the element is the variable itself
                elem_t = pointee(base.ctype)
                lv = LValue(kind="var", ctype=elem_t, var=base.obj)
                lv.shadows = {p: Var(f"{base.obj.name}__{p}",
                                     base.obj.function)
                              for p, _ in shadow_leaves(elem_t, self.structs)}
                return lv
            mat = self._materialize(base, base.ctype)
            if mat is None or mat.var is None:
                raise NormalizationError("index of a non-value")
            try:
                elem_t = pointee(base.ctype)
            except NormalizationError:
                elem_t = INT
            return LValue(kind="deref", ctype=elem_t, ptr=mat.var,
                          shadows=dict(mat.shadows))
        if isinstance(expr, A.Cast):
            lv = self._lower_lvalue(expr.operand)
            lv.ctype = expr.type
            return lv
        raise NormalizationError(
            f"{type(expr).__name__} is not assignable")

    def _lower_member_lvalue(self, expr: A.Member) -> LValue:
        """``base.f`` / ``base->f``, resolving through flattened structs
        and shadow pointers.  Nested paths (``p->a.b``) accumulate."""
        if expr.arrow:
            # a->f: whatever `a` evaluates to is the pointer; this covers
            # o.in->f, (*pp)->f, f(x)->g and friends uniformly.
            return self._field_through_pointer(
                self._lower_expr(expr.base), [expr.field])
        path: List[str] = [expr.field]
        node: A.Expr = expr.base
        while isinstance(node, A.Member) and not node.arrow:
            path.insert(0, node.field)
            node = node.base
        # node is now the innermost base; normalize (*p).f to p->f.
        deref = False
        if isinstance(node, A.Unary) and node.op == "*":
            deref = True
            node = node.operand
        # Re-check arrow position: for p->a.b the arrow is on the *inner*
        # member; handle by recursing when the base itself is an arrow
        # member (struct-valued through pointer shadows).
        if isinstance(node, A.Member) and node.arrow:
            inner = self._lower_member_lvalue(node)
            leaf = "__".join(path)
            if inner.kind == "var" and isinstance(inner.ctype, StructType):
                var = Var(f"{inner.var.name}__{leaf}", inner.var.function)
                ftype = self._leaf_type(inner.ctype, path)
                return LValue(kind="var", ctype=ftype, var=var,
                              shadows=self._shadow_map(var, ftype),
                              summary_key=(inner.ctype.tag, leaf))
            if inner.kind == "deref" and isinstance(inner.ctype, StructType):
                sptr = inner.shadows.get(leaf)
                ftype = self._leaf_type(inner.ctype, path)
                if sptr is None:
                    return self._collapsed_field(inner.ctype.tag, ftype,
                                                 leaf)
                return LValue(kind="deref", ctype=ftype, ptr=sptr,
                              shadows=self._nested_shadows(inner.shadows,
                                                           leaf),
                              summary_key=(inner.ctype.tag, leaf))
            # The inner lvalue holds a pointer (a->b->c chains): read it
            # and resolve the outer field through that value.
            inner_val = self._read_lvalue(inner)
            return self._field_through_pointer(inner_val, path)
        if deref:
            base_val = self._lower_expr(node)
            return self._field_through_pointer(base_val, path)
        # Direct struct variable access.
        if isinstance(node, A.Ident):
            bound = self._scope.lookup(node.name)
            if bound is None:
                raise NormalizationError(
                    f"undeclared struct variable {node.name!r}")
            var, ctype = bound
            if not isinstance(ctype, StructType):
                if isinstance(ctype, PointerType):
                    # s.f where s is actually a pointer (tolerate `.` for
                    # `->`, seen in sloppy code).
                    return self._field_through_pointer(
                        self._lower_ident(node), path)
                raise NormalizationError(
                    f"{node.name} is not a struct")
            leaf = "__".join([var.name] + path)
            ftype = self._leaf_type(ctype, path)
            leaf_var = Var(leaf, var.function)
            return LValue(kind="var", ctype=ftype, var=leaf_var,
                          shadows=self._shadow_map(leaf_var, ftype),
                          summary_key=(ctype.tag, "__".join(path)))
        if isinstance(node, A.Index):
            lv = self._lower_lvalue(node)
            if lv.kind == "var" and isinstance(lv.ctype, StructType):
                leaf = "__".join([lv.var.name] + path)
                ftype = self._leaf_type(lv.ctype, path)
                leaf_var = Var(leaf, lv.var.function)
                return LValue(kind="var", ctype=ftype, var=leaf_var,
                              shadows=self._shadow_map(leaf_var, ftype),
                              summary_key=(lv.ctype.tag, "__".join(path)))
            if lv.kind == "deref" and isinstance(lv.ctype, StructType):
                leafrel = "__".join(path)
                ftype = self._leaf_type(lv.ctype, path)
                sptr = lv.shadows.get(leafrel)
                if sptr is None:
                    return self._collapsed_field(lv.ctype.tag, ftype,
                                                 leafrel)
                return LValue(kind="deref", ctype=ftype, ptr=sptr,
                              shadows=self._nested_shadows(lv.shadows,
                                                           leafrel),
                              summary_key=(lv.ctype.tag, leafrel))
        raise NormalizationError(
            f"unsupported member base {type(node).__name__}")

    def _leaf_type(self, struct_t: StructType, path: Sequence[str]) -> CType:
        t: CType = struct_t
        for fname in path:
            if not isinstance(t, StructType):
                raise NormalizationError(
                    f"field path {'.'.join(path)} does not resolve")
            t = self.structs.field_type(t, fname)
        if isinstance(t, ArrayType):
            t = element_type(t)
        return t

    def _field_through_pointer(self, base_val: Val, path: List[str]
                               ) -> LValue:
        leaf = "__".join(path)
        info = base_struct(base_val.ctype, self.structs) \
            if base_val.ctype else None
        ftype = (self._leaf_type(info[1], path) if info else INT)
        key = (info[1].tag, leaf) if info else None
        if base_val.kind == "addr" and isinstance(base_val.obj, Var) \
                and info and info[0] == 1:
            # (&s)->f: direct access to the flattened field.
            fvar = Var(f"{base_val.obj.name}__{leaf}", base_val.obj.function)
            return LValue(kind="var", ctype=ftype, var=fvar,
                          shadows=self._shadow_map(fvar, ftype),
                          summary_key=key)
        mat = self._materialize(base_val, base_val.ctype)
        if mat is None or mat.var is None:
            raise NormalizationError("member access on a non-value")
        if isinstance(ftype, StructType):
            # Struct-valued field through a pointer: no single cell; its
            # own fields resolve through the nested shadows.
            return LValue(kind="deref", ctype=ftype, ptr=mat.var,
                          shadows=self._nested_shadows(mat.shadows, leaf))
        if key is None:
            self._note_shadow_loss(mat.var, leaf)
            return LValue(kind="deref", ctype=ftype, ptr=mat.var)
        sptr = mat.shadows.get(leaf)
        if sptr is None:
            return self._collapsed_field(key[0], ftype, leaf)
        return LValue(kind="deref", ctype=ftype, ptr=sptr,
                      shadows=self._nested_shadows(mat.shadows, leaf),
                      summary_key=key)

    def _nested_shadows(self, shadows: Dict[str, Var], leaf: str
                        ) -> Dict[str, Var]:
        """Shadows of a field lvalue: deeper paths under ``leaf``."""
        prefix = leaf + "__"
        return {p[len(prefix):]: v for p, v in shadows.items()
                if p.startswith(prefix)}

    def _summary_ptr(self, tag: str, leaf: str) -> Var:
        """A global pointer to the type-based summary cell for field
        ``leaf`` of ``struct tag`` (one abstract cell per field, shared
        by every instance — the field-based abstraction).  The pointer
        is (re-)aimed at the cell at each use; AddrOf is idempotent for
        every analysis."""
        name = f"$fld${tag}${leaf}"
        ptr = self.builder.global_var(name)
        self._em.emit(self._addrof(ptr, AllocSite(f"field:{tag}.{leaf}")))
        return ptr

    def _collapsed_field(self, tag: str, ftype: CType, leaf: str) -> LValue:
        """Field access whose shadows were lost: fall back to the
        type-based summary cell (sound w.r.t. the IR semantics: all
        precise writes mirror into it)."""
        return LValue(kind="deref", ctype=ftype,
                      ptr=self._summary_ptr(tag, leaf),
                      summary_key=(tag, leaf))

    def _read_lvalue(self, lv: LValue) -> Val:
        em = self._em
        if lv.kind == "var":
            if isinstance(lv.ctype, StructType):
                # Struct value read: used only as assignment source.
                return Val(kind="var", ctype=lv.ctype, var=lv.var,
                           shadows=lv.shadows)
            return Val(kind="var", ctype=lv.ctype, var=lv.var,
                       shadows=self._shadow_map(lv.var, lv.ctype))
        # deref read: t = *ptr (mirrored on shadows).  Emitted for
        # non-pointer cells too: the paper's model treats every cell
        # uniformly (Figure 3 computes partitions over int variables).
        from ..ir import Load
        tmp = self._temp(lv.ctype)
        em.emit(Load(tmp, lv.ptr))
        shadows: Dict[str, Var] = {}
        for path, _t in shadow_leaves(lv.ctype, self.structs):
            sptr = lv.shadows.get(path)
            if sptr is None:
                # No shadow source for this field: leave it out so later
                # accesses fall back to the type-based summary cells
                # rather than reading a dead local.
                continue
            stmp = self._shadow_var(tmp, path)
            em.emit(Load(stmp, sptr))
            shadows[path] = stmp
        return Val(kind="var", ctype=lv.ctype, var=tmp, shadows=shadows)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def _lower_call(self, expr: A.Call) -> Val:
        em = self._em
        fn = expr.fn
        while isinstance(fn, A.Cast):
            fn = fn.operand
        # Allocators / deallocators.
        if isinstance(fn, A.Ident) and fn.name in ALLOCATORS:
            for a in expr.args:
                self._lower_expr(a)
            label = self._fresh_label(expr.line)
            site = AllocSite(label)
            out = Val(kind="addr", ctype=PointerType(VOID), obj=site)
            return out
        if isinstance(fn, A.Ident) and fn.name in DEALLOCATORS:
            for a in expr.args:
                val = self._lower_expr(a)
                if val.kind == "var" and val.var is not None:
                    em.free(val.var)
                    for sv in val.shadows.values():
                        em.free(sv)
            return Val(kind="opaque", ctype=VOID)
        # Direct call to a defined or declared function.
        if isinstance(fn, A.Ident):
            bound = self._scope.lookup(fn.name)
            is_fp_var = bound is not None and not isinstance(bound[1], FuncType)
            if not is_fp_var:
                return self._lower_direct_call(fn.name, expr)
        # Indirect call through a pointer expression.
        return self._lower_indirect_call(fn, expr)

    def _lower_direct_call(self, name: str, expr: A.Call) -> Val:
        em = self._em
        ftype = self.func_types.get(name)
        defined = any(f.name == name for f in self.unit.functions)
        arg_vals = [self._lower_expr(a) for a in expr.args]
        if not defined:
            # External function: no body; pointer arguments may be
            # captured but we follow the paper in ignoring library
            # internals (the fresh return temporary aliases nothing).
            # The call itself is kept as an ExternCall statement with one
            # materialized variable per argument, so clients that assign
            # meaning to library calls (the taint engine's sources,
            # sinks and sanitizers) see it with positional arguments.
            ret_t = ftype.ret if ftype else INT
            arg_vars: List[Var] = []
            for val in arg_vals:
                mat = self._materialize(val, val.ctype)
                if mat is None or mat.var is None:
                    mat_var = self._temp(val.ctype)
                else:
                    mat_var = mat.var
                arg_vars.append(mat_var)
            tmp = self._temp(ret_t)
            em.emit(ExternCall(name, tuple(arg_vars), tmp))
            if is_pointerish(ret_t):
                return Val(kind="var", ctype=ret_t, var=tmp,
                           shadows=self._shadow_map(tmp, ret_t))
            # Scalar/void returns stay in the temporary too, so scalar
            # dataflow out of the call (e.g. `x = input()`) is a Copy.
            return Val(kind="var", ctype=ret_t, var=tmp)
        param_types = list(ftype.params) if ftype else []
        for i, val in enumerate(arg_vals):
            ptype = param_types[i] if i < len(param_types) else val.ctype
            conduit = param_var(name, i)
            self._assign_conduit(conduit, ptype, val)
        em.emit(CallStmt(callee=name))
        ret_t = ftype.ret if ftype else INT
        if is_pointerish(ret_t) or isinstance(ret_t, StructType):
            tmp = self._temp(ret_t)
            rv = retval_var(name)
            em.emit(Copy(tmp, rv))
            shadows: Dict[str, Var] = {}
            for path, _t in shadow_leaves(ret_t, self.structs):
                stmp = self._shadow_var(tmp, path)
                em.emit(Copy(stmp, Var(f"{rv.name}__{path}", name)))
                shadows[path] = stmp
            return Val(kind="var", ctype=ret_t, var=tmp, shadows=shadows)
        return Val(kind="opaque", ctype=ret_t)

    def _assign_conduit(self, conduit: Var, ctype: CType, val: Val) -> None:
        """Like :meth:`_assign_var` but the conduit belongs to the callee
        (shadow vars are named in the callee's namespace)."""
        em = self._em
        if val.kind == "null":
            em.emit(self._nullassign(conduit))
            return
        if val.kind == "addr":
            if isinstance(val.obj, (Var, AllocSite)):
                em.emit(self._addrof(conduit, val.obj))
            shadow_paths = [p for p, _t in shadow_leaves(ctype, self.structs)]
            if isinstance(val.obj, AllocSite) and shadow_paths \
                    and not val.shadow_objs:
                val.shadow_objs = {
                    path: AllocSite(f"{val.obj.label}__{path}")
                    for path in shadow_paths}
            for path, sobj in val.shadow_objs.items():
                em.emit(self._addrof(
                    Var(f"{conduit.name}__{path}", conduit.function), sobj))
            return
        if val.kind == "var" and val.var is not None:
            em.emit(Copy(conduit, val.var))
            for path, src in val.shadows.items():
                em.emit(Copy(Var(f"{conduit.name}__{path}",
                                 conduit.function), src))

    @staticmethod
    def _nullassign(lhs: Var):
        from ..ir import NullAssign
        return NullAssign(lhs)

    def _lower_indirect_call(self, fn: A.Expr, expr: A.Call) -> Val:
        em = self._em
        # Strip a leading * (calling through (*fp)(...) or fp(...)).
        while isinstance(fn, A.Unary) and fn.op == "*":
            fn = fn.operand
        fp_val = self._materialize(self._lower_expr(fn),
                                   PointerType(FuncType(INT)))
        if fp_val is None or fp_val.var is None:
            raise NormalizationError("call through a non-pointer value")
        staged: List[Var] = []
        staged_shadows: List[Dict[str, Var]] = []
        for i, a in enumerate(expr.args):
            val = self._lower_expr(a)
            ctype = val.ctype if val.kind != "opaque" else INT
            conduit = self._temp(ctype)
            self._assign_var(conduit, ctype, val)
            staged.append(conduit)
            staged_shadows.append(self._shadow_map(conduit, ctype))
        node = em.emit(CallStmt(fp=fp_val.var))
        # Determine the return type from the pointer's static type.
        ret_t: CType = INT
        t = fp_val.ctype
        while isinstance(t, PointerType):
            t = t.base
        if isinstance(t, FuncType):
            ret_t = t.ret
        ret_var: Optional[Var] = None
        if is_pointerish(ret_t):
            ret_var = self._temp(ret_t)
        self.builder._indirect_sites.append(
            (em.name, node, tuple(staged), ret_var,
             tuple(staged_shadows)))
        if ret_var is not None:
            return Val(kind="var", ctype=ret_t, var=ret_var,
                       shadows=self._shadow_map(ret_var, ret_t))
        return Val(kind="opaque", ctype=ret_t)


def normalize(unit: A.TranslationUnit, structs: StructTable,
              entry: str = "main") -> Program:
    """Lower a parsed translation unit to a :class:`Program`."""
    return Normalizer(unit, structs, entry=entry).run()
