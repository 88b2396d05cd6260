"""Parser tests: declarations, statements, expressions."""

import signal
from contextlib import contextmanager

import pytest

from repro.errors import NormalizationError, ParseError
from repro.frontend import parse_program, parse_source
from repro.frontend.lexer import tokenize
from repro.frontend import ast_nodes as A
from repro.frontend.types import (
    ArrayType,
    FuncType,
    IntType,
    PointerType,
    StructType,
)


def parse(src):
    unit, structs = parse_source(src)
    return unit


def first_func(src):
    return parse(src).functions[0]


class TestDeclarations:
    def test_simple_global(self):
        unit = parse("int x;")
        assert unit.globals[0].decls[0].name == "x"
        assert isinstance(unit.globals[0].decls[0].type, IntType)

    def test_pointer_levels(self):
        unit = parse("int ***p;")
        t = unit.globals[0].decls[0].type
        depth = 0
        while isinstance(t, PointerType):
            depth += 1
            t = t.base
        assert depth == 3

    def test_multiple_declarators(self):
        unit = parse("int a, *b, **c;")
        types = [d.type for d in unit.globals[0].decls]
        assert isinstance(types[0], IntType)
        assert isinstance(types[1], PointerType)
        assert isinstance(types[2].base, PointerType)

    def test_array(self):
        unit = parse("int a[10];")
        t = unit.globals[0].decls[0].type
        assert isinstance(t, ArrayType) and t.size == 10

    def test_array_of_pointers(self):
        unit = parse("int *a[4];")
        t = unit.globals[0].decls[0].type
        assert isinstance(t, ArrayType)
        assert isinstance(t.base, PointerType)

    def test_initializer(self):
        unit = parse("int x = 5;")
        assert isinstance(unit.globals[0].decls[0].init, A.IntLit)

    def test_qualifiers_skipped(self):
        unit = parse("static const unsigned long x;")
        assert unit.globals[0].decls[0].name == "x"

    def test_extern_prototype(self):
        unit = parse("extern int f(int x);\nint g() { return 0; }")
        assert [f.name for f in unit.functions] == ["g"]


class TestStructs:
    def test_struct_definition(self):
        unit, structs = parse_source("struct S { int a; int *b; };")
        assert structs.is_defined("S")
        fields = structs.fields_of(StructType("S"))
        assert [f[0] for f in fields] == ["a", "b"]

    def test_nested_struct(self):
        unit, structs = parse_source(
            "struct In { int x; }; struct Out { struct In i; int y; };")
        flat = structs.flatten(StructType("Out"), "o")
        assert [f[0] for f in flat] == ["o__i__x", "o__y"]

    def test_anonymous_struct_typedef(self):
        unit, structs = parse_source("typedef struct { int x; } T; T t;")
        decl = unit.globals[0].decls[0]
        assert isinstance(decl.type, StructType)

    def test_struct_variable(self):
        unit = parse("struct S { int x; }; struct S s;")
        assert isinstance(unit.globals[0].decls[0].type, StructType)

    def test_recursive_struct_through_pointer(self):
        unit, structs = parse_source(
            "struct node { struct node *next; int v; };")
        fields = structs.fields_of(StructType("node"))
        assert isinstance(fields[0][1], PointerType)


class TestTypedefs:
    def test_scalar_typedef(self):
        unit = parse("typedef int myint; myint x;")
        assert isinstance(unit.globals[0].decls[0].type, IntType)

    def test_pointer_typedef(self):
        unit = parse("typedef int *iptr; iptr p;")
        assert isinstance(unit.globals[0].decls[0].type, PointerType)

    def test_function_pointer_typedef(self):
        unit = parse("typedef int (*handler)(int); handler h;")
        t = unit.globals[0].decls[0].type
        assert isinstance(t, PointerType)
        assert isinstance(t.base, FuncType)


class TestFunctions:
    def test_definition(self):
        fn = first_func("int add(int a, int b) { return 0; }")
        assert fn.name == "add"
        assert [p.name for p in fn.params] == ["a", "b"]

    def test_void_params(self):
        fn = first_func("int f(void) { return 0; }")
        assert fn.params == []

    def test_pointer_param(self):
        fn = first_func("void f(int **pp) { }")
        assert isinstance(fn.params[0].type.base, PointerType)

    def test_array_param_decays(self):
        fn = first_func("void f(int a[]) { }")
        assert isinstance(fn.params[0].type, PointerType)

    def test_variadic(self):
        fn = first_func("void f(int a, ...) { }")
        assert [p.name for p in fn.params] == ["a"]

    def test_function_pointer_param(self):
        fn = first_func("void f(int (*cb)(int)) { }")
        assert fn.params[0].name == "cb"
        assert isinstance(fn.params[0].type, FuncType) or \
            isinstance(fn.params[0].type, PointerType)


class TestStatements:
    def body(self, code):
        return first_func(f"void f() {{ {code} }}").body.body

    def test_if_else(self):
        (stmt,) = self.body("if (1) x = 1; else x = 2;")
        assert isinstance(stmt, A.If) and stmt.otherwise is not None

    def test_while(self):
        (stmt,) = self.body("while (x) x = x - 1;")
        assert isinstance(stmt, A.While) and not stmt.do_while

    def test_do_while(self):
        (stmt,) = self.body("do x = 1; while (x);")
        assert isinstance(stmt, A.While) and stmt.do_while

    def test_for_full(self):
        (stmt,) = self.body("for (i = 0; i < 3; i++) x = i;")
        assert isinstance(stmt, A.For)
        assert stmt.init is not None and stmt.cond is not None

    def test_for_with_decl(self):
        (stmt,) = self.body("for (int i = 0; i < 3; i++) ;")
        assert isinstance(stmt.init, A.DeclStmt)

    def test_for_empty_clauses(self):
        (stmt,) = self.body("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_switch_arms(self):
        (stmt,) = self.body(
            "switch (x) { case 1: a = 1; break; case 2: a = 2; break; "
            "default: a = 3; }")
        assert isinstance(stmt, A.Switch)
        assert len(stmt.arms) == 3

    def test_return_value(self):
        (stmt,) = self.body("return x;")
        assert isinstance(stmt, A.Return) and stmt.value is not None

    def test_break_continue(self):
        stmts = self.body("while (1) { break; } while (1) { continue; }")
        assert isinstance(stmts[0].body.body[0], A.Break)
        assert isinstance(stmts[1].body.body[0], A.Continue)

    def test_goto_becomes_return(self):
        (stmt,) = self.body("goto out;")
        assert isinstance(stmt, A.Return)

    def test_label_skipped(self):
        (stmt,) = self.body("out: x = 1;")
        assert isinstance(stmt, A.ExprStmt)

    def test_empty_statement(self):
        (stmt,) = self.body(";")
        assert isinstance(stmt, A.Empty)

    def test_nested_blocks(self):
        (stmt,) = self.body("{ { x = 1; } }")
        assert isinstance(stmt, A.Block)


class TestExpressions:
    def expr(self, code):
        (stmt,) = first_func(f"void f() {{ {code}; }}").body.body
        return stmt.expr

    def test_assignment(self):
        e = self.expr("x = y")
        assert isinstance(e, A.Assign) and e.op == "="

    def test_compound_assignment(self):
        e = self.expr("x += 2")
        assert isinstance(e, A.Assign) and e.op == "+="

    def test_precedence(self):
        e = self.expr("x = a + b * c")
        assert isinstance(e.rhs, A.Binary) and e.rhs.op == "+"
        assert e.rhs.right.op == "*"

    def test_comparison_chain(self):
        e = self.expr("x = a < b == c")
        assert e.rhs.op == "=="

    def test_logical_ops(self):
        e = self.expr("x = a && b || c")
        assert e.rhs.op == "||"

    def test_unary_deref_addr(self):
        e = self.expr("*p = &q")
        assert isinstance(e.lhs, A.Unary) and e.lhs.op == "*"
        assert isinstance(e.rhs, A.Unary) and e.rhs.op == "&"

    def test_double_deref(self):
        e = self.expr("x = **pp")
        assert e.rhs.op == "*" and e.rhs.operand.op == "*"

    def test_member_access(self):
        e = self.expr("x = s.f")
        assert isinstance(e.rhs, A.Member) and not e.rhs.arrow

    def test_arrow_access(self):
        e = self.expr("x = p->f")
        assert isinstance(e.rhs, A.Member) and e.rhs.arrow

    def test_chained_member(self):
        e = self.expr("x = p->a.b")
        assert isinstance(e.rhs, A.Member)
        assert isinstance(e.rhs.base, A.Member) and e.rhs.base.arrow

    def test_index(self):
        e = self.expr("x = a[i]")
        assert isinstance(e.rhs, A.Index)

    def test_call_args(self):
        e = self.expr("g(a, b, c)")
        assert isinstance(e, A.Call) and len(e.args) == 3

    def test_call_through_pointer(self):
        e = self.expr("(*fp)(a)")
        assert isinstance(e, A.Call)
        assert isinstance(e.fn, A.Unary)

    def test_cast(self):
        e = self.expr("x = (int *)p")
        assert isinstance(e.rhs, A.Cast)
        assert isinstance(e.rhs.type, PointerType)

    def test_sizeof_type(self):
        e = self.expr("x = sizeof(int)")
        assert isinstance(e.rhs, A.SizeOf)

    def test_sizeof_expr(self):
        e = self.expr("x = sizeof x")
        assert isinstance(e.rhs, A.SizeOf)

    def test_ternary(self):
        e = self.expr("x = c ? a : b")
        assert isinstance(e.rhs, A.Ternary)

    def test_comma(self):
        e = self.expr("x = (a, b)")
        assert isinstance(e.rhs, A.Comma)

    def test_null_literal(self):
        e = self.expr("p = NULL")
        assert isinstance(e.rhs, A.NullLit)

    def test_pre_post_increment(self):
        e1 = self.expr("++x")
        e2 = self.expr("x++")
        assert e1.op == "++" and e2.op == "p++"

    def test_nested_parens(self):
        e = self.expr("x = ((a))")
        assert isinstance(e.rhs, A.Ident)


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int x")

    def test_unbalanced_brace(self):
        with pytest.raises(ParseError):
            parse("void f() { ")

    def test_bad_expression(self):
        with pytest.raises(ParseError):
            parse("void f() { x = ; }")

    def test_struct_without_tag_or_body(self):
        with pytest.raises(ParseError):
            parse("struct;")

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as info:
            parse("void f() {\n x = ;\n}")
        assert info.value.line == 2


@contextmanager
def _deadline(seconds):
    """Turn a hang into a failure: raise in the main thread after
    ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds}s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: Uses every construct whose body the parser skips token by token: an
#: enum body, array declarators and an abstract declarator in sizeof.
_SKIPPING = ("enum color { RED, GREEN, BLUE }; int table[4]; "
             "int main(void) { int buf[8]; int n; n = sizeof(int[2]); "
             "return 0; }")


class TestEndOfInput:
    """Input that ends inside a skipped construct is a ParseError with a
    location, never a spin at EOF."""

    @pytest.mark.parametrize("source", [
        "int a[3",
        "int f(void) { int a[2",
        "int f(void) { int x; x = sizeof(int[2",
        "enum e { A, B",
    ])
    def test_unterminated_construct(self, source):
        with _deadline(5), pytest.raises(ParseError) as info:
            parse_program(source)
        assert info.value.line == 1 and info.value.column > 0

    def test_every_token_prefix_parses_or_fails_cleanly(self):
        tokens = tokenize(_SKIPPING)[:-1]  # not the eof token
        assert len(tokens) == 45
        for tok in tokens:
            prefix = _SKIPPING[:tok.column - 1]
            with _deadline(5):
                try:
                    parse_program(prefix)
                except (ParseError, NormalizationError):
                    pass
