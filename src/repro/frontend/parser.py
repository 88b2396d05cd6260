"""Recursive-descent parser for the mini-C subset.

Grammar highlights:

* top level: struct definitions, typedefs, global variable declarations,
  function definitions;
* declarators: pointers (``int **p``), arrays (``int *a[4]``), function
  pointers (``int (*fp)(int, char*)``);
* statements: blocks, ``if``/``else``, ``while``, ``do``/``while``,
  ``for``, ``switch`` (arms become nondeterministic branches),
  ``return``, ``break``, ``continue``, declarations with initializers;
* expressions: full C precedence ladder minus bit-level exotica, with
  ``sizeof``, casts, ``?:``, comma, and compound assignment.

The parser performs *no* semantic analysis; it produces the AST of
:mod:`.ast_nodes`, and the normalizer does the rest.

It reads the :class:`~.lexer.Token` tuples of :func:`.lexer.tokenize`
(called through this module's binding) by direct index, and tests
keyword classes against precomputed frozensets.  Any object with the
token's four fields and ``is_punct``/``is_kw`` will do: the kernel
suite runs the parser on :mod:`.reference`'s tokens too and requires
the same IR, span for span.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ParseError
from . import ast_nodes as A
from .lexer import Token, tokenize
from .types import (
    INT,
    VOID,
    ArrayType,
    CType,
    FloatType,
    FuncType,
    IntType,
    PointerType,
    StructTable,
    StructType,
)

_TYPE_KEYWORDS = frozenset({"int", "char", "long", "short", "unsigned",
                            "signed", "void", "float", "double", "struct",
                            "union", "enum"})
_QUALIFIERS = frozenset({"static", "extern", "const", "volatile"})
#: Keywords that can open a type name or a declaration.
_TYPE_START = _TYPE_KEYWORDS | _QUALIFIERS
#: The keywords a multi-word basic type (``unsigned long``) is made of.
_BASIC_TYPE_WORDS = _TYPE_KEYWORDS - {"struct", "union", "enum"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}

# Binary operator precedence (higher binds tighter).
_BINARY_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self.structs = StructTable()
        self.typedefs: Dict[str, CType] = {}
        self._anon_counter = 0

    # ------------------------------------------------------------------
    # token plumbing: ``pos`` never passes the eof token, so only a
    # look-ahead can index past the end
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return self.tokens[-1]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_punct(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.column)
        self.pos += 1
        return tok

    def expect_id(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "id":
            raise ParseError(f"expected identifier, found {tok.text!r}",
                             tok.line, tok.column)
        self.pos += 1
        return tok

    def skip_to_punct(self, text: str) -> None:
        """Skip tokens up to, not past, the punctuator ``text``.  Reaching
        end of input first is a :class:`ParseError` at the EOF token
        (``next`` never advances past EOF, so a bare loop would spin)."""
        while not self.peek().is_punct(text):
            if self.peek().kind == "eof":
                raise self.error(f"expected {text!r} before end of input")
            self.next()

    def error(self, msg: str) -> ParseError:
        tok = self.peek()
        return ParseError(msg + f" (at {tok.text!r})", tok.line, tok.column)

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def parse(self) -> A.TranslationUnit:
        globals_: List[A.DeclStmt] = []
        functions: List[A.FuncDef] = []
        while self.peek().kind != "eof":
            if self.peek().is_kw("typedef"):
                self._parse_typedef()
                continue
            item = self._parse_external()
            if isinstance(item, A.FuncDef):
                functions.append(item)
            elif isinstance(item, A.DeclStmt) and item.decls:
                globals_.append(item)
        return A.TranslationUnit(globals=globals_, functions=functions)

    def _parse_external(self):
        """A function definition or a global declaration."""
        self._skip_qualifiers()
        base = self._parse_type_specifier()
        if self.peek().is_punct(";"):  # bare struct definition
            self.next()
            return A.DeclStmt(decls=[], line=self.peek().line, col=self.peek().column)
        name, full_type, params = self._parse_declarator(base)
        if isinstance(full_type, FuncType) and self.peek().is_punct("{"):
            if name is None:
                raise self.error("function definition requires a name")
            body = self._parse_block()
            return A.FuncDef(name=name, ret=full_type.ret,
                             params=params or [], body=body,
                             line=self.peek().line, col=self.peek().column)
        # Global declaration (possibly several declarators).
        decls = [self._finish_declarator(name, full_type)]
        while self.peek().is_punct(","):
            self.next()
            n2, t2, _ = self._parse_declarator(base)
            decls.append(self._finish_declarator(n2, t2))
        self.expect_punct(";")
        return A.DeclStmt(decls=decls, line=self.peek().line, col=self.peek().column)

    def _finish_declarator(self, name: Optional[str], typ: CType
                           ) -> A.Declarator:
        if name is None:
            raise self.error("declaration requires a name")
        init = None
        line = self.peek().line
        col = self.peek().column
        if self.peek().is_punct("="):
            self.next()
            init = self._parse_initializer()
        return A.Declarator(name=name, type=typ, init=init, line=line, col=col)

    def _parse_initializer(self) -> A.Expr:
        if self.peek().is_punct("{"):
            # Aggregate initializer: parse and collapse to a comma expr of
            # its parts (the normalizer pairs them with flattened fields).
            line = self.peek().line
            col = self.peek().column
            self.next()
            parts: List[A.Expr] = []
            while not self.peek().is_punct("}"):
                parts.append(self._parse_initializer())
                if self.peek().is_punct(","):
                    self.next()
            self.expect_punct("}")
            return A.Comma(parts=parts, line=line, col=col)
        return self._parse_assignment()

    def _parse_typedef(self) -> None:
        self.next()  # typedef
        self._skip_qualifiers()
        base = self._parse_type_specifier()
        name, full_type, _ = self._parse_declarator(base)
        if name is None:
            raise self.error("typedef requires a name")
        self.typedefs[name] = full_type
        self.expect_punct(";")

    # ------------------------------------------------------------------
    # types and declarators
    # ------------------------------------------------------------------
    def _skip_qualifiers(self) -> None:
        tok = self.peek()
        while tok.kind == "kw" and tok.text in _QUALIFIERS:
            self.next()
            tok = self.peek()

    def at_type_start(self, offset: int = 0) -> bool:
        """Does the token ``offset`` ahead open a type name?"""
        tok = self.peek(offset)
        if tok.kind == "kw":
            return tok.text in _TYPE_START
        return tok.kind == "id" and tok.text in self.typedefs

    def _parse_type_specifier(self) -> CType:
        self._skip_qualifiers()
        tok = self.peek()
        if tok.kind == "id" and tok.text in self.typedefs:
            self.next()
            return self.typedefs[tok.text]
        if tok.is_kw("struct", "union"):
            return self._parse_struct()
        if tok.is_kw("enum"):
            return self._parse_enum()
        if tok.kind != "kw" or tok.text not in _TYPE_KEYWORDS:
            raise self.error("expected a type")
        names: List[str] = []
        tok = self.peek()
        while tok.kind == "kw" and tok.text in _BASIC_TYPE_WORDS:
            names.append(self.next().text)
            self._skip_qualifiers()
            tok = self.peek()
        text = " ".join(names)
        if "void" in names:
            return VOID
        if "float" in names or "double" in names:
            return FloatType(text)
        return IntType(text or "int")

    def _parse_struct(self) -> CType:
        self.next()  # struct/union
        tag: Optional[str] = None
        if self.peek().kind == "id":
            tag = self.next().text
        if self.peek().is_punct("{"):
            self.next()
            if tag is None:
                self._anon_counter += 1
                tag = f"$anon{self._anon_counter}"
            fields: List[Tuple[str, CType]] = []
            while not self.peek().is_punct("}"):
                self._skip_qualifiers()
                base = self._parse_type_specifier()
                while True:
                    fname, ftype, _ = self._parse_declarator(base)
                    if fname is None:
                        raise self.error("struct field requires a name")
                    fields.append((fname, ftype))
                    if self.peek().is_punct(","):
                        self.next()
                        continue
                    break
                self.expect_punct(";")
            self.expect_punct("}")
            return self.structs.declare(tag, fields)
        if tag is None:
            raise self.error("struct requires a tag or body")
        return StructType(tag)

    def _parse_enum(self) -> CType:
        self.next()  # enum
        if self.peek().kind == "id":
            self.next()
        if self.peek().is_punct("{"):
            self.next()
            self.skip_to_punct("}")
            self.expect_punct("}")
        return INT

    def _parse_declarator(self, base: CType
                          ) -> Tuple[Optional[str], CType, Optional[List[A.Param]]]:
        """Parse one declarator; returns (name, full type, params-if-function).

        Handles ``* const``-style pointers, parenthesized declarators
        (function pointers), array suffixes and parameter lists.
        """
        typ = base
        while self.peek().is_punct("*"):
            self.next()
            self._skip_qualifiers()
            typ = PointerType(typ)
        name: Optional[str] = None
        inner_marker: Optional[int] = None
        if self.peek().is_punct("("):
            # Could be a parenthesized declarator `(*fp)` or a parameter
            # list for an abstract declarator; disambiguate on `*` or id.
            if self.peek(1).is_punct("*") or self.peek(1).kind == "id":
                self.next()
                inner_marker = self.pos
                depth = 1
                while depth:
                    tok = self.next()
                    if tok.is_punct("("):
                        depth += 1
                    elif tok.is_punct(")"):
                        depth -= 1
                    elif tok.kind == "eof":
                        raise self.error("unterminated declarator")
        elif self.peek().kind == "id":
            name = self.next().text
        # Suffixes: arrays and parameter lists (applied to `typ`).
        params: Optional[List[A.Param]] = None
        while True:
            if self.peek().is_punct("["):
                self.next()
                size = None
                if not self.peek().is_punct("]"):
                    tok = self.next()
                    if tok.kind == "num":
                        try:
                            size = int(tok.text, 0)
                        except ValueError:
                            size = None
                    self.skip_to_punct("]")
                self.expect_punct("]")
                typ = ArrayType(typ, size)
            elif self.peek().is_punct("("):
                self.next()
                params = self._parse_params()
                self.expect_punct(")")
                typ = FuncType(ret=typ,
                               params=tuple(p.type for p in params),
                               variadic=any(p.name == "..." for p in params))
                params = [p for p in params if p.name != "..."]
            else:
                break
        if inner_marker is not None:
            # Re-parse the parenthesized inner declarator against the
            # suffixed outer type.
            saved = self.pos
            self.pos = inner_marker
            name, typ, inner_params = self._parse_declarator(typ)
            self.expect_punct(")")
            self.pos = saved
            if inner_params is not None:
                params = inner_params
        return name, typ, params

    def _parse_params(self) -> List[A.Param]:
        params: List[A.Param] = []
        if self.peek().is_punct(")"):
            return params
        while True:
            if self.peek().is_punct("..."):
                self.next()
                params.append(A.Param(name="...", type=INT))
            elif self.peek().is_kw("void") and self.peek(1).is_punct(")"):
                self.next()
            else:
                self._skip_qualifiers()
                base = self._parse_type_specifier()
                name, typ, _ = self._parse_declarator(base)
                if isinstance(typ, ArrayType):
                    typ = PointerType(typ.base)  # array params decay
                if isinstance(typ, FuncType):
                    typ = PointerType(typ)  # function params decay
                params.append(A.Param(name=name, type=typ))
            if self.peek().is_punct(","):
                self.next()
                continue
            break
        return params

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> A.Block:
        line = self.peek().line
        col = self.peek().column
        self.expect_punct("{")
        body: List[A.Stmt] = []
        while not self.peek().is_punct("}"):
            body.append(self._parse_stmt())
        self.expect_punct("}")
        return A.Block(body=body, line=line, col=col)

    def _parse_stmt(self) -> A.Stmt:
        tok = self.peek()
        line = tok.line
        col = tok.column
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_punct(";"):
            self.next()
            return A.Empty(line=line, col=col)
        if tok.is_kw("if"):
            self.next()
            self.expect_punct("(")
            cond = self._parse_expr()
            self.expect_punct(")")
            then = self._parse_stmt()
            otherwise = None
            if self.peek().is_kw("else"):
                self.next()
                otherwise = self._parse_stmt()
            return A.If(cond=cond, then=then, otherwise=otherwise, line=line, col=col)
        if tok.is_kw("while"):
            self.next()
            self.expect_punct("(")
            cond = self._parse_expr()
            self.expect_punct(")")
            body = self._parse_stmt()
            return A.While(cond=cond, body=body, line=line, col=col)
        if tok.is_kw("do"):
            self.next()
            body = self._parse_stmt()
            if not self.peek().is_kw("while"):
                raise self.error("expected while after do body")
            self.next()
            self.expect_punct("(")
            cond = self._parse_expr()
            self.expect_punct(")")
            self.expect_punct(";")
            return A.While(cond=cond, body=body, do_while=True, line=line, col=col)
        if tok.is_kw("for"):
            self.next()
            self.expect_punct("(")
            init: Optional[A.Stmt] = None
            if not self.peek().is_punct(";"):
                if self.at_type_start():
                    init = self._parse_decl_stmt()
                else:
                    init = A.ExprStmt(expr=self._parse_expr(), line=line, col=col)
                    self.expect_punct(";")
            else:
                self.next()
            cond = None
            if not self.peek().is_punct(";"):
                cond = self._parse_expr()
            self.expect_punct(";")
            step = None
            if not self.peek().is_punct(")"):
                step = self._parse_expr()
            self.expect_punct(")")
            body = self._parse_stmt()
            return A.For(init=init, cond=cond, step=step, body=body, line=line, col=col)
        if tok.is_kw("switch"):
            return self._parse_switch()
        if tok.is_kw("return"):
            self.next()
            value = None
            if not self.peek().is_punct(";"):
                value = self._parse_expr()
            self.expect_punct(";")
            return A.Return(value=value, line=line, col=col)
        if tok.is_kw("break"):
            self.next()
            self.expect_punct(";")
            return A.Break(line=line, col=col)
        if tok.is_kw("continue"):
            self.next()
            self.expect_punct(";")
            return A.Continue(line=line, col=col)
        if tok.is_kw("goto"):
            # Unsupported control flow: treated as an early return, which
            # over-approximates by ending the path (documented limit).
            self.next()
            self.expect_id()
            self.expect_punct(";")
            return A.Return(line=line, col=col)
        if self.at_type_start():
            return self._parse_decl_stmt()
        if tok.kind == "id" and self.peek(1).is_punct(":"):
            # Label: skip it, parse the labelled statement.
            self.next()
            self.next()
            return self._parse_stmt()
        expr = self._parse_expr()
        self.expect_punct(";")
        return A.ExprStmt(expr=expr, line=line, col=col)

    def _parse_decl_stmt(self) -> A.DeclStmt:
        line = self.peek().line
        col = self.peek().column
        self._skip_qualifiers()
        base = self._parse_type_specifier()
        decls: List[A.Declarator] = []
        if not self.peek().is_punct(";"):
            while True:
                name, typ, _ = self._parse_declarator(base)
                decls.append(self._finish_declarator(name, typ))
                if self.peek().is_punct(","):
                    self.next()
                    continue
                break
        self.expect_punct(";")
        return A.DeclStmt(decls=decls, line=line, col=col)

    def _parse_switch(self) -> A.Switch:
        line = self.peek().line
        col = self.peek().column
        self.next()  # switch
        self.expect_punct("(")
        cond = self._parse_expr()
        self.expect_punct(")")
        self.expect_punct("{")
        arms: List[A.Stmt] = []
        current: List[A.Stmt] = []
        saw_arm = False
        while not self.peek().is_punct("}"):
            if self.peek().is_kw("case", "default"):
                if saw_arm and current:
                    arms.append(A.Block(body=current, line=line, col=col))
                    current = []
                saw_arm = True
                if self.next().text == "case":
                    self._parse_expr()  # the case value is irrelevant
                self.expect_punct(":")
                continue
            stmt = self._parse_stmt()
            if isinstance(stmt, A.Break):
                if current:
                    arms.append(A.Block(body=current, line=line, col=col))
                    current = []
                continue
            current.append(stmt)
        if current:
            arms.append(A.Block(body=current, line=line, col=col))
        self.expect_punct("}")
        return A.Switch(cond=cond, arms=arms, line=line, col=col)

    # ------------------------------------------------------------------
    # expressions (precedence ladder)
    # ------------------------------------------------------------------
    def _parse_expr(self) -> A.Expr:
        expr = self._parse_assignment()
        if self.peek().is_punct(","):
            parts = [expr]
            while self.peek().is_punct(","):
                self.next()
                parts.append(self._parse_assignment())
            return A.Comma(parts=parts, line=parts[0].line,
                           col=parts[0].col)
        return expr

    def _parse_assignment(self) -> A.Expr:
        lhs = self._parse_ternary()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in _ASSIGN_OPS:
            self.next()
            rhs = self._parse_assignment()
            return A.Assign(lhs=lhs, rhs=rhs, op=tok.text, line=tok.line, col=tok.column)
        return lhs

    def _parse_ternary(self) -> A.Expr:
        cond = self._parse_binary(1)
        if self.peek().is_punct("?"):
            qtok = self.next()
            then = self._parse_expr()
            self.expect_punct(":")
            otherwise = self._parse_assignment()
            return A.Ternary(cond=cond, then=then, otherwise=otherwise,
                             line=qtok.line, col=qtok.column)
        return cond

    def _parse_binary(self, min_prec: int) -> A.Expr:
        left = self._parse_unary()
        while True:
            tok = self.peek()
            prec = _BINARY_PREC.get(tok.text) if tok.kind == "punct" else None
            if prec is None or prec < min_prec:
                return left
            self.next()
            right = self._parse_binary(prec + 1)
            left = A.Binary(op=tok.text, left=left, right=right,
                            line=tok.line, col=tok.column)

    def _parse_unary(self) -> A.Expr:
        tok = self.peek()
        if tok.is_punct("*", "&", "-", "+", "!", "~"):
            self.next()
            operand = self._parse_unary()
            return A.Unary(op=tok.text, operand=operand, line=tok.line, col=tok.column)
        if tok.is_punct("++", "--"):
            self.next()
            operand = self._parse_unary()
            return A.Unary(op=tok.text, operand=operand, line=tok.line, col=tok.column)
        if tok.is_kw("sizeof"):
            self.next()
            if self.peek().is_punct("(") and self.at_type_start(1):
                self.next()
                self._parse_type_name()
                self.expect_punct(")")
            else:
                self._parse_unary()
            return A.SizeOf(line=tok.line, col=tok.column)
        if tok.is_punct("(") and self.at_type_start(1):
            self.next()
            typ = self._parse_type_name()
            self.expect_punct(")")
            operand = self._parse_unary()
            return A.Cast(type=typ, operand=operand, line=tok.line, col=tok.column)
        return self._parse_postfix()

    def _parse_type_name(self) -> CType:
        self._skip_qualifiers()
        base = self._parse_type_specifier()
        # Abstract declarator: only pointer/array suffixes supported.
        typ = base
        while self.peek().is_punct("*"):
            self.next()
            self._skip_qualifiers()
            typ = PointerType(typ)
        while self.peek().is_punct("["):
            self.next()
            self.skip_to_punct("]")
            self.expect_punct("]")
            typ = ArrayType(typ)
        return typ

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self.peek()
            if tok.is_punct("("):
                self.next()
                args: List[A.Expr] = []
                while not self.peek().is_punct(")"):
                    args.append(self._parse_assignment())
                    if self.peek().is_punct(","):
                        self.next()
                self.expect_punct(")")
                expr = A.Call(fn=expr, args=args, line=tok.line, col=tok.column)
            elif tok.is_punct("["):
                self.next()
                idx = self._parse_expr()
                self.expect_punct("]")
                expr = A.Index(base=expr, index=idx, line=tok.line, col=tok.column)
            elif tok.is_punct("."):
                self.next()
                field = self.expect_id().text
                expr = A.Member(base=expr, field=field, arrow=False,
                                line=tok.line, col=tok.column)
            elif tok.is_punct("->"):
                self.next()
                field = self.expect_id().text
                expr = A.Member(base=expr, field=field, arrow=True,
                                line=tok.line, col=tok.column)
            elif tok.is_punct("++", "--"):
                self.next()
                expr = A.Unary(op="p" + tok.text, operand=expr,
                               line=tok.line, col=tok.column)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self.peek()
        if tok.is_punct("("):
            self.next()
            expr = self._parse_expr()
            self.expect_punct(")")
            return expr
        if tok.kind == "num":
            self.next()
            try:
                value = int(tok.text.rstrip("uUlL"), 0)
            except ValueError:
                value = 0
            return A.IntLit(value=value, line=tok.line, col=tok.column)
        if tok.kind in ("str", "char"):
            self.next()
            return A.StrLit(text=tok.text, line=tok.line, col=tok.column)
        if tok.is_kw("NULL"):
            self.next()
            return A.NullLit(line=tok.line, col=tok.column)
        if tok.kind == "id":
            self.next()
            return A.Ident(name=tok.text, line=tok.line, col=tok.column)
        raise self.error("expected an expression")


def parse_source(source: str) -> Tuple[A.TranslationUnit, StructTable]:
    """Parse mini-C source; returns the AST and the struct table."""
    parser = Parser(source)
    unit = parser.parse()
    return unit, parser.structs
