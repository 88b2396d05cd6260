"""The scanner :mod:`.lexer` replaced: the oracle its kernel answers to.

:func:`tokenize` here is the hand-written character-at-a-time scanner
and :class:`Token` the frozen dataclass it returned, kept verbatim.
:mod:`.lexer` scans the same language with one compiled master pattern
and returns tuple tokens; ``tests/test_frontend_kernel.py`` holds the
two identical -- the same ``(kind, text, line, column)`` list, or the
same :class:`~repro.errors.ParseError` message and position, on every
input -- and checks that the parser builds the same IR, span for span,
from either token stream.  No production module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ParseError
from .lexer import KEYWORDS, PUNCT


@dataclass(frozen=True)
class Token:
    kind: str      # "id", "num", "str", "char", "kw", "punct", "eof"
    text: str
    line: int
    column: int

    def is_punct(self, *texts: str) -> bool:
        return self.kind == "punct" and self.text in texts

    def is_kw(self, *texts: str) -> bool:
        return self.kind == "kw" and self.text in texts

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.text!r})"


def tokenize(source: str) -> List[Token]:
    """Scan ``source`` into tokens, ending with a single ``eof`` token."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str) -> ParseError:
        return ParseError(msg, line, col)

    while i < n:
        ch = source[i]
        # -- whitespace ------------------------------------------------
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            col += 1
            continue
        # -- comments / preprocessor ------------------------------------
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise error("unterminated block comment")
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if ch == "#" and (not tokens or tokens[-1].line != line):
            while i < n and source[i] != "\n":
                if source[i] == "\\" and i + 1 < n and source[i + 1] == "\n":
                    i += 2
                    line += 1
                    continue
                i += 1
            continue
        # -- identifiers / keywords -------------------------------------
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "kw" if text in KEYWORDS else "id"
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue
        # -- numbers ----------------------------------------------------
        if ch.isdigit():
            start = i
            if source.startswith(("0x", "0X"), i):
                i += 2
                while i < n and (source[i].isalnum()):
                    i += 1
            else:
                while i < n and (source[i].isdigit() or source[i] in ".eEuUlLfF"):
                    if source[i] in "eE" and i + 1 < n and source[i + 1] in "+-":
                        i += 1
                    i += 1
            tokens.append(Token("num", source[start:i], line, col))
            col += i - start
            continue
        # -- string / char literals -------------------------------------
        if ch in "\"'":
            quote = ch
            start = i
            i += 1
            while i < n and source[i] != quote:
                if source[i] == "\\":
                    i += 1
                if i < n and source[i] == "\n":
                    line += 1
                i += 1
            if i >= n:
                raise error("unterminated literal")
            i += 1
            kind = "str" if quote == '"' else "char"
            tokens.append(Token(kind, source[start:i], line, col))
            col += i - start
            continue
        # -- punctuation --------------------------------------------------
        for p in PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise error(f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens
