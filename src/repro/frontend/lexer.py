"""Tokenizer for the mini-C subset.

A scanner kernel producing a flat token list with line/column info.
Comments (``//`` and ``/* */``) and preprocessor lines (``# ...``) are
skipped; string/char literals are retained as single tokens (their
contents never matter to pointer analysis).

One compiled master pattern (:data:`_MASTER`) covers the common
classes -- whitespace runs, newlines with the next line's indentation,
``//`` comments, ``/*`` openers, words and punctuators -- so a token
costs one ``match`` and one dispatch on ``lastgroup``.  The punctuators
form one alternation in :data:`PUNCT` order, so the longest match still
wins.  Everything else keeps the character-at-a-time code:
block-comment bodies, ``#`` directives, literals, numbers (they stay on
``str.isdigit()``, which disagrees with ``\\d`` on code points such as
``²``) and every error.  Tokens are :class:`Token` named tuples.

:mod:`.reference` keeps the scanner this one replaced;
``tests/test_frontend_kernel.py`` holds the two identical, token for
token and error for error.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional

from ..errors import ParseError

KEYWORDS = {
    "int", "char", "long", "short", "unsigned", "signed", "void", "float",
    "double", "struct", "union", "typedef", "if", "else", "while", "for",
    "do", "return", "break", "continue", "sizeof", "NULL", "static",
    "extern", "const", "volatile", "switch", "case", "default", "goto",
    "enum",
}

# Longest-match-first punctuation.
PUNCT = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "&", "*", "+", "-", "~",
    "!", "/", "%", "<", ">", "=", "^", "|", "?", ":",
]


class Token(NamedTuple):
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


#: The common token classes, one alternative each; the first that
#: matches wins.  Comment openers precede the punctuators (``/`` and
#: ``/=`` would otherwise take them).  A word's first character must
#: still pass ``str.isalpha()`` or be ``_``: ``[^\W\d]`` also admits
#: non-decimal digits such as ``²``.  ``\w`` matches exactly the
#: characters where ``str.isalnum()`` holds, plus ``_`` -- the reference
#: scanner's identifier continuation (CPython's ``re`` tests the same
#: Unicode predicate; the kernel suite checks every code point).
_MASTER = re.compile("|".join((
    r"(?P<ws>[ \t\r\f\v]+)",
    r"(?P<nl>\n[ \t\r\f\v]*)",
    r"(?P<line>//[^\n]*)",
    r"(?P<block>/\*)",
    r"(?P<word>[^\W\d]\w*)",
    "(?P<punct>" + "|".join(map(re.escape, PUNCT)) + ")",
)))


def tokenize(source: str) -> List[Token]:
    """Scan ``source`` into tokens, ending with a single ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__
    match = _MASTER.match
    keywords = KEYWORDS
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str) -> ParseError:
        return ParseError(msg, line, col)

    while i < n:
        m = match(source, i)
        if m is not None:
            group = m.lastgroup
            end = m.end()
            if group == "word" and (source[i].isalpha()
                                    or source[i] == "_"):
                text = m.group()
                append(new(Token, ("kw" if text in keywords else "id",
                                   text, line, col)))
                col += end - i
                i = end
                continue
            if group == "ws":
                col += end - i
                i = end
                continue
            if group == "punct":
                append(new(Token, ("punct", m.group(), line, col)))
                col += end - i
                i = end
                continue
            if group == "nl":
                # The newline and the next line's indentation.
                line += 1
                col = end - i
                i = end
                continue
            if group == "line":
                # The column stays where the comment began (an eof
                # token after it carries that column).
                i = end
                continue
            if group == "block":
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
            # A word led by a non-letter: scanned below.
        ch = source[i]
        # -- preprocessor -----------------------------------------------
        if ch == "#" and (not tokens or tokens[-1].line != line):
            while i < n and source[i] != "\n":
                if source[i] == "\\" and i + 1 < n and source[i + 1] == "\n":
                    i += 2
                    line += 1
                    continue
                i += 1
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
            append(Token("num", source[start:i], line, col))
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
            append(Token(kind, source[start:i], line, col))
            col += i - start
            continue
        raise error(f"unexpected character {ch!r}")
    append(Token("eof", "", line, col))
    return tokens


def scan_suppressions(source: str, marker: str = "repro:ignore"
                      ) -> Dict[int, Optional[frozenset]]:
    """Suppressed lines: ``{line: None}`` for blanket suppressions,
    ``{line: frozenset of rule ids}`` for rule-scoped ones.

    A marker in a trailing comment suppresses its own line; a marker on a
    comment-only line suppresses the next line (the annotated statement).
    A bare marker suppresses every rule on the line; ``marker[rule-id]``
    (comma-separated ids allowed) suppresses only those rules::

        *p = 1;  // repro:ignore                 <- all rules
        *q = 2;  // repro:ignore[null-deref]     <- that rule only
        // repro:ignore[use-after-free,taint-flow]
        *r = 3;                                  <- those two rules

    Both ``//`` and ``/* */`` comment styles are recognized; the scan is
    line-wise and deliberately forgiving (markers inside string literals
    would also count, which is harmless for analysis fixtures).
    """
    suppressed: Dict[int, Optional[frozenset]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if marker not in text:
            continue
        comment_pos = len(text)
        for opener in ("//", "/*"):
            pos = text.find(opener)
            if pos != -1:
                comment_pos = min(comment_pos, pos)
        comment = text[comment_pos:]
        mark = comment.find(marker)
        if mark == -1:
            continue
        rules: Optional[frozenset] = None
        rest = comment[mark + len(marker):]
        if rest.startswith("["):
            end = rest.find("]")
            if end != -1:
                rules = frozenset(
                    r.strip() for r in rest[1:end].split(",") if r.strip())
        code = text[:comment_pos].strip()
        target = lineno if code else lineno + 1
        previous = suppressed.get(target, frozenset())
        if rules is None or previous is None:
            # A blanket marker (on either of two stacked comments) wins.
            suppressed[target] = None
        else:
            suppressed[target] = previous | rules
    return suppressed
