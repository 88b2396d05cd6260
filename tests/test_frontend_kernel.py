"""Differential suite: the scanner kernel against its oracle, and the
frontend fuzz gate.

:func:`repro.frontend.lexer.tokenize` scans with one compiled master
pattern and returns named-tuple tokens;
:func:`repro.frontend.reference.tokenize` is the character-at-a-time
scanner it replaced, kept verbatim.  On every input the two must give
the same ``(kind, text, line, column)`` list, or raise a
:class:`~repro.errors.ParseError` with the same message, line and
column.  The inputs are the hand-written sources, the examples,
generated files, hand-picked edge cases, every code point in the
classes the master pattern tells apart, and fixed-seed character-level
mutations.  ``parse_program`` must build the same printed IR, with the
same span at every CFG node, from either token stream.

The fuzz gate mutates the sources and examples token by token
(deletions, insertions, duplications).  Every mutant yields a
``Program`` or a :class:`~repro.errors.ReproError` -- a ``ParseError``
with a line and column -- within a per-input time limit, and the same
outcome under either scanner.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import signal
import sys
import traceback
from typing import Dict, Iterator, List, Tuple
from unittest import mock

import pytest

from repro.bench import sources
from repro.bench.synth import SynthConfig, generate_source
from repro.errors import ParseError, ReproError
from repro.frontend import lexer
from repro.frontend import parse_program
from repro.frontend import parser as parser_module
from repro.frontend import reference
from repro.ir import Program
from repro.ir.printer import format_program

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = sorted(f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".c"))

#: Generated files: (pointer budget, seed).
GENERATED = [(pointers, seed) for pointers in (64, 400)
             for seed in (1, 5, 2008)]

#: Character-level mutants compared scanner against scanner.
CHAR_MUTANTS = 3000
#: Token-level mutants run through the whole frontend under both scanners.
TOKEN_MUTANTS = 1500
#: Seconds one mutant may spend in ``parse_program`` before it counts
#: as a hang.
LIMIT_S = 5.0

#: Characters the character-level mutations insert: every class the
#: scanners tell apart, including ones that end a scan with an error.
_INSERTS = (list(" \t\n\r\f\v\"'#\\/*{}()[];,.&+-~!%<>=^|?:_aZ09x@$`\x00")
            + ["é", "²", "½", "٣", "//", "/*", "*/", "0x", "1e+", "\\\n",
               "\r\n", '"', "->", ">>=", "..."])

Outcome = Tuple


def base_inputs() -> Dict[str, str]:
    """Every valid input, keyed by a short name."""
    texts = {name: sources.source(name) for name in sources.names()}
    for name in EXAMPLES:
        with open(os.path.join(EXAMPLES_DIR, name)) as f:
            texts[name] = f.read()
    for pointers, seed in GENERATED:
        name = f"gen{pointers}s{seed}"
        texts[name] = generate_source(
            SynthConfig(name=name, pointers=pointers, seed=seed))
    return texts


BASES = base_inputs()


def scan(tokenize, text: str) -> Outcome:
    """The token list as plain tuples, or the error and its position."""
    try:
        return tuple((t.kind, t.text, t.line, t.column)
                     for t in tokenize(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


def assert_same_scan(text: str) -> Outcome:
    kernel = scan(lexer.tokenize, text)
    assert kernel == scan(reference.tokenize, text), repr(text)
    return kernel


@contextlib.contextmanager
def reference_scanner() -> Iterator[None]:
    """``Parser`` reads the tokens of :mod:`.reference` instead."""
    with mock.patch.object(parser_module, "tokenize", reference.tokenize):
        yield


def program_view(program: Program) -> Tuple[str, List]:
    """The printed IR and every CFG node's span."""
    spans = [(name, [fn.cfg.span(i) for i in fn.cfg.nodes()])
             for name, fn in sorted(program.functions.items())]
    return format_program(program), spans


class _Hang(Exception):
    pass


@contextlib.contextmanager
def time_limit() -> Iterator[None]:
    """Arm ``SIGALRM`` so that :func:`frontend_outcome` can turn a
    mutant that runs past :data:`LIMIT_S` into a recorded hang."""
    def expire(signum, frame):
        raise _Hang()
    previous = signal.signal(signal.SIGALRM, expire)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def frontend_outcome(text: str) -> Outcome:
    """What ``parse_program`` makes of ``text``: the program's view, a
    library error with its position, a hang, or an unstructured
    exception.  Call inside :func:`time_limit`."""
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        program = parse_program(text)
    except _Hang:
        return ("hang",)
    except ReproError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    except Exception:  # the gate reports these; it must see none
        return ("unstructured", traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return ("Program",) + program_view(program)


# ----------------------------------------------------------------------
# mutants
# ----------------------------------------------------------------------
def char_mutants(count: int, seed: int = 2008) -> List[str]:
    """Windows of the base inputs with 1-4 character edits each: a
    deletion, an insertion from :data:`_INSERTS`, a replacement or a
    duplicated run.  Windows start and end anywhere, so many begin
    inside a comment, literal or directive."""
    rng = random.Random(seed)
    texts = [BASES[name] for name in sorted(BASES)]
    out: List[str] = []
    for _ in range(count):
        base = rng.choice(texts)
        start = rng.randrange(len(base))
        text = base[start:start + rng.randint(0, 600)]
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(text))
            op = rng.randrange(4)
            if op == 0:
                text = text[:at] + text[at + rng.randint(1, 3):]
            elif op == 1:
                text = text[:at] + rng.choice(_INSERTS) + text[at:]
            elif op == 2:
                text = text[:at] + rng.choice(_INSERTS) + text[at + 1:]
            else:
                run = text[at:at + rng.randint(1, 20)]
                text = text[:at] + run + run + text[at + len(run):]
        out.append(text)
    return out


def token_spans(text: str) -> List[Tuple[int, int]]:
    """``(start, end)`` offsets of ``text``'s tokens."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    spans = []
    for tok in reference.tokenize(text)[:-1]:
        start = line_starts[tok.line - 1] + tok.column - 1
        if text.startswith(tok.text, start):  # not after a multi-line literal
            spans.append((start, start + len(tok.text)))
    return spans


def token_mutants(count: int, seed: int = 2008) -> List[str]:
    """The sources and examples with 1-4 token edits each: delete a run
    of 1-3 tokens, insert a token (a punctuator, a keyword, an
    identifier or a literal) or duplicate a run of 1-8 tokens.  Edits
    go from the end of the file to the start so that the offsets of
    the ones still to come hold."""
    rng = random.Random(seed)
    names = sources.names() + EXAMPLES
    layouts = {name: token_spans(BASES[name]) for name in names}
    words = sorted(set(lexer.PUNCT) | lexer.KEYWORDS
                   | {"x", "p", "main", "0", "1", '"s"', "'c'"})
    out: List[str] = []
    for _ in range(count):
        name = rng.choice(names)
        text = BASES[name]
        spans = layouts[name]
        for k in sorted(rng.sample(range(len(spans)), rng.randint(1, 4)),
                        reverse=True):
            run = spans[k:k + rng.randint(1, 8)]
            start, end = run[0][0], run[-1][1]
            op = rng.randrange(3)
            if op == 0:
                end = spans[min(k + rng.randint(0, 2), len(spans) - 1)][1]
                text = text[:start] + text[end:]
            elif op == 1:
                text = text[:start] + rng.choice(words) + " " + text[start:]
            else:
                text = text[:end] + " " + text[start:end] + text[end:]
        out.append(text)
    return out


# ----------------------------------------------------------------------
# token identity
# ----------------------------------------------------------------------
EDGE_CASES = [
    "",
    "a // trailing comment",
    "// only a comment",
    "a /* one\n  two\n */ b",
    "a /* same line */ b",
    "/* never ends",
    "x = \"never ends",
    "c = 'x",
    "#include <stdio.h>\nint a;",
    "a#b",
    "a;\n  # define X 1\nint b;",
    "#define LONG \\\n  continued\nint c;",
    "#define LONG \\\n  continued",
    "#",
    r's = "a\"b\\";',
    '"line\nbreak" x',
    r"c = '\'';",
    "0x1fZ 1e+5 1.5e-3f 12uL 1..2 0X 07 1e 1e- .5 5.",
    "٣٤ x ²²",
    "a\r\nb\tc\fd\ve \r\n\r\n  f",
    "é = x² + ²;",
    "é",
    "²",
    "x²",
    "½",
    "@",
    "a\x00b",
    "a>>=b; p->q; f(...); a<<=b; x>>y>=z",
    "a---b a+++b a-->b a<<<b a...b a....b",
    "/**/ /***/ /* * */ //*\n/*/ x */",
    "a/b a/=b a//b\nc",
]


class TestTokenIdentity:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_base_input(self, name):
        tokens = assert_same_scan(BASES[name])
        assert tokens[-1][0] == "eof"

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_case(self, text):
        assert_same_scan(text)

    def test_every_punctuator(self):
        for p in lexer.PUNCT:
            for text in (p, f"a{p}b", f" {p}\n{p}", p + p):
                assert_same_scan(text)
        assert_same_scan("".join(lexer.PUNCT))
        assert_same_scan(" ".join(lexer.PUNCT))
        assert_same_scan("".join(reversed(lexer.PUNCT)))

    def test_eof_keeps_a_trailing_comment_column(self):
        assert lexer.tokenize("ab // c")[-1] == ("eof", "", 1, 4)

    def test_character_mutants(self):
        errors = 0
        for text in char_mutants(CHAR_MUTANTS):
            errors += assert_same_scan(text)[0] == "error"
        # Both ends of the scanner are exercised.
        assert 0.05 * CHAR_MUTANTS < errors < 0.95 * CHAR_MUTANTS


class TestCodePoints:
    """The master pattern classifies characters with ``\\w`` and
    ``[^\\W\\d]``; the reference scanner with ``str.isalpha``,
    ``str.isalnum`` and ``str.isdigit``.  These tests pin the two
    together over the whole code space."""

    def test_word_class_is_isalnum(self):
        word = re.compile(r"\w")
        differ = [cp for cp in range(sys.maxunicode + 1)
                  if bool(word.match(chr(cp)))
                  != (chr(cp).isalnum() or cp == ord("_"))]
        assert differ == []

    def test_word_characters(self):
        word = [chr(cp) for cp in range(sys.maxunicode + 1)
                if chr(cp).isalnum() or cp == ord("_")]
        # Every identifier start, number start and identifier
        # continuation, one scan per class and scanner.
        for text in (" ".join(c + "x" + c for c in word
                              if c.isalpha() or c == "_"),
                     " ".join(c + c for c in word if c.isdigit()),
                     " ".join("x" + c for c in word)):
            assert assert_same_scan(text)[0] != "error"
        # ``\w`` but neither a letter nor a digit (such as ``½``): the
        # master pattern matches a word that must not start a token.
        for c in word:
            if not (c.isalpha() or c.isdigit() or c == "_"):
                assert_same_scan(c + "x")

    def test_other_characters(self):
        others = [chr(cp) for cp in range(0x3000)
                  if not (chr(cp).isalnum() or cp == ord("_"))]
        others += [chr(cp) for cp in range(0x3000, sys.maxunicode + 1, 97)]
        for c in others:
            assert_same_scan(c)
            assert_same_scan("a" + c + "1")


class TestTokens:
    def test_token_is_a_tuple(self):
        tok = lexer.tokenize("p->f")[1]
        assert tok == ("punct", "->", 1, 2)
        assert (tok.kind, tok.text, tok.line, tok.column) == tuple(tok)
        assert tok.is_punct("->", ".") and not tok.is_kw("->")
        assert lexer.tokenize("int")[0].is_kw("int", "char")

    def test_parser_binds_the_module_tokenize(self):
        calls = []

        def spy(source):
            calls.append(source)
            return lexer.tokenize(source)

        with mock.patch.object(parser_module, "tokenize", spy):
            parse_program("int main() { return 0; }")
        assert calls == ["int main() { return 0; }"]


# ----------------------------------------------------------------------
# IR identity and the fuzz gate
# ----------------------------------------------------------------------
class TestParseIdentity:
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_same_ir_and_spans(self, name):
        kernel = program_view(parse_program(BASES[name]))
        with reference_scanner():
            assert program_view(parse_program(BASES[name])) == kernel


class TestFuzzGate:
    @pytest.fixture(scope="class")
    def outcomes(self) -> List[Tuple[Outcome, Outcome]]:
        """``(kernel, reference)`` outcomes of every token-level mutant."""
        pairs = []
        with time_limit():
            for text in token_mutants(TOKEN_MUTANTS):
                kernel = frontend_outcome(text)
                with reference_scanner():
                    pairs.append((kernel, frontend_outcome(text)))
        return pairs

    def test_same_outcome_under_either_scanner(self, outcomes):
        for kernel, ref in outcomes:
            assert kernel == ref

    def test_no_hang_and_no_unstructured_exception(self, outcomes):
        kinds = [kernel[0] for kernel, _ in outcomes]
        assert [kernel for kernel, _ in outcomes
                if kernel[0] in ("hang", "unstructured")] == []
        # Most mutants are rejected, some still parse.
        assert kinds.count("ParseError") > TOKEN_MUTANTS // 2
        assert kinds.count("Program") > 0

    def test_parse_errors_carry_a_position(self, outcomes):
        for kernel, _ in outcomes:
            if kernel[0] == "ParseError":
                assert kernel[2] >= 1 and kernel[3] >= 1, kernel
