"""MiniLang lexer and physical-line accounting.

Tokens keep exact byte offsets so the original source can be reconstructed
and so AST spans nest correctly.  Comments (// and /* */) and whitespace are
skipped but remembered by the line classifier: a physical line counts toward
LOC only when it bears at least one token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import LexError, Record, Span

KEYWORDS = frozenset(
    {
        "void",
        "int",
        "if",
        "else",
        "switch",
        "case",
        "default",
        "for",
        "while",
        "do",
        "parallel",
        "interrupt",
        "return",
    }
)

BUILTINS = frozenset({"read", "print"})

# Operator occurrences that count for N_i1 / n(k) and for per-statement
# operator counts.  Plain '=', '::', subscripts, calls and commas do not count.
COUNTED_OPERATORS = frozenset(
    {
        "+", "-", "*", "/", "%",
        "<", "<=", ">", ">=", "==", "!=",
        "&&", "||", "!",
        "&", "|", "^", "<<", ">>",
        "+=", "-=", "*=", "/=", "%=",
        "++", "--",
    }
)

_OPERATORS = ("<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "++", "--",
              "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^")
_PUNCTUATION = ("::", "(", ")", "{", "}", "[", "]", ",", ";", ":")

# findall() yields one (whitespace, text) pair per token, comment or stray
# character, and a last pair with empty text at the end of the input.
_TOKEN_RE = re.compile(
    r"""
    ([ \t\r\n]*)
    (
        //[^\n]*|/\*(?:[^*]|\*(?!/))*\*/  # comment
      | "(?:[^"\\\n]|\\.)*"              # string literal
      | [0-9]+                           # integer literal
      | [A-Za-z_][A-Za-z0-9_]*           # identifier or keyword
      | %s                               # operator (longest first)
      | %s                               # punctuation
      | [^ \t\r\n]                       # unrecognizable character
      |                                  # end of input
    )
    """
    % ("|".join(map(re.escape, _OPERATORS)), "|".join(map(re.escape, _PUNCTUATION))),
    re.VERBOSE,
)
# The kind of every token whose text alone decides it; the first character
# decides the others.
_KIND_BY_TEXT = {
    **{text: "keyword" for text in KEYWORDS},
    **{text: "operator-symbol" for text in _OPERATORS},
    **{text: "punctuation" for text in _PUNCTUATION},
}
_KIND_BY_FIRST = {
    **{c: "identifier" for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"},
    **{c: "integer-literal" for c in "0123456789"},
    '"': "string-literal",
    "/": "comment",
}


class Token(Record):
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: Span):
        self.kind = kind  # identifier | integer-literal | string-literal | keyword | operator-symbol | punctuation
        self.text = text
        self.span = span

    @property
    def line(self) -> int:
        return self.span.line


def tokenize(source: str) -> list[Token]:
    """Lex MiniLang source into a token list.

    Raises LexError on the first unrecognizable character or unterminated
    block comment / string literal.
    """
    tokens: list[Token] = []
    append = tokens.append
    start = line_start = 0  # offset of the current text; of the current line
    line = 1
    for space, text in _TOKEN_RE.findall(source):
        if space:
            if "\n" in space:
                line += space.count("\n")
                line_start = start + space.rfind("\n") + 1
            start += len(space)
        end = start + len(text)
        kind = _KIND_BY_TEXT.get(text)
        if kind is None:
            kind = _KIND_BY_FIRST.get(text[:1])
            if kind == "comment":
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rfind("\n") + 1
                start = end
                continue
            if kind is None or text == '"':  # end of input, or a stray character
                break
        elif text == "/" and source.startswith("/*", start):
            raise LexError("unterminated block comment", Span(start, start + 2, line, start - line_start + 1))
        append(Token(kind, text, Span(start, end, line, start - line_start + 1)))
        start = end
    if start != len(source):
        span = Span(start, start + 1, line, start - line_start + 1)
        ch = source[start]
        if ch == '"':
            raise LexError("unterminated string literal", span)
        if source.startswith("/*", start):
            raise LexError("unterminated block comment", span)
        raise LexError(f"unrecognizable character {ch!r}", span)
    return tokens


# ============================================================
# LINE CLASSIFICATION (LOC and per-line counts for WICS)
# ============================================================


class LineRecord(Record):
    """One token-bearing physical line."""

    __slots__ = ("lineno", "identifiers", "operators", "literals")

    def __init__(self, lineno: int, identifiers: int, operators: int, literals: int):
        self.lineno = lineno
        self.identifiers = identifiers
        self.operators = operators
        self.literals = literals

    @property
    def n(self) -> int:
        """Identifier + operator count, the n(k) of the WICS sum."""
        return self.identifiers + self.operators


@dataclass(frozen=True)
class LineInfo:
    loc: int
    lines: tuple[LineRecord, ...]


def classify_lines(tokens: list[Token]) -> LineInfo:
    """Count tokens per physical line; blank and comment-only lines drop out.

    This is the one per-line count.  resolve.classify_io runs it once per
    function, over the function's tokens, for its LOC and its WICS and MCCM
    counts; analysis runs it once over the whole program for the program's
    LOC.
    """
    records: list[LineRecord] = []
    lineno = idents = ops = lits = 0
    for tok in tokens:  # in source order, so each line's tokens are adjacent
        line = tok.span.line
        if line != lineno:
            if lineno:
                records.append(LineRecord(lineno, idents, ops, lits))
            lineno = line
            idents = ops = lits = 0
        kind = tok.kind
        if kind == "identifier":
            idents += 1
        elif kind == "operator-symbol":
            if tok.text in COUNTED_OPERATORS:
                ops += 1
        elif kind == "integer-literal" or kind == "string-literal":
            lits += 1
    if lineno:
        records.append(LineRecord(lineno, idents, ops, lits))
    return LineInfo(loc=len(records), lines=tuple(records))


def count_lines(source: str) -> LineInfo:
    """LOC of raw source: number of lines bearing at least one token."""
    return classify_lines(tokenize(source))
