"""MiniLang lexer and physical-line accounting.

A token is a plain tuple ``(kind, text, start, end, line, col)``: its kind
(identifier | integer-literal | string-literal | keyword | operator-symbol |
punctuation), its text, the half-open offsets [start, end) of that text, and
the 1-based line and column of its start.  The offsets are exact, so the
original source can be reconstructed and AST spans nest correctly; a
`Span` is built only where a tree node keeps one, or an error reports one.
Comments (// and /* */) and whitespace are skipped: a physical line counts
toward LOC only when it bears at least one token.
"""

from __future__ import annotations

import re

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


def tokenize(source: str) -> list[tuple]:
    """Lex MiniLang source into a list of ``(kind, text, start, end, line, col)``.

    Raises LexError on the first unrecognizable character or unterminated
    block comment / string literal.
    """
    tokens: list[tuple] = []
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
        append((kind, text, start, end, line, start - line_start + 1))
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


def token_span(token: tuple) -> Span:
    """The Span of one token."""
    return Span(token[2], token[3], token[4], token[5])


# ============================================================
# LINE CLASSIFICATION (LOC and per-line counts for WICS)
# ============================================================


class LineRecord(Record):
    """The counts of one token-bearing physical line, in line order."""

    __slots__ = ("identifiers", "operators", "literals")

    def __init__(self, identifiers: int, operators: int, literals: int):
        self.identifiers = identifiers
        self.operators = operators
        self.literals = literals

    @property
    def n(self) -> int:
        """Identifier + operator count, the n(k) of the WICS sum."""
        return self.identifiers + self.operators


class LineInfo(Record):
    """LOC, the records of the token-bearing lines it counts, and where each
    of those lines' tokens start and end: three lists, one item per line, as
    every per-line array is (see errors.Record)."""

    __slots__ = ("loc", "lines", "starts", "ends")
    __hash__ = None  # it holds lists

    def __init__(self, loc: int, lines: list[LineRecord], starts: list[int], ends: list[int]):
        self.loc = loc
        self.lines = lines
        self.starts = starts  # per line, the start of its first token
        self.ends = ends  # per line, the end of its last token


def classify_lines(tokens: list[tuple]) -> LineInfo:
    """Count tokens per physical line; blank and comment-only lines drop out.

    This is the one per-line count: analysis runs it once over the whole
    program, for the program's LOC, and resolve.classify_io takes each
    function's lines from it by offset.
    """
    records: list[LineRecord] = []
    starts: list[int] = []
    ends: list[int] = []
    current = idents = ops = lits = last_end = 0  # current: the line being counted, 0 before the first
    for kind, text, start, end, line, _ in tokens:  # in source order, so each line's tokens are adjacent
        if line != current:
            if current:
                records.append(LineRecord(idents, ops, lits))
                ends.append(last_end)
            starts.append(start)
            current = line
            idents = ops = lits = 0
        last_end = end
        if kind == "identifier":
            idents += 1
        elif kind == "operator-symbol":
            if text in COUNTED_OPERATORS:
                ops += 1
        elif kind == "integer-literal" or kind == "string-literal":
            lits += 1
    if current:
        records.append(LineRecord(idents, ops, lits))
        ends.append(last_end)
    return LineInfo(len(records), records, starts, ends)
