"""Diagnostic errors raised by the MiniLang analysis pipeline.

Every error carries a source span so the CLI can report file:line:col.
"""

from __future__ import annotations


class Record:
    """Base of the small value objects made once per tree node and occurrence.

    A subclass names its fields in ``__slots__`` and assigns each once, in
    ``__init__``; nothing assigns them later.  Equality, hash and repr follow
    the fields in order, as those of a frozen dataclass do, without the cost
    of a frozen dataclass's ``object.__setattr__`` per field.

    A field whose length follows the input (a per-line or per-occurrence
    array) holds a list, never a tuple; a subclass with such a field sets
    ``__hash__ = None``.  A tuple is kept for a fixed shape (a token) or a
    hash key: CPython keeps freed tuples of up to 19 items in per-size free
    lists, which only a full collection empties, and the command line pauses
    the collector, so a process running many commands would keep the
    largest batch of such tuples it ever freed.  A freed list's item array
    goes back to the allocator.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Span(Record):
    """Half-open byte range [start, end) with the 1-based line/column of start."""

    __slots__ = ("start", "end", "line", "col")

    def __init__(self, start: int, end: int, line: int, col: int):
        self.start = start
        self.end = end
        self.line = line
        self.col = col


DUMMY_SPAN = Span(0, 0, 1, 1)


class MiniLangError(Exception):
    """Base for all diagnostics with a source location."""

    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span

    def render(self, path: str = "<source>") -> str:
        return f"{path}:{self.span.line}:{self.span.col}: {self.message}"


class LexError(MiniLangError):
    """Unrecognizable character or unterminated comment/string."""


class ParseError(MiniLangError):
    """Syntax error, nesting too deep, a bad function name, or not one main."""


class ResolveError(MiniLangError):
    """A reserved, duplicate or unresolved variable name (`::name` too), a call
    of an undefined function, print in an expression, or an assignment to a
    non-variable."""


class UndefinedEfficiencyError(ValueError):
    """Coding efficiency is undefined for LOC = 0."""
