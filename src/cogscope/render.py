"""Canonical MiniLang renderer.

render() is deterministic and parse(render(u)) is structurally identical to
u, which is what the renaming / permutation / concatenation transforms need.
Style: four-space indents, one statement per line, braces always emitted,
every binary operation but the outermost of an expression in parentheses,
and so a negated subscript base and a negated negation: `(-b)[0]`, `-(-1)`.

The writer lays the text out as the lexer's token tuples, and the parser
reads them: render() returns a `Rendered`, the text with its tokens and the
parser's tree of them, so a transform's program is scored without being
lexed (analysis.analyze_rendered).  Spans, node shapes and the checks on
function names and main are the parser's alone.  The writer refuses with
ValueError a tree that no canonical text reads back as, which keeps its
tokens equal to tokenize(text), and counts nesting as the parser does
(parser.Checks), so a tree of any depth stops at MAX_NESTING.  When it
stops, the tokens written so far are parsed, so the first fault in token
order is raised: the parser's located ParseError or the writer's ValueError.
Variable names are the resolver's to check: a tree with a variable named
twice in one scope, or named as a builtin, is laid out, and resolving the
layout raises the resolver's error, as resolving the parse of its text does.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .lexer import BUILTINS, KEYWORDS
from .parser import _BIN_PREC, _COMPOUND_ASSIGN, Checks, fault_within, parse
from .syntax import (
    ArrayInit, Assign, Binary, Block, CallExpr, CallStmt, Decl, DoWhile, Expr, For, FunctionDef, Ident, If,
    IntLit, Interrupt, Parallel, Return, SourceUnit, Stmt, StrLit, Subscript, Switch, Unary, While,
)

_INDENT = "    "
_ASSIGN_OPS = frozenset(("=", *_COMPOUND_ASSIGN))
_STRING = re.compile(r'"(?:[^"\\\n]|\\.)*"\Z')  # the lexer's string literal

KEYWORD, PUNCT, OPERATOR = "keyword", "punctuation", "operator-symbol"
IDENT, INT, STRING = "identifier", "integer-literal", "string-literal"


class Rendered(str):
    """Canonical program text, with its layout.

    ``tokens`` equals ``tokenize(text)``, the same ``(kind, text, start,
    end, line, col)`` tuples, and ``unit`` is the parser's tree of them,
    ``parse(tokens, len(text))``.  A Rendered is a str for every other
    purpose.
    """

    tokens: list[tuple]
    unit: SourceUnit

    def __new__(cls, text: str, tokens: list[tuple], unit: SourceUnit) -> Rendered:
        self = super().__new__(cls, text)
        self.tokens = tokens
        self.unit = unit
        return self


def _inexact(what: str) -> ValueError:
    """The error for a tree whose canonical text the parser would read back as another tree, or not at all."""
    return ValueError(f"no canonical text reads back as {what}")


class _Layout(Checks):
    """Writes a tree as canonical tokens, and its text.

    Every write starts with its token; spaces and newlines come before the
    token they separate, so after a write ``offset`` is the end of the last
    token.
    """

    def __init__(self):
        super().__init__()
        self.parts: list[str] = []
        self.tokens: list[tuple] = []
        self._write = self.parts.append
        self._push = self.tokens.append
        self.offset = 0
        self.line = 1
        self.col_base = -1  # a token's column is its offset minus this

    def tok(self, kind: str, text: str, space: str = "") -> tuple:
        """Write one token after `space`; return it, as the lexer would."""
        start = self.offset + len(space)
        self.offset = end = start + len(text)
        token = (kind, text, start, end, self.line, start - self.col_base)
        self._push(token)
        self._write(space + text)
        return token

    def parens(self, space: str, run: int) -> int:
        """A run of `run` groups' `(`, and the nesting levels it opens, as the
        parser reads it: none right after a `(`, else one."""
        opens = self.tokens[-1][1] != "("
        first = self.tok(PUNCT, "(", space)
        for _ in range(run - 1):
            self.tok(PUNCT, "(")
        if opens:
            self.nest(first)
        return opens

    def name(self, name: str, space: str = "") -> None:
        if name in KEYWORDS or not name.isidentifier() or not name.isascii():
            raise _inexact(f"the name {name!r}")
        self.tok(IDENT, name, space)

    def declared(self, name: str, is_array: bool) -> None:
        """A parameter's or declarator's name, after a space, and its `[]`."""
        self.name(name, " ")
        if is_array:
            self.tok(PUNCT, "[")
            self.tok(PUNCT, "]")

    def newline(self, depth: int, blank: bool = False) -> None:
        """End the line, after an empty one if `blank`; indent the next `depth` levels."""
        text = ("\n\n" if blank else "\n") + _INDENT * depth
        self._write(text)
        self.line += 2 if blank else 1
        self.col_base = self.offset + (1 if blank else 0)
        self.offset += len(text)

    # ---------- top level ----------

    def source_unit(self, unit: SourceUnit) -> None:
        for decl in unit.globals:
            if self.tokens:
                self.newline(0)
            self.decl(decl)
        for fn in unit.functions:
            if self.tokens:
                self.newline(0, blank=True)
            self.function(fn)
        self._write("\n")

    def function(self, fn: FunctionDef) -> None:
        if fn.ret_type not in ("void", "int"):
            raise _inexact(f"the return type {fn.ret_type!r}")
        self.tok(KEYWORD, fn.ret_type)
        self.name(fn.name, " ")
        self.tok(PUNCT, "(")
        for k, param in enumerate(fn.params):
            if k:
                self.tok(PUNCT, ",")
            self.tok(KEYWORD, "int", " " if k else "")
            self.declared(param.name, param.is_array)
        self.tok(PUNCT, ")")
        self.block(fn.body.stmts, 0)

    # ---------- statements ----------

    def block(self, stmts: list[Stmt], depth: int, space: str = " ") -> None:
        """`{`, then each statement on its own line one level deeper, then `}`."""
        self.nest(self.tok(PUNCT, "{", space))
        for stmt in stmts:
            self.stmt(stmt, depth + 1)
        self.newline(depth)
        self.tok(PUNCT, "}")
        self.depth -= 1

    def stmt(self, stmt: Stmt, depth: int) -> None:
        self.newline(depth)
        cls = stmt.__class__
        if cls is Assign:
            self.assign(stmt)
            self.tok(PUNCT, ";")
        elif cls is Decl:
            self.decl(stmt)
        elif cls is CallStmt:
            self.name(stmt.callee)
            self.call_args(stmt.callee, stmt.args, True)
            self.tok(PUNCT, ";")
        elif cls is If:
            self.tok(KEYWORD, "if")
            self.condition(stmt.cond)
            self.block(stmt.then_block.stmts, depth)
            if stmt.else_block is not None:
                self.tok(KEYWORD, "else", " ")
                self.block(stmt.else_block.stmts, depth)
        elif cls is While:
            self.tok(KEYWORD, "while")
            self.condition(stmt.cond)
            self.block(stmt.body.stmts, depth)
        elif cls is For:
            self.for_loop(stmt, depth)
        elif cls is Block:
            self.block(stmt.stmts, depth, "")
        elif cls is Return:
            self.tok(KEYWORD, "return")
            if stmt.value is not None:
                self.expr(stmt.value, " ", True)
            self.tok(PUNCT, ";")
        elif cls is Switch:
            self.switch(stmt, depth)
        elif cls is DoWhile:
            self.tok(KEYWORD, "do")
            self.block(stmt.body.stmts, depth)
            self.tok(KEYWORD, "while", " ")
            self.condition(stmt.cond)
            self.tok(PUNCT, ";")
        elif cls is Parallel or cls is Interrupt:
            self.tok(KEYWORD, "parallel" if cls is Parallel else "interrupt")
            self.block(stmt.body.stmts, depth)
        else:
            raise TypeError(f"unknown statement node {type(stmt).__name__}")

    def condition(self, cond: Expr) -> None:
        """` (cond)` after a keyword."""
        self.tok(PUNCT, "(", " ")
        self.expr(cond, "", True)
        self.tok(PUNCT, ")")

    def decl(self, decl: Decl) -> None:
        """`int` and the declarators, through the `;`."""
        if not decl.declarators:
            raise _inexact("a declaration of nothing")
        self.tok(KEYWORD, "int")
        for k, d in enumerate(decl.declarators):
            if k:
                self.tok(PUNCT, ",")
            self.declared(d.name, d.is_array)
            if d.init is not None:
                self.tok(OPERATOR, "=", " ")
                if d.init.__class__ is ArrayInit:
                    if not d.is_array:
                        raise _inexact("a brace initializer of a scalar")
                    self.array_init(d.init, " ", True)
                else:
                    self.expr(d.init, " ", True)
        self.tok(PUNCT, ";")

    def assign(self, stmt: Assign, space: str = "") -> None:
        """The assignment without its `;`.  Its target is a name or one
        subscript of a name: all the parser takes before an assignment operator."""
        target = stmt.target
        ident = target.base if target.__class__ is Subscript else target
        if ident.__class__ is not Ident or ident.name in BUILTINS:
            raise _inexact("an assignment to this target")  # a builtin's name starts a call statement
        self.expr(target, space)
        op = stmt.op
        if op == "++" or op == "--":
            self.tok(OPERATOR, op)
        elif op in _ASSIGN_OPS:
            self.tok(OPERATOR, op, " ")
            self.expr(stmt.value, " ", True)
        else:
            raise _inexact(f"the assignment operator {op!r}")

    def for_loop(self, stmt: For, depth: int) -> None:
        self.tok(KEYWORD, "for")
        self.tok(PUNCT, "(", " ")
        if stmt.init.__class__ is Decl:
            self.decl(stmt.init)  # through its ';'
        else:
            if stmt.init.__class__ is Assign:
                self.assign(stmt.init)
            self.tok(PUNCT, ";")
        if stmt.cond is not None:
            self.expr(stmt.cond, " ", True)
        self.tok(PUNCT, ";", "" if stmt.cond is not None else " ")
        if stmt.step is not None:
            self.assign(stmt.step, " ")
        self.tok(PUNCT, ")", "" if stmt.step is not None else " ")
        self.block(stmt.body.stmts, depth)

    def switch(self, stmt: Switch, depth: int) -> None:
        self.tok(KEYWORD, "switch")
        self.condition(stmt.scrutinee)
        self.tok(PUNCT, "{", " ")  # not a block: no scope, no nesting level
        for case in stmt.cases:
            self.newline(depth + 1)
            self.tok(KEYWORD, "case")
            value = case.literal.value
            if value.__class__ is not int:
                raise _inexact(f"the case label {value!r}")
            if value < 0:
                self.tok(OPERATOR, "-", " ")
                self.tok(INT, str(-value))
            else:
                self.tok(INT, str(value), " ")
            self.tok(PUNCT, ":")
            self.block(case.block.stmts, depth + 1)
        if stmt.default_block is not None:
            self.newline(depth + 1)
            self.tok(KEYWORD, "default")
            self.tok(PUNCT, ":")
            self.block(stmt.default_block.stmts, depth + 1)
        self.newline(depth)
        self.tok(PUNCT, "}")

    # ---------- expressions ----------

    def expr(self, expr: Expr, space: str = "", top: bool = False) -> None:
        """An expression after `space`.  At the top of a statement position
        (`top`) a binary operation and the arguments of a call go without
        their outer parentheses."""
        cls = expr.__class__
        if cls is Ident:
            if expr.global_qualified:
                self.tok(PUNCT, "::", space)
                space = ""
            self.name(expr.name, space)
        elif cls is IntLit:
            value = expr.value
            if value.__class__ is not int:
                raise _inexact(f"the literal {value!r}")
            if value >= 0:
                self.tok(INT, str(value), space)
            else:  # `(-5)`: the parser reads a minus applied to 5
                levels = self.parens(space, 1)
                self.nest(self.tok(OPERATOR, "-"))
                self.tok(INT, str(-value))
                self.tok(PUNCT, ")")
                self.depth -= 1 + levels
        elif cls is Binary:
            self.binary(expr, space, top)
        elif cls is Unary:
            op = expr.op
            operand = expr.operand
            if op != "!" and op != "-":
                raise _inexact(f"this {op!r}")
            self.nest(self.tok(OPERATOR, op, space))
            if op == "-" and operand.__class__ is Unary and operand.op == "-":
                self.group(operand, "")  # `- -x` would lex as `--x`
            else:
                self.expr(operand)
            self.depth -= 1
        elif cls is Subscript:
            self.subscripts(expr, space)
        elif cls is CallExpr:
            self.name(expr.callee, space)
            self.call_args(expr.callee, expr.args, top)
        elif cls is StrLit or cls is ArrayInit:  # a string goes in a print call, braces in a declarator
            raise _inexact(f"a {cls.__name__} inside an expression")
        else:
            raise TypeError(f"unknown expression node {type(expr).__name__}")

    def group(self, expr: Expr, space: str) -> None:
        """`(expr)`, which the parser reads as the tree of `expr` alone."""
        levels = self.parens(space, 1)
        self.expr(expr)
        self.tok(PUNCT, ")")
        self.depth -= levels

    def binary(self, expr: Binary, space: str, top: bool) -> None:
        """An operator chain: the parser builds it left-deep, so a loop down
        the left operands writes a chain of any length; only right operands
        recurse, as deep as parentheses nest."""
        chain = [expr]
        lhs = expr.lhs
        while lhs.__class__ is Binary:
            chain.append(lhs)
            lhs = lhs.lhs
        opened = len(chain) - top  # at the top the outermost goes without parentheses
        levels = self.parens(space, opened) if opened else 0
        self.expr(lhs, "" if opened else space)
        for node in reversed(chain):
            if node.op not in _BIN_PREC:
                raise _inexact(f"the binary operator {node.op!r}")
            self.tok(OPERATOR, node.op, " ")
            self.expr(node.rhs, " ")
            if opened:
                self.tok(PUNCT, ")")
                opened -= 1
        self.depth -= levels

    def subscripts(self, expr: Subscript, space: str) -> None:
        """A subscript chain: the parser reads `a[i][j]` in one loop, so a
        loop down the bases writes a chain of any length; only indices
        recurse."""
        chain = [expr]
        base = expr.base
        while base.__class__ is Subscript:
            chain.append(base)
            base = base.base
        if base.__class__ is Unary:
            self.group(base, space)  # `-a[i]` would subscript `a`, not `-a`
        else:
            self.expr(base, space)
        for node in reversed(chain):
            self.nest(self.tok(PUNCT, "["))
            self.expr(node.index)
            self.tok(PUNCT, "]")
            self.depth -= 1

    def call_args(self, callee: str, args: list[Expr], top: bool) -> None:
        """`(args)`; a string argument only in a call of print."""
        self.nest(self.tok(PUNCT, "("))
        for k, arg in enumerate(args):
            if k:
                self.tok(PUNCT, ",")
            space = " " if k else ""
            if arg.__class__ is StrLit:
                if callee != "print" or not _STRING.match(arg.raw):
                    raise _inexact(f"the {callee} argument {arg.raw}")
                self.tok(STRING, arg.raw, space)
            else:
                self.expr(arg, space, top)
        self.tok(PUNCT, ")")
        self.depth -= 1

    def array_init(self, expr: ArrayInit, space: str, top: bool) -> None:
        self.tok(PUNCT, "{", space)
        for k, element in enumerate(expr.elements):
            if k:
                self.tok(PUNCT, ",")
            self.expr(element, " " if k else "", top)
        self.tok(PUNCT, "}")


def render(unit: SourceUnit) -> Rendered:
    """Render a SourceUnit to canonical MiniLang text, laid out and parsed;
    raise the parser's ParseError or a ValueError for a tree it refuses
    (see above)."""
    layout = _Layout()
    try:
        layout.source_unit(unit)
    except (ParseError, ValueError) as stop:
        fault = fault_within(layout.tokens, layout.offset)  # the parser's, before the stop, comes first
        raise (stop if fault is None else fault) from None
    text = "".join(layout.parts)
    return Rendered(text, layout.tokens, parse(layout.tokens, len(text)))
