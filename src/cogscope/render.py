"""Canonical MiniLang renderer.

render() is deterministic and parse(render(u)) is structurally identical to
u, which is what the renaming / permutation / concatenation transforms need.
Style: four-space indents, one statement per line, braces always emitted,
every binary operation but the outermost of an expression in parentheses,
and so a negated subscript base and a negated negation: `(-b)[0]`, `-(-1)`.

The renderer writes the text as a token stream and lays it out as it goes:
it returns a `Rendered`, the text together with its tokens (the lexer's
tuples) and a copy of the tree whose spans are those the parser gives that
text.  So a program that a transform builds is scored without being lexed
and parsed again (analysis.analyze_rendered).  The layout makes the
parser's own checks (parser.Checks) on the way, and counts nesting levels
as the parser does, one per run of `(`.  So render() lays a tree out or
raises: the parser's ParseError, located in the canonical text, for a tree
whose text the parser rejects, and ValueError for a tree that no canonical
text reads back as.  Variable names are not the parser's to check: a tree
with a variable named twice in one scope, or named as a builtin, is laid
out, and resolving the layout raises the resolver's error, as resolving the
parse of its text does.
"""

from __future__ import annotations

import re

from .errors import Span
from .lexer import BUILTINS, KEYWORDS, token_span
from .parser import _BIN_PREC, _COMPOUND_ASSIGN, Checks
from .syntax import (
    ArrayInit,
    Assign,
    Binary,
    Block,
    CallExpr,
    CallStmt,
    Decl,
    Declarator,
    DoWhile,
    Expr,
    For,
    FunctionDef,
    Ident,
    If,
    IntLit,
    Interrupt,
    Parallel,
    Param,
    Return,
    SourceUnit,
    Stmt,
    StrLit,
    Subscript,
    Switch,
    SwitchCase,
    Unary,
    While,
)

_INDENT = "    "
_ASSIGN_OPS = frozenset(("=", *_COMPOUND_ASSIGN))
_STRING = re.compile(r'"(?:[^"\\\n]|\\.)*"\Z')  # the lexer's string literal

KEYWORD, PUNCT, OPERATOR = "keyword", "punctuation", "operator-symbol"
IDENT, INT, STRING = "identifier", "integer-literal", "string-literal"


class Rendered(str):
    """Canonical program text, with its layout.

    ``tokens`` equals ``tokenize(text)``, the same ``(kind, text, start,
    end, line, col)`` tuples, and ``unit`` is a fresh copy of the rendered
    tree with the spans that ``parse`` gives the text.  The renderer sets
    both as it writes the text: nothing is lexed or parsed later.  A
    Rendered is a str for every other purpose.
    """

    tokens: list[tuple]
    unit: SourceUnit


def _inexact(what: str) -> ValueError:
    """The error for a tree whose canonical text the parser would read back as another tree, or not at all."""
    return ValueError(f"no canonical text reads back as {what}")


class _Layout(Checks):
    """Writes a tree as canonical tokens, and builds the tree the parser
    gives them: its nodes, their spans as the parser sets them, and the
    parser's checks in its order.

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

    def name(self, name: str, space: str = "") -> tuple:
        if name in KEYWORDS or not name.isidentifier() or not name.isascii():
            raise _inexact(f"the name {name!r}")
        return self.tok(IDENT, name, space)

    def newline(self, depth: int, blank: bool = False) -> None:
        """End the line, after an empty one if `blank`; indent the next `depth` levels."""
        text = ("\n\n" if blank else "\n") + _INDENT * depth
        self._write(text)
        self.line += 2 if blank else 1
        self.col_base = self.offset + (1 if blank else 0)
        self.offset += len(text)

    def span_from(self, start: tuple) -> Span:
        """From token `start` through the last token written."""
        return Span(start[2], self.offset, start[4], start[5])

    def extend(self, span: Span) -> Span:
        """`span` stretched through the last token written."""
        return Span(span.start, self.offset, span.line, span.col)

    # ---------- top level ----------

    def source_unit(self, unit: SourceUnit) -> SourceUnit:
        globals_ = []
        for decl in unit.globals:
            if globals_:
                self.newline(0)
            globals_.append(self.decl(decl))
        functions = []
        for fn in unit.functions:
            if globals_ or functions:
                self.newline(0, blank=True)
            functions.append(self.function(fn))
        self._write("\n")
        self.one_main(functions)
        return SourceUnit(functions, globals_)

    def function(self, fn: FunctionDef) -> FunctionDef:
        if fn.ret_type not in ("void", "int"):
            raise _inexact(f"the return type {fn.ret_type!r}")
        start = self.tok(KEYWORD, fn.ret_type)
        self.define(self.name(fn.name, " "))
        self.tok(PUNCT, "(")
        params = []
        for param in fn.params:
            if params:
                self.tok(PUNCT, ",")
            self.tok(KEYWORD, "int", " " if params else "")
            name = self.name(param.name, " ")
            if param.is_array:
                self.tok(PUNCT, "[")
                self.tok(PUNCT, "]")
            params.append(Param(param.name, token_span(name), param.is_array))
        self.tok(PUNCT, ")")
        body = self.block(fn.body.stmts, 0)
        return FunctionDef(fn.name, params, body, self.span_from(start), fn.ret_type)

    # ---------- statements ----------

    def block(self, stmts: list[Stmt], depth: int, space: str = " ") -> Block:
        """`{`, then each statement on its own line one level deeper, then `}`."""
        open_brace = self.tok(PUNCT, "{", space)
        self.nest(open_brace)
        copies = [self.stmt(stmt, depth + 1) for stmt in stmts]
        self.newline(depth)
        self.tok(PUNCT, "}")
        self.depth -= 1
        return Block(self.span_from(open_brace), copies)

    def stmt(self, stmt: Stmt, depth: int) -> Stmt:
        self.newline(depth)
        cls = stmt.__class__
        if cls is Assign:
            copy = self.assign(stmt)
            self.tok(PUNCT, ";")
            copy.span = self.extend(copy.span)
            return copy
        if cls is Decl:
            return self.decl(stmt)
        if cls is CallStmt:
            name = self.name(stmt.callee)
            args = self.call_args(stmt.callee, stmt.args, True)
            self.tok(PUNCT, ";")
            return CallStmt(self.span_from(name), stmt.callee, args)
        if cls is If:
            start = self.tok(KEYWORD, "if")
            cond = self.condition(stmt.cond)
            then_block = self.block(stmt.then_block.stmts, depth)
            else_block = None
            if stmt.else_block is not None:
                self.tok(KEYWORD, "else", " ")
                else_block = self.block(stmt.else_block.stmts, depth)
            return If(self.span_from(start), cond, then_block, else_block)
        if cls is While:
            start = self.tok(KEYWORD, "while")
            cond = self.condition(stmt.cond)
            body = self.block(stmt.body.stmts, depth)
            return While(self.span_from(start), cond, body)
        if cls is For:
            return self.for_loop(stmt, depth)
        if cls is Block:
            return self.block(stmt.stmts, depth, "")
        if cls is Return:
            start = self.tok(KEYWORD, "return")
            value = None if stmt.value is None else self.expr(stmt.value, " ", True)
            self.tok(PUNCT, ";")
            return Return(self.span_from(start), value)
        if cls is Switch:
            return self.switch(stmt, depth)
        if cls is DoWhile:
            start = self.tok(KEYWORD, "do")
            body = self.block(stmt.body.stmts, depth)
            self.tok(KEYWORD, "while", " ")
            cond = self.condition(stmt.cond)
            self.tok(PUNCT, ";")
            return DoWhile(self.span_from(start), body, cond)
        if cls is Parallel or cls is Interrupt:
            start = self.tok(KEYWORD, "parallel" if cls is Parallel else "interrupt")
            body = self.block(stmt.body.stmts, depth)
            return cls(self.span_from(start), body)
        raise TypeError(f"unknown statement node {type(stmt).__name__}")

    def condition(self, cond: Expr) -> Expr:
        """` (cond)` after a keyword."""
        self.tok(PUNCT, "(", " ")
        copy = self.expr(cond, "", True)
        self.tok(PUNCT, ")")
        return copy

    def decl(self, decl: Decl) -> Decl:
        """`int` and the declarators, through the `;`."""
        if not decl.declarators:
            raise _inexact("a declaration of nothing")
        start = self.tok(KEYWORD, "int")
        copies = []
        for d in decl.declarators:
            if copies:
                self.tok(PUNCT, ",")
            name = self.name(d.name, " ")
            if d.is_array:
                self.tok(PUNCT, "[")
                self.tok(PUNCT, "]")
            init = None
            if d.init is not None:
                self.tok(OPERATOR, "=", " ")
                if d.init.__class__ is ArrayInit:
                    if not d.is_array:
                        raise _inexact("a brace initializer of a scalar")
                    init = self.array_init(d.init, " ", True)
                else:
                    init = self.expr(d.init, " ", True)
            copies.append(Declarator(d.name, token_span(name), d.is_array, init))
        self.tok(PUNCT, ";", "" if copies else " ")
        return Decl(self.span_from(start), copies)

    def assign(self, stmt: Assign, space: str = "") -> Assign:
        """The assignment without its `;`; its span is the target's, as the parser leaves it."""
        target = self.lvalue(stmt.target, space)
        op = stmt.op
        if op == "++" or op == "--":
            self.tok(OPERATOR, op)
            return Assign(target.span, target, op, None)
        if op not in _ASSIGN_OPS:
            raise _inexact(f"the assignment operator {op!r}")
        self.tok(OPERATOR, op, " ")
        return Assign(target.span, target, op, self.expr(stmt.value, " ", True))

    def lvalue(self, target: Expr, space: str) -> Expr:
        """A name or one subscript of a name: all the parser takes before an assignment operator."""
        ident = target.base if target.__class__ is Subscript else target
        if ident.__class__ is not Ident or ident.name in BUILTINS:
            raise _inexact("an assignment to this target")  # a builtin's name starts a call statement
        return self.expr(target, space)

    def for_loop(self, stmt: For, depth: int) -> For:
        start = self.tok(KEYWORD, "for")
        self.tok(PUNCT, "(", " ")
        init = None
        if stmt.init.__class__ is Decl:
            init = self.decl(stmt.init)  # through its ';'
        else:
            if stmt.init.__class__ is Assign:
                init = self.assign(stmt.init)
                init.span = self.extend(init.span)
            self.tok(PUNCT, ";")
        cond = None
        if stmt.cond is not None:
            cond = self.expr(stmt.cond, " ", True)
        self.tok(PUNCT, ";", "" if cond is not None else " ")
        step = None
        if stmt.step is not None:
            step = self.assign(stmt.step, " ")
            step.span = self.extend(step.span)
        self.tok(PUNCT, ")", "" if step is not None else " ")
        body = self.block(stmt.body.stmts, depth)
        return For(self.span_from(start), init, cond, step, body)

    def switch(self, stmt: Switch, depth: int) -> Switch:
        start = self.tok(KEYWORD, "switch")
        scrutinee = self.condition(stmt.scrutinee)
        self.tok(PUNCT, "{", " ")  # not a block: no scope, no nesting level
        cases = []
        for case in stmt.cases:
            self.newline(depth + 1)
            self.tok(KEYWORD, "case")
            value = case.literal.value
            if value.__class__ is not int:
                raise _inexact(f"the case label {value!r}")
            if value < 0:
                self.tok(OPERATOR, "-", " ")
                literal = IntLit(token_span(self.tok(INT, str(-value))), value)
            else:
                literal = IntLit(token_span(self.tok(INT, str(value), " ")), value)
            self.tok(PUNCT, ":")
            cases.append(SwitchCase(literal, self.block(case.block.stmts, depth + 1)))
        default_block = None
        if stmt.default_block is not None:
            self.newline(depth + 1)
            self.tok(KEYWORD, "default")
            self.tok(PUNCT, ":")
            default_block = self.block(stmt.default_block.stmts, depth + 1)
        self.newline(depth)
        self.tok(PUNCT, "}")
        return Switch(self.span_from(start), scrutinee, cases, default_block)

    # ---------- expressions ----------

    def expr(self, expr: Expr, space: str = "", top: bool = False) -> Expr:
        """An expression after `space`.  At the top of a statement position
        (`top`) a binary operation and the arguments of a call go without
        their outer parentheses."""
        cls = expr.__class__
        if cls is Ident:
            name = expr.name
            if expr.global_qualified:
                start = self.tok(PUNCT, "::", space)
                self.name(name)
                return Ident(self.span_from(start), name, True)
            return Ident(token_span(self.name(name, space)), name)
        if cls is IntLit:
            value = expr.value
            if value.__class__ is not int:
                raise _inexact(f"the literal {value!r}")
            if value >= 0:
                return IntLit(token_span(self.tok(INT, str(value), space)), value)
            # `(-5)`: the parser reads a minus applied to 5
            return self.group(Unary(expr.span, "-", IntLit(expr.span, -value)), space)
        if cls is Binary:
            return self.binary(expr, space, top)
        if cls is Unary:
            op = expr.op
            operand = expr.operand
            if op != "!" and op != "-":
                raise _inexact(f"this {op!r}")
            start = self.tok(OPERATOR, op, space)
            self.nest(start)
            if op == "-" and operand.__class__ is Unary and operand.op == "-":
                copy = self.group(operand, "")  # `- -x` would lex as `--x`
            else:
                copy = self.expr(operand)
            self.depth -= 1
            return Unary(Span(start[2], copy.span.end, start[4], start[5]), op, copy)
        if cls is Subscript:
            if expr.base.__class__ is Unary:
                base = self.group(expr.base, space)  # `-a[i]` would subscript `a`, not `-a`
            else:
                base = self.expr(expr.base, space)
            self.nest(self.tok(PUNCT, "["))
            index = self.expr(expr.index)
            self.tok(PUNCT, "]")
            self.depth -= 1
            return Subscript(self.extend(base.span), base, index)
        if cls is CallExpr:
            start = self.name(expr.callee, space)
            args = self.call_args(expr.callee, expr.args, top)
            return CallExpr(self.span_from(start), expr.callee, args)
        if cls is StrLit or cls is ArrayInit:  # a string goes in a print call, braces in a declarator
            raise _inexact(f"a {cls.__name__} inside an expression")
        raise TypeError(f"unknown expression node {type(expr).__name__}")

    def group(self, expr: Expr, space: str) -> Expr:
        """`(expr)`, which the parser reads as the tree of `expr` alone,
        with that tree's own spans."""
        levels = self.parens(space, 1)
        copy = self.expr(expr)
        self.tok(PUNCT, ")")
        self.depth -= levels
        return copy

    def binary(self, expr: Binary, space: str, top: bool) -> Expr:
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
        copy = self.expr(lhs, "" if opened else space)
        for node in reversed(chain):
            if node.op not in _BIN_PREC:
                raise _inexact(f"the binary operator {node.op!r}")
            self.tok(OPERATOR, node.op, " ")
            rhs = self.expr(node.rhs, " ")
            copy = Binary(Span(copy.span.start, rhs.span.end, copy.span.line, copy.span.col), node.op, copy, rhs)
            if opened:
                self.tok(PUNCT, ")")
                opened -= 1
        self.depth -= levels
        return copy

    def call_args(self, callee: str, args: list[Expr], top: bool) -> list[Expr]:
        """`(args)`; a string argument only in a call of print."""
        self.nest(self.tok(PUNCT, "("))
        copies = []
        for arg in args:
            if copies:
                self.tok(PUNCT, ",")
            space = " " if copies else ""
            if arg.__class__ is StrLit:
                if callee != "print" or not _STRING.match(arg.raw):
                    raise _inexact(f"the {callee} argument {arg.raw}")
                copies.append(StrLit(token_span(self.tok(STRING, arg.raw, space)), arg.raw))
            else:
                copies.append(self.expr(arg, space, top))
        self.tok(PUNCT, ")")
        self.depth -= 1
        return copies

    def array_init(self, expr: ArrayInit, space: str, top: bool) -> ArrayInit:
        start = self.tok(PUNCT, "{", space)
        elements = []
        for element in expr.elements:
            if elements:
                self.tok(PUNCT, ",")
            elements.append(self.expr(element, " " if elements else "", top))
        self.tok(PUNCT, "}")
        return ArrayInit(self.span_from(start), elements)


def render(unit: SourceUnit) -> Rendered:
    """Render a SourceUnit to canonical MiniLang text, laid out; raise the
    parser's ParseError or a ValueError for a tree it refuses (see above)."""
    layout = _Layout()
    copy = layout.source_unit(unit)
    text = Rendered("".join(layout.parts))
    text.tokens = layout.tokens
    text.unit = copy
    return text
