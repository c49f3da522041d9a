"""Canonical MiniLang renderer.

render() is deterministic and parse(render(u)) is structurally identical to
u, which is what the renaming / permutation / concatenation transforms need.
Style: four-space indents, one statement per line, braces always emitted,
every binary operation but the outermost of an expression in parentheses.

The renderer writes the text as a token stream and lays it out as it goes:
it returns a `Rendered`, the text together with its tokens and a copy of
the tree whose spans are those the parser gives that text.  So a program
that a transform builds is scored without being lexed and parsed again
(analysis.analyze_rendered).  The layout makes the parser's own checks
(parser.Checks) on the way; a tree the parser would reject from its text,
or would read back as a different tree, gets no layout, and its tokens and
tree come from lexing and parsing the text when first read.
"""

from __future__ import annotations

import re
from functools import cached_property

from .errors import ParseError, Span
from .lexer import BUILTINS, KEYWORDS, Token, tokenize
from .parser import _BIN_PREC, _COMPOUND_ASSIGN, Checks, parse
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

    ``tokens`` equals ``tokenize(text)``, and ``unit`` is a fresh copy of the
    rendered tree with the spans that ``parse`` gives the text.  Both come
    from the renderer; for a tree without a layout they come from lexing
    and parsing the text on first read, so ``unit`` then raises the
    parser's error.  A Rendered is a str for every other purpose.
    """

    @cached_property
    def tokens(self) -> list[Token]:
        return tokenize(self)

    @cached_property
    def unit(self) -> SourceUnit:
        return parse(self.tokens, len(self))


class _Inexact(Exception):
    """The parser would read the text back as a different tree, or not at all."""


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
        self.tokens: list[Token] = []
        self._write = self.parts.append
        self._push = self.tokens.append
        self.offset = 0
        self.line = 1
        self.col_base = -1  # a token's column is its offset minus this

    def inexact(self) -> None:
        raise _Inexact

    def tok(self, kind: str, text: str, space: str = "") -> Span:
        """Write one token after `space`; return its span."""
        start = self.offset + len(space)
        self.offset = end = start + len(text)
        span = Span(start, end, self.line, start - self.col_base)
        self._push(Token(kind, text, span))
        self._write(space + text)
        return span

    def name(self, name: str, space: str = "") -> Span:
        if name in KEYWORDS or not name.isidentifier() or not name.isascii():
            self.inexact()
        return self.tok(IDENT, name, space)

    def newline(self, depth: int, blank: bool = False) -> None:
        """End the line, after an empty one if `blank`; indent the next `depth` levels."""
        text = ("\n\n" if blank else "\n") + _INDENT * depth
        self._write(text)
        self.line += 2 if blank else 1
        self.col_base = self.offset + (1 if blank else 0)
        self.offset += len(text)

    def span_from(self, start: Span) -> Span:
        return Span(start.start, self.offset, start.line, start.col)

    # ---------- top level ----------

    def source_unit(self, unit: SourceUnit) -> SourceUnit:
        self.scopes.append(set())  # global scope
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
        self.scopes.pop()
        self.one_main(functions)
        return SourceUnit(functions, globals_)

    def function(self, fn: FunctionDef) -> FunctionDef:
        if fn.ret_type not in ("void", "int"):
            self.inexact()
        start = self.tok(KEYWORD, fn.ret_type)
        self.define(fn.name, self.name(fn.name, " "))
        self.tok(PUNCT, "(")
        self.scopes.append(set())  # function scope: parameters and the body's top level
        params = []
        for param in fn.params:
            if params:
                self.tok(PUNCT, ",")
            self.tok(KEYWORD, "int", " " if params else "")
            span = self.name(param.name, " ")
            if param.is_array:
                self.tok(PUNCT, "[")
                self.tok(PUNCT, "]")
            self.declare(param.name, span)
            params.append(Param(param.name, span, param.is_array))
        self.tok(PUNCT, ")")
        body = self.block(fn.body.stmts, 0, new_scope=False)
        self.scopes.pop()
        return FunctionDef(fn.name, params, body, self.span_from(start), fn.ret_type)

    # ---------- statements ----------

    def block(self, stmts: list[Stmt], depth: int, space: str = " ", new_scope: bool = True) -> Block:
        """`{`, then each statement on its own line one level deeper, then `}`."""
        open_brace = self.tok(PUNCT, "{", space)
        self.nest(open_brace)
        if new_scope:
            self.scopes.append(set())
        copies = [self.stmt(stmt, depth + 1) for stmt in stmts]
        if new_scope:
            self.scopes.pop()
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
            copy.span = self.span_from(copy.span)
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
            self.inexact()
        start = self.tok(KEYWORD, "int")
        copies = []
        for d in decl.declarators:
            if copies:
                self.tok(PUNCT, ",")
            span = self.name(d.name, " ")
            if d.is_array:
                self.tok(PUNCT, "[")
                self.tok(PUNCT, "]")
            init = None
            if d.init is not None:
                self.tok(OPERATOR, "=", " ")
                if d.init.__class__ is ArrayInit:
                    if not d.is_array:
                        self.inexact()
                    init = self.array_init(d.init, " ", True)
                else:
                    init = self.expr(d.init, " ", True)
            self.declare(d.name, span)
            copies.append(Declarator(d.name, span, d.is_array, init))
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
            self.inexact()
        self.tok(OPERATOR, op, " ")
        return Assign(target.span, target, op, self.expr(stmt.value, " ", True))

    def lvalue(self, target: Expr, space: str) -> Expr:
        """A name or one subscript of a name: all the parser takes before an assignment operator."""
        ident = target.base if target.__class__ is Subscript else target
        if ident.__class__ is not Ident or ident.name in BUILTINS:
            self.inexact()  # a builtin's name starts a call statement
        return self.expr(target, space)

    def for_loop(self, stmt: For, depth: int) -> For:
        start = self.tok(KEYWORD, "for")
        self.tok(PUNCT, "(", " ")
        self.scopes.append(set())  # the header's scope covers the whole loop
        init = None
        if stmt.init.__class__ is Decl:
            init = self.decl(stmt.init)  # through its ';'
        else:
            if stmt.init.__class__ is Assign:
                init = self.assign(stmt.init)
                init.span = self.span_from(init.span)
            self.tok(PUNCT, ";")
        cond = None
        if stmt.cond is not None:
            cond = self.expr(stmt.cond, " ", True)
        self.tok(PUNCT, ";", "" if cond is not None else " ")
        step = None
        if stmt.step is not None:
            step = self.assign(stmt.step, " ")
            step.span = self.span_from(step.span)
        self.tok(PUNCT, ")", "" if step is not None else " ")
        body = self.block(stmt.body.stmts, depth)
        self.scopes.pop()
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
                self.inexact()
                literal = IntLit(self.tok(INT, str(value), " "), value)
            elif value < 0:
                self.tok(OPERATOR, "-", " ")
                literal = IntLit(self.tok(INT, str(-value)), value)
            else:
                literal = IntLit(self.tok(INT, str(value), " "), value)
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
            return Ident(self.name(name, space), name)
        if cls is IntLit:
            value = expr.value
            if value.__class__ is not int:
                self.inexact()
            if value >= 0:
                return IntLit(self.tok(INT, str(value), space), value)
            # `(-5)`: the parser reads a minus applied to 5
            self.nest(self.tok(PUNCT, "(", space))
            op = self.tok(OPERATOR, "-")
            self.nest(op)
            operand = IntLit(self.tok(INT, str(-value)), -value)
            self.tok(PUNCT, ")")
            self.depth -= 2
            return Unary(Span(op.start, operand.span.end, op.line, op.col), "-", operand)
        if cls is Binary:
            return self.binary(expr, space, top)
        if cls is Unary:
            op = expr.op
            operand = expr.operand
            if op != "!" and (op != "-" or operand.__class__ is Unary and operand.op == "-"):
                self.inexact()  # not a prefix operator, or `- -x`, which lexes as `--x`
            start = self.tok(OPERATOR, op, space)
            self.nest(start)
            copy = self.expr(operand)
            self.depth -= 1
            return Unary(Span(start.start, copy.span.end, start.line, start.col), op, copy)
        if cls is Subscript:
            if expr.base.__class__ not in (Ident, IntLit, Binary, Subscript, CallExpr):
                self.inexact()  # `-a[i]` subscripts `a`, not `-a`
            base = self.expr(expr.base, space)
            self.nest(self.tok(PUNCT, "["))
            index = self.expr(expr.index)
            self.tok(PUNCT, "]")
            self.depth -= 1
            return Subscript(Span(base.span.start, self.offset, base.span.line, base.span.col), base, index)
        if cls is CallExpr:
            start = self.name(expr.callee, space)
            args = self.call_args(expr.callee, expr.args, top)
            return CallExpr(self.span_from(start), expr.callee, args)
        if cls is StrLit:
            self.inexact()  # a string is only a print argument
            return StrLit(self.tok(STRING, expr.raw, space), expr.raw)
        if cls is ArrayInit:
            self.inexact()  # braces only initialize an array declarator
            return self.array_init(expr, space, top)
        raise TypeError(f"unknown expression node {type(expr).__name__}")

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
        for _ in range(opened):
            self.nest(self.tok(PUNCT, "(", space))
            space = ""
        copy = self.expr(lhs, space)
        for node in reversed(chain):
            if node.op not in _BIN_PREC:
                self.inexact()
            self.tok(OPERATOR, node.op, " ")
            rhs = self.expr(node.rhs, " ")
            copy = Binary(Span(copy.span.start, rhs.span.end, copy.span.line, copy.span.col), node.op, copy, rhs)
            if opened:
                self.tok(PUNCT, ")")
                self.depth -= 1
                opened -= 1
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
                    self.inexact()
                copies.append(StrLit(self.tok(STRING, arg.raw, space), arg.raw))
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


class _Text(_Layout):
    """The same writer with every check off: the text of any tree."""

    def inexact(self) -> None:
        pass

    def nest(self, span: Span) -> None:
        pass

    def declare(self, name: str, span: Span) -> None:
        pass

    def define(self, name: str, span: Span) -> None:
        pass

    def one_main(self, functions: list[FunctionDef]) -> None:
        pass


def render(unit: SourceUnit) -> Rendered:
    """Render a SourceUnit to canonical MiniLang text, laid out."""
    layout = _Layout()
    try:
        copy = layout.source_unit(unit)
    except (ParseError, _Inexact):
        layout = _Text()
        layout.source_unit(unit)
        return Rendered("".join(layout.parts))
    text = Rendered("".join(layout.parts))
    text.tokens = layout.tokens
    text.unit = copy
    return text
