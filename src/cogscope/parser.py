"""Recursive-descent parser for MiniLang.

Grammar highlights (full grammar in docs/grammar.md):

  program    := (global_decl | function)*       -- exactly one 'main' required
  function   := ('void' | 'int') IDENT '(' params? ')' block
  stmt       := decl | assign ';' | call ';' | if | switch | for | while
              | do_while | 'parallel' block | 'interrupt' block
              | 'return' expr? ';' | block
  decl       := 'int' declarator (',' declarator)* ';'
  declarator := IDENT ('[' ']')? ('=' (expr | '{' expr_list '}'))?

Bodies of if/while/for may be a single statement; the parser normalizes
them to one-statement blocks, so every Block introduces exactly one scope.
String literals outside print arguments, reserved or duplicate function
names, nesting deeper than MAX_NESTING and a missing main are rejected at
parse time.  The nesting count is `Checks`, which the renderer keeps too as
it writes a tree out; every other check it leaves to this parser, which
reads the tokens it writes (render.py).  A chain of operators is read on an
explicit stack, and a run of `(` in one frame, so the canonical text of a
chain of any length reads back.  Variable names are the resolver's to check
(resolve.py), in its one scope stack.
"""

from __future__ import annotations

from .errors import ParseError, Span
from .lexer import BUILTINS, token_span, tokenize
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
    Param,
    Parallel,
    Return,
    SourceUnit,
    StrLit,
    Stmt,
    Subscript,
    Switch,
    SwitchCase,
    Unary,
    While,
)

# Binary operator precedence for precedence climbing, loosest = 1.
_BIN_PREC: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_COMPOUND_ASSIGN = ("+=", "-=", "*=", "/=", "%=")

# The deepest nesting a program may have.  A function body is level 1; every
# block or single-statement body, every `else if`, and in an expression every
# call argument list, subscript, unary operator and parenthesis pair opens
# one more level, except a `(` right after a `(`: its group is the first
# operand of the enclosing one, on the left spine that the parser and every
# walk go down without recursing.  They recurse at most a few frames per
# level, so any accepted program stays well inside Python's default
# recursion limit; a deeper one is a located ParseError.
MAX_NESTING = 100

# The kind of the token that stands for the end of the input.
END = "end of input"


class Checks:
    """The nesting count: at most MAX_NESTING levels deep.

    The parser keeps it as it reads a program, and the renderer as it writes
    a tree out (render.py), so that a tree of any depth stops at the limit
    instead of at Python's recursion limit.  `nest` takes the token it opens
    a level at, and builds that token's span only to raise.
    """

    def __init__(self):
        self.depth = 0  # open nesting levels; whoever opens one closes it with `self.depth -= 1`

    def nest(self, token: tuple) -> None:
        """Open one nesting level at `token`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", token_span(token))


class _Parser(Checks):
    # Tokens are the lexer's tuples (kind, text, start, end, line, col), read
    # by index.  A Span is built only for a node that keeps one, or an error.
    # Nodes are built with positional arguments, in field order: cheaper
    # than keywords on this hot path.

    def __init__(self, tokens: list[tuple], source_len: int):
        super().__init__()
        self.functions: set[str] = set()  # the functions defined so far
        # Lookahead is read as self._lookahead[self.pos + k], k <= 2.  Past
        # the last token every read finds the one END token, whose text
        # names it in messages and whose span is the end of the input, located
        # just past the last token (at 1:1 when there is none).
        if tokens:
            _, text, _, _, line, col = tokens[-1]
            self.end = (END, "end of input", source_len, source_len, line, col + len(text))
        else:
            self.end = (END, "end of input", source_len, source_len, 1, 1)
        self._lookahead = [*tokens, self.end, self.end, self.end]
        self.pos = 0

    # ---------- token plumbing ----------

    def at(self, text: str) -> bool:
        return self._lookahead[self.pos][1] == text

    def at_kind(self, kind: str) -> bool:
        return self._lookahead[self.pos][0] == kind

    def advance(self) -> tuple:
        """Read the current token, which the caller has matched."""
        tok = self._lookahead[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> tuple:
        tok = self._lookahead[self.pos]
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1]!r}", token_span(tok))
        self.pos += 1
        return tok

    def expect_ident(self) -> tuple:
        tok = self._lookahead[self.pos]
        if tok[0] != "identifier":
            raise ParseError(f"expected identifier, found {tok[1]!r}", token_span(tok))
        self.pos += 1
        return tok

    def span_from(self, start: tuple) -> Span:
        """From token `start` through the last token read."""
        return Span(start[2], self._lookahead[self.pos - 1][3], start[4], start[5])

    # ---------- top level ----------

    def parse_unit(self) -> SourceUnit:
        functions: list[FunctionDef] = []
        globals_: list[Decl] = []
        while self._lookahead[self.pos] is not self.end:
            text = self._lookahead[self.pos][1]
            if text in ("void", "int") and self._is_function_header():
                functions.append(self.parse_function())
            elif text == "int":
                globals_.append(self.parse_decl())
            else:
                raise ParseError(
                    f"expected declaration or function, found {text!r}", token_span(self._lookahead[self.pos])
                )
        if sum(f.name == "main" for f in functions) != 1:
            where = functions[0].span if functions else Span(0, 0, 1, 1)
            raise ParseError("program must define exactly one function named 'main'", where)
        return SourceUnit(functions, globals_)

    def _is_function_header(self) -> bool:
        return (
            self._lookahead[self.pos + 1][0] == "identifier"
            and self._lookahead[self.pos + 2][1] == "("
        )

    def parse_function(self) -> FunctionDef:
        start = self.advance()  # void | int
        name_tok = self.expect_ident()
        name = name_tok[1]
        if name in BUILTINS:
            raise ParseError(f"cannot define reserved builtin {name!r}", token_span(name_tok))
        if name in self.functions:
            raise ParseError(f"duplicate function {name!r}", token_span(name_tok))
        self.functions.add(name)
        self.expect("(")
        params: list[Param] = []
        while not self.at(")"):
            if params:
                self.expect(",")
            self.expect("int")
            pname = self.expect_ident()
            is_array = False
            if self.at("["):
                self.advance()
                self.expect("]")
                is_array = True
            params.append(Param(pname[1], Span(pname[2], pname[3], pname[4], pname[5]), is_array))
        self.expect(")")
        body = self.parse_block()
        return FunctionDef(name, params, body, self.span_from(start), start[1])

    # ---------- statements ----------

    def parse_block(self) -> Block:
        open_brace = self.expect("{")
        self.nest(open_brace)
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        self.depth -= 1
        return Block(self.span_from(open_brace), stmts)

    def parse_body(self) -> Block:
        """A control-structure body: a block, or one statement wrapped in a block."""
        if self.at("{"):
            return self.parse_block()
        self.nest(self._lookahead[self.pos - 1])  # the ')' or 'else' before the body
        stmt = self.parse_stmt()
        self.depth -= 1
        return Block(stmt.span, [stmt])

    def parse_stmt(self) -> Stmt:
        tok = self._lookahead[self.pos]
        if tok is self.end:
            raise ParseError("unexpected end of input", token_span(tok))
        text = tok[1]
        if text == "int":
            return self.parse_decl()
        if text == "if":
            return self.parse_if()
        if text == "switch":
            return self.parse_switch()
        if text == "for":
            return self.parse_for()
        if text == "while":
            return self.parse_while()
        if text == "do":
            return self.parse_do_while()
        if text == "parallel":
            self.advance()
            body = self.parse_block()
            return Parallel(self.span_from(tok), body)
        if text == "interrupt":
            self.advance()
            body = self.parse_block()
            return Interrupt(self.span_from(tok), body)
        if text == "return":
            self.advance()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return Return(self.span_from(tok), value)
        if text == "{":
            return self.parse_block()
        stmt = self.parse_simple_stmt()
        self.expect(";")
        stmt.span = self.span_from(tok)
        return stmt

    def parse_decl(self) -> Decl:
        start = self.expect("int")
        declarators: list[Declarator] = []
        while True:
            name_tok = self.expect_ident()
            is_array = False
            if self.at("["):
                self.advance()
                self.expect("]")
                is_array = True
            init: Expr | None = None
            if self.at("="):
                self.advance()
                if self.at("{"):
                    if not is_array:
                        span = token_span(self._lookahead[self.pos])
                        raise ParseError("brace initializer requires an array declarator", span)
                    init = self.parse_array_init()
                else:
                    init = self.parse_expr()
            span = Span(name_tok[2], name_tok[3], name_tok[4], name_tok[5])
            declarators.append(Declarator(name_tok[1], span, is_array, init))
            if self.at(","):
                self.advance()
                continue
            break
        self.expect(";")
        return Decl(self.span_from(start), declarators)

    def parse_array_init(self) -> ArrayInit:
        start = self.expect("{")
        elements: list[Expr] = []
        while not self.at("}"):
            if elements:
                self.expect(",")
            elements.append(self.parse_expr())
        self.expect("}")
        return ArrayInit(self.span_from(start), elements)

    def parse_simple_stmt(self) -> Stmt:
        """Assignment, ++/--, or a call statement."""
        tok = self._lookahead[self.pos]
        if tok[0] == "identifier" and (tok[1] in BUILTINS or self._peek_is_plain_call()):
            self.advance()
            args = self.parse_call_args(allow_strings=tok[1] == "print")
            return CallStmt(token_span(tok), tok[1], args)
        target = self.parse_lvalue()
        nxt = self._lookahead[self.pos]
        if nxt is self.end:
            raise ParseError("unexpected end of statement", target.span)
        op = nxt[1]
        if op == "++" or op == "--":
            self.advance()
            return Assign(target.span, target, op, None)
        if op == "=" or op in _COMPOUND_ASSIGN:
            self.advance()
            value = self.parse_expr()
            return Assign(target.span, target, op, value)
        raise ParseError(f"expected assignment or call, found {op!r}", token_span(nxt))

    def _peek_is_plain_call(self) -> bool:
        return self._lookahead[self.pos + 1][1] == "("

    def parse_call_args(self, allow_strings: bool) -> list[Expr]:
        self.nest(self.expect("("))
        args: list[Expr] = []
        while not self.at(")"):
            if args:
                self.expect(",")
            if self.at_kind("string-literal"):
                tok = self.advance()
                if not allow_strings:
                    raise ParseError("string literals are only allowed as print arguments", token_span(tok))
                args.append(StrLit(token_span(tok), tok[1]))
            else:
                args.append(self.parse_expr())
        self.expect(")")
        self.depth -= 1
        return args

    def parse_lvalue(self) -> Expr:
        global_qualified = False
        start = self._lookahead[self.pos]
        if start is self.end:
            raise ParseError("unexpected end of input", token_span(start))
        if start[1] == "::":
            self.advance()
            global_qualified = True
        name_tok = self.expect_ident()
        span = Span(start[2], name_tok[3], start[4], start[5])
        node: Expr = Ident(span, name_tok[1], global_qualified)
        if self.at("["):
            self.nest(self.advance())
            index = self.parse_expr()
            close = self.expect("]")
            self.depth -= 1
            node = Subscript(Span(span.start, close[3], span.line, span.col), node, index)
        return node

    def parse_if(self) -> If:
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_block = self.parse_body()
        else_block: Block | None = None
        if self.at("else"):
            self.advance()
            if self.at("if"):
                self.nest(self._lookahead[self.pos])
                nested = self.parse_if()
                self.depth -= 1
                else_block = Block(nested.span, [nested])
            else:
                else_block = self.parse_body()
        return If(self.span_from(start), cond, then_block, else_block)

    def parse_switch(self) -> Switch:
        start = self.expect("switch")
        self.expect("(")
        scrutinee = self.parse_expr()
        self.expect(")")
        self.expect("{")
        cases: list[SwitchCase] = []
        default_block: Block | None = None
        while not self.at("}"):
            if self.at("case"):
                self.advance()
                lit_tok = self._lookahead[self.pos]
                negative = False
                if lit_tok[1] == "-":
                    self.advance()
                    negative = True
                    lit_tok = self._lookahead[self.pos]
                if lit_tok[0] != "integer-literal":
                    raise ParseError("case label must be an integer literal", token_span(lit_tok))
                self.advance()
                value = -int(lit_tok[1]) if negative else int(lit_tok[1])
                literal = IntLit(token_span(lit_tok), value)
                self.expect(":")
                block = self.parse_block()
                cases.append(SwitchCase(literal, block))
            elif self.at("default"):
                if default_block is not None:
                    raise ParseError("duplicate default case", token_span(self._lookahead[self.pos]))
                self.advance()
                self.expect(":")
                default_block = self.parse_block()
            else:
                tok = self._lookahead[self.pos]
                raise ParseError(f"expected 'case' or 'default', found {tok[1]!r}", token_span(tok))
        self.expect("}")
        return Switch(self.span_from(start), scrutinee, cases, default_block)

    def parse_for(self) -> For:
        start = self.expect("for")
        self.expect("(")
        init: Stmt | None = None
        if not self.at(";"):
            if self.at("int"):
                init = self.parse_decl()  # consumes its ';'
            else:
                first = self._lookahead[self.pos]
                init = self.parse_simple_stmt()
                if not isinstance(init, Assign):
                    raise ParseError("for initializer must be a declaration or assignment", init.span)
                init.span = self.span_from(first)
                self.expect(";")
        else:
            self.expect(";")
        cond: Expr | None = None
        if not self.at(";"):
            cond = self.parse_expr()
        self.expect(";")
        step: Assign | None = None
        if not self.at(")"):
            first = self._lookahead[self.pos]
            stmt = self.parse_simple_stmt()
            if not isinstance(stmt, Assign):
                raise ParseError("for step must be an assignment", stmt.span)
            stmt.span = self.span_from(first)
            step = stmt
        self.expect(")")
        body = self.parse_body()
        return For(self.span_from(start), init, cond, step, body)

    def parse_while(self) -> While:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_body()
        return While(self.span_from(start), cond, body)

    def parse_do_while(self) -> DoWhile:
        start = self.expect("do")
        body = self.parse_block()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect(";")
        return DoWhile(self.span_from(start), body, cond)

    # ---------- expressions ----------

    def parse_expr(self, node: Expr | None = None) -> Expr:
        # Precedence parsing on an explicit stack of (precedence, operator,
        # left operand), so that a chain of operators costs no recursion.  All
        # binary operators associate left: an operator first reduces every
        # pending one of the same or tighter precedence.  `node`, when given,
        # is the first operand, already read.
        pending: list[tuple[int, str, Expr]] = []
        if node is None:
            node = self.parse_unary()
        while True:
            op = self._lookahead[self.pos][1]
            prec = _BIN_PREC.get(op)
            while pending and (prec is None or pending[-1][0] >= prec):
                _, pending_op, lhs = pending.pop()
                node = Binary(Span(lhs.span.start, node.span.end, lhs.span.line, lhs.span.col), pending_op, lhs, node)
            if prec is None:
                return node
            self.pos += 1
            pending.append((prec, op, node))
            node = self.parse_unary()

    def parse_unary(self) -> Expr:
        tok = self._lookahead[self.pos]
        if tok[1] in ("-", "!"):
            self.pos += 1
            self.nest(tok)
            operand = self.parse_unary()
            self.depth -= 1
            return Unary(Span(tok[2], operand.span.end, tok[4], tok[5]), tok[1], operand)
        return self.parse_postfix(self.parse_primary())

    def parse_postfix(self, node: Expr) -> Expr:
        """`node` and the subscripts after it."""
        while self._lookahead[self.pos][1] == "[":
            self.nest(self.advance())
            index = self.parse_expr()
            close = self.expect("]")
            self.depth -= 1
            node = Subscript(Span(node.span.start, close[3], node.span.line, node.span.col), node, index)
        return node

    def parse_primary(self) -> Expr:
        tok = self._lookahead[self.pos]
        if tok is self.end:
            raise ParseError("unexpected end of expression", token_span(tok))
        kind, text = tok[0], tok[1]
        if text == "(":
            # A run of `(` is read in this one frame and opens one nesting
            # level, or none right after a `(` (see MAX_NESTING): each later
            # group of the run is the first operand of the group around it.
            opens = self._lookahead[self.pos - 1][1] != "("
            if opens:
                self.nest(tok)
            run = 0
            while self._lookahead[self.pos][1] == "(":
                self.pos += 1
                run += 1
            node = None
            for _ in range(run):
                node = self.parse_expr(None if node is None else self.parse_postfix(node))
                self.expect(")")
            self.depth -= opens
            return node
        if kind == "integer-literal":
            self.pos += 1
            return IntLit(Span(tok[2], tok[3], tok[4], tok[5]), int(text))
        if kind == "string-literal":
            raise ParseError("string literals are only allowed as print arguments", token_span(tok))
        if text == "::":
            self.advance()
            name_tok = self.expect_ident()
            return Ident(Span(tok[2], name_tok[3], tok[4], tok[5]), name_tok[1], True)
        if kind == "identifier":
            self.pos += 1
            if self._lookahead[self.pos][1] == "(":
                args = self.parse_call_args(allow_strings=text == "print")
                return CallExpr(self.span_from(tok), text, args)
            return Ident(Span(tok[2], tok[3], tok[4], tok[5]), text)
        raise ParseError(f"unexpected token {text!r} in expression", token_span(tok))


def parse(tokens: list[tuple], source_len: int) -> SourceUnit:
    """Parse the tokens of a source text of ``source_len`` characters into a SourceUnit."""
    return _Parser(tokens, source_len).parse_unit()


def fault_within(tokens: list[tuple], source_len: int) -> ParseError | None:
    """The error that `parse` meets in ``tokens``, the start of a longer
    token stream, before it has read them all; None if it meets none.  An
    error met once they are all read belongs to where they stop, not to them."""
    parser = _Parser(tokens, source_len)
    try:
        parser.parse_unit()
    except ParseError as error:
        if parser.pos < len(tokens):
            return error
    return None


def parse_source(source: str) -> SourceUnit:
    return parse(tokenize(source), len(source))
