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
Duplicate declarations in one scope, string literals outside print
arguments, and a missing main are rejected at parse time; the checks on
names, scopes, nesting and main are `Checks`, which the renderer makes too.
"""

from __future__ import annotations

from .errors import ParseError, Span
from .lexer import BUILTINS, Token, tokenize
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
# parenthesis pair, call argument list, subscript and unary operator opens
# one more level.  The parser and the walks over its tree recurse at most a
# few frames per level, so any accepted program stays well inside Python's
# default recursion limit; a deeper one is a located ParseError.
MAX_NESTING = 100

# The kind of the token that stands for the end of the input.
END = "end of input"


class Checks:
    """The checks a program passes beyond the grammar: no reserved or
    duplicate names, nesting at most MAX_NESTING levels deep, one main.

    The parser makes them as it reads a program.  The renderer makes them as
    it writes a tree out (render.py), so a tree whose text the parser would
    reject is known without that text being parsed.
    """

    def __init__(self):
        self.scopes: list[set[str]] = []  # the names declared per open scope, innermost last
        self.functions: set[str] = set()  # the functions defined so far
        self.depth = 0  # open nesting levels; whoever opens one closes it with `self.depth -= 1`

    def nest(self, span: Span) -> None:
        """Open one nesting level at `span`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", span)

    def declare(self, name: str, span: Span) -> None:
        """Declare `name` in the innermost scope."""
        if name in BUILTINS:
            raise ParseError(f"cannot declare reserved builtin name {name!r}", span)
        if name in self.scopes[-1]:
            raise ParseError(f"duplicate declaration of {name!r} in the same scope", span)
        self.scopes[-1].add(name)

    def define(self, name: str, span: Span) -> None:
        """Define a function named `name`."""
        if name in BUILTINS:
            raise ParseError(f"cannot define reserved builtin {name!r}", span)
        if name in self.functions:
            raise ParseError(f"duplicate function {name!r}", span)
        self.functions.add(name)

    def one_main(self, functions: list[FunctionDef]) -> None:
        """The program's functions, once all are defined, include one main."""
        if sum(f.name == "main" for f in functions) != 1:
            where = functions[0].span if functions else Span(0, 0, 1, 1)
            raise ParseError("program must define exactly one function named 'main'", where)


class _Parser(Checks):
    # The most frequent nodes are built with positional arguments, in field
    # order: cheaper than keywords on this hot path.

    def __init__(self, tokens: list[Token], source_len: int):
        super().__init__()
        self.tokens = tokens
        # Lookahead is read as self._lookahead[self.pos + k], k <= 2.  Past
        # the last token every read finds the one END token, whose text
        # names it in messages and whose span is the end of the input.
        last_line = tokens[-1].line if tokens else 1
        self.end = Token(END, "end of input", Span(source_len, source_len, last_line, 1))
        self._lookahead = [*tokens, self.end, self.end, self.end]
        self.pos = 0

    # ---------- token plumbing ----------

    def at(self, text: str) -> bool:
        return self._lookahead[self.pos].text == text

    def at_kind(self, kind: str) -> bool:
        return self._lookahead[self.pos].kind == kind

    def advance(self) -> Token:
        tok = self._lookahead[self.pos]
        if tok is self.end:
            raise ParseError("unexpected end of input", tok.span)
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self._lookahead[self.pos]
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.span)
        self.pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self._lookahead[self.pos]
        if tok.kind != "identifier":
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.span)
        self.pos += 1
        return tok

    def span_from(self, start: Span) -> Span:
        end = self.tokens[self.pos - 1].span.end if self.pos else start.end
        return Span(start.start, end, start.line, start.col)

    # ---------- top level ----------

    def parse_unit(self) -> SourceUnit:
        functions: list[FunctionDef] = []
        globals_: list[Decl] = []
        self.scopes.append(set())  # global scope
        while self._lookahead[self.pos] is not self.end:
            tok = self._lookahead[self.pos]
            if tok.text in ("void", "int") and self._is_function_header():
                functions.append(self.parse_function())
            elif tok.text == "int":
                globals_.append(self.parse_decl())
            else:
                raise ParseError(
                    f"expected declaration or function, found {tok.text!r}", tok.span
                )
        self.scopes.pop()
        self.one_main(functions)
        return SourceUnit(functions=functions, globals=globals_)

    def _is_function_header(self) -> bool:
        return (
            self._lookahead[self.pos + 1].kind == "identifier"
            and self._lookahead[self.pos + 2].text == "("
        )

    def parse_function(self) -> FunctionDef:
        start = self.advance().span  # void | int
        ret_type = self.tokens[self.pos - 1].text
        name_tok = self.expect_ident()
        self.define(name_tok.text, name_tok.span)
        self.expect("(")
        params: list[Param] = []
        self.scopes.append(set())  # function scope (params + top-level block)
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
            self.declare(pname.text, pname.span)
            params.append(Param(pname.text, pname.span, is_array))
        self.expect(")")
        body = self.parse_block(new_scope=False)
        self.scopes.pop()
        return FunctionDef(
            name=name_tok.text,
            params=params,
            body=body,
            span=self.span_from(start),
            ret_type=ret_type,
        )

    # ---------- statements ----------

    def parse_block(self, new_scope: bool = True) -> Block:
        open_brace = self.expect("{")
        self.nest(open_brace.span)
        if new_scope:
            self.scopes.append(set())
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        if new_scope:
            self.scopes.pop()
        self.expect("}")
        self.depth -= 1
        return Block(self.span_from(open_brace.span), stmts)

    def parse_body(self) -> Block:
        """A control-structure body: a block, or one statement wrapped in a block."""
        if self.at("{"):
            return self.parse_block()
        self.nest(self.tokens[self.pos - 1].span)  # the ')' or 'else' before the body
        self.scopes.append(set())
        stmt = self.parse_stmt()
        self.scopes.pop()
        self.depth -= 1
        return Block(span=stmt.span, stmts=[stmt])

    def parse_stmt(self) -> Stmt:
        tok = self._lookahead[self.pos]
        if tok is self.end:
            raise ParseError("unexpected end of input", tok.span)
        text = tok.text
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
            start = self.advance().span
            body = self.parse_block()
            return Parallel(span=self.span_from(start), body=body)
        if text == "interrupt":
            start = self.advance().span
            body = self.parse_block()
            return Interrupt(span=self.span_from(start), body=body)
        if text == "return":
            start = self.advance().span
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return Return(span=self.span_from(start), value=value)
        if text == "{":
            return self.parse_block()
        stmt = self.parse_simple_stmt()
        self.expect(";")
        stmt.span = self.span_from(stmt.span)
        return stmt

    def parse_decl(self) -> Decl:
        start = self.expect("int").span
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
                        span = self._lookahead[self.pos].span
                        raise ParseError("brace initializer requires an array declarator", span)
                    init = self.parse_array_init()
                else:
                    init = self.parse_expr()
            self.declare(name_tok.text, name_tok.span)
            declarators.append(Declarator(name_tok.text, name_tok.span, is_array, init))
            if self.at(","):
                self.advance()
                continue
            break
        self.expect(";")
        return Decl(self.span_from(start), declarators)

    def parse_array_init(self) -> ArrayInit:
        start = self.expect("{").span
        elements: list[Expr] = []
        while not self.at("}"):
            if elements:
                self.expect(",")
            elements.append(self.parse_expr())
        self.expect("}")
        return ArrayInit(span=self.span_from(start), elements=elements)

    def parse_simple_stmt(self) -> Stmt:
        """Assignment, ++/--, or a call statement."""
        tok = self._lookahead[self.pos]
        if (
            tok.kind == "identifier"
            and tok.text in BUILTINS
            or (tok.kind == "identifier" and self._peek_is_plain_call())
        ):
            name = self.advance()
            args = self.parse_call_args(allow_strings=name.text == "print")
            return CallStmt(span=name.span, callee=name.text, args=args)
        target = self.parse_lvalue()
        nxt = self._lookahead[self.pos]
        if nxt is self.end:
            raise ParseError("unexpected end of statement", target.span)
        if nxt.text in ("++", "--"):
            self.advance()
            return Assign(target.span, target, nxt.text, None)
        if nxt.text == "=" or nxt.text in _COMPOUND_ASSIGN:
            self.advance()
            value = self.parse_expr()
            return Assign(target.span, target, nxt.text, value)
        raise ParseError(f"expected assignment or call, found {nxt.text!r}", nxt.span)

    def _peek_is_plain_call(self) -> bool:
        return self._lookahead[self.pos + 1].text == "("

    def parse_call_args(self, allow_strings: bool) -> list[Expr]:
        self.nest(self.expect("(").span)
        args: list[Expr] = []
        while not self.at(")"):
            if args:
                self.expect(",")
            if self.at_kind("string-literal"):
                tok = self.advance()
                if not allow_strings:
                    raise ParseError(
                        "string literals are only allowed as print arguments", tok.span
                    )
                args.append(StrLit(span=tok.span, raw=tok.text))
            else:
                args.append(self.parse_expr())
        self.expect(")")
        self.depth -= 1
        return args

    def parse_lvalue(self) -> Expr:
        global_qualified = False
        start = self._lookahead[self.pos]
        if start is self.end:
            raise ParseError("unexpected end of input", start.span)
        if self.at("::"):
            self.advance()
            global_qualified = True
        name_tok = self.expect_ident()
        span = Span(start.span.start, name_tok.span.end, start.span.line, start.span.col)
        node: Expr = Ident(span, name_tok.text, global_qualified)
        if self.at("["):
            self.nest(self.advance().span)
            index = self.parse_expr()
            close = self.expect("]")
            self.depth -= 1
            node = Subscript(
                span=Span(span.start, close.span.end, span.line, span.col),
                base=node,
                index=index,
            )
        return node

    def parse_if(self) -> If:
        start = self.expect("if").span
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_block = self.parse_body()
        else_block: Block | None = None
        if self.at("else"):
            self.advance()
            if self.at("if"):
                self.nest(self._lookahead[self.pos].span)
                nested = self.parse_if()
                self.depth -= 1
                else_block = Block(span=nested.span, stmts=[nested])
            else:
                else_block = self.parse_body()
        return If(span=self.span_from(start), cond=cond, then_block=then_block, else_block=else_block)

    def parse_switch(self) -> Switch:
        start = self.expect("switch").span
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
                if lit_tok.text == "-":
                    self.advance()
                    negative = True
                    lit_tok = self._lookahead[self.pos]
                if lit_tok.kind != "integer-literal":
                    raise ParseError("case label must be an integer literal", lit_tok.span)
                self.advance()
                value = -int(lit_tok.text) if negative else int(lit_tok.text)
                literal = IntLit(span=lit_tok.span, value=value)
                self.expect(":")
                block = self.parse_block()
                cases.append(SwitchCase(literal=literal, block=block))
            elif self.at("default"):
                if default_block is not None:
                    raise ParseError("duplicate default case", self._lookahead[self.pos].span)
                self.advance()
                self.expect(":")
                default_block = self.parse_block()
            else:
                raise ParseError(
                    f"expected 'case' or 'default', found {self._lookahead[self.pos].text!r}",
                    self._lookahead[self.pos].span,
                )
        self.expect("}")
        return Switch(
            span=self.span_from(start),
            scrutinee=scrutinee,
            cases=cases,
            default_block=default_block,
        )

    def parse_for(self) -> For:
        start = self.expect("for").span
        self.expect("(")
        # The for header opens a scope covering the whole loop.
        self.scopes.append(set())
        init: Stmt | None = None
        if not self.at(";"):
            if self.at("int"):
                init = self.parse_decl()  # consumes its ';'
            else:
                init = self.parse_simple_stmt()
                if not isinstance(init, Assign):
                    raise ParseError("for initializer must be a declaration or assignment", init.span)
                init.span = self.span_from(init.span)
                self.expect(";")
        else:
            self.expect(";")
        cond: Expr | None = None
        if not self.at(";"):
            cond = self.parse_expr()
        self.expect(";")
        step: Assign | None = None
        if not self.at(")"):
            stmt = self.parse_simple_stmt()
            if not isinstance(stmt, Assign):
                raise ParseError("for step must be an assignment", stmt.span)
            stmt.span = self.span_from(stmt.span)
            step = stmt
        self.expect(")")
        body = self.parse_body()
        self.scopes.pop()
        return For(span=self.span_from(start), init=init, cond=cond, step=step, body=body)

    def parse_while(self) -> While:
        start = self.expect("while").span
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_body()
        return While(span=self.span_from(start), cond=cond, body=body)

    def parse_do_while(self) -> DoWhile:
        start = self.expect("do").span
        body = self.parse_block()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect(";")
        return DoWhile(span=self.span_from(start), body=body, cond=cond)

    # ---------- expressions ----------

    def parse_expr(self) -> Expr:
        # Precedence parsing on an explicit stack of (precedence, operator,
        # left operand), so that a chain of operators costs no recursion.  All
        # binary operators associate left: an operator first reduces every
        # pending one of the same or tighter precedence.
        pending: list[tuple[int, str, Expr]] = []
        node = self.parse_unary()
        while True:
            tok = self._lookahead[self.pos]
            prec = _BIN_PREC.get(tok.text)
            while pending and (prec is None or pending[-1][0] >= prec):
                _, op, lhs = pending.pop()
                node = Binary(Span(lhs.span.start, node.span.end, lhs.span.line, lhs.span.col), op, lhs, node)
            if prec is None:
                return node
            self.pos += 1
            pending.append((prec, tok.text, node))
            node = self.parse_unary()

    def parse_unary(self) -> Expr:
        tok = self._lookahead[self.pos]
        if tok.text in ("-", "!"):
            self.advance()
            self.nest(tok.span)
            operand = self.parse_unary()
            self.depth -= 1
            return Unary(Span(tok.span.start, operand.span.end, tok.span.line, tok.span.col), tok.text, operand)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        node = self.parse_primary()
        while True:
            if self.at("["):
                self.nest(self.advance().span)
                index = self.parse_expr()
                close = self.expect("]")
                self.depth -= 1
                node = Subscript(
                    span=Span(node.span.start, close.span.end, node.span.line, node.span.col),
                    base=node,
                    index=index,
                )
            else:
                return node

    def parse_primary(self) -> Expr:
        tok = self._lookahead[self.pos]
        if tok is self.end:
            raise ParseError("unexpected end of expression", tok.span)
        if tok.text == "(":
            self.nest(self.advance().span)
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.kind == "integer-literal":
            self.advance()
            return IntLit(tok.span, int(tok.text))
        if tok.kind == "string-literal":
            raise ParseError("string literals are only allowed as print arguments", tok.span)
        if tok.text == "::":
            self.advance()
            name_tok = self.expect_ident()
            return Ident(
                span=Span(tok.span.start, name_tok.span.end, tok.span.line, tok.span.col),
                name=name_tok.text,
                global_qualified=True,
            )
        if tok.kind == "identifier":
            self.advance()
            if self.at("("):
                args = self.parse_call_args(allow_strings=tok.text == "print")
                return CallExpr(span=self.span_from(tok.span), callee=tok.text, args=args)
            return Ident(tok.span, tok.text)
        raise ParseError(f"unexpected token {tok.text!r} in expression", tok.span)


def parse(tokens: list[Token], source_len: int) -> SourceUnit:
    """Parse the tokens of a source text of ``source_len`` characters into a SourceUnit."""
    return _Parser(tokens, source_len).parse_unit()


def parse_source(source: str) -> SourceUnit:
    return parse(tokenize(source), len(source))
