"""Name resolution, occurrence extraction, and per-function I/O classification.

Resolves every identifier to a declaration-site symbol under lexical
scoping with shadowing; the symbol is kept only on the identifier's
occurrence.  `::name` reaches the global declaration regardless of
shadowing.  All variable occurrences come out in a single flat list in
evaluation order, which is the order the counting engines replay:

  * block statements in source order,
  * for headers textually (init, cond, step) before the body,
  * do-while bodies before their condition,
  * declarators left to right, initializers before the name they introduce.

Each write-like occurrence carries the operator count of its statement
(compound assignment and ++/-- count as one operator each; plain '=',
subscripts, calls and commas count zero), so the counting engines only add.

I/O classification is per function, as the metrics read it: each function's
inputs, outputs, S_io and per-line counts over the function's own tokens.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import Record, ResolveError, Span
from .lexer import BUILTINS, LineInfo, Token, classify_lines
from .syntax import (
    Assign,
    Binary,
    Block,
    CallExpr,
    CallStmt,
    Decl,
    DoWhile,
    Expr,
    For,
    Ident,
    If,
    Interrupt,
    Parallel,
    Return,
    SourceUnit,
    Stmt,
    Subscript,
    Switch,
    Unary,
    While,
    walk,
)

# ============================================================
# SYMBOLS AND OCCURRENCES
# ============================================================


class Symbol(Record):
    __slots__ = ("uid", "name", "kind", "decl_span", "scope_depth")

    def __init__(self, uid: int, name: str, kind: str, decl_span: Span, scope_depth: int):
        self.uid = uid
        self.name = name
        self.kind = kind  # global | parameter | local
        self.decl_span = decl_span
        self.scope_depth = scope_depth

    def __repr__(self) -> str:  # compact in test diffs
        return f"Symbol({self.name}#{self.uid}:{self.kind}@{self.scope_depth})"


READ = "read"
WRITE = "write"
DECLARE = "declare"
DECLARE_INIT = "declare-init"


class Occurrence(Record):
    __slots__ = (
        "symbol", "name", "kind", "span", "stmt_id", "function",
        "ops_delta", "in_print_arg", "in_return", "rhs_has_read",
    )

    def __init__(
        self,
        symbol: Symbol,
        name: str,
        kind: str,
        span: Span,
        stmt_id: int,
        function: str | None,
        ops_delta: int = 0,
        in_print_arg: bool = False,
        in_return: bool = False,
        rhs_has_read: bool = False,
    ):
        self.symbol = symbol
        self.name = name
        self.kind = kind  # read | write | declare | declare-init
        self.span = span  # the identifier itself
        self.stmt_id = stmt_id  # identity of the statement anchoring this occurrence
        self.function = function  # None for global-scope occurrences
        self.ops_delta = ops_delta  # operators of the statement, for write / declare-init
        self.in_print_arg = in_print_arg
        self.in_return = in_return
        self.rhs_has_read = rhs_has_read  # write whose source expression contains read()


@dataclass
class ResolvedUnit:
    unit: SourceUnit
    occurrences: tuple[Occurrence, ...]
    call_graph: frozenset[tuple[str, str]]  # (caller, callee) for user callees
    stmt_user_callees: dict[int, tuple[str, ...]]  # stmt id -> user functions called


# ============================================================
# OPERATOR COUNTING
# ============================================================


def operator_count(node: Stmt | Expr | None) -> int:
    """Counted operator occurrences of one statement or expression.

    Counted: binary arithmetic/relational/logical/bitwise/shift operators,
    unary minus and '!', one per compound assignment, one per ++/--.
    Not counted: plain '=', subscripts, qualifier '::', calls, commas.
    """
    if node is None:
        return 0
    if not isinstance(node, (Expr, Assign, Decl, CallStmt, Return)):
        raise TypeError(f"operator_count over {type(node).__name__} is not statement-local")
    compound = int(isinstance(node, Assign) and node.op != "=")
    return compound + sum(1 for n in walk(node) if n.__class__ is Binary or n.__class__ is Unary)


# ============================================================
# RESOLVER
# ============================================================


class _Resolver:
    def __init__(self, unit: SourceUnit):
        self.unit = unit
        self.occurrences: list[Occurrence] = []
        self.call_edges: set[tuple[str, str]] = set()
        self.stmt_user_callees: dict[int, list[str]] = {}
        self.scopes: list[dict[str, Symbol]] = []
        self.uid = 0
        self.function_names = {f.name for f in unit.functions}
        self.current_function: str | None = None
        self.current_stmt: Stmt | None = None

    # ---------- scopes ----------

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, kind: str, span: Span) -> Symbol:
        sym = Symbol(self.uid, name, kind, span, len(self.scopes) - 1)
        self.uid += 1
        self.scopes[-1][name] = sym
        return sym

    def lookup(self, ident: Ident) -> Symbol:
        if ident.global_qualified:
            sym = self.scopes[0].get(ident.name)
            if sym is None:
                raise ResolveError(
                    f"'::{ident.name}' has no global declaration", ident.span
                )
            return sym
        for frame in reversed(self.scopes):
            sym = frame.get(ident.name)
            if sym is not None:
                return sym
        raise ResolveError(f"unresolved name {ident.name!r}", ident.span)

    # ---------- occurrence emission ----------

    def emit(
        self,
        ident: Ident,
        kind: str,
        *,
        ops_delta: int = 0,
        in_print_arg: bool = False,
        in_return: bool = False,
        rhs_has_read: bool = False,
        symbol: Symbol | None = None,
    ) -> None:
        sym = symbol if symbol is not None else self.lookup(ident)
        # Positional arguments, in field order: the hottest constructor of resolve().
        self.occurrences.append(
            Occurrence(
                sym,
                ident.name,
                kind,
                ident.span,
                id(self.current_stmt),
                self.current_function,
                ops_delta,
                in_print_arg,
                in_return,
                rhs_has_read,
            )
        )

    def emit_declare(self, name: str, span: Span, kind: str, sym_kind: str, ops_delta: int, rhs_has_read: bool) -> Symbol:
        sym = self.declare(name, sym_kind, span)
        self.occurrences.append(
            Occurrence(
                symbol=sym,
                name=name,
                kind=kind,
                span=span,
                stmt_id=id(self.current_stmt),
                function=self.current_function,
                ops_delta=ops_delta,
                rhs_has_read=rhs_has_read,
            )
        )
        return sym

    # ---------- expressions (reads) ----------

    def walk_reads(
        self, expr: Expr | None, in_print_arg: bool = False, in_return: bool = False
    ) -> tuple[int, bool]:
        """Emit the reads of one expression in evaluation order.

        Returns the expression's operator count and whether it calls read().
        """
        if expr is None:
            return 0, False
        ops = 0
        has_read = False
        for node in walk(expr):
            cls = node.__class__
            if cls is Ident:
                self.emit(node, READ, in_print_arg=in_print_arg, in_return=in_return)
            elif cls is Binary or cls is Unary:
                ops += 1
            elif cls is CallExpr:
                self.record_call(node.callee, node.span)
                if node.callee == "print":
                    raise ResolveError("print cannot be used in an expression", node.span)
                has_read = has_read or node.callee == "read"
        return ops, has_read

    def record_call(self, callee: str, span: Span) -> None:
        if callee in BUILTINS:
            return
        if callee not in self.function_names:
            raise ResolveError(f"call to undefined function {callee!r}", span)
        caller = self.current_function
        if caller is not None:
            self.call_edges.add((caller, callee))
        stmt = self.current_stmt
        if stmt is not None:
            self.stmt_user_callees.setdefault(id(stmt), []).append(callee)

    # ---------- statements ----------

    def walk_stmt(self, stmt: Stmt) -> None:
        outer = self.current_stmt
        self.current_stmt = stmt
        try:
            if isinstance(stmt, Decl):
                self.walk_decl(stmt)
            elif isinstance(stmt, Assign):
                self.walk_assign(stmt)
            elif isinstance(stmt, CallStmt):
                self.record_call(stmt.callee, stmt.span)
                is_print = stmt.callee == "print"
                for arg in stmt.args:
                    self.walk_reads(arg, in_print_arg=is_print)
            elif isinstance(stmt, Return):
                self.walk_reads(stmt.value, in_return=True)
            elif isinstance(stmt, Block):
                self.current_stmt = outer
                self.push()
                for inner in stmt.stmts:
                    self.walk_stmt(inner)
                self.pop()
            elif isinstance(stmt, If):
                self.walk_reads(stmt.cond)
                self.current_stmt = outer
                self.walk_block(stmt.then_block)
                if stmt.else_block is not None:
                    self.walk_block(stmt.else_block)
            elif isinstance(stmt, Switch):
                self.walk_reads(stmt.scrutinee)
                self.current_stmt = outer
                for case in stmt.cases:
                    self.walk_block(case.block)
                if stmt.default_block is not None:
                    self.walk_block(stmt.default_block)
            elif isinstance(stmt, While):
                self.walk_reads(stmt.cond)
                self.current_stmt = outer
                self.walk_block(stmt.body)
            elif isinstance(stmt, DoWhile):
                self.current_stmt = outer
                self.walk_block(stmt.body)
                self.current_stmt = stmt
                self.walk_reads(stmt.cond)
            elif isinstance(stmt, For):
                self.push()  # header scope covers init, cond, step, body
                if stmt.init is not None:
                    self.walk_stmt(stmt.init)
                self.current_stmt = stmt
                self.walk_reads(stmt.cond)
                if stmt.step is not None:
                    self.walk_stmt(stmt.step)
                self.current_stmt = outer
                self.walk_block(stmt.body)
                self.pop()
            elif isinstance(stmt, (Parallel, Interrupt)):
                self.current_stmt = outer
                self.walk_block(stmt.body)
            else:
                raise TypeError(f"unknown statement {type(stmt).__name__}")
        finally:
            self.current_stmt = outer

    def walk_block(self, block: Block) -> None:
        self.push()
        for inner in block.stmts:
            self.walk_stmt(inner)
        self.pop()

    def walk_decl(self, stmt: Decl) -> None:
        for d in stmt.declarators:
            ops, has_read = self.walk_reads(d.init)
            self.emit_declare(
                d.name,
                d.name_span,
                DECLARE if d.init is None else DECLARE_INIT,
                "global" if self.current_function is None else "local",
                ops_delta=ops,
                rhs_has_read=has_read,
            )

    def walk_assign(self, stmt: Assign) -> None:
        ops, has_read = self.walk_reads(stmt.value)
        if stmt.op != "=":  # compound assignment and ++/-- count one operator
            ops += 1
        # Subscript indices on the target are reads; the base identifier is
        # the written symbol (array-element writes mutate the base symbol).
        target = stmt.target
        if isinstance(target, Subscript):
            ops += self.walk_reads(target.index)[0]
            base = target.base
        else:
            base = target
        if not isinstance(base, Ident):
            raise ResolveError("assignment target must be a variable", stmt.span)
        sym = self.lookup(base)
        if stmt.op != "=":  # compound assignment and ++/-- also read the target
            self.emit(base, READ, symbol=sym)
        self.emit(base, WRITE, ops_delta=ops, rhs_has_read=has_read, symbol=sym)

    # ---------- top level ----------

    def run(self) -> ResolvedUnit:
        self.push()  # global scope
        for decl in self.unit.globals:
            self.current_stmt = decl
            self.walk_decl(decl)
            self.current_stmt = None
        for fn in self.unit.functions:
            self.current_function = fn.name
            self.push()  # function scope
            for param in fn.params:
                self.current_stmt = None
                sym = self.declare(param.name, "parameter", param.span)
                self.occurrences.append(
                    Occurrence(
                        symbol=sym,
                        name=param.name,
                        kind=DECLARE,
                        span=param.span,
                        stmt_id=id(fn),
                        function=fn.name,
                    )
                )
            for stmt in fn.body.stmts:
                self.walk_stmt(stmt)
            self.pop()
            self.current_function = None
        self.pop()
        return ResolvedUnit(
            unit=self.unit,
            occurrences=tuple(self.occurrences),
            call_graph=frozenset(self.call_edges),
            stmt_user_callees={k: tuple(v) for k, v in self.stmt_user_callees.items()},
        )


def resolve(unit: SourceUnit) -> ResolvedUnit:
    """Resolve every identifier occurrence and list occurrences in evaluation order."""
    return _Resolver(unit).run()


# ============================================================
# I/O CLASSIFICATION
# ============================================================


@dataclass(frozen=True)
class IoClassification:
    """Input/output variable sets and the occurrence counts metrics consume."""

    inputs: frozenset[Symbol]
    outputs: frozenset[Symbol]
    s_io: int
    n_operators: int  # total operator occurrences (N_i1)
    n_operands: int  # total identifier + literal occurrences (N_i2)
    line_counts: tuple[int, ...]  # identifiers+operators per token-bearing line
    loc: int


def _io_from(occurrences: list[Occurrence], params: list[Symbol], line_info: LineInfo) -> IoClassification:
    # Keyed by uid, which is unique within one resolve(): cheaper to hash than a Symbol.
    inputs = {sym.uid: sym for sym in params}
    outputs: dict[int, Symbol] = {}
    for occ in occurrences:
        if occ.rhs_has_read and occ.kind in (WRITE, DECLARE_INIT):
            inputs[occ.symbol.uid] = occ.symbol
        if occ.in_print_arg or occ.in_return:
            outputs[occ.symbol.uid] = occ.symbol
    io_uids = inputs.keys() | outputs.keys()
    s_io = 0
    read_groups: set[tuple[int, int]] = set()
    for occ in occurrences:
        uid = occ.symbol.uid
        if uid not in io_uids:
            continue
        if occ.kind in (WRITE, DECLARE_INIT):
            s_io += 1
        elif occ.kind == READ:
            read_groups.add((occ.stmt_id, uid))
    s_io += len(read_groups)

    lines = line_info.lines
    return IoClassification(
        inputs=frozenset(inputs.values()),
        outputs=frozenset(outputs.values()),
        s_io=s_io,
        n_operators=sum(line.operators for line in lines),
        n_operands=sum(line.identifiers + line.literals for line in lines),
        line_counts=tuple(line.n for line in lines),
        loc=line_info.loc,
    )


def classify_io(resolved: ResolvedUnit, tokens: list[Token]) -> dict[str, IoClassification]:
    """I/O classification of each function, by name, over its own tokens.

    inputs  = function parameters plus symbols assigned from read();
    outputs = symbols appearing inside print arguments or return values.
    S_io counts write occurrences of I/O symbols individually and read
    occurrences once per (statement, symbol).
    """
    param_symbols: dict[str, list[Symbol]] = {f.name: [] for f in resolved.unit.functions}
    occs_by_function: dict[str | None, list[Occurrence]] = {}
    for occ in resolved.occurrences:
        occs_by_function.setdefault(occ.function, []).append(occ)
        if occ.symbol.kind == "parameter" and occ.kind == DECLARE:
            param_symbols[occ.function].append(occ.symbol)

    starts = [t.span.start for t in tokens]
    functions: dict[str, IoClassification] = {}
    for fn in resolved.unit.functions:
        lo = bisect_left(starts, fn.span.start)
        hi = bisect_right(starts, fn.span.end - 1)
        functions[fn.name] = _io_from(
            occs_by_function.get(fn.name, []), param_symbols[fn.name], classify_lines(tokens[lo:hi])
        )
    return functions
