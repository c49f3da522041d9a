"""Name resolution, occurrence extraction, and per-function I/O classification.

Resolves every identifier to a declaration-site symbol under lexical
scoping with shadowing; the symbol is kept only on the identifier's
occurrence.  `::name` reaches the global declaration regardless of
shadowing.  This scope stack is the program's only one: every
variable-name error is a ResolveError raised here, in evaluation order, a
duplicate or reserved name where it is declared and an unresolved one where
it is used.  All variable occurrences come out in a single flat list in
evaluation order, which is the order the counting engines replay:

  * block statements in source order,
  * for headers textually (init, cond, step) before the body,
  * do-while bodies before their condition,
  * declarators left to right, initializers before the name they introduce.

Each occurrence is anchored to the statement the walk passes down with it,
a parameter to its function; a nested statement anchors its own.  A `for`
statement is walked by hand, since its header is a scope and its init and
step are statements.  Every other control statement has its parts read in
`_children` order, which is evaluation order: a block as a scope, a
switch's cases as their blocks, any other part as an expression of the
statement.

Global declarations come first, then each function's parameters and body,
so a function's occurrences are one contiguous run of that list
(`ResolvedUnit.runs`), its parameters first: what routing, region totals
and I/O classification scan, never the whole program.  The call graph's
strongly connected components are found once per resolve
(`ResolvedUnit.components`).

Each write-like occurrence carries the operator count of its statement
(each binary and unary operator counts one, and so do a compound assignment
and ++/--; plain '=', subscripts, '::', calls and commas count zero), so the
counting engines only add.

I/O classification is per function, as the metrics read it.  Classification
reads each function's run: its parameters are the run's first occurrences,
and its inputs, outputs and S_io come from the rest.  Its line counts are the
program's line records (lexer.classify_lines) that hold its tokens, taken by
offset; a line it shares with tokens outside it is counted again over its
own tokens alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from operator import itemgetter

from .errors import Record, ResolveError, Span
from .lexer import BUILTINS, LineInfo, LineRecord, classify_lines
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
    FunctionDef,
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
    """One declaration site; its declaring occurrence carries the span."""

    __slots__ = ("uid", "name", "kind")

    def __init__(self, uid: int, name: str, kind: str):
        self.uid = uid  # unique within one resolve()
        self.name = name
        self.kind = kind  # global | parameter | local

    def __repr__(self) -> str:  # compact in test diffs
        return f"Symbol({self.name}#{self.uid}:{self.kind})"


READ = "read"
WRITE = "write"
DECLARE = "declare"
DECLARE_INIT = "declare-init"


class Occurrence(Record):
    """One identifier occurrence; its function is the run that holds it."""

    __slots__ = (
        "symbol", "name", "kind", "span", "stmt_id",
        "ops_delta", "in_print_arg", "in_return", "rhs_has_read",
    )

    def __init__(
        self,
        symbol: Symbol,
        name: str,
        kind: str,
        span: Span,
        stmt_id: int,
        ops_delta: int,
        in_print_arg: bool,
        in_return: bool,
        rhs_has_read: bool,
    ):
        self.symbol = symbol
        self.name = name  # the symbol's name, read without the extra hop
        self.kind = kind  # read | write | declare | declare-init
        self.span = span  # the identifier itself
        self.stmt_id = stmt_id  # identity of the anchoring statement; the function's, for a parameter
        self.ops_delta = ops_delta  # operators of the statement, for write / declare-init
        self.in_print_arg = in_print_arg
        self.in_return = in_return
        self.rhs_has_read = rhs_has_read  # write whose source expression contains read()


class ResolvedUnit:
    """A program's occurrences and call graph, with what is derived from them.

    The occurrences, and each statement's user callees, are lists: an array
    whose length follows the input is never a tuple (see errors.Record).
    """

    def __init__(
        self,
        unit: SourceUnit,
        occurrences: list[Occurrence],
        call_graph: frozenset[tuple[str, str]],
        stmt_user_callees: dict[int, list[str]],
        runs: dict[str, range],
    ):
        self.unit = unit
        self.occurrences = occurrences
        self.call_graph = call_graph  # (caller, callee) for user callees
        self.stmt_user_callees = stmt_user_callees  # stmt id -> user functions called
        self.runs = runs  # function name -> indices of its occurrences: parameters, then body
        self.functions: dict[str, FunctionDef] = {fn.name: fn for fn in unit.functions}  # by name, in source order
        self.components = call_components(self.functions, call_graph)  # function name -> its call-graph component


def call_components(functions: Iterable[str], edges: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Each function's strongly connected component of the call graph, named
    by one of its members (which one depends on the order of the edges).

    A function calls its callee, so the callee reaches the caller exactly
    when both lie in one component; a self-call is a component of one.
    Tarjan's algorithm ("Depth-first search and linear graph algorithms",
    SIAM J. Comput. 1972) with its own stack: each edge is read once, so the
    work is O(functions + edges) for a call chain of any length.
    """
    callees: dict[str, list[str]] = {name: [] for name in functions}
    for caller, callee in edges:
        callees[caller].append(callee)
    order: dict[str, int] = {}  # discovery index
    low: dict[str, int] = {}  # lowest discovery index reachable through the component
    component: dict[str, str] = {}
    stack: list[str] = []  # discovered, not yet in a component
    for root in callees:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        path = [(root, iter(callees[root]))]
        while path:
            node, rest = path[-1]
            for callee in rest:
                if callee not in order:
                    order[callee] = low[callee] = len(order)
                    stack.append(callee)
                    path.append((callee, iter(callees[callee])))
                    break
                if callee not in component and order[callee] < low[node]:
                    low[node] = order[callee]
            else:
                path.pop()
                if path and low[node] < low[path[-1][0]]:
                    low[path[-1][0]] = low[node]
                if low[node] == order[node]:
                    member = None
                    while member != node:
                        member = stack.pop()
                        component[member] = node
    return component


# ============================================================
# RESOLVER
# ============================================================

# The control statements whose parts walk_stmt reads in `_children` order.
_CONTROL = frozenset({If, Switch, While, DoWhile, Parallel, Interrupt})


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

    # ---------- scopes ----------

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, kind: str, span: Span) -> Symbol:
        """Declare `name`, written at `span`, in the innermost scope."""
        if name in BUILTINS:
            raise ResolveError(f"cannot declare reserved builtin name {name!r}", span)
        scope = self.scopes[-1]
        if name in scope:
            raise ResolveError(f"duplicate declaration of {name!r} in the same scope", span)
        sym = scope[name] = Symbol(self.uid, name, kind)
        self.uid += 1
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
        symbol: Symbol,
        span: Span,
        kind: str,
        anchor: Stmt | FunctionDef,
        ops_delta: int = 0,
        in_print_arg: bool = False,
        in_return: bool = False,
        rhs_has_read: bool = False,
    ) -> None:
        """Append one occurrence, anchored to the statement `anchor`."""
        # Positional arguments, in field order: the hottest constructor of resolve().
        self.occurrences.append(
            Occurrence(
                symbol,
                symbol.name,
                kind,
                span,
                id(anchor),
                ops_delta,
                in_print_arg,
                in_return,
                rhs_has_read,
            )
        )

    # ---------- expressions (reads) ----------

    def walk_reads(
        self, expr: Expr | None, anchor: Stmt, in_print_arg: bool = False, in_return: bool = False
    ) -> tuple[int, bool]:
        """Emit the reads of one expression of the statement `anchor`, in evaluation order.

        Returns the expression's operator count and whether it calls read().
        """
        if expr is None:
            return 0, False
        ops = 0
        has_read = False
        for node in walk(expr):
            cls = node.__class__
            if cls is Ident:
                self.emit(self.lookup(node), node.span, READ, anchor, 0, in_print_arg, in_return)
            elif cls is Binary or cls is Unary:
                ops += 1
            elif cls is CallExpr:
                self.record_call(node.callee, node.span, anchor)
                if node.callee == "print":
                    raise ResolveError("print cannot be used in an expression", node.span)
                has_read = has_read or node.callee == "read"
        return ops, has_read

    def record_call(self, callee: str, span: Span, anchor: Stmt) -> None:
        if callee in BUILTINS:
            return
        if callee not in self.function_names:
            raise ResolveError(f"call to undefined function {callee!r}", span)
        caller = self.current_function
        if caller is not None:
            self.call_edges.add((caller, callee))
        self.stmt_user_callees.setdefault(id(anchor), []).append(callee)

    # ---------- statements ----------

    def walk_stmt(self, stmt: Stmt) -> None:
        """Emit one statement's occurrences; a nested statement anchors its own."""
        cls = stmt.__class__
        if cls is Decl:
            self.walk_decl(stmt)
        elif cls is Assign:
            self.walk_assign(stmt)
        elif cls is CallStmt:
            self.record_call(stmt.callee, stmt.span, stmt)
            is_print = stmt.callee == "print"
            for arg in stmt.args:
                self.walk_reads(arg, stmt, is_print)
        elif cls is Return:
            self.walk_reads(stmt.value, stmt, in_return=True)
        elif cls is Block:
            self.walk_block(stmt)
        elif cls is For:
            self.push()  # header scope covers init, cond, step, body
            if stmt.init is not None:
                self.walk_stmt(stmt.init)
            self.walk_reads(stmt.cond, stmt)
            if stmt.step is not None:
                self.walk_stmt(stmt.step)
            self.walk_block(stmt.body)
            self.pop()
        elif cls in _CONTROL:
            # Parts in field order, which is evaluation order.
            for name in cls._children:
                part = getattr(stmt, name)
                if part.__class__ is Block:
                    self.walk_block(part)
                elif part.__class__ is list:  # a switch's cases
                    for case in part:
                        self.walk_block(case.block)
                elif part is not None:
                    self.walk_reads(part, stmt)
        else:
            raise TypeError(f"unknown statement {cls.__name__}")

    def walk_block(self, block: Block) -> None:
        self.push()
        for inner in block.stmts:
            self.walk_stmt(inner)
        self.pop()

    def walk_decl(self, stmt: Decl) -> None:
        sym_kind = "global" if self.current_function is None else "local"
        for d in stmt.declarators:
            ops, has_read = self.walk_reads(d.init, stmt)
            kind = DECLARE if d.init is None else DECLARE_INIT
            self.emit(self.declare(d.name, sym_kind, d.name_span), d.name_span, kind, stmt, ops, rhs_has_read=has_read)

    def walk_assign(self, stmt: Assign) -> None:
        ops, has_read = self.walk_reads(stmt.value, stmt)
        if stmt.op != "=":  # compound assignment and ++/-- count one operator
            ops += 1
        # Subscript indices on the target are reads; the base identifier is
        # the written symbol (array-element writes mutate the base symbol).
        target = stmt.target
        if target.__class__ is Subscript:
            ops += self.walk_reads(target.index, stmt)[0]
            base = target.base
        else:
            base = target
        if base.__class__ is not Ident:
            raise ResolveError("assignment target must be a variable", stmt.span)
        sym = self.lookup(base)
        if stmt.op != "=":  # compound assignment and ++/-- also read the target
            self.emit(sym, base.span, READ, stmt)
        self.emit(sym, base.span, WRITE, stmt, ops, rhs_has_read=has_read)

    # ---------- top level ----------

    def run(self) -> ResolvedUnit:
        self.push()  # global scope
        for decl in self.unit.globals:
            self.walk_stmt(decl)
        runs: dict[str, range] = {}
        for fn in self.unit.functions:
            start = len(self.occurrences)
            self.current_function = fn.name
            self.push()  # function scope
            for param in fn.params:
                self.emit(self.declare(param.name, "parameter", param.span), param.span, DECLARE, fn)
            for stmt in fn.body.stmts:
                self.walk_stmt(stmt)
            self.pop()
            self.current_function = None
            runs[fn.name] = range(start, len(self.occurrences))
        self.pop()
        return ResolvedUnit(
            unit=self.unit,
            occurrences=self.occurrences,
            call_graph=frozenset(self.call_edges),
            stmt_user_callees=self.stmt_user_callees,
            runs=runs,
        )


def resolve(unit: SourceUnit) -> ResolvedUnit:
    """Resolve every identifier occurrence and list occurrences in evaluation order."""
    return _Resolver(unit).run()


# ============================================================
# I/O CLASSIFICATION
# ============================================================

_START = itemgetter(2)  # a token's start offset


class IoClassification(Record):
    """Input/output variable sets and the occurrence counts metrics consume."""

    __slots__ = ("inputs", "outputs", "s_io", "n_operators", "n_operands", "line_counts", "loc")
    __hash__ = None  # it holds a list

    def __init__(
        self,
        inputs: frozenset[Symbol],
        outputs: frozenset[Symbol],
        s_io: int,
        n_operators: int,
        n_operands: int,
        line_counts: list[int],
        loc: int,
    ):
        self.inputs = inputs
        self.outputs = outputs
        self.s_io = s_io
        self.n_operators = n_operators  # total operator occurrences (N_i1)
        self.n_operands = n_operands  # total identifier + literal occurrences (N_i2)
        self.line_counts = line_counts  # identifiers+operators per token-bearing line
        self.loc = loc


def _io_from(occurrences: list[Occurrence], n_params: int, lines: list[LineRecord]) -> IoClassification:
    """One function's classification from its run, whose first n_params
    occurrences declare its parameters, and from its token-bearing lines."""
    # Keyed by uid, which is unique within one resolve(): cheaper to hash than a Symbol.
    inputs = {occ.symbol.uid: occ.symbol for occ in occurrences[:n_params]}
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

    return IoClassification(
        inputs=frozenset(inputs.values()),
        outputs=frozenset(outputs.values()),
        s_io=s_io,
        n_operators=sum(line.operators for line in lines),
        n_operands=sum(line.identifiers + line.literals for line in lines),
        line_counts=[line.n for line in lines],
        loc=len(lines),
    )


def classify_io(resolved: ResolvedUnit, tokens: list[tuple], line_info: LineInfo) -> dict[str, IoClassification]:
    """I/O classification of each function, by name, over its own tokens,
    whose per-line counts `line_info` (classify_lines(tokens)) holds.

    inputs  = function parameters plus symbols assigned from read();
    outputs = symbols appearing inside print arguments or return values.
    S_io counts write occurrences of I/O symbols individually and read
    occurrences once per (statement, symbol).
    """
    occurrences = resolved.occurrences
    records, starts, ends = line_info.lines, line_info.starts, line_info.ends
    functions: dict[str, IoClassification] = {}
    for fn in resolved.unit.functions:
        run = resolved.runs[fn.name]
        first, last = fn.span.start, fn.span.end
        lo = bisect_right(ends, first)  # the first line that ends inside the function
        hi = bisect_left(starts, last)  # past the last line that starts inside it
        lines = records[lo:hi]
        for k in {lo, hi - 1}:  # only the first and last line can hold tokens outside it
            if starts[k] < first or ends[k] > last:
                a = bisect_left(tokens, max(starts[k], first), key=_START)
                b = bisect_left(tokens, min(ends[k], last), key=_START)
                lines[k - lo] = classify_lines(tokens[a:b]).lines[0]
        functions[fn.name] = _io_from(occurrences[run.start : run.stop], len(fn.params), lines)
    return functions
