"""MiniLang abstract syntax tree.

MiniLang is a fixed C-like subset: `int` / `int[]` variables, one statement
form per basic control structure (sequence, if-then-else, switch-case,
for, while, do-while, call, parallel, interrupt), `read()` / `print(...)`
builtins, and a `::name` qualifier that reaches the global declaration of a
name regardless of shadowing.  Every node carries the span of its source
text; child spans nest inside parent spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

from .errors import Span

# ============================================================
# EXPRESSIONS
# ============================================================


@dataclass
class Expr:
    span: Span


@dataclass
class Ident(Expr):
    name: str
    global_qualified: bool = False


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class StrLit(Expr):
    raw: str  # literal text including the quotes


@dataclass
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class Unary(Expr):
    op: str
    operand: Expr


@dataclass
class Subscript(Expr):
    base: Expr
    index: Expr


@dataclass
class CallExpr(Expr):
    callee: str
    args: list[Expr]


@dataclass
class ArrayInit(Expr):
    """Brace-enclosed element list, valid only as an array declarator initializer."""

    elements: list[Expr]


# ============================================================
# STATEMENTS
# ============================================================


@dataclass
class Stmt:
    span: Span


@dataclass
class Declarator:
    name: str
    name_span: Span
    is_array: bool = False
    init: Expr | None = None


@dataclass
class Decl(Stmt):
    declarators: list[Declarator] = field(default_factory=list)


@dataclass
class Assign(Stmt):
    target: Expr  # Ident or Subscript
    op: str = "="
    value: Expr | None = None  # None exactly for ++/--


@dataclass
class CallStmt(Stmt):
    callee: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr
    then_block: Block
    else_block: Block | None


@dataclass
class SwitchCase:
    literal: IntLit
    block: Block


@dataclass
class Switch(Stmt):
    scrutinee: Expr
    cases: list[SwitchCase]
    default_block: Block | None


@dataclass
class For(Stmt):
    init: Stmt | None  # Decl or Assign
    cond: Expr | None
    step: Assign | None
    body: Block


@dataclass
class While(Stmt):
    cond: Expr
    body: Block


@dataclass
class DoWhile(Stmt):
    body: Block
    cond: Expr


@dataclass
class Parallel(Stmt):
    body: Block


@dataclass
class Interrupt(Stmt):
    body: Block


@dataclass
class Return(Stmt):
    value: Expr | None = None


# ============================================================
# TOP LEVEL
# ============================================================


@dataclass
class Param:
    name: str
    span: Span
    is_array: bool = False


@dataclass
class FunctionDef:
    name: str
    params: list[Param]
    body: Block
    span: Span
    ret_type: str = "void"  # void | int


@dataclass
class SourceUnit:
    functions: list[FunctionDef]
    globals: list[Decl]

    def function(self, name: str) -> FunctionDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)


# ============================================================
# TRAVERSAL
# ============================================================


# The classes of tree nodes; field values of any other class are leaves.
NODE_TYPES = (Expr, Stmt, Declarator, SwitchCase, Param, FunctionDef, SourceUnit)


def _subclass_tree(cls: type) -> list[type]:
    return [cls, *(sub for child in cls.__subclasses__() for sub in _subclass_tree(child))]


# The same as a set of exact classes, for walkers that test `value.__class__`:
# NODE_TYPES and every class below them, however deep.
NODE_CLASSES = frozenset(c for base in NODE_TYPES for c in _subclass_tree(base))

_NODE_NAMES = frozenset(c.__name__ for c in NODE_CLASSES)

# Per node class, the fields whose annotation names a node class (a node, a
# list of nodes, or an optional node), last field first: the order in which
# `walk` pushes them.
_CHILD_FIELDS = {
    cls: tuple(f.name for f in reversed(fields(cls)) if _NODE_NAMES.intersection(re.findall(r"\w+", f.type)))
    for cls in NODE_CLASSES
}


def walk(node):
    """Yield `node`, then every node below it: depth first, children in field order.

    For an expression, field order is evaluation order.  The walk keeps its
    own stack, so a tree of any depth is fine.
    """
    stack = [node]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        yield node
        for name in _CHILD_FIELDS[node.__class__]:
            value = getattr(node, name)
            if value.__class__ is list:
                stack.extend(reversed(value))
            elif value is not None:
                push(value)


# ============================================================
# STRUCTURAL EQUALITY (spans excluded)
# ============================================================


_SPAN_FIELDS = frozenset({"span", "name_span"})


def structure_key(node):
    """A tree as a span-free, hashable and comparable key.

    The key is flat: per node of `walk(node)`, its class, then per field its
    value, or for a child field the length of its list or whether it holds a
    node.  A class fixes its fields, so equal keys mean equal trees, and a
    tree of any depth builds, hashes and compares without recursion.
    """
    key = []
    for item in walk(node):
        cls = item.__class__
        children = _CHILD_FIELDS[cls]
        key.append(cls)
        for name, value in vars(item).items():
            if name in children:
                key.append(len(value) if value.__class__ is list else value is not None)
            elif name not in _SPAN_FIELDS:
                key.append(value)
    return tuple(key)
