"""MiniLang abstract syntax tree.

MiniLang is a fixed C-like subset: `int` / `int[]` variables, one statement
form per basic control structure (sequence, if-then-else, switch-case,
for, while, do-while, call, parallel, interrupt), `read()` / `print(...)`
builtins, and a `::name` qualifier that reaches the global declaration of a
name regardless of shadowing.  Every node carries the span of its source
text; child spans nest inside parent spans.

Nodes are plain classes on `Node`, each with its own positional
`__init__`, not dataclasses.  `analyze` and `corpus` start a fresh
interpreter per command, and there the code `dataclass` writes for 27
classes, with the `dataclasses` import itself, cost more start-up time
than the analysis of a file of ordinary size.  Each class names the fields
that hold nodes in `_children`, and `walk` follows those.  Field order is
evaluation order, for an expression and for a control statement alike
(a do-while's body before its condition); only a `for` lists its step
before its body, as its text does.  The resolver reads a control
statement's parts in that order.
"""

from __future__ import annotations

from .errors import Span


class Node:
    """Base of the tree nodes: field equality and a dataclass-style repr.

    A subclass assigns every field in `__init__`, in field order, and lists
    in `_children`, in that order, the fields that hold a node, a list of
    nodes or an optional node.  Nodes are mutable, so they do not hash.
    """

    _children: tuple[str, ...] = ()

    def __eq__(self, other):
        """Same class and equal fields, spans included, all the way down:
        the flat walk of `structure_key`, with the spans kept, so trees of
        any depth compare without recursion."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _flat(self, _NO_FIELDS) == _flat(other, _NO_FIELDS)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"


# ============================================================
# EXPRESSIONS
# ============================================================


class Expr(Node):
    """Base of the expression nodes."""


class Ident(Expr):
    def __init__(self, span: Span, name: str, global_qualified: bool = False):
        self.span = span
        self.name = name
        self.global_qualified = global_qualified


class IntLit(Expr):
    def __init__(self, span: Span, value: int):
        self.span = span
        self.value = value


class StrLit(Expr):
    def __init__(self, span: Span, raw: str):
        self.span = span
        self.raw = raw  # literal text including the quotes


class Binary(Expr):
    _children = ("lhs", "rhs")

    def __init__(self, span: Span, op: str, lhs: Expr, rhs: Expr):
        self.span = span
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Unary(Expr):
    _children = ("operand",)

    def __init__(self, span: Span, op: str, operand: Expr):
        self.span = span
        self.op = op
        self.operand = operand


class Subscript(Expr):
    _children = ("base", "index")

    def __init__(self, span: Span, base: Expr, index: Expr):
        self.span = span
        self.base = base
        self.index = index


class CallExpr(Expr):
    _children = ("args",)

    def __init__(self, span: Span, callee: str, args: list[Expr]):
        self.span = span
        self.callee = callee
        self.args = args


class ArrayInit(Expr):
    """Brace-enclosed element list, valid only as an array declarator initializer."""

    _children = ("elements",)

    def __init__(self, span: Span, elements: list[Expr]):
        self.span = span
        self.elements = elements


# ============================================================
# STATEMENTS
# ============================================================


class Stmt(Node):
    """Base of the statement nodes."""


class Declarator(Node):
    _children = ("init",)

    def __init__(self, name: str, name_span: Span, is_array: bool = False, init: Expr | None = None):
        self.name = name
        self.name_span = name_span
        self.is_array = is_array
        self.init = init


class Decl(Stmt):
    _children = ("declarators",)

    def __init__(self, span: Span, declarators: list[Declarator] | None = None):
        self.span = span
        self.declarators = [] if declarators is None else declarators


class Assign(Stmt):
    _children = ("target", "value")

    def __init__(self, span: Span, target: Expr, op: str = "=", value: Expr | None = None):
        self.span = span
        self.target = target  # Ident or Subscript
        self.op = op
        self.value = value  # None exactly for ++/--


class CallStmt(Stmt):
    _children = ("args",)

    def __init__(self, span: Span, callee: str, args: list[Expr] | None = None):
        self.span = span
        self.callee = callee
        self.args = [] if args is None else args


class Block(Stmt):
    _children = ("stmts",)

    def __init__(self, span: Span, stmts: list[Stmt] | None = None):
        self.span = span
        self.stmts = [] if stmts is None else stmts


class If(Stmt):
    _children = ("cond", "then_block", "else_block")

    def __init__(self, span: Span, cond: Expr, then_block: Block, else_block: Block | None):
        self.span = span
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block


class SwitchCase(Node):
    _children = ("literal", "block")

    def __init__(self, literal: IntLit, block: Block):
        self.literal = literal
        self.block = block


class Switch(Stmt):
    _children = ("scrutinee", "cases", "default_block")

    def __init__(self, span: Span, scrutinee: Expr, cases: list[SwitchCase], default_block: Block | None):
        self.span = span
        self.scrutinee = scrutinee
        self.cases = cases
        self.default_block = default_block


class For(Stmt):
    _children = ("init", "cond", "step", "body")

    def __init__(self, span: Span, init: Stmt | None, cond: Expr | None, step: Assign | None, body: Block):
        self.span = span
        self.init = init  # Decl or Assign
        self.cond = cond
        self.step = step
        self.body = body


class While(Stmt):
    _children = ("cond", "body")

    def __init__(self, span: Span, cond: Expr, body: Block):
        self.span = span
        self.cond = cond
        self.body = body


class DoWhile(Stmt):
    _children = ("body", "cond")

    def __init__(self, span: Span, body: Block, cond: Expr):
        self.span = span
        self.body = body
        self.cond = cond


class Parallel(Stmt):
    _children = ("body",)

    def __init__(self, span: Span, body: Block):
        self.span = span
        self.body = body


class Interrupt(Stmt):
    _children = ("body",)

    def __init__(self, span: Span, body: Block):
        self.span = span
        self.body = body


class Return(Stmt):
    _children = ("value",)

    def __init__(self, span: Span, value: Expr | None = None):
        self.span = span
        self.value = value


# ============================================================
# TOP LEVEL
# ============================================================


class Param(Node):
    def __init__(self, name: str, span: Span, is_array: bool = False):
        self.name = name
        self.span = span
        self.is_array = is_array


class FunctionDef(Node):
    _children = ("params", "body")

    def __init__(self, name: str, params: list[Param], body: Block, span: Span, ret_type: str = "void"):
        self.name = name
        self.params = params
        self.body = body
        self.span = span
        self.ret_type = ret_type  # void | int


class SourceUnit(Node):
    _children = ("functions", "globals")

    def __init__(self, functions: list[FunctionDef], globals: list[Decl]):
        self.functions = functions
        self.globals = globals

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

# Per node class, its child fields last first: the order in which `walk`
# pushes them.
_CHILD_FIELDS = {cls: cls._children[::-1] for cls in NODE_CLASSES}


def walk(node):
    """Yield `node`, then every node below it: depth first, children in field order.

    Field order is evaluation order, for an expression and for a control
    statement other than `for`, and the resolver relies on it.  The walk
    keeps its own stack, so a tree of any depth is fine.
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
# TREE EQUALITY: spans included (Node.__eq__) or not (structure_key)
# ============================================================


_SPAN_FIELDS = frozenset({"span", "name_span"})
_NO_FIELDS = frozenset()


def _flat(node, skipped: frozenset) -> list:
    """Per node of `walk(node)`, its class, then per field other than those
    `skipped` its value, or for a child field the length of its list or
    whether it holds a node.  A class fixes its fields, so equal lists mean
    equal trees."""
    key = []
    for item in walk(node):
        cls = item.__class__
        children = _CHILD_FIELDS[cls]
        key.append(cls)
        for name, value in vars(item).items():
            if name in children:
                key.append(len(value) if value.__class__ is list else value is not None)
            elif name not in skipped:
                key.append(value)
    return key


def structure_key(node):
    """A tree as a span-free, hashable and comparable key: its flat walk,
    spans left out.  A tree of any depth builds, hashes and compares without
    recursion."""
    return tuple(_flat(node, _SPAN_FIELDS))
