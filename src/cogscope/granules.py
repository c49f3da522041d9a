"""Decomposition of functions into basic-control-structure granules.

Each function body is partitioned into alternating maximal runs of simple
statements (one SEQ granule per run) and control-structure granules, in
source order.  Control bodies decompose recursively by the same rule; a
control structure whose bodies hold no control structure and no user call
is a leaf, and their statements belong to it.  A simple statement that
calls a user-defined function becomes its own CALL granule (RECURSION when
the callee sits on a call-graph cycle through the caller).  Loop headers
belong to the loop granule itself.  Bare blocks are transparent: their
statements join the surrounding stream.

A function's granule ids count from 0 in preorder: a control granule takes
its id before the granules of its bodies, and a SEQ granule takes its id
when its run closes, before the granule that closes it.

Cognitive weights:

  SEQ 1, ITE 2, CASE 3, FOR 3, REPEAT 3, WHILE 3,
  CALL 2, RECURSION 3, PARALLEL 4, INTERRUPT 4
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import count

from .errors import Span
from .resolve import ResolvedUnit
from .syntax import Block, DoWhile, For, If, Interrupt, Parallel, Stmt, Switch, While

SEQ = "SEQ"
ITE = "ITE"
CASE = "CASE"
FOR = "FOR"
REPEAT = "REPEAT"
WHILE = "WHILE"
CALL = "CALL"
RECURSION = "RECURSION"
PARALLEL = "PARALLEL"
INTERRUPT = "INTERRUPT"

WEIGHTS: dict[str, int] = {
    SEQ: 1,
    ITE: 2,
    CASE: 3,
    FOR: 3,
    REPEAT: 3,
    WHILE: 3,
    CALL: 2,
    RECURSION: 3,
    PARALLEL: 4,
    INTERRUPT: 4,
}

_CONTROL_KIND = {
    If: ITE,
    Switch: CASE,
    For: FOR,
    While: WHILE,
    DoWhile: REPEAT,
    Parallel: PARALLEL,
    Interrupt: INTERRUPT,
}


def weight_of(kind: str) -> int:
    """Cognitive weight of one BCS category."""
    return WEIGHTS[kind]


class Granule:
    def __init__(
        self,
        id: int,
        kind: str,
        weight: int,
        region: Span,
        depth: int,
        anchor_ids: list[int],
        children: list[Granule] | None = None,
    ):
        self.id = id
        self.kind = kind
        self.weight = weight
        self.region = region
        self.depth = depth
        self.anchor_ids = anchor_ids  # identities of the statements whose occurrences anchor here
        self.children = [] if children is None else children

    @property
    def is_leaf(self) -> bool:
        return not self.children


class GranuleTree:
    def __init__(self, function: str, top: list[Granule]):
        self.function = function
        self.top = top

    def walk(self):
        stack = list(reversed(self.top))
        while stack:
            g = stack.pop()
            yield g
            stack.extend(reversed(g.children))

    def fold(self, direct: Callable[[Granule], int]) -> tuple[int, dict[int, int]]:
        """The scoring rule over the tree: nesting multiplies, siblings add.

        A granule's value is weight x (direct(g) + the sum of its children's
        values).  Returns the sum over the top granules and each granule's
        value by id.
        """
        order = list(self.top)
        for g in order:  # breadth first: each granule after its parent
            order += g.children
        values: dict[int, int] = {}
        for g in reversed(order):  # each granule after its children
            total = direct(g)
            for child in g.children:
                total += values[child.id]
            values[g.id] = g.weight * total
        return sum(values[g.id] for g in self.top), values


# ============================================================
# DECOMPOSITION
# ============================================================


def _flatten(stmts: list[Stmt], out: list[Stmt]) -> list[Stmt]:
    """Append stmts to out with bare blocks expanded; Block nodes are
    containers, not BCS units."""
    for s in stmts:
        if s.__class__ is Block:
            _flatten(s.stmts, out)
        else:
            out.append(s)
    return out


def _decompose(resolved: ResolvedUnit, home: str, stmts: list[Stmt], depth: int, ids: count) -> list[Granule]:
    """The granules of one flattened statement list, in source order.

    home is the function's call-graph component; ids numbers the granules of
    the whole function.
    """
    callees = resolved.stmt_user_callees
    components = resolved.components
    granules: list[Granule] = []
    run: list[Stmt] = []
    for s in [*stmts, None]:  # None closes the last run
        kind = _CONTROL_KIND.get(s.__class__)
        if kind is None and s is not None and id(s) not in callees:
            run.append(s)
            continue
        if run:
            region = Span(run[0].span.start, run[-1].span.end, run[0].span.line, run[0].span.col)
            granules.append(Granule(next(ids), SEQ, WEIGHTS[SEQ], region, depth, list(map(id, run))))
            run = []
        if kind is not None:
            granules.append(_control(resolved, home, s, kind, depth, ids))
        elif s is not None:  # RECURSION when a callee reaches the caller: both in one component
            kind = RECURSION if any(components[c] == home for c in callees[id(s)]) else CALL
            granules.append(Granule(next(ids), kind, WEIGHTS[kind], s.span, depth, [id(s)]))
    return granules


def _control(resolved: ResolvedUnit, home: str, stmt: Stmt, kind: str, depth: int, ids: count) -> Granule:
    """The granule of one control structure, numbered before its bodies' granules.

    Its bodies are its `Block` parts in `_children` order, a switch's cases
    read as their blocks, as resolve.walk_stmt reads them.  Each body is
    flattened once.  When one of them holds a control structure or a user
    call, the bodies decompose one level deeper; otherwise the granule is a
    leaf and their statements anchor to it.  A for loop's init and step
    anchor to it either way.
    """
    gid = next(ids)
    bodies = []
    for name in stmt._children:  # the bodies in field order
        part = getattr(stmt, name)
        if part.__class__ is Block:
            bodies.append(_flatten(part.stmts, []))
        elif part.__class__ is list:  # a switch's cases
            bodies += [_flatten(case.block.stmts, []) for case in part]
    anchors = [id(h) for h in (stmt.init, stmt.step) if h is not None] if kind == FOR else []
    callees = resolved.stmt_user_callees
    children: list[Granule] = []
    if any(s.__class__ in _CONTROL_KIND or id(s) in callees for body in bodies for s in body):
        for body in bodies:
            children += _decompose(resolved, home, body, depth + 1, ids)
    else:
        for body in bodies:
            anchors += map(id, body)
    anchors.append(id(stmt))
    return Granule(gid, kind, WEIGHTS[kind], stmt.span, depth, anchors, children)


def granulate(resolved: ResolvedUnit, function: str) -> GranuleTree:
    """Decompose one function into its granule hierarchy."""
    body = _flatten(resolved.functions[function].body.stmts, [])
    return GranuleTree(function, _decompose(resolved, resolved.components[function], body, 1, count()))


def structural_weight(tree: GranuleTree) -> int:
    """CFS weight Wc: nesting multiplies, sequence adds, leaves score their weight."""
    return tree.fold(lambda g: int(g.is_leaf))[0]


# ============================================================
# OCCURRENCE ROUTING
# ============================================================


def occurrence_routing(tree: GranuleTree, resolved: ResolvedUnit) -> dict[int, list[int]]:
    """Map granule id -> indices of occurrences anchored directly to it.

    An occurrence is anchored to the granule owning its statement; condition
    and header occurrences anchor to the control granule itself.  Only the
    function's own occurrence run is scanned; its parameters anchor nowhere.
    """
    routing: dict[int, list[int]] = {}
    anchored: dict[int, list[int]] = {}  # statement id -> its granule's list
    for g in tree.walk():
        indices = routing[g.id] = []
        for sid in g.anchor_ids:
            anchored[sid] = indices
    run = resolved.runs[tree.function]
    for idx, occ in zip(run, resolved.occurrences[run.start : run.stop]):
        indices = anchored.get(occ.stmt_id)
        if indices is not None:
            indices.append(idx)
    return routing
