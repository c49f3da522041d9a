"""Decomposition of functions into basic-control-structure granules.

Each function body is partitioned into alternating maximal runs of simple
statements (one SEQ granule per run) and control-structure granules, in
source order.  Control bodies decompose recursively by the same rule; a
control structure with no nested control anywhere inside is a leaf.  A
simple statement that calls a user-defined function becomes its own CALL
granule (RECURSION when the callee sits on a call-graph cycle through the
caller).  Loop headers belong to the loop granule itself.  Bare blocks are
transparent: their statements join the surrounding stream.

Cognitive weights:

  SEQ 1, ITE 2, CASE 3, FOR 3, REPEAT 3, WHILE 3,
  CALL 2, RECURSION 3, PARALLEL 4, INTERRUPT 4
"""

from __future__ import annotations

from collections.abc import Callable

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
        anchor_ids: tuple[int, ...],
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
    def __init__(self, function: str, top: list[Granule], leaf_count: int, max_depth: int):
        self.function = function
        self.top = top
        self.leaf_count = leaf_count
        self.max_depth = max_depth

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


def _flatten(stmts: list[Stmt]) -> list[Stmt]:
    """Expand bare blocks; Block nodes are containers, not BCS units."""
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, Block):
            out.extend(_flatten(s.stmts))
        else:
            out.append(s)
    return out


def _body_streams(stmt: Stmt) -> list[list[Stmt]]:
    """The statement lists a control structure runs, in source order."""
    if isinstance(stmt, If):
        streams = [stmt.then_block.stmts]
        if stmt.else_block is not None:
            streams.append(stmt.else_block.stmts)
        return streams
    if isinstance(stmt, Switch):
        streams = [c.block.stmts for c in stmt.cases]
        if stmt.default_block is not None:
            streams.append(stmt.default_block.stmts)
        return streams
    if isinstance(stmt, (For, While, DoWhile, Parallel, Interrupt)):
        return [stmt.body.stmts]
    raise TypeError(type(stmt).__name__)


def _has_nested_control(streams: list[list[Stmt]]) -> bool:
    for stream in streams:
        for s in _flatten(stream):
            if type(s) in _CONTROL_KIND:
                return True
    return False


def _header_stmt_ids(stmt: Stmt) -> list[int]:
    ids = []
    if isinstance(stmt, For):
        if stmt.init is not None:
            ids.append(id(stmt.init))
        if stmt.step is not None:
            ids.append(id(stmt.step))
    return ids


class _Builder:
    def __init__(self, resolved: ResolvedUnit, function: str):
        self.resolved = resolved
        self.function = function
        self.next_id = 0
        self.max_depth = 0
        self.leaf_count = 0

    def fresh(self) -> int:
        gid = self.next_id
        self.next_id += 1
        return gid

    def user_callees(self, stmt: Stmt) -> tuple[str, ...]:
        return self.resolved.stmt_user_callees.get(id(stmt), ())

    def call_kind(self, stmt: Stmt) -> str:
        """RECURSION when a callee reaches the caller: both in one component."""
        components = self.resolved.components
        home = components[self.function]
        for callee in self.user_callees(stmt):
            if components[callee] == home:
                return RECURSION
        return CALL

    def decompose(self, stmts: list[Stmt], depth: int) -> list[Granule]:
        self.max_depth = max(self.max_depth, depth)
        items = _flatten(stmts)
        granules: list[Granule] = []
        run: list[Stmt] = []

        def flush_run() -> None:
            if not run:
                return
            region = Span(
                run[0].span.start, run[-1].span.end, run[0].span.line, run[0].span.col
            )
            granules.append(
                Granule(
                    id=self.fresh(),
                    kind=SEQ,
                    weight=WEIGHTS[SEQ],
                    region=region,
                    depth=depth,
                    anchor_ids=tuple(id(s) for s in run),
                )
            )
            self.leaf_count += 1
            run.clear()

        for s in items:
            kind = _CONTROL_KIND.get(type(s))
            if kind is not None:
                flush_run()
                granules.append(self.control_granule(s, kind, depth))
            elif self.user_callees(s):
                flush_run()
                call_kind = self.call_kind(s)
                granules.append(
                    Granule(
                        id=self.fresh(),
                        kind=call_kind,
                        weight=WEIGHTS[call_kind],
                        region=s.span,
                        depth=depth,
                        anchor_ids=(id(s),),
                    )
                )
                self.leaf_count += 1
            else:
                run.append(s)
        flush_run()
        return granules

    def control_granule(self, stmt: Stmt, kind: str, depth: int) -> Granule:
        gid = self.fresh()
        streams = _body_streams(stmt)
        anchors = _header_stmt_ids(stmt)
        nested = _has_nested_control(streams) or any(
            self.user_callees(s) for stream in streams for s in _flatten(stream)
        )
        children: list[Granule] = []
        if nested:
            for stream in streams:
                children.extend(self.decompose(stream, depth + 1))
        else:  # a leaf: its body's statements anchor here too
            for stream in streams:
                anchors.extend(id(s) for s in _flatten(stream))
            self.leaf_count += 1
        anchors.append(id(stmt))
        return Granule(
            id=gid,
            kind=kind,
            weight=WEIGHTS[kind],
            region=stmt.span,
            depth=depth,
            anchor_ids=tuple(anchors),
            children=children,
        )


def granulate(resolved: ResolvedUnit, function: str) -> GranuleTree:
    """Decompose one function into its granule hierarchy."""
    fn = resolved.functions[function]
    builder = _Builder(resolved, function)
    top = builder.decompose(fn.body.stmts, depth=1)
    return GranuleTree(
        function=function,
        top=top,
        leaf_count=builder.leaf_count,
        max_depth=builder.max_depth,
    )


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
