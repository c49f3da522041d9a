"""Checks that only the tests ask of the engine's data structures."""

from __future__ import annotations

from cogscope.errors import Span
from cogscope.granules import GranuleTree
from cogscope.resolve import ResolvedUnit
from cogscope.syntax import Assign, CallStmt, Decl, Return, structure_key, walk


def contains(outer: Span, inner: Span) -> bool:
    """Whether the span `inner` lies within `outer`."""
    return outer.start <= inner.start and inner.end <= outer.end


def same_structure(a, b) -> bool:
    """Structural identity of two trees, ignoring source spans."""
    return structure_key(a) == structure_key(b)


def partition_check(tree: GranuleTree, resolved: ResolvedUnit) -> bool:
    """Every simple statement of the function is owned by exactly one granule."""
    fn = resolved.unit.function(tree.function)
    simple_ids = [id(s) for s in walk(fn.body) if isinstance(s, (Decl, Assign, CallStmt, Return))]
    owned: list[int] = []
    for g in tree.walk():
        owned.extend(g.owned_stmts)
    return sorted(owned) == sorted(simple_ids)
