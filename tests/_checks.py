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
    """Every anchor is a statement of the function, and every simple statement
    of the function anchors to exactly one granule."""
    fn = resolved.unit.function(tree.function)
    nodes = {id(node): node for node in walk(fn.body)}
    simple = (Decl, Assign, CallStmt, Return)
    simple_ids = [key for key, node in nodes.items() if isinstance(node, simple)]
    anchors = [sid for g in tree.walk() for sid in g.anchor_ids]
    owned = [sid for sid in anchors if isinstance(nodes.get(sid), simple)]
    return all(sid in nodes for sid in anchors) and sorted(owned) == sorted(simple_ids)
