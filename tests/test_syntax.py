from __future__ import annotations

from collections import Counter

import pytest
from test_info import FULL_LANGUAGE

from cogscope.parser import parse_source
from cogscope.syntax import NODE_CLASSES, Binary, Ident, IntLit, walk


def _field_scan(node) -> list:
    """Every node under `node`, found by looking at every field value."""
    found = [node]
    for value in vars(node).values():
        for item in value if isinstance(value, list) else [value]:
            if type(item) in NODE_CLASSES:
                found.extend(_field_scan(item))
    return found


@pytest.mark.parametrize(
    "name",
    ["eg1.ml1", "eg2.ml1", "eg3.ml1", "eg4.ml1", "empty.ml1", "esciu.ml1", "p4_formula.ml1", "p4_loop.ml1", "full"],
)
def test_walk_yields_every_node_once(name, fixture_text):
    unit = parse_source(FULL_LANGUAGE if name == "full" else fixture_text(name))
    walked = Counter(map(id, walk(unit)))
    assert walked == Counter(map(id, _field_scan(unit)))
    assert set(walked.values()) == {1}


def test_walk_is_preorder_in_evaluation_order():
    unit = parse_source("void main(){int a = 1; int b = a - 2 * a;}")
    init = unit.function("main").body.stmts[1].declarators[0].init
    assert list(walk(init)) == [init, init.lhs, init.rhs, init.rhs.lhs, init.rhs.rhs]
    assert [type(n) for n in walk(init)] == [Binary, Ident, Binary, IntLit, Ident]
