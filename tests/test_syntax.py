from __future__ import annotations

import sys
from collections import Counter

import pytest
from conftest import FIXTURES
from test_info import FULL_LANGUAGE

from cogscope.errors import Span
from cogscope.generator import GeneratorConfig, generate
from cogscope.parser import parse_source
from cogscope.syntax import _CHILD_FIELDS, NODE_CLASSES, Binary, Ident, IntLit, walk

FIXTURE_NAMES = ["eg1.ml1", "eg2.ml1", "eg3.ml1", "eg4.ml1", "empty.ml1", "esciu.ml1", "p4_formula.ml1", "p4_loop.ml1"]


def _field_scan(node) -> list:
    """Every node under `node`, found by looking at every field value: a
    preorder in field order that does not read the classes' child fields."""
    found = [node]
    for value in vars(node).values():
        for item in value if isinstance(value, list) else [value]:
            if type(item) in NODE_CLASSES:
                found.extend(_field_scan(item))
    return found


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "full"])
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


# ---------- child fields: the names each class gives match its values ----------


def _child_field_programs() -> list[str]:
    sources = [(FIXTURES / name).read_text() for name in FIXTURE_NAMES] + [FULL_LANGUAGE]
    return sources + [generate(GeneratorConfig(seed=seed + 23_000, max_statements=9)) for seed in range(200)]


def test_child_fields_are_exactly_the_fields_holding_nodes():
    for k, source in enumerate(_child_field_programs()):
        unit = parse_source(source)
        for node in walk(unit):
            children = set(_CHILD_FIELDS[type(node)])
            for name, value in vars(node).items():
                holds_nodes = type(value) in NODE_CLASSES or (
                    isinstance(value, list) and value and all(type(item) in NODE_CLASSES for item in value)
                )
                if holds_nodes:
                    assert name in children, (k, type(node).__name__, name)
                elif name in children:
                    assert value is None or value == [], (k, type(node).__name__, name, value)
        assert list(map(id, walk(unit))) == list(map(id, _field_scan(unit))), k


def test_function_of_an_unknown_name_is_a_key_error():
    unit = parse_source("void main() {\n}\n")
    assert unit.function("main") is unit.functions[0]
    with pytest.raises(KeyError):
        unit.function("nope")


# ---------- equality: every field, spans included, without recursion ----------


def test_two_parses_of_a_2000_term_sum_compare_equal():
    source = "void main() {\n    int a = " + " + ".join(["1"] * 2000) + ";\n}\n"
    assert 2000 > sys.getrecursionlimit()
    assert parse_source(source) == parse_source(source)


def test_a_tree_that_differs_in_one_span_compares_unequal():
    source = "void main() {\n    int a = " + " + ".join(["1"] * 2000) + ";\n}\n"
    unit, other = parse_source(source), parse_source(source)
    deepest = other.function("main").body.stmts[0].declarators[0].init
    while deepest.__class__ is Binary:
        deepest = deepest.lhs
    deepest.span = Span(deepest.span.start, deepest.span.end, deepest.span.line, deepest.span.col + 1)
    assert unit != other
    assert not unit == other
