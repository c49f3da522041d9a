from __future__ import annotations

import pytest
from _checks import contains

from cogscope.errors import ParseError
from cogscope.parser import parse_source
from cogscope.syntax import (
    Assign,
    Block,
    CallStmt,
    Decl,
    For,
    If,
    Stmt,
    While,
)


def test_minimal_program():
    unit = parse_source("void main(){int a; a=1;}")
    assert [f.name for f in unit.functions] == ["main"]
    body = unit.function("main").body.stmts
    assert isinstance(body[0], Decl)
    assert isinstance(body[1], Assign)


def test_missing_main_rejected():
    with pytest.raises(ParseError, match="main"):
        parse_source("void f(){}")


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        parse_source("")


def test_shadowing_in_inner_scope_allowed():
    unit = parse_source("void main(){int a; {int a; a=1;} a=2;}")
    assert unit is not None


def test_string_literal_outside_print_rejected():
    with pytest.raises(ParseError, match="print"):
        parse_source('void main(){int a; a = "no";}')


def test_string_in_user_call_rejected():
    with pytest.raises(ParseError, match="print"):
        parse_source('int f(int x){return x;} void main(){f("no");}')


def test_nesting_shape():
    unit = parse_source("void main(){while(1<2){if(2<3){int z = 1;}}}")
    loop = unit.function("main").body.stmts[0]
    assert isinstance(loop, While)
    assert len(loop.body.stmts) == 1
    assert isinstance(loop.body.stmts[0], If)


def test_single_statement_bodies_become_blocks():
    unit = parse_source("void main(){int n = 3; for(int i=0;i<n;i++) print(i);}")
    loop = unit.function("main").body.stmts[1]
    assert isinstance(loop, For)
    assert isinstance(loop.body, Block)
    assert isinstance(loop.body.stmts[0], CallStmt)


def test_else_if_chains_nest():
    unit = parse_source(
        "void main(){int a = 1; if(a<1){a=1;} else if(a<2){a=2;} else {a=3;}}"
    )
    outer = unit.function("main").body.stmts[1]
    assert isinstance(outer, If)
    nested = outer.else_block.stmts[0]
    assert isinstance(nested, If)
    assert nested.else_block is not None


def test_all_statement_forms_parse():
    source = """
    int g = 1;
    int helper(int p) {
        helper(p);
        return p - 1;
    }
    void main() {
        int a = 1, b;
        int arr[] = {1, 2, 3};
        a += 2;
        a++;
        b = a;
        arr[a] = ::g;
        if (a < b) { a = 1; } else { a = 2; }
        switch (a) {
            case 1: { b = 1; }
            case -2: { b = 2; }
            default: { b = 3; }
        }
        for (a = 0; a < 3; a++) { b = b + 1; }
        while (a > 0) a--;
        do { a++; } while (a < 3);
        parallel { a = 1; }
        interrupt { a = 2; }
        helper(a);
        b = helper(a) + 1;
        print(a, "\\t", b);
        return;
    }
    """
    unit = parse_source(source)
    assert {f.name for f in unit.functions} == {"helper", "main"}


def test_eg3_top_level_shape(fixture_text):
    unit = parse_source(fixture_text("eg3.ml1"))
    body = unit.function("main").body.stmts
    kinds = [type(s).__name__ for s in body]
    # three leading declarations, three top-level loops, one trailing call
    assert kinds == ["Decl", "Decl", "Decl", "For", "While", "For", "CallStmt"]


def test_syntax_error_reports_span():
    with pytest.raises(ParseError) as err:
        parse_source("void main(){int a = ;}")
    assert err.value.span.line == 1


def _spans_nest(stmt: Stmt, parent):
    assert contains(parent, stmt.span)
    for key, value in vars(stmt).items():
        if key == "span":
            continue
        children = value if isinstance(value, list) else [value]
        for child in children:
            if isinstance(child, Stmt):
                _spans_nest(child, stmt.span)


def test_span_nesting(fixture_text):
    for name in ("eg1.ml1", "eg2.ml1", "eg3.ml1"):
        unit = parse_source(fixture_text(name))
        for fn in unit.functions:
            for stmt in fn.body.stmts:
                _spans_nest(stmt, fn.span)


def test_sibling_spans_do_not_overlap(fixture_text):
    unit = parse_source(fixture_text("eg3.ml1"))
    body = unit.function("main").body.stmts
    for left, right in zip(body, body[1:]):
        assert left.span.end <= right.span.start
