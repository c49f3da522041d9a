from __future__ import annotations

import importlib
import sys

import pytest
from _replay import oracle_escim, replay

from cogscope.analysis import analyze_source
from cogscope.cli import main
from cogscope.errors import ResolveError
from cogscope.lexer import tokenize
from cogscope.parser import parse_source
from cogscope.resolve import classify_io, operator_count, resolve


def _resolved(source: str):
    return resolve(parse_source(source))


def test_canonical_shadowing():
    resolved = _resolved("void main(){int a; {int a; a=1;} a=2;}")
    writes = [o for o in resolved.occurrences if o.kind == "write"]
    inner, outer = writes
    declares = [o for o in resolved.occurrences if o.kind == "declare"]
    assert inner.symbol == declares[1].symbol  # a=1 binds the inner a
    assert outer.symbol == declares[0].symbol  # a=2 binds the outer a
    assert declares[0].symbol != declares[1].symbol


def test_eg2_three_amounts_and_global_qualifier(fixture_text):
    resolved = _resolved(fixture_text("eg2.ml1"))
    amount_decls = [
        o for o in resolved.occurrences if o.name == "amount" and o.kind.startswith("declare")
    ]
    assert len(amount_decls) == 3
    assert {d.symbol.kind for d in amount_decls} == {"global", "local"}
    global_symbol = next(d.symbol for d in amount_decls if d.symbol.kind == "global")
    qualified = [
        o
        for o in resolved.occurrences
        if o.name == "amount" and o.kind == "read" and o.in_print_arg
    ]
    # print(::amount) twice, print(amount) once
    assert [o.symbol == global_symbol for o in qualified] == [True, True, False]


def test_eg3_loop_local_s_is_distinct(fixture_text):
    resolved = _resolved(fixture_text("eg3.ml1"))
    s_decls = [
        o for o in resolved.occurrences if o.name == "s" and o.kind.startswith("declare")
    ]
    assert len(s_decls) == 3  # global, main local, loop local
    assert len({d.symbol.uid for d in s_decls}) == 3


def test_unresolved_name_is_an_error():
    with pytest.raises(ResolveError, match="unresolved"):
        _resolved("void main(){a = 1;}")


def test_use_before_declaration_is_an_error():
    with pytest.raises(ResolveError, match="unresolved"):
        _resolved("void main(){a = 1; int a;}")


def test_global_qualifier_without_global_is_an_error():
    with pytest.raises(ResolveError, match="global"):
        _resolved("void main(){int a; a = ::a;}")


def test_call_to_undefined_function_is_an_error():
    with pytest.raises(ResolveError, match="undefined function"):
        _resolved("void main(){nothere(1);}")


def test_call_graph_edges():
    resolved = _resolved(
        "int f(int x){return g(x);} int g(int y){return f(y);} void main(){f(1);}"
    )
    assert ("main", "f") in resolved.call_graph
    assert ("f", "g") in resolved.call_graph
    assert ("g", "f") in resolved.call_graph


def test_every_write_comes_from_assignment_or_initializer():
    resolved = _resolved(
        "void main(){int a = 1; for(a = 0; a < 3; a++){a += 2;} a--;}"
    )
    for occ in resolved.occurrences:
        if occ.kind == "write":
            assert occ.ops_delta >= 0


def test_compound_assignment_reads_and_writes():
    resolved = _resolved("void main(){int s = 0; s++;}")
    kinds = [(o.name, o.kind) for o in resolved.occurrences]
    assert kinds == [("s", "declare-init"), ("s", "read"), ("s", "write")]


def test_binding_is_deterministic(fixture_text):
    source = fixture_text("eg3.ml1")
    a = _resolved(source)
    b = _resolved(source)
    assert [(o.name, o.kind, o.symbol.uid) for o in a.occurrences] == [
        (o.name, o.kind, o.symbol.uid) for o in b.occurrences
    ]


def test_renaming_gives_isomorphic_bindings():
    plain = _resolved("void main(){int a; {int a; a=1;} a=2; int b; b=a;}")
    renamed = _resolved("void main(){int x; {int x; x=1;} x=2; int y; y=x;}")
    assert [(o.kind, o.symbol.uid) for o in plain.occurrences] == [
        (o.kind, o.symbol.uid) for o in renamed.occurrences
    ]


# ---------- operator_count ----------


def _stmt(source: str, index: int = 0):
    return parse_source(source).function("main").body.stmts[index]


def test_plain_assignment_has_no_operators():
    assert operator_count(_stmt("void main(){int a; int b; a = b;}", 2)) == 0


def test_rhs_operator_counts_once():
    stmt = _stmt("void main(){int s = 0; int key[] = {1}; int i = 0; s = s + key[i];}", 3)
    assert operator_count(stmt) == 1


def test_increment_counts_one_operator():
    assert operator_count(_stmt("void main(){int s = 0; s++;}", 1)) == 1


def test_compound_assign_counts_one_plus_rhs():
    assert operator_count(_stmt("void main(){int s = 0; s += s * 2;}", 1)) == 2


def test_subscript_and_call_add_nothing():
    stmt = _stmt("int f(int x){return x;} void main(){int a[] = {1}; int b = 0; b = f(a[b]);}", 2)
    assert operator_count(stmt) == 0


def test_target_subscript_operators_count():
    stmt = _stmt("void main(){int k[] = {1, 2}; int i = 1; k[i - 1] = k[i];}", 2)
    assert operator_count(stmt) == 1


def test_left_deep_sums_of_2000_terms_analyze(tmp_path, capsys):
    terms = 2000
    source = (
        "void main() {\n"
        f"    int a = {' + '.join(['1'] * terms)};\n"
        f"    a = {' + '.join(['a'] * terms)};\n"
        "    print(a);\n"
        "}\n"
    )
    path = tmp_path / "sum.ml1"
    path.write_text(source)
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    analysis = analyze_source(source)
    writes = [o for o in analysis.resolved.occurrences if o.kind in ("declare-init", "write")]
    assert [o.ops_delta for o in writes] == [terms - 1, terms - 1]
    # The replay oracle recurses once per operator; only it gets a deeper stack.
    unit = parse_source(source)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * terms)
    try:
        expected = oracle_escim(unit, replay(unit))
    finally:
        sys.setrecursionlimit(limit)
    assert analysis.program.escim == expected


# ---------- classify_io ----------


def _io(source: str):
    unit = parse_source(source)
    return classify_io(resolve(unit), tokenize(source))


def test_eg1_io_sets(fixture_text):
    io = _io(fixture_text("eg1.ml1"))["main"]
    assert {s.name for s in io.inputs} == {"userInput"}
    assert {s.name for s in io.outputs} == {"square"}
    assert io.s_io == 4


def test_program_without_io_has_empty_classification():
    io = _io("void main(){int a = 1; a = a + 1;}")["main"]
    assert not io.inputs and not io.outputs and io.s_io == 0


def test_read_print_pair_counts_two_io_occurrences():
    io = _io("void main(){int a; a = read(); print(a);}")["main"]
    assert io.s_io == 2


def test_parameters_are_inputs_returns_are_outputs():
    io = _io("int f(int p){return p;} void main(){f(1);}")["f"]
    assert {s.name for s in io.inputs} == {"p"}
    assert {s.name for s in io.outputs} == {"p"}


def test_operand_and_operator_totals():
    io = _io("void main(){int a = 1; int b = 2; a = a + b;}")["main"]
    # identifiers: main, a, b, a, a, b (6); literals: 1, 2 (2); operators: +
    assert io.n_operands == 8
    assert io.n_operators == 1


def test_one_analysis_classifies_lines_once_per_function_and_once_for_the_program(monkeypatch):
    calls = []
    # `cogscope.resolve` as a package attribute is the resolve() function.
    for name in ("cogscope.analysis", "cogscope.resolve"):
        module = importlib.import_module(name)
        original = module.classify_lines
        monkeypatch.setattr(
            module, "classify_lines", lambda tokens, original=original: calls.append(len(tokens)) or original(tokens)
        )
    source = "int f(int p)\n{\n  return p;\n}\nint g()\n{\n  return 2;\n}\nvoid main()\n{\n  print(f(g()));\n}\n"
    analysis = analyze_source(source)
    assert len(analysis.unit.functions) == 3
    assert len(calls) == 1 + 3
    assert sorted(calls)[-1] == len(analysis.tokens)  # the program's LOC
    assert analysis.program.loc == 12
