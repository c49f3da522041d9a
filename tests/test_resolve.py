from __future__ import annotations

import importlib
import random
import sys

import pytest
from _replay import oracle_escim, replay
from test_info import FULL_LANGUAGE, TERSE_FORMS
from test_scaling import _Counted

from cogscope.analysis import analyze_source
from cogscope.cli import main
from cogscope.errors import DUMMY_SPAN, ResolveError
from cogscope.generator import GeneratorConfig, generate
from cogscope.info import annotate
from cogscope.lexer import classify_lines, tokenize
from cogscope.parser import parse_source
from cogscope.resolve import call_components, classify_io, resolve
from cogscope.syntax import CallStmt, Ident, IntLit


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


def test_assignment_to_a_non_variable_is_a_located_error():
    # The parser reads only a name as a target, so the tree is built by hand:
    # `a = 1;` with its target replaced by the literal 2, and `b[0] = 1;`
    # with the subscript's base replaced.
    for source in ("void main() {\n    int a;\n    a = 1;\n}\n", "void main() {\n    int b[];\n    b[0] = 1;\n}\n"):
        unit = parse_source(source)
        assign = unit.function("main").body.stmts[1]
        if assign.target.__class__ is Ident:
            assign.target = IntLit(assign.target.span, 2)
        else:
            assign.target.base = IntLit(assign.target.base.span, 2)
        with pytest.raises(ResolveError) as caught:
            resolve(unit)
        assert caught.value.render("bad.ml1") == "bad.ml1:3:5: assignment target must be a variable", source


# A variable name is checked where the resolver declares it: the parser
# takes these programs, and resolving them raises.


def test_duplicate_declaration_in_scope_rejected():
    source = "void main(){int a; int a;}"
    assert parse_source(source).function("main")
    with pytest.raises(ResolveError, match="duplicate"):
        resolve(parse_source(source))


def test_duplicate_parameter_rejected():
    source = "void f(int a, int a){} void main(){}"
    assert parse_source(source).function("f")
    with pytest.raises(ResolveError, match="duplicate"):
        resolve(parse_source(source))


def test_builtin_name_cannot_be_declared():
    source = "void main(){int print;}"
    assert parse_source(source).function("main")
    with pytest.raises(ResolveError, match="reserved"):
        resolve(parse_source(source))


def test_call_graph_edges():
    resolved = _resolved(
        "int f(int x){return g(x);} int g(int y){return f(y);} void main(){f(1);}"
    )
    assert ("main", "f") in resolved.call_graph
    assert ("f", "g") in resolved.call_graph
    assert ("g", "f") in resolved.call_graph


def test_a_call_as_for_initializer_is_a_statement_of_its_own():
    unit = parse_source(
        "int helper(int p) { return p; }"
        " void main() { int i = 0; for (i = 0; i < 3; i++) { i = i + 1; } }"
    )
    loop = unit.function("main").body.stmts[1]
    loop.init = CallStmt(DUMMY_SPAN, "helper", [Ident(DUMMY_SPAN, "i")])
    resolved = resolve(unit)
    assert ("main", "helper") in resolved.call_graph
    assert resolved.stmt_user_callees[id(loop.init)] == ["helper"]
    (arg,) = [o for o in resolved.occurrences if o.span is DUMMY_SPAN]
    assert (arg.name, arg.kind, arg.stmt_id) == ("i", "read", id(loop.init))


def test_an_expression_in_a_statement_list_is_rejected():
    unit = parse_source("void main() { int a = 1; }")
    unit.function("main").body.stmts.append(Ident(DUMMY_SPAN, "a"))
    with pytest.raises(TypeError, match="^unknown statement Ident$"):
        resolve(unit)


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


# ---------- operator counts of writes ----------


def _write_ops(source: str) -> int:
    """The operator count the last write of the program carries."""
    return [o for o in _resolved(source).occurrences if o.kind == "write"][-1].ops_delta


def test_plain_assignment_has_no_operators():
    assert _write_ops("void main(){int a; int b; a = b;}") == 0


def test_rhs_operator_counts_once():
    assert _write_ops("void main(){int s = 0; int key[] = {1}; int i = 0; s = s + key[i];}") == 1


def test_increment_counts_one_operator():
    assert _write_ops("void main(){int s = 0; s++;}") == 1


def test_compound_assign_counts_one_plus_rhs():
    assert _write_ops("void main(){int s = 0; s += s * 2;}") == 2


def test_subscript_and_call_add_nothing():
    assert _write_ops("int f(int x){return x;} void main(){int a[] = {1}; int b = 0; b = f(a[b]);}") == 0


def test_target_subscript_operators_count():
    assert _write_ops("void main(){int k[] = {1, 2}; int i = 1; k[i - 1] = k[i];}") == 1


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
    tokens = tokenize(source)
    return classify_io(resolve(parse_source(source)), tokens, classify_lines(tokens))


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


def test_one_analysis_reads_each_token_once_for_its_line_counts(monkeypatch):
    analysis_module = importlib.import_module("cogscope.analysis")
    counted, parse_reads = [], []
    monkeypatch.setattr(analysis_module, "tokenize", lambda source: counted.append(_Counted(tokenize(source))) or counted[-1])
    original_parse = analysis_module.parse

    def parse_counted(tokens, source_len):
        unit = original_parse(tokens, source_len)
        parse_reads.append(tokens.reads)
        return unit

    monkeypatch.setattr(analysis_module, "parse", parse_counted)
    source = "int f(int p)\n{\n  return p;\n}\nint g()\n{\n  return 2;\n}\nvoid main()\n{\n  print(f(g()));\n}\n"
    analysis = analyze_source(source)
    assert len(analysis.unit.functions) == 3
    # classify_lines reads each token once; classify_io takes each
    # function's lines from its records and reads no token.
    assert counted[0].reads - parse_reads[0] == len(counted[0])
    assert analysis.program.loc == 12


# Hand-written programs whose functions share a line with each other or with
# a global declaration, and each function's (loc, line_counts, n_operators,
# n_operands): a shared line counts each function's own tokens.
SHARED_LINES = {
    "int f(){return 1;} void main(){print(f());}": {
        "f": (1, [1], 0, 2),
        "main": (1, [3], 0, 3),
    },
    "int g = 2; int f(int p) {\n  return p + g;\n}\nint h = 3; void main() {\n  print(f(h) * 2); } int k;\n": {
        "f": (3, [2, 3, 0], 1, 4),
        "main": (2, [1, 4], 1, 5),
    },
}


@pytest.mark.parametrize("source", sorted(SHARED_LINES))
def test_a_shared_line_counts_each_functions_own_tokens(source):
    analysis = analyze_source(source)
    for name, expected in SHARED_LINES[source].items():
        io = analysis.io[name]
        assert (io.loc, io.line_counts, io.n_operators, io.n_operands) == expected
        assert analysis.functions[name].loc == expected[0]


def test_call_components_are_mutual_reachability():
    rng = random.Random(11)
    for _ in range(300):
        names = [f"f{k}" for k in range(rng.randrange(1, 9))]
        edges = {(rng.choice(names), rng.choice(names)) for _ in range(rng.randrange(0, 16))}
        reach = {a: {a} for a in names}
        for _ in names:  # transitive closure by repeated relaxation
            for a, b in edges:
                reach[a] |= reach[b]
        components = call_components(names, edges)
        for a in names:
            for b in names:
                assert (components[a] == components[b]) == (b in reach[a] and a in reach[b]), (edges, a, b)


def _run_programs(fixtures_dir):
    """The fixtures, the two full-language programs, and 500 generated
    programs with parameters and globals."""
    for path in sorted(fixtures_dir.glob("*.ml1")):
        yield path.name, path.read_text()
    yield "full language", FULL_LANGUAGE
    yield "terse forms", TERSE_FORMS
    found = 0
    for seed in range(10_000):
        source = generate(GeneratorConfig(seed=seed + 91_000, max_statements=8))
        if "(int p0)" in source and parse_source(source).globals:  # the generator's one parameter
            found += 1
            yield f"seed {seed}", source
            if found == 500:
                return
    raise AssertionError(f"only {found} generated programs with parameters and globals")


def test_each_function_run_is_the_occurrences_of_its_span(fixtures_dir):
    for label, source in _run_programs(fixtures_dir):
        resolved = _resolved(source)
        ann = annotate(resolved)
        assert list(resolved.runs) == [fn.name for fn in resolved.unit.functions], label
        for fn in resolved.unit.functions:
            assert list(resolved.runs[fn.name]) == ann.in_region(fn.span), (label, fn.name)


# Globals before, between and after the functions; `peek` and `show` share
# line 4; `scale` has an unused scalar parameter and an array one.
_IO_PROGRAM = """\
int base = 2;
int scale(int x, int unused, int arr[]) { int y = x * base; return y + arr[0]; }
int limit = 9;
int peek(int arr[]) { print(arr[1]); return limit; } void show(int n) { print(n); }
void main() {
    int v;
    v = read();
    int data[] = {4, 5};
    print(scale(v, 1, data) + peek(data));
    show(v);
}
int tail = 0;
"""


def test_per_function_io_of_a_hand_checked_program():
    io = analyze_source(_IO_PROGRAM).io
    summary = {
        name: (sorted(s.name for s in c.inputs), sorted(s.name for s in c.outputs), c.s_io, c.loc)
        for name, c in io.items()
    }
    assert summary == {
        # s_io: declare-init y; x read in y's statement; y and arr read in the return
        "scale": (["arr", "unused", "x"], ["arr", "y"], 4, 1),
        # arr read in the print, the global limit in the return
        "peek": (["arr"], ["arr", "limit"], 2, 1),
        "show": (["n"], ["n"], 1, 1),
        # v written from read(); data declared with an initializer; v and data
        # read in the print (data twice, counted once); v read in show(v)
        "main": (["v"], ["data", "v"], 5, 7),
    }
