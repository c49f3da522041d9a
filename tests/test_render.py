from __future__ import annotations

import random
import sys

import pytest
from _checks import same_structure
from test_info import FULL_LANGUAGE, TERSE_FORMS

from cogscope.analysis import analyze_rendered, analyze_source
from cogscope.cli import main
from cogscope.errors import DUMMY_SPAN, MiniLangError, ParseError
from cogscope.generator import GeneratorConfig, generate
from cogscope.lexer import tokenize
from cogscope.parser import MAX_NESTING, parse_source
from cogscope.render import render
from cogscope.syntax import ArrayInit, Block, CallStmt, IntLit, StrLit, Unary, structure_key, walk
from cogscope.transforms import _collect_names, concat, rename


def test_round_trip_minimal():
    unit = parse_source("void main(){int a;a=1;}")
    assert same_structure(unit, parse_source(render(unit)))


def test_render_is_deterministic():
    unit = parse_source("void main(){int a; a = 1 + 2;}")
    assert render(unit) == render(unit)


def test_render_idempotent_on_canonical_text(fixture_text):
    for name in ("eg1.ml1", "eg2.ml1", "eg3.ml1", "eg4.ml1", "esciu.ml1"):
        text = render(parse_source(fixture_text(name)))
        assert render(parse_source(text)) == text


def test_round_trip_fixtures(fixture_text):
    for name in ("eg1.ml1", "eg2.ml1", "eg3.ml1", "eg4.ml1", "p4_loop.ml1"):
        unit = parse_source(fixture_text(name))
        assert same_structure(unit, parse_source(render(unit))), name


def test_round_trip_generated_corpus():
    for seed in range(1000):
        source = generate(GeneratorConfig(seed=seed, max_statements=9))
        unit = parse_source(source)
        again = parse_source(render(unit))
        assert same_structure(unit, again), f"seed {seed}"


# ---------- the layout: render's tokens and tree are the parser's ----------


def _flat_tree(unit) -> tuple:
    """The tree, spans included, as keys that compare without recursing per
    node, so a 2000-term sum compares too."""
    spans = [value for node in walk(unit) for name, value in vars(node).items() if name in ("span", "name_span")]
    return structure_key(unit), spans


def _comparable(analysis) -> dict:
    """Every field of an Analysis, node identities replaced by walk positions."""
    at = {id(node): k for k, node in enumerate(walk(analysis.unit))}
    at[id(None)] = None  # the statement of a global declaration
    resolved = analysis.resolved
    occurrences = [(*o._fields()[:4], at[o.stmt_id], *o._fields()[5:]) for o in resolved.occurrences]
    trees = {
        name: [
            (g.id, g.kind, g.weight, g.region, g.depth, [at[i] for i in g.anchor_ids],
             [c.id for c in g.children])
            for g in tree.walk()
        ]
        for name, tree in analysis.trees.items()
    }
    return {
        "source": str(analysis.source),
        "path": analysis.path,
        "unit": _flat_tree(analysis.unit),
        "occurrences": occurrences,
        "call_graph": resolved.call_graph,
        "stmt_user_callees": sorted((at[k], v) for k, v in resolved.stmt_user_callees.items()),
        "icn": analysis.annotations.icn,
        "sicn": analysis.annotations.sicn,
        "io": analysis.io,
        "trees": trees,
        "functions": analysis.functions,
        "program": analysis.program,
        "granule_rows": {name: analysis.granule_rows(name) for name in analysis.trees},
    }


def _assert_laid_out(rendered, label) -> None:
    """The tokens, the tree (spans included) and the analysis of the layout
    are those of the text."""
    assert rendered.tokens == tokenize(str(rendered)), label  # the tokens each analysis counts
    assert _comparable(analyze_rendered(rendered)) == _comparable(analyze_source(str(rendered))), label


# Programs whose canonical text needs a group that no binary operation
# writes, and that group's text: a negated subscript base, and a negated
# negation.
GROUPED_PROGRAMS = {
    "negated subscript base": ("void main() {\n    int b[] = {1};\n    int x = (-b)[0];\n}\n", "(-b)[0]"),
    "negated negation": ("void main() {\n    int x = - -1;\n}\n", "-(-1)"),
}


def _layout_programs():
    """The fixtures, the two full-language programs, the grouped programs,
    two long sums, and generated programs."""
    from conftest import FIXTURES

    for path in sorted(FIXTURES.glob("*.ml1")):
        yield path.name, path.read_text()
    yield "full language", FULL_LANGUAGE
    yield "terse forms", TERSE_FORMS
    for label, (source, _) in GROUPED_PROGRAMS.items():
        yield label, source
    for terms in (103, 2000):  # canonical text: one `(` per inner operation, in one run
        yield f"sum of {terms}", _sum(terms)
    rng = random.Random(11)
    for index in range(2000):
        config = GeneratorConfig(
            seed=rng.randrange(2**62),
            max_statements=rng.randint(0, 8),
            max_nesting_depth=rng.randint(1, 3),
            variable_pool_size=rng.randint(1, 6),
        )
        yield f"generated {index}", generate(config)


def test_layout_equals_the_parse_of_the_text():
    programs = [(label, parse_source(text)) for label, text in _layout_programs()]
    assert len(programs) == 2014
    rng = random.Random(12)
    for k, (label, unit) in enumerate(programs):
        _assert_laid_out(render(unit), label)
        _, other = programs[(k + 1) % len(programs)]
        _assert_laid_out(concat(unit, other), f"{label} ; next")
        names = sorted(_collect_names(unit) - {"main"})
        targets = names[:]
        rng.shuffle(targets)
        _assert_laid_out(rename(unit, {a: f"r{i}_{b}" for i, (a, b) in enumerate(zip(names, targets))}),
                         f"rename of {label}")


@pytest.mark.parametrize("case", sorted(GROUPED_PROGRAMS))
def test_a_negated_subscript_base_and_a_negated_negation_are_grouped(case):
    source, group = GROUPED_PROGRAMS[case]
    unit = parse_source(source)
    rendered = render(unit)
    assert f"int x = {group};" in rendered
    assert structure_key(parse_source(rendered)) == structure_key(unit)
    assert parse_source(rendered) == rendered.unit


# Deep expressions, each the one deep part of a main.  A sum's canonical
# text opens one `(` per inner operation, all in one run; a run of `(` opens
# one nesting level at most, so these read back.
_TERMS = 2000
_CANONICAL_SUM = "(" * (_TERMS - 2) + "1" + " + 1)" * (_TERMS - 2) + " + 1"
DEEP_EXPRESSIONS = {
    "sum": "int a = " + " + ".join(["1"] * _TERMS) + ";",
    "parenthesized sum": f"int a = {_CANONICAL_SUM};",
    "call argument": f"print({_CANONICAL_SUM});",
    "if condition": f"int a = 0;\n    if ({_CANONICAL_SUM}) {{\n        a = 1;\n    }}",
    "5000 parentheses": "int a = " + "(" * 5000 + "1" + ")" * 5000 + ";",
    "subscript chain": "int c[] = {0};\n    int a = c" + "[0]" * _TERMS + ";",
}


@pytest.mark.parametrize("case", sorted(DEEP_EXPRESSIONS))
def test_a_deep_expression_goes_through_every_walk(case):
    assert _TERMS > sys.getrecursionlimit()
    source = "void main() {\n    " + DEEP_EXPRESSIONS[case] + "\n}\n"
    unit = parse_source(source)
    analyze_source(source)
    rendered = render(unit)
    assert structure_key(parse_source(rendered)) == structure_key(unit)
    _assert_laid_out(rendered, f"render of {case}")
    _assert_laid_out(rename(unit, {"a": "b"}), f"rename of {case}")
    _assert_laid_out(concat(unit, unit), f"concat of {case}")


def test_a_right_nested_sum_of_2000_levels_is_a_located_error(tmp_path, capsys):
    # each `(` follows a `+`, so each opens a level: the 100th is the body's 101st
    path = tmp_path / "right.ml1"
    path.write_text("void main() {\n    int a = " + "1 + (" * _TERMS + "1" + ")" * _TERMS + ";\n}\n")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr() == ("", f"{path}:2:512: nesting deeper than {MAX_NESTING} levels\n")


def _tree(source: str, edit):
    """The tree of `source`, after `edit(unit)` has made it invalid."""
    unit = parse_source(source)
    edit(unit)
    return unit


def _main_stmts(unit):
    return unit.function("main").body.stmts


def _set(obj, **fields):
    for name, value in fields.items():
        setattr(obj, name, value)


def _sum(terms: int) -> str:
    return "void main() {\n    int a = " + " + ".join(["1"] * terms) + ";\n}\n"


# Trees that render refuses.  A tree whose text the parser would reject for
# one of its checks on a well-formed program raises the parser's error,
# located in the canonical text (given here as "line:col message"); a tree
# that the parser would read back from any text as another tree, or not at
# all, raises ValueError.
INVALID_TREES = {
    "defined builtin": (lambda: _tree(
        "void f() {\n}\n\nvoid main() {\n}\n",
        lambda u: _set(u.functions[0], name="print")), "1:6 cannot define reserved builtin 'print'"),
    "missing main": (lambda: _tree(
        "void main() {\n}\n",
        lambda u: _set(u.functions[0], name="start")), "1:1 program must define exactly one function named 'main'"),
    "no function": (lambda: _tree(
        "int g;\n\nvoid main() {\n}\n",
        lambda u: u.functions.clear()), "1:1 program must define exactly one function named 'main'"),
    "duplicate main": (lambda: _tree(
        "void f() {\n}\n\nvoid main() {\n}\n",
        lambda u: _set(u.functions[0], name="main")), "4:6 duplicate function 'main'"),
    "duplicate function": (lambda: _tree(
        "void f() {\n}\n\nvoid g() {\n}\n\nvoid main() {\n}\n",
        lambda u: _set(u.functions[1], name="f")), "4:6 duplicate function 'f'"),
    "nested blocks": (lambda: _tree(
        "void main() {\n}\n",
        lambda u: _main_stmts(u).append(_nested_blocks(MAX_NESTING))), "101:401 nesting deeper than 100 levels"),
    "2000 nested blocks": (lambda: _tree(
        "void main() {\n    int a = 1;\n}\n",
        lambda u: _main_stmts(u).append(_nested_blocks(2000))), "102:401 nesting deeper than 100 levels"),
    "2000 nested negations": (lambda: _tree(
        "void main() {\n    int a = 1;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0], init=_negations(2000))), "2:112 nesting deeper than 100 levels"),
    "string outside print": (lambda: _tree(
        'void main() {\n    print("s");\n}\n',
        lambda u: _set(_main_stmts(u)[0], callee="read")), ValueError),
    "brace initializer of a scalar": (lambda: _tree(
        "void main() {\n    int a[] = {1};\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0], is_array=False)), ValueError),
    "keyword as a name": (lambda: _tree(
        "void main() {\n    int a;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0], name="while")), ValueError),
    "not a name": (lambda: _tree(
        "void main() {\n    int a;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0], name="a$")), ValueError),
    "return type": (lambda: _tree(
        "void main() {\n}\n",
        lambda u: _set(u.functions[0], ret_type="char")), ValueError),
    "declaration of nothing": (lambda: _tree(
        "void main() {\n    int a;\n}\n",
        lambda u: _set(_main_stmts(u)[0], declarators=[])), ValueError),
    "assignment operator": (lambda: _tree(
        "void main() {\n    int a;\n    a = 1;\n}\n",
        lambda u: _set(_main_stmts(u)[1], op="<<=")), ValueError),
    "assignment to a literal": (lambda: _tree(
        "void main() {\n    int a;\n    a = 1;\n}\n",
        lambda u: _set(_main_stmts(u)[1], target=IntLit(DUMMY_SPAN, 0))), ValueError),
    "assignment to a builtin": (lambda: _tree(
        "void main() {\n    int a;\n    a = 1;\n}\n",
        lambda u: _set(_main_stmts(u)[1].target, name="read")), ValueError),
    "case label not an int": (lambda: _tree(
        "void main() {\n    int a = 0;\n    switch (a) {\n        case 0: {\n        }\n    }\n}\n",
        lambda u: _set(_main_stmts(u)[1].cases[0].literal, value=0.5)), ValueError),
    "literal not an int": (lambda: _tree(
        "void main() {\n    int a = 1;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0].init, value=True)), ValueError),
    "string in an expression": (lambda: _tree(
        "void main() {\n    int a = 1;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0], init=StrLit(DUMMY_SPAN, '"s"'))), ValueError),
    "braces in an expression": (lambda: _tree(
        "void main() {\n    int a;\n    a = 1;\n}\n",
        lambda u: _set(_main_stmts(u)[1], value=ArrayInit(DUMMY_SPAN, [IntLit(DUMMY_SPAN, 1)]))), ValueError),
    "binary operator": (lambda: _tree(
        "void main() {\n    int a = 1 + 2;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0].init, op="**")), ValueError),
}


def _nested_blocks(depth: int) -> Block:
    block = Block(DUMMY_SPAN, [])
    for _ in range(depth - 1):
        block = Block(DUMMY_SPAN, [block])
    return block


def _negations(depth: int) -> Unary:
    """`!` applied `depth` times to 1."""
    expr = IntLit(DUMMY_SPAN, 1)
    for _ in range(depth):
        expr = Unary(DUMMY_SPAN, "!", expr)
    return expr


@pytest.mark.parametrize("case", sorted(INVALID_TREES))
def test_a_rejected_tree_raises_the_parsers_error(case):
    build, expected = INVALID_TREES[case]
    tree = build()
    if expected is ValueError:
        with pytest.raises(ValueError, match="^no canonical text reads back as "):
            render(tree)
        return
    with pytest.raises(ParseError) as error:
        render(tree)
    assert f"{error.value.span.line}:{error.value.span.col} {error.value.message}" == expected


def test_a_node_of_no_known_class_is_a_type_error():
    for kind, edit in (("statement", lambda u: _main_stmts(u).append(object())),
                       ("expression", lambda u: _set(_main_stmts(u)[0].declarators[0], init=object()))):
        with pytest.raises(TypeError, match=f"^unknown {kind} node object$"):
            render(_tree("void main() {\n    int a = 1;\n}\n", edit))


def _assert_same_error(rendered) -> None:
    """Analyzing the layout fails as analyzing the text does."""
    with pytest.raises(MiniLangError) as from_text:
        analyze_source(str(rendered))
    with pytest.raises(MiniLangError) as from_layout:
        analyze_rendered(rendered)
    assert type(from_layout.value) is type(from_text.value)
    assert from_layout.value.render() == from_text.value.render()
    assert from_layout.value.span == from_text.value.span


# Trees whose one error is a variable name, which the resolver rejects: the
# parser takes their text, so they are laid out.
NAME_ERROR_TREES = {
    "duplicate declaration": lambda: _tree(
        "void main() {\n    int a;\n    int b;\n}\n",
        lambda u: _set(_main_stmts(u)[1].declarators[0], name="a")),
    "duplicate parameter": lambda: _tree(
        "void f(int x, int y) {\n}\n\nvoid main() {\n}\n",
        lambda u: _set(u.function("f").params[1], name="x")),
    "declared builtin": lambda: _tree(
        "void main() {\n    int a;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0], name="read")),
}


@pytest.mark.parametrize("case", sorted(NAME_ERROR_TREES))
def test_a_tree_the_resolver_rejects_is_laid_out_and_raises_its_error(case):
    _assert_same_error(render(NAME_ERROR_TREES[case]()))


# Trees the parser takes from their text, but where the tree is not what
# the text reads: the layout scores what the text reads.
RETOLD_TREES = {
    "duplicate case labels": lambda: _tree(
        "void main() {\n    int a = 0;\n    switch (a) {\n        case 0: {\n            a = 1;\n        }\n"
        "        case 1: {\n            a = 2;\n        }\n    }\n}\n",
        lambda u: _set(_main_stmts(u)[1].cases[1].literal, value=0)),
    "negative literal": lambda: _tree(
        "void main() {\n    int a = 0;\n    a = a - 1;\n}\n",
        lambda u: _set(_main_stmts(u)[1].value, rhs=IntLit(DUMMY_SPAN, -1))),
    "for with a call for initializer": lambda: _tree(
        "void main() {\n    int i;\n    for (i = 0; i < 2; i++) {\n    }\n}\n",
        lambda u: _set(_main_stmts(u)[1], init=CallStmt(DUMMY_SPAN, "print", [StrLit(DUMMY_SPAN, '"x"')]))),
}


@pytest.mark.parametrize("case", sorted(RETOLD_TREES))
def test_a_tree_the_text_retells_scores_as_the_text(case):
    rendered = render(RETOLD_TREES[case]())
    assert rendered.tokens == tokenize(str(rendered))
    assert _comparable(analyze_rendered(rendered)) == _comparable(analyze_source(str(rendered)))
