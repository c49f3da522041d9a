from __future__ import annotations

import random

import pytest
from _checks import same_structure
from test_info import FULL_LANGUAGE, TERSE_FORMS

from cogscope.analysis import analyze_rendered, analyze_source
from cogscope.errors import DUMMY_SPAN, MiniLangError
from cogscope.generator import GeneratorConfig, generate
from cogscope.lexer import tokenize
from cogscope.parser import MAX_NESTING, parse_source
from cogscope.render import render
from cogscope.syntax import Block, CallStmt, Ident, IntLit, StrLit, Subscript, Unary, walk
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
        "unit": analysis.unit,
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


def _laid_out(rendered) -> bool:
    """Whether the renderer set the tokens and tree, rather than leaving
    them to be lexed and parsed from the text when first read."""
    return "tokens" in vars(rendered) and "unit" in vars(rendered)


def _assert_laid_out(rendered, label) -> None:
    """The tokens, the tree (spans included) and the analysis of the layout
    are those of the text."""
    assert _laid_out(rendered), label
    assert rendered.tokens == tokenize(str(rendered)), label  # the tokens each analysis counts
    assert _comparable(analyze_rendered(rendered)) == _comparable(analyze_source(str(rendered))), label


def _layout_programs():
    """The fixtures, the two full-language programs, and generated programs."""
    from conftest import FIXTURES

    for path in sorted(FIXTURES.glob("*.ml1")):
        yield path.name, path.read_text()
    yield "full language", FULL_LANGUAGE
    yield "terse forms", TERSE_FORMS
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
    assert len(programs) == 2010
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


# Trees that render writes but that the parser rejects from the text, one per
# check the parser makes on a well-formed program, and a few whose text it
# would read back as another tree or not at all.
INVALID_TREES = {
    "defined builtin": lambda: _tree(
        "void f() {\n}\n\nvoid main() {\n}\n",
        lambda u: _set(u.functions[0], name="print")),
    "missing main": lambda: _tree("void main() {\n}\n", lambda u: _set(u.functions[0], name="start")),
    "no function": lambda: _tree("int g;\n\nvoid main() {\n}\n", lambda u: u.functions.clear()),
    "duplicate main": lambda: _tree(
        "void f() {\n}\n\nvoid main() {\n}\n",
        lambda u: _set(u.functions[0], name="main")),
    "duplicate function": lambda: _tree(
        "void f() {\n}\n\nvoid g() {\n}\n\nvoid main() {\n}\n",
        lambda u: _set(u.functions[1], name="f")),
    "nested blocks": lambda: _tree(
        "void main() {\n}\n",
        lambda u: _main_stmts(u).append(_nested_blocks(MAX_NESTING))),
    "parenthesized sum": lambda: parse_source(_sum(103)),
    "string outside print": lambda: _tree(
        'void main() {\n    print("s");\n}\n',
        lambda u: _set(_main_stmts(u)[0], callee="read")),
    "brace initializer of a scalar": lambda: _tree(
        "void main() {\n    int a[] = {1};\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0], is_array=False)),
    "keyword as a name": lambda: _tree(
        "void main() {\n    int a;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0], name="while")),
    "not a name": lambda: _tree(
        "void main() {\n    int a;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0], name="a$")),
    "minus minus": lambda: _tree(
        "void main() {\n    int a = -b;\n}\n",
        lambda u: _set(_main_stmts(u)[0].declarators[0].init, operand=Unary(DUMMY_SPAN, "-", Ident(DUMMY_SPAN, "b")))),
}


def _nested_blocks(depth: int) -> Block:
    block = Block(DUMMY_SPAN, [])
    for _ in range(depth - 1):
        block = Block(DUMMY_SPAN, [block])
    return block


def _assert_same_error(rendered) -> None:
    """Analyzing the layout fails as analyzing the text does."""
    with pytest.raises(MiniLangError) as from_text:
        analyze_source(str(rendered))
    with pytest.raises(MiniLangError) as from_layout:
        analyze_rendered(rendered)
    assert type(from_layout.value) is type(from_text.value)
    assert from_layout.value.render() == from_text.value.render()
    assert from_layout.value.span == from_text.value.span


@pytest.mark.parametrize("case", sorted(INVALID_TREES))
def test_a_rejected_tree_raises_the_parsers_error(case):
    rendered = render(INVALID_TREES[case]())
    assert not _laid_out(rendered)
    _assert_same_error(rendered)


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
    rendered = render(NAME_ERROR_TREES[case]())
    assert _laid_out(rendered)
    _assert_same_error(rendered)


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
    "subscript of a negation": lambda: _tree(
        "void main() {\n    int b[] = {1};\n    int a = b[0];\n}\n",
        lambda u: _set(_main_stmts(u)[1].declarators[0], init=Subscript(
            DUMMY_SPAN, Unary(DUMMY_SPAN, "-", Ident(DUMMY_SPAN, "b")), IntLit(DUMMY_SPAN, 0)))),
    "for with a call for initializer": lambda: _tree(
        "void main() {\n    int i;\n    for (i = 0; i < 2; i++) {\n    }\n}\n",
        lambda u: _set(_main_stmts(u)[1], init=CallStmt(DUMMY_SPAN, "print", [StrLit(DUMMY_SPAN, '"x"')]))),
}


@pytest.mark.parametrize("case", sorted(RETOLD_TREES))
def test_a_tree_the_text_retells_scores_as_the_text(case):
    rendered = render(RETOLD_TREES[case]())
    assert rendered.tokens == tokenize(str(rendered))
    assert _comparable(analyze_rendered(rendered)) == _comparable(analyze_source(str(rendered)))
