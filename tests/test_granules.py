from __future__ import annotations

from _checks import contains, partition_check

from cogscope.generator import GeneratorConfig, generate
from cogscope.granules import (
    WEIGHTS,
    granulate,
    structural_weight,
    weight_of,
)
from cogscope.parser import parse_source
from cogscope.resolve import resolve


def _tree(source: str, function: str = "main"):
    return granulate(resolve(parse_source(source)), function)


def test_table_weights():
    assert weight_of("SEQ") == 1
    assert weight_of("ITE") == 2
    assert weight_of("CASE") == 3
    assert weight_of("FOR") == 3
    assert weight_of("REPEAT") == 3
    assert weight_of("WHILE") == 3
    assert weight_of("CALL") == 2
    assert weight_of("RECURSION") == 3
    assert weight_of("PARALLEL") == 4
    assert weight_of("INTERRUPT") == 4
    assert len(WEIGHTS) == 10


def test_straight_line_body_is_one_seq_leaf():
    tree = _tree("void main(){int a = 1; int b = 2; a = b; print(a);}")
    assert [g.kind for g in tree.top] == ["SEQ"]
    assert tree.top[0].is_leaf
    assert structural_weight(tree) == 1


def test_eg4_is_one_seq_leaf(fixture_text):
    tree = _tree(fixture_text("eg4.ml1"))
    assert [g.kind for g in tree.top] == ["SEQ"]
    assert sum(g.is_leaf for g in tree.walk()) == 1


def test_one_nesting_layer():
    tree = _tree("void main(){int c = 1; int b = 2; int x; while(c < 2){ x=1; if(b < 3){int y=2;} x=2; }}")
    loop = tree.top[1]
    assert loop.kind == "WHILE"
    assert [g.kind for g in loop.children] == ["SEQ", "ITE", "SEQ"]
    assert loop.children[1].is_leaf


def test_structural_weight_while_containing_ite():
    tree = _tree("void main(){int c = 1; while(c < 2){ if(c < 3){ c = 1; } }}")
    loop = next(g for g in tree.top if g.kind == "WHILE")
    assert loop.weight * sum(ch.weight for ch in loop.children) == 6
    assert structural_weight(tree) == 1 + 6  # leading declaration run + loop


def test_structural_weight_sums_sibling_loops():
    tree = _tree(
        "void main(){int a = 9; for(int i=0;i<2;i++){a = 1;} while(a > 0){a = a - 1;}}"
    )
    assert structural_weight(tree) == 1 + 3 + 3


def test_eg3_granule_tree_shape(fixture_text):
    tree = _tree(fixture_text("eg3.ml1"))
    assert [g.kind for g in tree.top] == ["SEQ", "FOR", "WHILE", "FOR", "SEQ"]
    assert tree.top[1].is_leaf  # summation loop
    assert tree.top[3].is_leaf  # print loop
    outer = tree.top[2]
    assert [g.kind for g in outer.children] == ["SEQ", "WHILE", "SEQ", "FOR", "SEQ"]
    inner_while = outer.children[1]
    assert [g.kind for g in inner_while.children] == ["ITE", "SEQ"]
    inner_for = outer.children[3]
    assert [g.kind for g in inner_for.children] == ["ITE", "SEQ"]
    assert max(g.depth for g in tree.walk()) == 3


def test_user_call_forms_call_granule():
    tree = _tree("int f(int x){return x;} void main(){int a = 1; f(a); a = 2;}")
    assert [g.kind for g in tree.top] == ["SEQ", "CALL", "SEQ"]
    assert structural_weight(tree) == 1 + 2 + 1


def test_self_recursion_upgrades_to_recursion_granule():
    tree = _tree("int f(int x){f(x); return x;} void main(){f(1);}", function="f")
    assert [g.kind for g in tree.top] == ["RECURSION", "SEQ"]


def test_mutual_recursion_upgrades_both_sites():
    source = "int f(int x){return g(x);} int g(int y){return f(y);} void main(){f(1);}"
    tree_f = _tree(source, "f")
    tree_main = _tree(source, "main")
    assert tree_f.top[0].kind == "RECURSION"
    assert tree_main.top[0].kind == "CALL"  # main is not on the cycle


def test_call_inside_loop_makes_loop_internal():
    tree = _tree("int f(int x){return x;} void main(){int a = 3; while(a > 0){f(a);}}")
    loop = tree.top[1]
    assert not loop.is_leaf
    assert [g.kind for g in loop.children] == ["CALL"]
    assert structural_weight(tree) == 1 + 3 * 2


def test_bare_blocks_are_transparent():
    tree = _tree("void main(){int a = 1; {int b = 2; b = 3;} a = 2;}")
    assert [g.kind for g in tree.top] == ["SEQ"]


def test_switch_cases_decompose():
    tree = _tree(
        """void main(){int a = 1;
        switch (a) {
            case 1: { while (a > 0) { a--; } }
            default: { a = 2; }
        }}"""
    )
    case_granule = tree.top[1]
    assert case_granule.kind == "CASE"
    assert [g.kind for g in case_granule.children] == ["WHILE", "SEQ"]


def test_loop_headers_belong_to_loop_region(fixture_text):
    resolved = resolve(parse_source(fixture_text("eg3.ml1")))
    loop = resolved.unit.function("main").body.stmts[3]
    summation = granulate(resolved, "main").top[1]
    assert summation.kind == "FOR"
    # the header declaration and step must anchor inside the loop granule
    assert id(loop.init) in summation.anchor_ids
    assert id(loop.step) in summation.anchor_ids
    assert id(loop.body.stmts[0]) in summation.anchor_ids


def test_partition_and_leaf_linearity_over_generated_programs():
    for seed in range(300):
        source = generate(GeneratorConfig(seed=seed + 31_000, max_statements=10))
        resolved = resolve(parse_source(source))
        for fn in resolved.unit.functions:
            tree = granulate(resolved, fn.name)
            assert partition_check(tree, resolved), f"seed {seed} fn {fn.name}"
            assert structural_weight(tree) >= (1 if fn.body.stmts else 0)
        assert all(
            g.children or g.kind in WEIGHTS
            for fn in resolved.unit.functions
            for g in granulate(resolved, fn.name).walk()
        )


def test_weight_monotone_under_statement_insertion():
    import random

    rng = random.Random(5)
    for seed in range(150):
        source = generate(GeneratorConfig(seed=seed + 77_000, max_statements=7))
        unit = parse_source(source)
        before = structural_weight(granulate(resolve(unit), "main"))
        main = unit.function("main")
        from cogscope.errors import DUMMY_SPAN
        from cogscope.syntax import Decl, Declarator, IntLit

        extra = Decl(
            span=DUMMY_SPAN,
            declarators=[
                Declarator(
                    name="zz9",
                    name_span=DUMMY_SPAN,
                    init=IntLit(span=DUMMY_SPAN, value=1),
                )
            ],
        )
        index = rng.randrange(len(main.body.stmts) + 1)
        main.body.stmts.insert(index, extra)
        from cogscope.render import render

        after_unit = parse_source(render(unit))
        after = structural_weight(granulate(resolve(after_unit), "main"))
        assert after >= before, f"seed {seed}"


def test_renaming_leaves_weight_unchanged():
    from cogscope.transforms import rename

    source = "void main(){int a = 1; while(a > 0){if(a < 5){a = a + 1;}}}"
    renamed = rename(source, {"a": "zz"})
    w1 = structural_weight(granulate(resolve(parse_source(source)), "main"))
    w2 = structural_weight(granulate(resolve(parse_source(renamed)), "main"))
    assert w1 == w2


def test_granule_regions_nest_and_do_not_overlap(fixture_text):
    tree = _tree(fixture_text("eg3.ml1"))

    def check(granule):
        for child in granule.children:
            assert contains(granule.region, child.region)
        for left, right in zip(granule.children, granule.children[1:]):
            assert left.region.end <= right.region.start
        for child in granule.children:
            check(child)

    for top in tree.top:
        check(top)
    for left, right in zip(tree.top, tree.top[1:]):
        assert left.region.end <= right.region.start
