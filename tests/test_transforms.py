from __future__ import annotations

import random
import sys

import pytest
from _checks import same_structure
from _replay import oracle_escim, oracle_i, oracle_si, replay
from test_info import FULL_LANGUAGE, TERSE_FORMS

from cogscope.errors import ParseError
from cogscope.analysis import METRIC_IDS, analyze_rendered, analyze_source, metric_value
from cogscope.generator import GeneratorConfig, generate
from cogscope.lexer import tokenize
from cogscope.parser import parse_source
from cogscope.render import render
from cogscope.resolve import resolve
from cogscope.info import info_content, scope_information
from cogscope.transforms import concat, permute, rename
from cogscope.weyuker import WeyukerHarness, _rename_mapping


def _canon(text: str) -> str:
    return render(parse_source(text))


def _main_lines(text: str) -> list[str]:
    lines = _canon(text).splitlines()
    start = lines.index("void main() {")
    return [line.strip() for line in lines[start + 1 : -1]]


# ---------- concat ----------


def test_concat_identity_with_empty(fixture_text):
    p = "void main(){int a; a = 1;}"
    combined = concat(p, fixture_text("empty.ml1"))
    assert same_structure(parse_source(combined), parse_source(_canon(p)))


def test_concat_drops_duplicate_declaration():
    combined = concat("void main(){int a; a=1;}", "void main(){int a; a=2;}")
    assert _main_lines(combined) == ["int a;", "a = 1;", "a = 2;"]


def test_concat_keeps_initializer_as_assignment():
    combined = concat("void main(){int a = 1;}", "void main(){int a = 5; a = 6;}")
    assert _main_lines(combined) == ["int a = 1;", "a = 5;", "a = 6;"]


def test_concat_splits_multi_declarators():
    combined = concat(
        "void main(){int a = 1;}", "void main(){int a = 2, b = 3, c; b = 4;}"
    )
    assert _main_lines(combined) == ["int a = 1;", "a = 2;", "int b = 3, c;", "b = 4;"]


def test_concat_array_redeclaration_becomes_element_writes():
    combined = concat(
        "void main(){int a[] = {9};}", "void main(){int a[] = {1, 2}; print(a[0]);}"
    )
    assert _main_lines(combined) == [
        "int a[] = {9};",
        "a[0] = 1;",
        "a[1] = 2;",
        "print(a[0]);",
    ]


def test_concat_freshens_colliding_functions():
    p = "int f(int x){return x;} void main(){f(1);}"
    q = "int f(int y){return y + 1;} void main(){f(2);}"
    combined = concat(p, q)
    unit = parse_source(combined)
    names = [fn.name for fn in unit.functions]
    assert names.count("main") == 1
    assert "f" in names and "f_2" in names
    resolve(unit)  # q's call sites follow the fresh name


def test_concat_merges_globals():
    p = "int g = 1;\nvoid main(){int a; a = ::g;}"
    q = "int g = 7;\nint h = 2;\nvoid main(){int b; b = ::h;}"
    combined = concat(p, q)
    unit = parse_source(combined)
    global_names = [d.name for decl in unit.globals for d in decl.declarators]
    assert global_names == ["g", "h"]
    # the dropped duplicate runs as an assignment before q's part
    lines = _main_lines(combined)
    assert "g = 7;" in lines
    assert lines.index("g = 7;") > lines.index("a = ::g;")


def test_concat_result_reanalyzes(fixture_text):
    combined = concat(fixture_text("eg1.ml1"), fixture_text("eg3.ml1"))
    analysis = analyze_source(combined)
    assert analysis.program.escim > 0


def test_concat_monotone_for_escim_on_generated_pairs():
    values = []
    for seed in range(250):
        text = _canon(generate(GeneratorConfig(seed=seed + 9_000, max_statements=7)))
        values.append((text, analyze_source(text).program.escim))
    for i in range(len(values)):
        p, vp = values[i]
        q, vq = values[(i + 1) % len(values)]
        combined = analyze_source(concat(p, q)).program.escim
        assert combined >= max(vp, vq), f"pair {i}"


# ---------- parsed operands ----------

_FRESHEN_P = "int f(int x){return x;} void main(){f(1);}"
_FRESHEN_Q = "int f(int y){return y + 1;} void main(){f(2);}"


def _operand_pairs():
    """The input of test_concat_freshens_colliding_functions, the same program
    as both operands, then seeded generated pairs (some share a helper)."""
    yield _FRESHEN_P, _FRESHEN_Q
    yield _FRESHEN_P, _FRESHEN_P
    for seed in range(60):
        p = generate(GeneratorConfig(seed=seed + 70_000, max_statements=8))
        q = generate(GeneratorConfig(seed=seed + 80_000, max_statements=8))
        yield p, q


def test_concat_of_parsed_units_equals_concat_of_their_text():
    for p, q in _operand_pairs():
        p_unit = parse_source(p)
        q_unit = p_unit if p == q else parse_source(q)
        before = render(p_unit), render(q_unit)
        assert concat(p_unit, q_unit) == concat(*before)
        assert (render(p_unit), render(q_unit)) == before  # operands unchanged


def test_rename_of_a_parsed_unit_equals_rename_of_its_text():
    from cogscope.transforms import _collect_names

    for pair in _operand_pairs():
        for text in pair:
            unit = parse_source(text)
            before = render(unit)
            mapping = {name: f"r_{name}" for name in _collect_names(unit) - {"main"}}
            assert rename(unit, mapping) == rename(before, mapping)
            assert render(unit) == before  # operand unchanged


def _relabel_programs(fixtures_dir):
    """The fixtures, the two full-language programs and 300 generated programs."""
    yield from (path.read_text() for path in sorted(fixtures_dir.glob("*.ml1")))
    yield FULL_LANGUAGE
    yield TERSE_FORMS
    rng = random.Random(29)
    for _ in range(300):
        yield generate(GeneratorConfig(seed=rng.randrange(2**62), max_statements=rng.randint(0, 12),
                                       max_nesting_depth=rng.randint(1, 3), variable_pool_size=rng.randint(1, 6)))


def test_rename_relabels_the_identifier_tokens_of_the_layout(fixtures_dir):
    from cogscope.transforms import _collect_names, _renamed

    rng = random.Random(30)
    for text in _relabel_programs(fixtures_dir):
        laid = render(parse_source(text))
        names = sorted(_collect_names(laid.unit) - {"main"})
        targets = [f"r{i}" + "_" * rng.randrange(0, 9) for i in range(len(names))]  # shorter and longer
        rng.shuffle(targets)
        mapping = dict(zip(names, targets))
        before = list(laid.tokens)
        renamed = rename(laid, mapping)
        assert laid.tokens == before  # operand unchanged
        # the relabelled layout is render() of the renamed tree, and the layout of its text
        expected = render(_renamed(laid.unit, mapping))
        for other in (renamed, rename(laid.unit, mapping), rename(str(laid), mapping), rename(text, mapping)):
            assert str(other) == str(expected)
            assert other.tokens == expected.tokens
            assert other.unit == expected.unit  # spans included
        assert renamed.tokens == tokenize(str(renamed))
        assert renamed.unit == parse_source(str(renamed))
        # only identifier texts, and the positions after them, change
        assert len(renamed.tokens) == len(before)
        for (kind, old, *_, line, _), (new_kind, new, *_, new_line, _) in zip(before, renamed.tokens):
            assert (new_kind, new_line) == (kind, line)
            assert new == (mapping.get(old, old) if kind == "identifier" else old)


def test_rename_raises_in_order():
    bad_target, not_bijective = {"a": "while"}, {"a": "b"}
    with pytest.raises(ParseError):  # the parse error before a bad target
        rename("void main(){int a = ;}", bad_target)
    program = "void main(){int a; int b; a = b;}"
    for operand in (program, parse_source(program), render(parse_source(program))):
        with pytest.raises(ValueError, match="^invalid rename target 'while'$"):  # a bad target before a clash
            rename(operand, {**not_bijective, "b": "while"})
        with pytest.raises(ValueError, match="^cannot rename 'main'$"):
            rename(operand, {**not_bijective, "main": "other"})
        with pytest.raises(ValueError, match="bijective"):
            rename(operand, not_bijective)
    refused = parse_source("void main(){int a = 1 + 2; int b;}")
    refused.function("main").body.stmts[0].declarators[0].init.op = "**"
    with pytest.raises(ValueError, match="bijective"):  # a clash before render's refusal
        rename(refused, not_bijective)
    with pytest.raises(ValueError, match="^no canonical text reads back as "):
        rename(refused, {"a": "c"})


# ---------- rename ----------


def test_identity_mapping_is_identity(fixture_text):
    source = fixture_text("eg1.ml1")
    assert rename(source, {}) == _canon(source)


def test_eg1_renaming_preserves_all_metrics(fixture_text):
    source = fixture_text("eg1.ml1")
    renamed = rename(source, {"userInput": "x", "square": "y"})
    before = analyze_source(_canon(source))
    after = analyze_source(renamed)
    for metric in METRIC_IDS:
        assert metric_value(before, metric) == metric_value(after, metric), metric


def test_non_bijective_mapping_rejected():
    with pytest.raises(ValueError, match="bijective"):
        rename("void main(){int a; int b; a = b;}", {"a": "b"})


def test_keyword_target_rejected():
    with pytest.raises(ValueError):
        rename("void main(){int a;}", {"a": "while"})


def test_builtin_target_rejected():
    with pytest.raises(ValueError):
        rename("void main(){int a;}", {"a": "print"})


def test_renaming_main_rejected():
    with pytest.raises(ValueError, match="main"):
        rename("void main(){int a;}", {"main": "other"})


def test_random_renamings_preserve_metrics(fixtures_dir):
    import random

    rng = random.Random(4)
    from cogscope.transforms import _collect_names

    written = [path.read_text() for path in sorted(fixtures_dir.glob("*.ml1"))] + [FULL_LANGUAGE, TERSE_FORMS]
    generated = (generate(GeneratorConfig(seed=seed + 40_000, max_statements=8)) for seed in range(120))
    for text in [*generated, *written]:
        source = _canon(text)
        names = sorted(_collect_names(parse_source(source)) - {"main"})
        targets = [f"n{i}x" for i in range(len(names))]
        rng.shuffle(targets)
        mapping = dict(zip(names, targets))
        renamed = rename(source, mapping)
        before, after = analyze_source(source), analyze_source(renamed)
        for metric in METRIC_IDS:
            assert metric_value(before, metric) == metric_value(after, metric)


# ---------- permute ----------


def test_single_statement_body_unchanged():
    source = "void main(){int a = 1;}"
    assert permute(source, seed=9) == _canon(source)


def test_permutation_keeps_declarations_before_use():
    for seed in range(80):
        source = generate(GeneratorConfig(seed=seed + 60_000, max_statements=9))
        permuted = permute(source, seed=seed)
        analyze_source(permuted)  # must parse and resolve


def test_permutation_preserves_statement_multiset():
    source = "void main(){int a = 1; a = 2; print(a); a = 3;}"
    permuted = permute(source, seed=11)
    assert sorted(_main_lines(source)) == sorted(_main_lines(permuted))


def test_permute_is_deterministic():
    source = "void main(){int a = 1; a = 2; print(a); a = 3; a = 4;}"
    assert permute(source, seed=5) == permute(source, seed=5)


def test_swapping_assignments_in_one_run_keeps_whole_body_si():
    from cogscope.info import annotate, scope_information
    from cogscope.resolve import resolve as _resolve

    original = "void main(){int a; a = 1; a = a + 1;}"
    swapped = "void main(){int a; a = a + 1; a = 1;}"

    def body_si(text):
        unit = parse_source(text)
        ann = annotate(_resolve(unit))
        return scope_information(ann, ann.in_region(unit.function("main").span))

    # annotation order changes but the whole-body spread does not
    assert body_si(original) == body_si(swapped) == 3
    assert analyze_source(_canon(original)).program.escim == analyze_source(
        _canon(swapped)
    ).program.escim


# ---------- long operator chains ----------


def test_transforms_of_a_2000_term_sum_do_not_recurse_per_operator():
    terms = 2000
    assert terms > sys.getrecursionlimit()
    source = "void main() { int a = " + " + ".join(["1"] * terms) + "; }"
    unit = parse_source(source)
    # left-deep: each operator but the outermost in its own parentheses
    expr = "(" * (terms - 2) + "1" + " + 1)" * (terms - 2) + " + 1"
    outputs = render(unit), rename(unit, {"a": "b"}), concat(unit, unit)
    assert outputs == (
        f"void main() {{\n    int a = {expr};\n}}\n",
        f"void main() {{\n    int b = {expr};\n}}\n",
        f"void main() {{\n    int a = {expr};\n    a = {expr};\n}}\n",
    )
    for text in outputs:  # the canonical text reads back
        analyze_source(str(text))
    assert same_structure(unit, parse_source(source))
    assert not same_structure(unit, parse_source(source.replace("1 + 1;", "1 - 1;")))


# ---------- the replay oracle on transformed programs ----------


def _assert_oracle_agrees(program, label) -> None:
    """Criterion 6's comparison, for a program scored from its layout: the
    oracle replays the tree that the parser reads from the text."""
    analysis = analyze_rendered(program)
    oracle_unit = parse_source(str(program))
    records = replay(oracle_unit)
    engine = [
        (occ.name, occ.kind, occ.span.start, analysis.annotations.icn[i], analysis.annotations.sicn[i])
        for i, occ in enumerate(analysis.resolved.occurrences)
    ]
    assert engine == [(r.name, r.kind, r.start, r.icn, r.sicn) for r in records], label
    assert analysis.program.escim == oracle_escim(oracle_unit, records), label
    for tree in analysis.trees.values():
        for granule in tree.walk():
            start, end = granule.region.start, granule.region.end
            assert scope_information(analysis.annotations, analysis.annotations.in_region(granule.region)) == oracle_si(records, start, end), label
            assert info_content(analysis.annotations, analysis.annotations.in_region(granule.region)) == oracle_i(records, start, end), label


def test_replay_oracle_agrees_on_concat_and_rename_output():
    harness = WeyukerHarness(seed=3, trials=300)
    units = [parse_source(text) for text in harness.pool()]
    for i, unit in enumerate(units):
        _assert_oracle_agrees(concat(unit, units[(i + 1) % len(units)]), f"concat of pool {i} and {i + 1}")
        mapping = _rename_mapping(random.Random(f"rename:3:{i}"), tokenize(harness.pool()[i]))
        _assert_oracle_agrees(rename(unit, mapping), f"rename of pool {i}")
