from __future__ import annotations

import random

from _replay import oracle_escim, oracle_i, oracle_si, replay

from cogscope.analysis import analyze_source
from cogscope.generator import GeneratorConfig, generate
from cogscope.info import (
    annotate,
    info_content,
    name_extrema,
    scope_information,
)
from cogscope.parser import parse_source
from cogscope.resolve import resolve


def _annotated(source: str):
    resolved = resolve(parse_source(source))
    return resolved, annotate(resolved)


def test_sicn_chain_for_declare_then_assign():
    resolved, ann = _annotated("void main(){int a; a = 1;}")
    values = [(o.name, o.kind, s) for o, s in zip(resolved.occurrences, ann.sicn)]
    assert values == [("a", "declare", 1), ("a", "write", 2)]


def test_icn_starts_at_zero_and_counts_assignments():
    resolved, ann = _annotated("void main(){int a; a = 1; a = a + 1;}")
    writes = [ann.icn[i] for i, o in enumerate(resolved.occurrences) if o.kind == "write"]
    assert writes == [1, 3]
    declares = [ann.icn[i] for i, o in enumerate(resolved.occurrences) if o.kind == "declare"]
    assert declares == [0]


def test_declare_with_initializer_counts_once():
    resolved, ann = _annotated("void main(){int a = 1 + 1;}")
    assert ann.sicn == [2]  # 1 + one operator, not 2 + 1
    assert ann.icn == [2]  # 0 + 1 + one operator


def test_reads_carry_value_before_statement_effect():
    resolved, ann = _annotated("void main(){int s = 0; s = s + 1;}")
    read_index = next(i for i, o in enumerate(resolved.occurrences) if o.kind == "read")
    write_index = next(
        i for i, o in enumerate(resolved.occurrences) if o.kind == "write"
    )
    assert ann.sicn[read_index] == 1
    assert ann.sicn[write_index] == 3


def test_eg1_goldens(fixture_text):
    analysis = analyze_source(fixture_text("eg1.ml1"))
    main = analysis.unit.function("main")
    icn_ui, _, _ = name_extrema(analysis.annotations, main.span, "userInput")
    icn_sq, _, _ = name_extrema(analysis.annotations, main.span, "square")
    assert icn_ui == 1
    assert icn_sq == 2
    assert info_content(analysis.annotations, analysis.annotations.in_region(main.span)) == 3


def test_eg3_per_variable_goldens(fixture_text):
    analysis = analyze_source(fixture_text("eg3.ml1"))
    tree = analysis.trees["main"]
    first_for = tree.top[1].region
    outer_while = tree.top[2]
    inner_for = next(g for g in outer_while.children if g.kind == "FOR").region
    icn1, sicn1, _ = name_extrema(analysis.annotations, first_for, "s")
    icn2, sicn2, _ = name_extrema(analysis.annotations, inner_for, "s")
    assert (icn1, sicn1) == (3, 3)
    assert (icn2, sicn2) == (8, 5)


def test_eg3_name_symbol_divergence_witness(fixture_text):
    analysis = analyze_source(fixture_text("eg3.ml1"))
    tree = analysis.trees["main"]
    inner_for = next(
        g for g in tree.top[2].children if g.kind == "FOR"
    ).region
    icn_max, sicn_max, _ = name_extrema(analysis.annotations, inner_for, "s")
    assert icn_max != sicn_max  # the two engines must disagree here


def test_eg3_first_loop_contribution_of_s(fixture_text):
    analysis = analyze_source(fixture_text("eg3.ml1"))
    region = analysis.trees["main"].top[1].region
    _, sicn_max, sicn_min = name_extrema(analysis.annotations, region, "s")
    assert sicn_max - sicn_min == 2


def test_si_single_occurrence_contributes_zero():
    resolved, ann = _annotated("void main(){int a; int b = 1; a = b;}")
    stmt = resolved.unit.function("main").body.stmts[2]
    assert scope_information(ann, ann.in_region(stmt.span)) == 0


def test_si_declare_then_assign_is_one():
    resolved, ann = _annotated("void main(){int a; a = 1;}")
    main = resolved.unit.function("main")
    assert scope_information(ann, ann.in_region(main.span)) == 1


def test_info_content_zero_when_nothing_assigned():
    resolved, ann = _annotated("void main(){int a; print(a);}")
    main = resolved.unit.function("main")
    assert info_content(ann, ann.in_region(main.span)) == 0


def test_shadow_isolation():
    with_block = "void main(){int a = 1; {int a = 5; a = a + 1;} a = 2; print(a);}"
    without = "void main(){int a = 1; a = 2; print(a);}"
    r1, ann1 = _annotated(with_block)
    r2, ann2 = _annotated(without)
    outer1 = [
        (o.kind, ann1.sicn[i])
        for i, o in enumerate(r1.occurrences)
        if o.symbol.uid == 0
    ]
    outer2 = [(o.kind, ann2.sicn[i]) for i, o in enumerate(r2.occurrences)]
    assert outer1 == outer2


def test_renaming_leaves_annotations_unchanged(fixture_text):
    from cogscope.transforms import rename

    source = fixture_text("eg3.ml1")
    renamed = rename(source, {"s": "total", "key": "data", "i": "idx"})
    r1, ann1 = _annotated(source)
    r2, ann2 = _annotated(renamed)
    assert [a for a in ann1.icn] == [a for a in ann2.icn]
    assert [a for a in ann1.sicn] == [a for a in ann2.sicn]


def test_region_monotonicity_over_generated_programs():
    for seed in range(200):
        analysis = analyze_source(
            generate(GeneratorConfig(seed=seed + 55_000, max_statements=9))
        )
        ann = analysis.annotations
        for tree in analysis.trees.values():

            def check(granule, ancestors):
                si = scope_information(ann, ann.in_region(granule.region))
                il = info_content(ann, ann.in_region(granule.region))
                for upper in ancestors:
                    assert si <= scope_information(ann, ann.in_region(upper.region))
                    assert il <= info_content(ann, ann.in_region(upper.region))
                for child in granule.children:
                    check(child, ancestors + [granule])

            for top in tree.top:
                check(top, [])


# Every statement form, comments, nested bare blocks, multi-declarators, an
# array initializer, `::g`, and user calls in a statement and an expression.
FULL_LANGUAGE = """\
// every statement form, comments and nested bare blocks
int g = 3, h;
int table[] = {1, 2, 3};

int twice(int v) {
    return v * 2;
}

void report(int k, int xs[]) {
    print(k, xs[0]);
}

void main() {
    int a = read(), b, c[];
    /* a comment
       over two lines */
    {
        b = ::g + a;
        {
            int g = 5;
            g += ::g;
            report(g, table);
        }
    }
    for (int i = 0; i < a; i++) {
        b = b + twice(i);
        if (b > 10) {
            b -= 1;
        } else {
            b++;
        }
    }
    do {
        a--;
        { h = a % 2; }
    } while (a > 0);
    switch (b) {
        case 1: {
            a = 1;
        }
        case -2: {
            while (a < 4) {
                a = a + twice(a);
            }
        }
        default: {
            print("none");
        }
    }
    parallel {
        int p = a;
        interrupt {
            p = p * ::h;
        }
    }
    interrupt {
        report(b, table);
    }
    print(a, b);
}
"""

# The forms FULL_LANGUAGE and the generator leave out: `else if` chains and
# single-statement bodies, `for (;;)`, a `for` with an assignment for
# initializer and one whose header shadows a name, uninitialized and
# multi-declarator declarations, a switch with no default and a negative
# case, a call in a global initializer, mutual recursion and `return;`.
TERSE_FORMS = """\
int limit = start(2), unused;
int start(int n) { if (n > 0) return odd(n - 1); return n; }
int odd(int n) { if (n == 0) return 0; else if (n == 1) return 1; else if (n < 0) { n = -n; } else n = start(n - 1); return n; }
void main() { int a, b = 2, c[]; int i; for (i = 0; i < limit; i += 1) a = i; for (;;) { a--; if (a < 0) return; }
    for (int i = 0; ; i++) { int b = i; while (b > 0) b = b - ::limit; }
    switch (a) { case -1: { a = 1; } case 7: { } } do { a++; } while (a < 3); print(a, b, "done"); }
"""


def test_oracle_agreement_spot_checks(fixture_text, fixtures_dir):
    sources = {n: fixture_text(n) for n in ("eg1.ml1", "eg2.ml1", "eg3.ml1", "p4_loop.ml1")}
    sources["full language"] = FULL_LANGUAGE
    sources["terse forms"] = TERSE_FORMS
    for name, source in sources.items():
        resolved, ann = _annotated(source)
        oracle_unit = parse_source(source)
        records = replay(oracle_unit)
        engine = [
            (o.name, o.kind, o.span.start, ann.icn[i], ann.sicn[i])
            for i, o in enumerate(resolved.occurrences)
        ]
        oracle = [(r.name, r.kind, r.start, r.icn, r.sicn) for r in records]
        assert engine == oracle, name
        analysis = analyze_source(source)
        assert analysis.program.escim == oracle_escim(oracle_unit, records), name
        for tree in analysis.trees.values():
            for g in tree.walk():
                assert scope_information(ann, ann.in_region(g.region)) == oracle_si(
                    records, g.region.start, g.region.end
                )
                assert info_content(ann, ann.in_region(g.region)) == oracle_i(
                    records, g.region.start, g.region.end
                )

    # Granule rows merge each granule's own part with its children's regions,
    # so check them on every fixture and on generated programs too, among
    # them a do-while whose own part, its condition, follows its children.
    sources = {path.name: path.read_text() for path in sorted(fixtures_dir.glob("*.ml1"))}
    sources["full language"] = FULL_LANGUAGE
    sources["terse forms"] = TERSE_FORMS
    rng = random.Random(17)
    for seed in range(300):
        config = GeneratorConfig(
            seed=seed + 170_000,
            max_statements=rng.randint(3, 42),
            max_nesting_depth=rng.randint(1, 4),
            variable_pool_size=rng.randint(2, 8),
        )
        sources[f"generated {seed}"] = generate(config)
    own_part_last = 0
    for name, source in sources.items():
        records = replay(parse_source(source))
        analysis = analyze_source(source)
        for fn, tree in analysis.trees.items():
            routing = analysis.routings[fn]
            own_part_last += sum(g.kind == "REPEAT" and bool(g.children and routing[g.id]) for g in tree.walk())
            for row in analysis.granule_rows(fn):
                assert row.si == oracle_si(records, row.span_start, row.span_end), (name, row.id)
                assert row.i == oracle_i(records, row.span_start, row.span_end), (name, row.id)
    assert own_part_last > 0


def test_counters_never_fall_along_a_symbol_or_a_name(fixtures_dir):
    """SICN never falls along one symbol's occurrences, nor ICN along one
    name's, so a region's extrema are its first and last values."""
    sources = [path.read_text() for path in sorted(fixtures_dir.glob("*.ml1"))]
    sources += [FULL_LANGUAGE, TERSE_FORMS]
    rng = random.Random(10)
    for seed in range(300):
        config = GeneratorConfig(
            seed=seed + 140_000,
            max_statements=rng.randint(3, 42),
            max_nesting_depth=rng.randint(1, 4),
            variable_pool_size=rng.randint(2, 8),
        )
        sources.append(generate(config))
    for source in sources:
        resolved, ann = _annotated(source)
        last_sicn: dict[int, int] = {}
        last_icn: dict[str, int] = {}
        for occ, icn, sicn in zip(resolved.occurrences, ann.icn, ann.sicn):
            assert sicn >= last_sicn.get(occ.symbol.uid, sicn), source
            assert icn >= last_icn.get(occ.name, icn), source
            last_sicn[occ.symbol.uid] = sicn
            last_icn[occ.name] = icn


def test_name_extrema_of_a_name_absent_from_the_region_is_zero(fixture_text):
    analysis = analyze_source(fixture_text("eg1.ml1"))
    main = analysis.unit.function("main")
    assert name_extrema(analysis.annotations, main.span, "nope") == (0, 0, 0)
    assert name_extrema(analysis.annotations, main.span, "square") != (0, 0, 0)
