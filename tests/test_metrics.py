from __future__ import annotations

import pytest

from cogscope.analysis import analyze_source, metric_value
from cogscope.errors import UndefinedEfficiencyError
from cogscope.generator import GeneratorConfig, generate
from cogscope.metrics import cfs, cpcm, efficiency, mccm, wics_cicm
from cogscope.parser import parse_source
from cogscope.resolve import IoClassification, Symbol


def _io(inputs=0, outputs=0, s_io=0, n_ops=0, n_operands=0):
    def syms(n, offset):
        return frozenset(Symbol(offset + i, f"x{offset + i}", "local") for i in range(n))

    return IoClassification(
        inputs=syms(inputs, 0),
        outputs=syms(outputs, 100),
        s_io=s_io,
        n_operators=n_ops,
        n_operands=n_operands,
        line_counts=(),
        loc=0,
    )


# ---------- formula-level checks ----------


def test_cfs_zero_io_annihilates():
    assert cfs(_io(), wc=17) == 0


def test_cfs_formula():
    assert cfs(_io(inputs=1, outputs=1), wc=5) == 10


def test_wics_single_line():
    wics, cicm = wics_cicm((2,), wc=1)
    assert wics == pytest.approx(2.0, rel=1e-12)
    assert cicm == pytest.approx(2.0, rel=1e-12)


def test_wics_all_zero_lines():
    wics, _ = wics_cicm((0, 0, 0), wc=3)
    assert wics == 0.0


def test_wics_two_lines():
    wics, cicm = wics_cicm((1, 3), wc=2)
    assert wics == pytest.approx(0.5 + 3.0, rel=1e-12)
    assert cicm == pytest.approx(7.0, rel=1e-12)


def test_wics_empty_program():
    assert wics_cicm((), wc=0) == (0.0, 0.0)


def test_mccm_formula():
    assert mccm(_io(n_ops=1, n_operands=3), wc=1) == 4
    assert mccm(_io(), wc=9) == 0


def test_cpcm_formula():
    assert cpcm(_io(), wc=1) == 1
    assert cpcm(_io(s_io=4), wc=1) == 5


def test_efficiency():
    assert efficiency(1, 2) == pytest.approx(0.5)
    assert efficiency(0, 7) == 0.0
    with pytest.raises(UndefinedEfficiencyError):
        efficiency(3, 0)


# ---------- program-level checks ----------


def test_esciu_identity(fixture_text):
    analysis = analyze_source(fixture_text("esciu.ml1"))
    assert analysis.program.escim == 1


def test_empty_main_scores_zero(fixture_text):
    analysis = analyze_source(fixture_text("empty.ml1"))
    program = analysis.program
    assert program.escim == 0
    assert program.scim_icn == 0
    assert program.cfs == 0
    assert program.mccm == 0
    assert program.cpcm == 0
    assert program.cicm == 0.0
    assert program.efficiency_e == 0.0


def test_scim_single_seq_leaf():
    analysis = analyze_source("void main(){int a; a = 1;}")
    assert analysis.program.scim_icn == 1


def test_scim_zero_when_no_assignments():
    analysis = analyze_source("void main(){int a; print(a);}")
    assert analysis.program.scim_icn == 0


def test_escim_leaf_loop_weight_times_si():
    source = "void main(){int a; while(a < 9){a = 1; a = 2;}}"
    analysis = analyze_source(source)
    tree = analysis.trees["main"]
    loop = next(g for g in tree.top if g.kind == "WHILE")
    rows = {r.id: r for r in analysis.granule_rows("main")}
    # region annotations of a: read 1 (condition), writes 2 and 3 -> SI = 2
    assert rows[loop.id].si == 2
    assert rows[loop.id].contribution == 3 * 2


def test_cfs_with_loop_and_io():
    source = "void main(){int a; a = read(); while(a > 0){a = a - 1;} print(a);}"
    analysis = analyze_source(source)
    assert analysis.program.wc == 5
    assert analysis.program.cfs == 10


def test_eg1_metric_row(fixture_text):
    program = analyze_source(fixture_text("eg1.ml1")).program
    assert program.loc == 7
    assert program.wc == 1
    assert program.cfs == 2
    assert program.cpcm == 5
    assert program.escim == 3
    assert program.info_total == 3


def test_adding_print_increases_cpcm():
    base = analyze_source("void main(){int x = 1; x = 2;}").program.cpcm
    more = analyze_source("void main(){int x = 1; x = 2; print(x);}").program.cpcm
    assert more >= base + 1


def test_every_metric_nonnegative_on_generated_programs():
    for seed in range(300):
        program = analyze_source(
            generate(GeneratorConfig(seed=seed + 3_000, max_statements=9))
        ).program
        assert program.loc >= 0
        assert program.wc >= 0
        assert program.cfs >= 0
        assert program.wics >= 0.0
        assert program.cicm >= 0.0
        assert program.mccm >= 0
        assert program.cpcm >= 0
        assert program.scim_icn >= 0
        assert program.escim >= 0


def test_granule_report_flat_diagnostic(fixture_text):
    analysis = analyze_source(fixture_text("eg3.ml1"))
    rows = analysis.granule_rows("main")
    for row in rows:
        assert row.flat_weighted_si == row.weight * row.si
        assert row.si >= 0 and row.i >= 0
    by_id = {r.id: r for r in rows}
    for row in rows:
        for child in row.children:
            assert by_id[child].depth == row.depth + 1


def test_program_totals_sum_over_functions():
    source = (
        "int f(int p){p = p + 1; return p;}\n"
        "void main(){int a = 1; f(a); while(a < 3){a = a + 1;}}\n"
    )
    analysis = analyze_source(source)
    program = analysis.program
    functions = analysis.functions.values()
    assert program.escim == sum(f.escim for f in functions)
    assert program.cfs == sum(f.cfs for f in functions)
    assert program.mccm == sum(f.mccm for f in functions)
    assert program.cpcm == sum(f.cpcm for f in functions)
    assert program.wc == sum(f.wc for f in functions)


def test_escim_matches_oracle_on_mixed_program():
    from _replay import oracle_escim, replay

    source = (
        "int g0 = 1;\n"
        "int helper0(int p0){helper0(p0); return p0;}\n"
        "void main(){\n"
        "    int v0 = 2;\n"
        "    helper0(v0);\n"
        "    do { v0 += ::g0; } while (v0 < 9);\n"
        "    switch (v0) { case 1: { v0 = 1; } default: { v0++; } }\n"
        "    parallel { v0 = 3; }\n"
        "}\n"
    )
    analysis = analyze_source(source)
    oracle_unit = parse_source(source)
    assert analysis.program.escim == oracle_escim(oracle_unit, replay(oracle_unit))


def test_metric_value_of_an_unknown_metric_is_a_key_error(fixture_text):
    analysis = analyze_source(fixture_text("eg1.ml1"))
    assert metric_value(analysis, "escim") == analysis.program.escim
    with pytest.raises(KeyError, match="unknown metric 'nope'"):
        metric_value(analysis, "nope")
