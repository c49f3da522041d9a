"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole module is also part of the default pytest run.
"""

from __future__ import annotations

import hashlib
import random
import time

from _replay import oracle_escim, oracle_i, oracle_si, replay

from cogscope.analysis import analyze_source
from cogscope.cli import main
from cogscope.generator import GeneratorConfig, generate
from cogscope.granules import weight_of
from cogscope.info import info_content, name_extrema, scope_information
from cogscope.parser import parse_source


def _report(criterion: int, text: str) -> None:
    print(f"PASS: criterion {criterion} - {text}")


def test_criterion_1_eg1_golden(fixture_text):
    started = time.monotonic()
    analysis = analyze_source(fixture_text("eg1.ml1"))
    main_span = analysis.unit.function("main").span
    icn_user_input, _, _ = name_extrema(analysis.annotations, main_span, "userInput")
    icn_square, _, _ = name_extrema(analysis.annotations, main_span, "square")
    information = info_content(analysis.annotations, analysis.annotations.in_region(main_span))
    elapsed = time.monotonic() - started
    assert icn_user_input == 1
    assert icn_square == 2
    assert information == 3
    assert elapsed < 1.0
    _report(1, f"ICN(userInput)=1, ICN(square)=2, I(L)=3 in {elapsed:.3f}s")


def test_criterion_2_eg3_per_variable_golden(fixture_text):
    analysis = analyze_source(fixture_text("eg3.ml1"))
    tree = analysis.trees["main"]
    l1 = tree.top[1].region  # first for-loop granule
    outer_while = tree.top[2]
    l2 = next(g for g in outer_while.children if g.kind == "FOR").region
    icn1, sicn1, _ = name_extrema(analysis.annotations, l1, "s")
    icn2, sicn2, _ = name_extrema(analysis.annotations, l2, "s")
    assert icn1 == 3
    assert sicn1 == 3
    assert icn2 == 8
    assert sicn2 == 5
    _report(2, "ICN/SICN extrema of s over L1 and L2 are 3, 3, 8, 5 exactly")


def test_criterion_3_esciu_identity(fixture_text):
    analysis = analyze_source(fixture_text("esciu.ml1"))
    assert analysis.program.escim == 1
    _report(3, "the simplest one-assignment component scores exactly 1 ESCIU")


def test_criterion_4_weights_and_structural_weight():
    expected = {
        "SEQ": 1,
        "ITE": 2,
        "CASE": 3,
        "FOR": 3,
        "REPEAT": 3,
        "WHILE": 3,
        "CALL": 2,
        "RECURSION": 3,
        "PARALLEL": 4,
        "INTERRUPT": 4,
    }
    for kind, weight in expected.items():
        assert weight_of(kind) == weight
    nested = analyze_source("void main(){int c = 1; while(c < 2){if(c < 3){c = 1;}}}")
    loop = next(g for g in nested.trees["main"].top if g.kind == "WHILE")
    assert loop.weight * sum(ch.weight for ch in loop.children) == 6
    siblings = analyze_source(
        "void main(){for(int i = 0; i < 9; i++){i = i + 1;} while(1 < 2){int j = 1;}}"
    )
    assert siblings.program.wc == 6
    _report(4, "all ten weights match; WHILE over ITE scores 6; sibling leaf loops score 6")


WEYUKER_10000_SHA256 = "aed34d324a58d79397cbdd97b6fdb68f9097c0ba37c1935a908e530de41be3d3"


def test_criterion_5_weyuker_conformance(capsys):
    started = time.monotonic()
    code = main(
        [
            "weyuker",
            "--seed",
            "1",
            "--trials",
            "10000",
            "--metrics",
            "escim,loc,mccm,cpcm",
            "--format",
            "json",
        ]
    )
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    import json as json_module

    payload = json_module.loads(out)
    assert code == 0
    assert elapsed < 60.0
    escim_row = payload["results"]["escim"]
    for prop in ("1", "2", "3", "4", "5", "6a", "6b", "7", "8", "9"):
        assert escim_row[prop]["status"] == "satisfied", prop
    for prop in ("1", "3", "4", "6a", "6b", "7", "9"):
        assert escim_row[prop]["witness"], f"missing witness for {prop}"
    for prop in ("2", "5", "8"):
        assert escim_row[prop]["trials"] == 10000
        assert escim_row[prop]["witness"] is None  # zero counterexamples
    loc_row = payload["results"]["loc"]
    assert {p for p, r in loc_row.items() if r["status"] == "violated"} == {"6a", "6b", "7", "9"}
    for metric in ("mccm", "cpcm"):
        row = payload["results"][metric]
        assert {p for p, r in row.items() if r["status"] == "violated"} == {"6a", "6b", "7"}
    for metric in ("escim", "loc", "mccm", "cpcm"):
        assert payload["matches_expected"][metric] is True
    # the whole report, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == WEYUKER_10000_SHA256
    with capsys.disabled():
        _report(5, f"10000-trial conformance run matches all expected rows in {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(7)
    checked = 0
    for _ in range(1000):
        seed = rng.randrange(2**62)
        source = generate(GeneratorConfig(seed=seed, max_statements=9))
        analysis = analyze_source(source)
        oracle_unit = parse_source(source)
        records = replay(oracle_unit)
        engine = [
            (occ.name, occ.kind, occ.span.start, analysis.annotations.icn[i], analysis.annotations.sicn[i])
            for i, occ in enumerate(analysis.resolved.occurrences)
        ]
        oracle = [(r.name, r.kind, r.start, r.icn, r.sicn) for r in records]
        assert engine == oracle, f"annotations differ for seed {seed}"
        assert analysis.program.escim == oracle_escim(oracle_unit, records), f"escim differs for seed {seed}"
        for tree in analysis.trees.values():
            for granule in tree.walk():
                region = granule.region
                assert scope_information(analysis.annotations, analysis.annotations.in_region(region)) == oracle_si(
                    records, region.start, region.end
                ), f"SI differs for seed {seed}"
                assert info_content(analysis.annotations, analysis.annotations.in_region(region)) == oracle_i(
                    records, region.start, region.end
                ), f"I differs for seed {seed}"
        checked += 1
    assert checked == 1000
    _report(6, "replay oracle reproduces annotations, I, SI and ESCIM on 1000 programs")


def test_criterion_7_region_monotonicity():
    rng = random.Random(7001)
    violations = 0
    for _ in range(1000):
        seed = rng.randrange(2**62)
        analysis = analyze_source(generate(GeneratorConfig(seed=seed, max_statements=9)))
        ann = analysis.annotations

        def check(granule, ancestor_values):
            si = scope_information(ann, ann.in_region(granule.region))
            info = info_content(ann, ann.in_region(granule.region))
            nonlocal violations
            for ancestor_si, ancestor_i in ancestor_values:
                if si > ancestor_si or info > ancestor_i:
                    violations += 1
            for child in granule.children:
                check(child, ancestor_values + [(si, info)])

        for tree in analysis.trees.values():
            for top in tree.top:
                check(top, [])
    assert violations == 0
    _report(7, "SI and I are monotone over granule nesting on 1000 programs")


def test_criterion_8_determinism(fixtures_dir, capsys):
    for name in ("eg1.ml1", "eg2.ml1", "eg3.ml1", "empty.ml1", "esciu.ml1"):
        args = ["analyze", str(fixtures_dir / name), "--format", "json"]
        code1 = main(args)
        first = capsys.readouterr().out
        code2 = main(args)
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second, f"JSON report for {name} is not byte-stable"
    with capsys.disabled():
        _report(8, "repeated analyses produce byte-identical JSON reports")
