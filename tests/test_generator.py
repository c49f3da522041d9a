from __future__ import annotations

from cogscope.analysis import analyze_source
from cogscope.generator import DEFAULT_WEIGHTS, GeneratorConfig, generate
from cogscope.parser import parse_source
from cogscope.render import render
from cogscope.resolve import resolve
from cogscope.weyuker import WeyukerHarness


def test_same_seed_same_program():
    assert generate(GeneratorConfig(seed=42)) == generate(GeneratorConfig(seed=42))


def test_different_seeds_differ_somewhere():
    outputs = {generate(GeneratorConfig(seed=s)) for s in range(20)}
    assert len(outputs) > 10


def test_zero_statements_gives_empty_main():
    assert generate(GeneratorConfig(seed=1, max_statements=0)) == "void main() {\n}\n"


def test_generated_programs_parse_and_resolve():
    for seed in range(1000):
        source = generate(GeneratorConfig(seed=seed, max_statements=9))
        resolve(parse_source(source))


def test_statement_budget_is_respected():
    for seed in range(50):
        source = generate(GeneratorConfig(seed=seed, max_statements=5, allow_functions=False, allow_globals=False))
        main = parse_source(source).function("main")

        def count(stmts):
            total = 0
            for s in stmts:
                total += 1
                for value in vars(s).values():
                    if hasattr(value, "stmts"):
                        total += count(value.stmts)
                    elif isinstance(value, list):
                        for item in value:
                            if hasattr(item, "block"):
                                total += count(item.block.stmts)
            return total

        assert count(main.body.stmts) <= 5 * 3  # nested bodies stay bounded


def test_all_statement_forms_reachable():
    seen: set[str] = set()
    probes = {
        "decl": "int v",
        "array_decl": "int arr",
        "compound": "= ",
        "if": "if (",
        "while": "while (",
        "dowhile": "do {",
        "for": "for (",
        "switch": "switch (",
        "parallel": "parallel {",
        "interrupt": "interrupt {",
        "print": "print(",
        "read": "read()",
        "return": "return",
        "call": "helper0(",
        "global": "::g",
        "incdec": "++",
    }
    for seed in range(400):
        source = generate(GeneratorConfig(seed=seed, max_statements=12))
        for form, probe in probes.items():
            if probe in source:
                seen.add(form)
    assert seen == set(probes)


def test_generated_metrics_are_finite():
    for seed in range(100):
        analysis = analyze_source(generate(GeneratorConfig(seed=seed + 500)))
        assert analysis.program.escim >= 0


def test_weights_config_is_respected():
    weights = dict(DEFAULT_WEIGHTS)
    for form in weights:
        weights[form] = 0.0
    weights["assign"] = 1.0
    weights["decl"] = 1.0
    source = generate(GeneratorConfig(seed=3, max_statements=8, weights=weights, allow_functions=False, allow_globals=False))
    for token in ("if", "while", "for", "switch", "print"):
        assert token not in source


# ---------- the generator writes canonical text ----------
# The Weyuker harness takes pool programs as rendered text, and its LOC-based
# checks compare them with rendered compositions, so the generator must
# write exactly what render writes for the program it generated.


def _assert_canonical(source: str, label) -> None:
    assert str(render(parse_source(source))) == source, label


def test_weyuker_pool_programs_are_canonical_text():
    for seed in range(4):
        for i, source in enumerate(WeyukerHarness(seed=seed, trials=1000).pool()):
            _assert_canonical(source, (seed, i))


def test_generated_programs_are_canonical_text_across_configs():
    for statements in (0, 1, 4, 12, 40):
        for depth in (0, 1, 2, 4):
            for pool in (1, 3, 8):
                for flags in ((True, True), (False, False), (True, False), (False, True)):
                    for seed in range(5):
                        config = GeneratorConfig(seed=seed + 1000 * statements, max_statements=statements,
                                                 max_nesting_depth=depth, variable_pool_size=pool,
                                                 allow_globals=flags[0], allow_functions=flags[1])
                        _assert_canonical(generate(config), vars(config))


def test_large_generated_programs_are_canonical_text():
    for seed in range(3):
        config = GeneratorConfig(seed=seed, max_statements=1200, max_nesting_depth=4, variable_pool_size=12)
        _assert_canonical(generate(config), seed)
