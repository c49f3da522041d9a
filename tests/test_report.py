"""The JSON report writer against its oracle, ``json.dumps``.

``render_json`` writes the fixed shape of ``report_document`` itself; its
bytes must be those of ``json.dumps(payload, sort_keys=True, indent=2)``
plus a newline, for one document and for the list ``analyze`` prints for
several paths.
"""

from __future__ import annotations

import copy
import gc
import json
import random
import re

import pytest

from cogscope.analysis import analyze_source
from cogscope.cli import main
from cogscope.generator import GeneratorConfig, generate
from cogscope.report import METRIC_FILTERS, render_json, report_document
from conftest import FIXTURES

FIXTURE_PATHS = sorted(FIXTURES.glob("*.ml1"))


def oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _document(path, metric_filter: str = "all") -> dict:
    return report_document(analyze_source(path.read_text(), path=str(path)), metric_filter)


@pytest.mark.parametrize("metric_filter", sorted(METRIC_FILTERS))
@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.name)
def test_fixture_reports_match_json_dumps(path, metric_filter):
    document = _document(path, metric_filter)
    assert render_json(document) == oracle(document)


def test_list_payload_matches_json_dumps():
    documents = [_document(path) for path in FIXTURE_PATHS]
    assert render_json(documents) == oracle(documents)
    assert render_json(documents[:1]) == oracle(documents[:1])
    assert render_json([]) == oracle([])


def test_multi_path_analyze_prints_the_oracle_list(capsys):
    paths = [str(FIXTURE_PATHS[0]), str(FIXTURE_PATHS[-1])]
    assert main(["analyze", *paths, "--format", "json", "--metric", "cicm"]) == 0
    expected = [_document(FIXTURE_PATHS[0], "cicm"), _document(FIXTURE_PATHS[-1], "cicm")]
    assert capsys.readouterr().out == oracle(expected)


def _several_functions(seed: int, statements: int) -> str:
    """Three generated programs as functions part0..part2, and a main that calls them."""
    parts = []
    for k in range(3):
        text = generate(GeneratorConfig(seed=seed + k, max_statements=statements, allow_globals=False))
        text = re.sub(r"\bhelper(\d+)\b", rf"helper\1_{k}", text)
        parts.append(text.replace("void main(", f"void part{k}("))
    return "\n".join(parts) + "\nvoid main() {\n    part0();\n    part1();\n    part2();\n}\n"


def _generated_programs():
    rng = random.Random(8)
    for seed in range(200):
        yield f"seed {seed}", generate(
            GeneratorConfig(
                seed=seed,
                max_statements=rng.randint(1, 60),
                max_nesting_depth=rng.randint(1, 4),
                variable_pool_size=rng.randint(2, 10),
            )
        )
    for seed in (1, 2):
        yield f"large seed {seed}", generate(
            GeneratorConfig(seed=seed, max_statements=1200, max_nesting_depth=4, variable_pool_size=12)
        )
    yield "several functions", _several_functions(20, 40)
    yield "several large functions", _several_functions(30, 1200)


def test_generated_reports_match_json_dumps():
    checked = 0
    for label, source in _generated_programs():
        analysis = analyze_source(source, path=f"{label}.ml1")
        for metric_filter in ("all", "cicm"):
            document = report_document(analysis, metric_filter)
            assert render_json(document) == oracle(document), label
        checked += 1
    assert checked >= 200


def _escaping_document() -> dict:
    document = _document(FIXTURES / "eg3.ml1")
    awkward = 'a "quoted" \\ back\x01slash\ttab \u00e9 \u2028 \U0001f600'
    document["input_file"] = awkward + ".ml1"
    document["functions"][0]["name"] = awkward
    document["functions"][0]["variables"][0]["name"] = awkward
    document["functions"][0]["granules"][0]["kind"] = awkward
    document["tool_version"] = "\x7f\x00"
    document["diagnostics"] = [awkward, ""]
    # keys whose escaped order differs from their own: '"' < '#' but '\\' > '#'
    document["program"]["metrics"] = {
        'a"': 1,
        "a#": -2,
        "é": 0.1,
        "z": float("nan"),
        "y": float("inf"),
        "x": float("-inf"),
        "w": -0.0,
        "v": 1e300,
        "u": 1e-7,
        "t": 2**70,
    }
    return document


def test_escaped_strings_and_unusual_numbers_match_json_dumps():
    document = _escaping_document()
    assert render_json(document) == oracle(document)
    assert render_json([document, document]) == oracle([document, document])


def test_empty_function_list_and_empty_granule_list():
    document = _document(FIXTURES / "eg1.ml1")
    no_granules = copy.deepcopy(document)
    no_granules["functions"][0]["granules"] = []
    no_granules["functions"][0]["variables"] = []
    no_granules["functions"][0]["metrics"] = {}
    assert render_json(no_granules) == oracle(no_granules)
    no_functions = dict(document, functions=[])
    assert render_json(no_functions) == oracle(no_functions)
    assert '"granules": [],' in render_json(_document(FIXTURES / "empty.ml1"))


def _set(path: tuple, value):
    def edit(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


GRANULE = ("functions", 0, "granules", 0)
VARIABLE = ("functions", 0, "variables", 0)

UNSUPPORTED = {
    "bool granule field": _set((*GRANULE, "si"), True),
    "float granule field": _set((*GRANULE, "weight"), 2.0),
    "str span field": _set((*GRANULE, "span", "line"), "2"),
    "tuple children": _set((*GRANULE, "children"), ()),
    "bool child": _set((*GRANULE, "children"), [False]),
    "extra granule key": _set((*GRANULE, "extra"), 1),
    "missing span key": lambda document: document["functions"][0]["granules"][0]["span"].pop("col"),
    "None variable name": _set((*VARIABLE, "name"), None),
    "bool variable count": _set((*VARIABLE, "occurrences"), True),
    "str metric": _set(("program", "metrics", "escim"), "3"),
    "bool metric": _set(("program", "metrics", "escim"), False),
    "None metric": _set(("functions", 0, "metrics", "loc"), None),
    "non-str metric key": _set(("functions", 0, "metrics"), {1: 2}),
    "list metrics": _set(("program", "metrics"), [1]),
    "path input_file": _set(("input_file",), FIXTURES / "eg3.ml1"),
    "non-str diagnostic": _set(("diagnostics",), [1]),
    "tuple functions": _set(("functions",), ()),
    "extra document key": _set(("extra",), []),
    "extra program key": _set(("program", "extra"), 1),
}


@pytest.mark.parametrize("edit", UNSUPPORTED.values(), ids=UNSUPPORTED.keys())
def test_unsupported_values_raise_type_error(edit):
    document = _document(FIXTURES / "eg3.ml1")
    edit(document)
    with pytest.raises(TypeError):
        render_json(document)


@pytest.mark.parametrize("payload", [None, (), "doc", 3, [None], [[]]], ids=repr)
def test_unsupported_payloads_raise_type_error(payload):
    with pytest.raises(TypeError):
        render_json(payload)


def test_an_analysis_and_its_report_leave_no_cyclic_garbage():
    """Reference counting frees each analysis and its report: the granule
    fold and the writer make no reference cycles."""
    sources = [(path.read_text(), str(path)) for path in FIXTURE_PATHS]

    def reports():
        for source, path in sources:
            analysis = analyze_source(source, path=path)
            render_json(report_document(analysis))

    reports()  # warm-up: lazy imports and caches
    gc.collect()
    gc.disable()
    try:
        reports()
        assert gc.collect() == 0
    finally:
        gc.enable()
