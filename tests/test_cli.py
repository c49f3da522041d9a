from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cogscope import shards
from cogscope.cli import main
from cogscope.generator import GeneratorConfig, generate

REPO = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "docs" / "report.schema.json").read_text())


def run_cli(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- analyze ----------


def test_analyze_eg1_reports_information_content(fixtures_dir, capsys):
    code, out, _ = run_cli(
        ["analyze", str(fixtures_dir / "eg1.ml1"), "--format", "json"], capsys
    )
    assert code == 0
    document = json.loads(out)
    assert document["program"]["metrics"]["I(L)"] == 3
    assert document["program"]["metrics"]["escim"] == 3


def test_analyze_empty_program_exits_zero(fixtures_dir, capsys):
    code, out, _ = run_cli(["analyze", str(fixtures_dir / "empty.ml1")], capsys)
    assert code == 0
    assert "escim = 0" in out
    assert "cfs = 0" in out


def test_analyze_eg3_granule_rows_show_loop_local_extrema(fixtures_dir, capsys):
    code, out, _ = run_cli(
        ["analyze", str(fixtures_dir / "eg3.ml1"), "--granules"], capsys
    )
    assert code == 0
    assert "granules:" in out
    assert "s#2 (local): icn_max=8 sicn_max=5 sicn_min=1" in out


def test_analyze_missing_file_exits_one(capsys):
    code, _, err = run_cli(["analyze", "no-such-file.ml1"], capsys)
    assert code == 1
    assert "cannot read" in err


def test_analyze_undecodable_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.ml1"
    bad.write_bytes(b"void main() {}\xff\n")
    code, out, err = run_cli(["analyze", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"{bad}: cannot decode\n"


@pytest.mark.parametrize("fmt, granules, per_function", [("text", False, 0), ("text", True, 1), ("json", False, 1)])
def test_analyze_builds_granule_rows_only_for_reports_that_show_them(
    fmt, granules, per_function, tmp_path, monkeypatch, capsys
):
    analysis_module = importlib.import_module("cogscope.analysis")
    original = analysis_module.granule_report
    calls = []
    monkeypatch.setattr(
        analysis_module, "granule_report", lambda tree, *rest: calls.append(tree) or original(tree, *rest)
    )
    path = tmp_path / "three.ml1"
    path.write_text("int f(int p) {\n  return p;\n}\nint g() {\n  return 2;\n}\nvoid main() {\n  print(f(g()));\n}\n")
    code, _, _ = run_cli(["analyze", str(path), "--format", fmt] + ["--granules"] * granules, capsys)
    assert code == 0
    assert len(calls) == 3 * per_function


def test_analyze_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.ml1"
    bad.write_text("void main(){int a = ;}")
    code, _, err = run_cli(["analyze", str(bad)], capsys)
    assert code == 1
    assert "bad.ml1:1:" in err


def _deep_program(body: str) -> str:
    return "int f(int v) {\n  return v;\n}\nvoid main() {\n  int x = 1;\n  int b[] = {0};\n" + body + "}\n"


# Each deep form as a function of n, and the offset from MAX_NESTING of the n
# at which its deepest point is exactly MAX_NESTING levels: the function body
# is level 1, and a call's argument list or an else-if's block adds one more.
NESTED_FORMS = {
    "parentheses": (lambda n: _deep_program("x = " + "1 + (" * n + "1" + ")" * n + ";\n"), -1),
    "ifs": (lambda n: _deep_program("if (x) {\n" * n + "x = 2;\n" + "}\n" * n), -1),
    "whiles around a call": (lambda n: _deep_program("while (x) {\n" * n + "f(x);\n" + "}\n" * n), -2),
    "else-if chain": (lambda n: _deep_program("if (x) {\n}" + " else if (x) {\n  x = 2;\n}" * n + "\n"), -2),
    "bare blocks": (lambda n: _deep_program("{\n" * n + "x = 2;\n" + "}\n" * n), -1),
    "single-statement bodies": (lambda n: _deep_program("while (x)\n" * n + "x = 2;\n"), -1),
    "unary operators": (lambda n: _deep_program("x = " + "- " * n + "1;\n"), -1),
    "subscripts": (lambda n: _deep_program("x = " + "b[" * n + "0" + "]" * n + ";\n"), -1),
    "calls": (lambda n: _deep_program("x = " + "f(" * n + "1" + ")" * n + ";\n"), -1),
}


@pytest.mark.parametrize("form", sorted(NESTED_FORMS))
def test_nesting_limit_is_a_located_parse_error(form, tmp_path, capsys):
    from cogscope.parser import MAX_NESTING

    program, offset = NESTED_FORMS[form]
    path = tmp_path / "deep.ml1"
    path.write_text(program(MAX_NESTING + offset))
    code, out, err = run_cli(["analyze", str(path), "--format", "json", "--granules"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["functions"]

    path.write_text(program(MAX_NESTING + offset + 1))
    code, out, err = run_cli(["analyze", str(path), "--format", "json", "--granules"], capsys)
    assert code == 1
    assert out == ""
    assert re.fullmatch(rf"{re.escape(str(path))}:\d+:\d+: nesting deeper than {MAX_NESTING} levels\n", err)


# Cut-off programs whose end the parser once read past, with a traceback.
# The end of the input is located just past its last token.
TRUNCATED = {
    "for step": ("void main() { for (i = 0; i < 8;", "1:33: unexpected end of input"),
    "switch case": ("void main() { switch (a) { case 0: { } ", "1:39: expected 'case' or 'default', found 'end of input'"),
    "expression": ("void main() {\n  int a = (1 +", "2:15: unexpected end of expression"),
}


@pytest.mark.parametrize("case", sorted(TRUNCATED))
def test_truncated_program_is_a_located_parse_error(case, tmp_path, capsys):
    source, message = TRUNCATED[case]
    path = tmp_path / "cut.ml1"
    path.write_text(source)
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert (code, out, err) == (1, "", f"{path}:{message}\n")


# Programs whose one error is a variable name, and the line that names it.
NAME_ERRORS = {
    "duplicate local": ("void main() {\n    int a;\n    int a;\n}\n",
                        "3:9: duplicate declaration of 'a' in the same scope"),
    "duplicate parameter": ("void f(int x, int x) {\n}\nvoid main() {\n}\n",
                            "1:19: duplicate declaration of 'x' in the same scope"),
    "declared builtin": ("void main() {\n  int print;\n}\n",
                         "2:7: cannot declare reserved builtin name 'print'"),
    "duplicate global": ("int g;\nint g;\nvoid main() {\n}\n",
                         "2:5: duplicate declaration of 'g' in the same scope"),
}


# Programs whose one error no other test names, and the line that names it.
LOCATED_ERRORS = {
    "block comment at the end": ("void main() {} /* x", "1:16: unterminated block comment"),
    "block comment inside": ("void main() {\n    int a = 1; /* open\n", "2:16: unterminated block comment"),
    "string literal": ('void main() {\n    print("abc);\n}\n', "2:11: unterminated string literal"),
    "second default": (
        "void main() {\n    int a = 1;\n    switch (a) {\n        default: {\n        }\n"
        "        default: {\n        }\n    }\n}\n",
        "6:9: duplicate default case",
    ),
    "call as for initializer": ("void main() {\n    for (print(1); ;) {\n    }\n}\n",
                                "2:10: for initializer must be a declaration or assignment"),
    "call as for step": ("void main() {\n    int i = 0;\n    for (; i < 3; print(i)) {\n    }\n}\n",
                         "3:19: for step must be an assignment"),
    "print in an expression": ("void main() {\n    int y = print(1);\n}\n",
                               "2:13: print cannot be used in an expression"),
    "assignment without an operator": ("void main() {\n    int a;\n    a;\n}\n",
                                       "3:6: expected assignment or call, found ';'"),
    "operator as an operand": ("void main() {\n    int a = *;\n}\n", "2:13: unexpected token '*' in expression"),
    "builtin as a function name": ("void print() {\n}\nvoid main() {\n}\n",
                                   "1:6: cannot define reserved builtin 'print'"),
    "second function of one name": ("void f() {\n}\nvoid f() {\n}\nvoid main() {\n}\n",
                                    "3:6: duplicate function 'f'"),
    "no main": ("void f() {\n}\n", "1:1: program must define exactly one function named 'main'"),
    "literal as a declared name": ("void main() {\n    int 5;\n}\n", "2:9: expected identifier, found '5'"),
    "statement cut after its target": ("void main() {\n    a", "2:5: unexpected end of statement"),
    "call cut after an argument": ("void main() {\n    print(1,", "2:13: unexpected end of expression"),
    "string as a builtin's argument": ('void main() {\n    read("s");\n}\n',
                                       "2:10: string literals are only allowed as print arguments"),
    "string as an initializer": ('void main() {\n    int a = "s";\n}\n',
                                 "2:13: string literals are only allowed as print arguments"),
    "statement at top level": ("x = 1;\nvoid main() {\n}\n", "1:1: expected declaration or function, found 'x'"),
    "name as a case label": (
        "void main() {\n    int a = 1;\n    switch (a) {\n        case a: {\n        }\n    }\n}\n",
        "4:14: case label must be an integer literal",
    ),
    "brace initializer of a scalar": ("void main() {\n    int a = {1};\n}\n",
                                      "2:13: brace initializer requires an array declarator"),
    "undeclared name": ("void main() {\n    print(b);\n}\n", "2:11: unresolved name 'b'"),
    "undefined function": ("void main() {\n    f();\n}\n", "2:5: call to undefined function 'f'"),
    "global qualifier without a global": ("void main() {\n    int x = ::x;\n}\n",
                                          "2:13: '::x' has no global declaration"),
}


@pytest.mark.parametrize("case", sorted(LOCATED_ERRORS))
def test_an_error_is_one_located_line_and_no_traceback(case, tmp_path, capsys):
    source, message = LOCATED_ERRORS[case]
    path = tmp_path / "bad.ml1"
    path.write_text(source)
    assert run_cli(["analyze", str(path)], capsys) == (1, "", f"{path}:{message}\n")


@pytest.mark.parametrize("case", sorted(NAME_ERRORS))
def test_a_variable_name_error_is_one_located_line(case, tmp_path, capsys):
    source, message = NAME_ERRORS[case]
    (tmp_path / "empty").mkdir()
    (tmp_path / "one").mkdir()
    path = tmp_path / "one" / "names.ml1"
    path.write_text(source)
    assert run_cli(["analyze", str(path)], capsys) == (1, "", f"{path}:{message}\n")
    for fmt in ([], ["--csv"]):
        _, no_rows, _ = run_cli(["corpus", str(tmp_path / "empty"), *fmt], capsys)
        assert run_cli(["corpus", str(path.parent), *fmt], capsys) == (1, no_rows, f"{path}:{message}\n")


def test_analyze_metric_filter(fixtures_dir, capsys):
    code, out, _ = run_cli(
        ["analyze", str(fixtures_dir / "eg1.ml1"), "--format", "json", "--metric", "escim"],
        capsys,
    )
    assert code == 0
    metrics = json.loads(out)["program"]["metrics"]
    assert set(metrics) == {"loc", "wc", "escim"}


def test_analyze_json_is_byte_stable(fixtures_dir, capsys):
    args = ["analyze", str(fixtures_dir / "eg3.ml1"), "--format", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_analyze_multiple_files_emit_json_array(fixtures_dir, capsys):
    code, out, _ = run_cli(
        [
            "analyze",
            str(fixtures_dir / "eg1.ml1"),
            str(fixtures_dir / "esciu.ml1"),
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    documents = json.loads(out)
    assert [d["input_file"].rsplit("/", 1)[-1] for d in documents] == [
        "eg1.ml1",
        "esciu.ml1",
    ]


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["analyze"])  # missing path
    assert err.value.code == 2


def _validate(instance, schema, path="$"):
    """Small structural validator for the shipped report schema."""
    if "const" in schema:
        assert instance == schema["const"], path
        return
    kind = schema.get("type")
    if "enum" in schema:
        assert instance in schema["enum"], path
        return
    if kind == "object":
        assert isinstance(instance, dict), path
        for key in schema.get("required", []):
            assert key in instance, f"{path}.{key} missing"
        properties = schema.get("properties", {})
        if not schema.get("additionalProperties", True):
            assert set(instance) <= set(properties), f"{path} extra keys {set(instance) - set(properties)}"
        for key, sub in properties.items():
            if key in instance:
                _validate(instance[key], _deref(sub), f"{path}.{key}")
    elif kind == "array":
        assert isinstance(instance, list), path
        for i, item in enumerate(instance):
            _validate(item, _deref(schema["items"]), f"{path}[{i}]")
    elif kind == "integer":
        assert isinstance(instance, int) and not isinstance(instance, bool), path
        if "minimum" in schema:
            assert instance >= schema["minimum"], path
    elif kind == "number":
        assert isinstance(instance, (int, float)), path
    elif kind == "string":
        assert isinstance(instance, str), path


def _deref(schema):
    if "$ref" in schema:
        name = schema["$ref"].rsplit("/", 1)[-1]
        return SCHEMA["definitions"][name]
    return schema


def test_json_reports_validate_against_schema(fixtures_dir, capsys):
    for name in ("eg1.ml1", "eg2.ml1", "eg3.ml1", "empty.ml1", "esciu.ml1"):
        _, out, _ = run_cli(
            ["analyze", str(fixtures_dir / name), "--format", "json"], capsys
        )
        _validate(json.loads(out), SCHEMA)


# ---------- corpus ----------


def test_corpus_csv_columns(fixtures_dir, capsys):
    code, out, _ = run_cli(["corpus", str(fixtures_dir), "--csv"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert header == "path,loc,wc,cfs,cicm,mccm,cpcm,scim_icn,escim,efficiency_e"
    assert len(out.splitlines()) == 1 + 8  # eight fixtures


def test_corpus_empty_directory(tmp_path, capsys):
    code, out, _ = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 0


def test_corpus_ranks_by_efficiency(fixtures_dir, capsys):
    _, out, _ = run_cli(["corpus", str(fixtures_dir)], capsys)
    ranked = [line for line in out.splitlines() if line.strip().startswith(("1.", "2."))]
    assert "eg3.ml1" in ranked[0]  # densest fixture


def test_corpus_bad_file_exits_one(tmp_path, capsys):
    (tmp_path / "good.ml1").write_text("void main(){int a; a = 1;}")
    (tmp_path / "bad.ml1").write_text("void main(){")
    code, out, err = run_cli(["corpus", str(tmp_path)], capsys)
    assert code == 1
    assert "bad.ml1" in err
    assert "good.ml1" in out


def test_corpus_undecodable_file_exits_one(tmp_path, capsys):
    (tmp_path / "good.ml1").write_text("void main(){int a; a = 1;}")
    (tmp_path / "bad.ml1").write_bytes(b"void main() {}\xff\n")
    code, out, err = run_cli(["corpus", str(tmp_path), "--csv"], capsys)
    assert code == 1
    assert err == f"{tmp_path / 'bad.ml1'}: cannot decode\n"
    assert "good.ml1" in out
    assert "bad.ml1" not in out


def test_corpus_unreadable_file_is_named_and_the_other_rows_stay(tmp_path, capsys):
    for name in ("a.ml1", "c.ml1"):
        (tmp_path / name).write_text("void main(){int a; a = 1;}")
    _, expected, _ = run_cli(["corpus", str(tmp_path), "--csv"], capsys)
    (tmp_path / "b.ml1").mkdir()  # matches *.ml1 but cannot be read
    code, out, err = run_cli(["corpus", str(tmp_path), "--csv"], capsys)
    assert code == 1
    assert out == expected
    assert err.startswith(f"{tmp_path / 'b.ml1'}: cannot read: ")
    assert err.count("\n") == 1


def test_corpus_missing_directory_exits_two(capsys):
    code, _, err = run_cli(["corpus", "definitely-not-here"], capsys)
    assert code == 2


def test_corpus_of_equivalent_pair_scores_differently(fixtures_dir, tmp_path, capsys):
    # same input/output behavior, different complexity
    for name in ("p4_loop.ml1", "p4_formula.ml1"):
        (tmp_path / name).write_text((fixtures_dir / name).read_text())
    code, out, _ = run_cli(["corpus", str(tmp_path), "--csv"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    escim_values = {row.split(",")[8] for row in rows}
    assert len(escim_values) == 2


# ---------- weyuker ----------


def test_weyuker_escim_row_all_satisfied(capsys):
    code, out, _ = run_cli(
        ["weyuker", "--seed", "1", "--trials", "60", "--metrics", "escim"], capsys
    )
    assert code == 0
    marks = [line.split()[-1] for line in out.splitlines() if line[:1].isdigit() or line[:2] in ("6a", "6b")]
    assert marks == ["/"] * 10


def test_weyuker_loc_expectations_matched(capsys):
    code, out, _ = run_cli(
        ["weyuker", "--seed", "1", "--trials", "60", "--metrics", "loc"], capsys
    )
    assert code == 0
    assert "loc: matches expected conformance" in out


def test_weyuker_unknown_metric_exits_two(capsys):
    code, _, err = run_cli(["weyuker", "--metrics", "bogus"], capsys)
    assert code == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("metrics", [",", "", " , ", "escim,escim", "loc,escim,loc"])
def test_weyuker_empty_or_repeated_metrics_exit_two(metrics, fmt, capsys):
    code, out, err = run_cli(["weyuker", "--trials", "20", "--metrics", metrics, "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert "--metrics" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_weyuker_nonpositive_trials_is_a_usage_error(trials, capsys):
    with pytest.raises(SystemExit) as err:
        main(["weyuker", "--trials", trials])
    assert err.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_weyuker_same_seed_byte_identical(capsys):
    args = ["weyuker", "--seed", "3", "--trials", "40", "--metrics", "escim,loc"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_weyuker_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("COGSCOPE_SEED", "17")
    _, out, _ = run_cli(["weyuker", "--trials", "20", "--metrics", "escim"], capsys)
    assert "seed=17" in out


def test_weyuker_env_seed_that_is_not_an_integer_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("COGSCOPE_SEED", "abc")
    code, out, err = run_cli(["weyuker", "--trials", "20", "--metrics", "escim"], capsys)
    assert code == 2
    assert out == ""
    assert err == "COGSCOPE_SEED must be an integer, got 'abc'\n"
    # --seed wins, and the variable is not read
    code, out, _ = run_cli(["weyuker", "--seed", "3", "--trials", "20", "--metrics", "escim"], capsys)
    assert code == 0
    assert "seed=3" in out


def test_weyuker_writes_witness_files(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "weyuker",
            "--seed",
            "1",
            "--trials",
            "20",
            "--metrics",
            "escim",
            "--witness-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    witnesses = sorted(p.name for p in tmp_path.glob("*.ml1"))
    assert any(name.startswith("p7_escim") for name in witnesses)
    for path in tmp_path.glob("*.ml1"):
        from cogscope.parser import parse_source

        parse_source(path.read_text())  # every witness re-parses


def test_weyuker_witness_dir_that_cannot_be_made_exits_two(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    args = ["weyuker", "--trials", "5", "--metrics", "escim", "--witness-dir", str(afile)]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith(f"{afile}: cannot write witnesses: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""


def test_weyuker_json_format(capsys):
    code, out, _ = run_cli(
        ["weyuker", "--seed", "1", "--trials", "20", "--metrics", "escim", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["escim"]["5"]["status"] == "satisfied"
    assert payload["matches_expected"]["escim"] is True


# ---------- sharded runs ----------


def _on_cpus(monkeypatch, count: int) -> None:
    """Let weyuker and corpus use `count` processes, whatever this host has."""
    monkeypatch.setattr(shards, "usable_cpus", lambda: count)


@pytest.mark.parametrize("trials, fmt", [("200", "json"), ("101", "text")])
def test_weyuker_output_is_the_same_on_one_or_two_processes(trials, fmt, tmp_path, monkeypatch, capsys):
    # 101 trials split unevenly, and the last trial wraps to pool[0] in the second shard
    runs = []
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        assert len(shards.plan(int(trials), shards.MAX_JOBS)) == cpus
        witness_dir = tmp_path / str(cpus)
        args = ["weyuker", "--seed", "1", "--trials", trials, "--metrics", "escim,loc,mccm,cpcm",
                "--format", fmt, "--witness-dir", str(witness_dir)]
        code, out, err = run_cli(args, capsys)
        runs.append((code, out, err, {p.name: p.read_text() for p in witness_dir.iterdir()}))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert runs[0][3]


@pytest.mark.parametrize("csv", [[], ["--csv"]], ids=["text", "csv"])
def test_corpus_output_is_the_same_on_one_or_two_processes(csv, tmp_path, monkeypatch, capsys):
    for index in range(34):
        (tmp_path / f"p{index:02d}.ml1").write_text(generate(GeneratorConfig(seed=index)))
    # sorted first and last, so each shard has a failure
    (tmp_path / "a_lex_error.ml1").write_text("void main() { int a = 1 @ 2; }")
    (tmp_path / "z_undecodable.ml1").write_bytes(b"void main() {}\xff\n")
    runs = []
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        assert len(shards.plan(36, shards.MAX_JOBS)) == cpus
        runs.append(run_cli(["corpus", str(tmp_path), *csv], capsys))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 1
    assert err.splitlines() == [
        f"{tmp_path / 'a_lex_error.ml1'}:1:25: unrecognizable character '@'",
        f"{tmp_path / 'z_undecodable.ml1'}: cannot decode",
    ]
    assert out.count("p33.ml1") == (1 if csv else 2)


# ---------- byte stability ----------

# sha256 of stdout, pinned so that a refactor which changes any output byte
# fails here.  Paths are given relative to the repository root, as they
# appear in the report's input_file.
ANALYZE_JSON_SHA256 = {
    "eg1.ml1": "cfccc4cc278a9c75a2cfc141b7618dc8393b692c247f9dc7246ca19a58da37e9",
    "eg2.ml1": "74c8e880c7ec31845dcd1b6cb072b50116f2432ee9db8fee2835516377b9a1a4",
    "eg3.ml1": "5d78347f9712828b93a19d2e088911980d06cdd03d88be50d23bdb528cb3ebfe",
    "eg4.ml1": "ace68d66525dc4837e9e3247d274bded110c850db9901def054b2121634b5729",
    "empty.ml1": "56830e6ecf257978e0c3e9ec5f76ffc783385386847e0ae4958ede037c9376e1",
    "esciu.ml1": "21ed4bf3dec94ae53044c8f0826809117a43d368d14bf2617e507d2a4b899020",
    "p4_formula.ml1": "5eb62f2d144b9cdfce425e9cf5028aff8e33e973d5676ee8f00c7d4d9b77ba45",
    "p4_loop.ml1": "05ed0e51e722d58e712fdf563f6f9789de08aa446969843be17a348eb55241da",
}
WEYUKER_200_SHA256 = "aa8cbb01102b4f7a8b7ae1a948de0409a97ba56389687d842ec658889cfcf3b9"
# `weyuker --seed 1 --trials 200` with the default seven metrics, per format.
WEYUKER_DEFAULT_200_SHA256 = {
    "json": "dfa885d2c769923a300e29fb96fdae3266976b0beae3d307c934c78c5f00311a",
    "text": "a1be9db16c111ae24ebcc00da866fdeac7cdf1a2f0e18382d3c7ecef30ccf8d5",
}
# The text and corpus reports, run from the repository root.
REPORT_SHA256 = {
    "analyze tests/fixtures/eg3.ml1 --granules": "6bcb81de22abaa1422c9fc8a683227fba0189ef2eb113ed5744643bc73a9eacf",
    "corpus tests/fixtures": "c17f73aa790295a0455a9425f4dbb6653a662d5e349cce876eefdfbea6679fef",
    "corpus tests/fixtures --csv": "160fccfa29b0d73e15e30e332eed3a17bf7a7996a36e5f585cb2e59f4273f69c",
}


def _stdout_sha256(args: list[str], capsys) -> str:
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ANALYZE_JSON_SHA256))
def test_analyze_json_bytes_are_pinned(name, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    args = ["analyze", f"tests/fixtures/{name}", "--format", "json"]
    assert _stdout_sha256(args, capsys) == ANALYZE_JSON_SHA256[name]


@pytest.mark.parametrize("command", sorted(REPORT_SHA256))
def test_text_and_corpus_bytes_are_pinned(command, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    assert _stdout_sha256(command.split(), capsys) == REPORT_SHA256[command]


def test_weyuker_json_bytes_are_pinned(capsys):
    args = ["weyuker", "--seed", "1", "--trials", "200",
            "--metrics", "escim,loc,mccm,cpcm", "--format", "json"]
    assert _stdout_sha256(args, capsys) == WEYUKER_200_SHA256


@pytest.mark.parametrize("fmt", sorted(WEYUKER_DEFAULT_200_SHA256))
def test_weyuker_default_metric_bytes_are_pinned(fmt, capsys):
    args = ["weyuker", "--seed", "1", "--trials", "200", "--format", fmt]
    assert _stdout_sha256(args, capsys) == WEYUKER_DEFAULT_200_SHA256[fmt]


# ---------- installed entry point ----------


def test_module_invocation_works(fixtures_dir):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "cogscope.cli", "analyze", str(fixtures_dir / "esciu.ml1")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "escim = 1" in proc.stdout


def test_analyze_does_not_import_the_weyuker_stack(fixtures_dir):
    """`analyze` and `corpus` load neither the Weyuker stack (harness,
    generator, transforms, renderer) nor the dataclasses machinery: every
    fresh interpreter would pay for them again."""
    script = (
        "import sys\n"
        "from cogscope.cli import main\n"
        f"assert main(['analyze', {str(fixtures_dir / 'eg1.ml1')!r}, '--format', 'json']) == 0\n"
        f"assert main(['corpus', {str(fixtures_dir)!r}, '--csv']) == 0\n"
        "unused = ('dataclasses', 'inspect', 'cogscope.render', 'cogscope.transforms',\n"
        "          'cogscope.generator', 'cogscope.weyuker')\n"
        "sys.stderr.write(repr([name for name in unused if name in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]"
