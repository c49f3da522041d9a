"""Metamorphic relations of the metrics (Chen, Cheung & Yiu, "Metamorphic
testing", HKUST-CS98-01, 1998): changes to a program whose effect on the
scores is known without an oracle.

  * Blank and comment-only lines change no metric.
  * Rendering the program's tree changes only the metrics that read layout.

The inputs are the fixtures, the two full-language programs of
`test_info` and 400 generated programs.
"""

from __future__ import annotations

import random

import pytest
from test_info import FULL_LANGUAGE, TERSE_FORMS

from cogscope.analysis import analyze_rendered, analyze_source
from cogscope.generator import GeneratorConfig, generate
from cogscope.lexer import tokenize
from cogscope.parser import parse_source
from cogscope.render import render


@pytest.fixture(scope="module")
def programs(fixtures_dir) -> list[tuple[str, str]]:
    found = [(path.name, path.read_text()) for path in sorted(fixtures_dir.glob("*.ml1"))]
    found += [("full language", FULL_LANGUAGE), ("terse forms", TERSE_FORMS)]
    rng = random.Random(7)
    for seed in range(400):
        config = GeneratorConfig(
            seed=seed + 120_000,
            max_statements=rng.randint(3, 40),
            max_nesting_depth=rng.randint(1, 4),
            variable_pool_size=rng.randint(2, 8),
        )
        found.append((f"seed {seed}", generate(config)))
    return found


def _cells(analysis) -> dict:
    """The Metrics of the program and of each function, by name."""
    return {"<program>": analysis.program, **analysis.functions}


# ---------- blank and comment-only lines ----------


_FILLERS = ("", "// a comment", "/* a comment */", "/* a comment\n   over two lines */")


def _with_fillers(source: str, rng: random.Random, count: int = 4) -> str:
    """`source` with `count` filler lines, each put before a line whose first
    non-blank character starts a token, or before the first line: never
    inside a comment."""
    token_starts = {token[2] for token in tokenize(source)}
    lines = source.splitlines(keepends=True)
    places = [0]
    offset = 0
    for index, line in enumerate(lines):
        if offset + len(line) - len(line.lstrip()) in token_starts:
            places.append(index)
        offset += len(line)
    for _ in range(count):
        index = rng.choice(places)
        lines[index] = rng.choice(_FILLERS) + "\n" + lines[index]
    return "".join(lines)


def test_blank_and_comment_lines_change_no_metric(programs):
    rng = random.Random(11)
    for label, source in programs:
        padded = _with_fillers(source, rng)
        assert padded != source, label
        assert _cells(analyze_source(padded)) == _cells(analyze_source(source)), label


# ---------- rendering ----------


_LAYOUT_FREE = ("wc", "cfs", "mccm", "cpcm", "scim_icn", "escim", "info_total", "si_total")
_READS_LAYOUT = ("loc", "wics", "cicm", "efficiency_e")


def test_rendering_keeps_the_metrics_that_do_not_read_layout(programs):
    differs = set()
    for label, source in programs:
        before = _cells(analyze_source(source))
        after = _cells(analyze_rendered(render(parse_source(source))))
        assert before.keys() == after.keys(), label
        for cell, metrics in before.items():
            for field in _LAYOUT_FREE:
                assert getattr(after[cell], field) == getattr(metrics, field), (label, cell, field)
            differs.update(f for f in _READS_LAYOUT if getattr(after[cell], f) != getattr(metrics, f))
    # Each metric that reads layout is moved by rendering on some input.
    assert differs == set(_READS_LAYOUT)
