"""Never-crash contract: mutated and small programs end as an Analysis or a MiniLangError.

A seeded, bounded mutation fuzz: generated programs have tokens truncated,
deleted, duplicated or spliced in from another program.  And a bounded
exhaustive one: every string of one or two tokens the lexer knows, in three
places of a program.  Every input must end as an ``Analysis`` (whose JSON
report must be the bytes of ``json.dumps``) or as a ``MiniLangError``
located at a line and column of at least 1; anything else fails, the
mutations with a reproducer shrunk by dropping tokens.
"""

from __future__ import annotations

import itertools
import json
import random
import re

from cogscope.analysis import analyze_source
from cogscope.errors import MiniLangError
from cogscope.generator import GeneratorConfig, generate
from cogscope.lexer import _OPERATORS, _PUNCTUATION, BUILTINS, KEYWORDS, tokenize
from cogscope.report import render_json, report_document

PROGRAMS = 300
MUTATIONS_PER_PROGRAM = 10
SHRINK_ATTEMPTS = 5000
KEPT = ("analysis", "error")

# Token-sized pieces of any text, for shrinking input the lexer may reject.
_PIECE = re.compile(r'"[^"\n]*"?|\w+|\S')


def _mutate(rng: random.Random, source: str, other: str) -> str:
    spans = [(t[2], t[3]) for t in tokenize(source)]
    start, end = rng.choice(spans)
    kind = rng.randrange(4)
    if kind == 0:  # truncate before a token
        return source[:start]
    if kind == 1:  # delete a token
        return source[:start] + source[end:]
    if kind == 2:  # duplicate a token
        return source[:end] + " " + source[start:end] + source[end:]
    other_spans = [(t[2], t[3]) for t in tokenize(other)]  # splice a run of another program's tokens
    first = rng.randrange(len(other_spans))
    last = min(len(other_spans) - 1, first + rng.randrange(8))
    run = other[other_spans[first][0] : other_spans[last][1]]
    return source[:start] + run + " " + source[start:]


def _outcome(source: str) -> str:
    """"analysis" or "error" if the input keeps the contract, else what broke it."""
    try:
        analysis = analyze_source(source, path="fuzz.ml1")
    except MiniLangError as exc:
        message = exc.render("fuzz.ml1")
        return "error" if exc.span.line >= 1 and exc.span.col >= 1 else f"not located: {message}"
    except Exception as exc:  # the contract under test: any other exception breaks it
        return f"{type(exc).__name__}: {exc}"
    try:
        document = report_document(analysis)
        same = render_json(document) == json.dumps(document, sort_keys=True, indent=2) + "\n"
    except Exception as exc:
        return f"report: {type(exc).__name__}: {exc}"
    return "analysis" if same else "render_json differs from json.dumps"


def _shrink(source: str) -> str:
    """A smaller input that still breaks the contract: drop every run of
    tokens that can go, longest runs first, within a bounded number of tries."""
    try:
        pieces = [t[1] for t in tokenize(source)]
    except MiniLangError:
        pieces = _PIECE.findall(source)
    if _outcome(" ".join(pieces)) in KEPT:  # the failure needs the original layout
        return source
    attempts = 0
    size = len(pieces) - 1
    while size >= 1 and attempts < SHRINK_ATTEMPTS:
        start = 0
        while start + size <= len(pieces) and attempts < SHRINK_ATTEMPTS:
            candidate = pieces[:start] + pieces[start + size :]
            attempts += 1
            if _outcome(" ".join(candidate)) not in KEPT:
                pieces = candidate
            else:
                start += 1
        size = min(size - 1, len(pieces) - 1)
    return " ".join(pieces)


def _inputs():
    rng = random.Random(2024)
    programs = [
        generate(
            GeneratorConfig(
                seed=rng.randrange(2**31),
                max_statements=rng.randint(1, 12),
                max_nesting_depth=rng.randint(1, 3),
                variable_pool_size=rng.randint(2, 6),
            )
        )
        for _ in range(PROGRAMS)
    ]
    for source in programs:
        for _ in range(MUTATIONS_PER_PROGRAM):
            yield _mutate(rng, source, rng.choice(programs))


def test_mutated_programs_end_as_analysis_or_located_error():
    outcomes = {"analysis": 0, "error": 0}
    for source in _inputs():
        outcome = _outcome(source)
        if outcome not in KEPT:
            raise AssertionError(f"{outcome}\nshrunk reproducer:\n{_shrink(source)}\nfull input:\n{source}")
        outcomes[outcome] += 1
    assert sum(outcomes.values()) == PROGRAMS * MUTATIONS_PER_PROGRAM
    assert outcomes["analysis"] > 0 and outcomes["error"] > 0, outcomes


# Every keyword, builtin, operator and punctuation token, two names, two
# integers and a string; and three places for a string of them in a program.
ALPHABET = (*sorted(KEYWORDS), *sorted(BUILTINS), *_OPERATORS, *_PUNCTUATION, "a", "b", "0", "7", '"s"')
WRAPPERS = (
    "void main() {{\n    int a = 1;\n    {}\n}}\n",  # after a declaration in main
    "{}\nvoid main() {{\n}}\n",  # at top level, before main
    "void main() {{ {} }}\n",  # inside an empty main
)


def test_every_string_of_at_most_two_tokens_ends_as_analysis_or_located_error():
    assert len(ALPHABET) == len(set(ALPHABET)) == 57
    strings = [*itertools.product(ALPHABET), *itertools.product(ALPHABET, repeat=2)]
    outcomes = {"analysis": 0, "error": 0}
    for wrapper in WRAPPERS:
        for tokens in strings:
            source = wrapper.format(" ".join(tokens))
            outcome = _outcome(source)
            assert outcome in KEPT, f"{outcome}\ninput:\n{source}"
            outcomes[outcome] += 1
    assert sum(outcomes.values()) == 9918
    assert outcomes["analysis"] > 0 and outcomes["error"] > 0, outcomes
