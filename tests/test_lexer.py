from __future__ import annotations

import pytest

from cogscope import lexer
from cogscope.errors import LexError
from cogscope.lexer import classify_lines, tokenize


def test_empty_input_gives_empty_sequence():
    assert tokenize("") == []


def test_minimal_statement_token_kinds():
    tokens = tokenize("a = 1;")
    assert [(t[0], t[1]) for t in tokens] == [
        ("identifier", "a"),
        ("operator-symbol", "="),
        ("integer-literal", "1"),
        ("punctuation", ";"),
    ]


def test_tokens_reproduce_source_slices(fixture_text):
    source = fixture_text("eg3.ml1")
    tokens = tokenize(source)
    for tok in tokens:
        assert source[tok[2] : tok[3]] == tok[1]
    # everything between tokens is whitespace or comments
    uncovered = []
    pos = 0
    for tok in tokens:
        uncovered.append(source[pos : tok[2]])
        pos = tok[3]
    uncovered.append(source[pos:])
    stripped = "".join(uncovered)
    assert all(ch in " \t\r\n" for ch in stripped.replace("//", "").replace("/*", "").replace("*/", ""))


def test_comments_are_skipped_but_lines_classified():
    tokens = tokenize("a = 1; // trailing\n/* block\n comment */ b = 2;\n")
    texts = [t[1] for t in tokens]
    assert "//" not in "".join(texts) and "block" not in texts
    assert [t[1] for t in tokens if t[0] == "identifier"] == ["a", "b"]


def test_tokens_are_plain_tuples_and_lexing_builds_no_span(fixture_text, monkeypatch):
    spans = []
    monkeypatch.setattr(lexer, "Span", lambda *fields: spans.append(fields))
    tokens = tokenize(fixture_text("eg3.ml1"))
    assert tokens and all(type(t) is tuple and len(t) == 6 for t in tokens)
    assert spans == []


def test_line_and_column_are_one_based():
    tokens = tokenize("a\n  b")
    assert (tokens[0][4], tokens[0][5]) == (1, 1)
    assert (tokens[1][4], tokens[1][5]) == (2, 3)


def test_lex_error_on_unknown_character():
    with pytest.raises(LexError) as err:
        tokenize("a = 1 @ 2;")
    assert err.value.span.col == 7


def test_lex_error_on_unterminated_comment():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_lex_error_on_unterminated_string():
    with pytest.raises(LexError):
        tokenize('print("oops);')


def test_keywords_are_not_identifiers():
    kinds = {t[1]: t[0] for t in tokenize("int while foo")}
    assert kinds["int"] == "keyword"
    assert kinds["while"] == "keyword"
    assert kinds["foo"] == "identifier"


def test_compound_operators_lex_as_single_tokens():
    texts = [t[1] for t in tokenize("a += 1; b ++; c <= d; e << f; g != h;")]
    for op in ("+=", "++", "<=", "<<", "!="):
        assert op in texts


# ---------- line counts ----------


def _line_info(source: str):
    return classify_lines(tokenize(source))


def test_count_lines_empty():
    assert _line_info("").loc == 0


def test_count_lines_excludes_blank_and_comment_lines():
    assert _line_info("int a;\n\n// note\na = 1;").loc == 2


def test_count_lines_counts_brace_and_signature_lines(fixture_text):
    # signature, five statements, closing brace
    assert _line_info(fixture_text("eg1.ml1")).loc == 7


def test_per_line_counts_identifiers_and_operators():
    info = _line_info("a = b + c;\nprint(x);\n")
    assert [rec.n for rec in info.lines] == [4, 2]  # a,b,c,+ then print,x


def test_eg1_identifier_multiset(fixture_text):
    tokens = tokenize(fixture_text("eg1.ml1"))
    idents = [t[1] for t in tokens if t[0] == "identifier"]
    # case-normalized fixture: one variable `square`, one `userInput`
    assert idents.count("userInput") == 4
    assert idents.count("square") == 3
    assert idents.count("userInput") >= 2 and idents.count("square") >= 2
