"""Every located error message the package can raise is named by a test.

No coverage tool is a dependency, so this scan stands in for a check that
each diagnostic is pinned.  It parses each module of the package with `ast`
and finds every `raise` of a `MiniLangError` subclass.  The literal parts of
the message, the text between an f-string's fields, must appear in that
order on one line of some test module; a field matches any text.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from cogscope import errors

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cogscope").glob("*.py"))
TESTS = sorted(path for path in (ROOT / "tests").glob("*.py") if path.name != Path(__file__).name)
LOCATED = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, errors.MiniLangError)}


def raised_messages(source: str) -> list[tuple[int, list[str]]]:
    """(line, literal parts of the message) of each raise of a located error."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        func, args = node.exc.func, node.exc.args
        if isinstance(func, ast.Name) and func.id in LOCATED and args:
            message = args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            found.append((node.lineno, [part.value for part in parts if isinstance(part, ast.Constant)]))
    return sorted(found)


def pattern(parts: list[str]) -> re.Pattern:
    return re.compile(".*".join(map(re.escape, parts)))


def test_the_scan_finds_each_raise_and_its_literal_parts():
    source = (
        "def f(name, tok):\n"
        "    if name:\n"
        "        raise ParseError(f'duplicate function {name!r} here', tok)\n"
        "    raise ValueError('not located')\n"
        "    raise ResolveError('unresolved', tok)\n"
    )
    assert raised_messages(source) == [(3, ["duplicate function ", " here"]), (5, ["unresolved"])]
    assert pattern(["duplicate function ", " here"]).search("3:6: duplicate function 'f' here")
    assert not pattern(["duplicate function ", " here"]).search("here: duplicate function 'f'")


def test_every_located_message_is_named_by_a_test():
    lines = [line for path in TESTS for line in path.read_text(encoding="utf-8").splitlines()]
    raised = [
        (f"{path.name}:{lineno}", parts)
        for path in PACKAGE
        for lineno, parts in raised_messages(path.read_text(encoding="utf-8"))
    ]
    assert len(raised) > 30
    unnamed = [site for site, parts in raised if not any(pattern(parts).search(line) for line in lines)]
    assert unnamed == []
