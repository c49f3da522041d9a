"""Every module of the package and of the tests reads each name it imports,
and some module reads each function, class and method the package defines.

No lint tool is a dependency, so these scans stand in for the unused-import
and dead-code checks.  The first parses each module with `ast` and reports
the imported names that no expression of the module reads; a name listed in
`__all__` counts as read, since the module exports it.  The second reports
each function, class or method defined in the package whose name no module
of the package, the tests or the benchmark reads, bare or as an attribute.
Dunder names are exempt: Python calls them.  A name reached only through
`getattr` on a built string counts as unread.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cogscope").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """The names the module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, os.path\nfrom a import b, c as d\nos.sep\n__all__ = ['b']\n"
    assert unused_imports(source) == ["d"]


def test_every_imported_name_is_read():
    assert MODULES
    unused = {
        str(path.relative_to(ROOT)): names
        for path in MODULES
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def names_read(source: str) -> set[str]:
    """Every name the module loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """The functions, classes and methods the module defines whose names are not in `read`."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def test_the_scan_finds_an_unread_definition():
    source = (
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def dead(self): pass\n"
        "def helper(): pass\n"
        "def _gone(): pass\n"
        "def _by_name(): pass\n"
        "_gone = None\n"
        "A().used()\n"
        "helper\n"
        "getattr(A, '_by' + '_name')\n"
    )
    assert unread_definitions(source, names_read(source)) == ["_by_name", "_gone", "dead"]


def test_every_definition_is_read_somewhere():
    read = set().union(*(names_read(path.read_text(encoding="utf-8")) for path in READERS))
    unread = {
        str(path.relative_to(ROOT)): names
        for path in PACKAGE
        if (names := unread_definitions(path.read_text(encoding="utf-8"), read))
    }
    assert unread == {}
