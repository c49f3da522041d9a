"""Every module of the package and of the tests reads each name it imports.

No lint tool is a dependency, so this scan stands in for the unused-import
check: it parses each module with `ast` and reports the imported names that
no expression of the module reads.  A name listed in `__all__` counts as
read, since the module exports it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "cogscope").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
