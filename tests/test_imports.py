"""Every imported name is used.

pyflakes and ruff are not part of the toolchain, so this walks the syntax
tree with the stdlib `ast` module: a name bound by an import (at any depth
of a module) must be read somewhere in that module. The package's
`__init__.py` is exempt, since its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "guidefit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by an import in source and never read in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_walk_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from a import b as c, d\n\ndef f() -> d:\n    return os.path.join(c)\n")
    assert unused_imports(source) == [(2, "json")]


@pytest.mark.parametrize("path", [p for p in FILES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
