"""Every imported name is used, and so is every private module-level name.

pyflakes and ruff are not part of the toolchain, so this walks the syntax
tree with the stdlib `ast` module: a name bound by an import (at any depth
of a module) must be read somewhere in that module. The package's
`__init__.py` is exempt, since its imports are the public re-exports; they
must be exactly the names in `guidefit.__all__`, so a deletion cannot leave a
stale re-export behind.

A module-level name under src/guidefit/ that starts with one underscore
(a helper, constant or class) must be read somewhere in src/ outside its own
definition; tests do not count, so a helper left behind by a refactor fails.
"""

import ast
from pathlib import Path

import pytest

import guidefit

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "guidefit").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """Each name an import in tree binds (from __future__ aside), mapped to its first line."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    return imported


def unused_imports(source: str):
    """Names bound by an import in source and never read in it."""
    tree = ast.parse(source)
    imported = imported_names(tree)
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


def test_all_is_what_init_imports():
    init = ROOT / "src" / "guidefit" / "__init__.py"
    assert sorted(guidefit.__all__) == sorted(imported_names(ast.parse(init.read_text())))


def _private_defined(node):
    """Names starting with one underscore that a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(node):
    """Names a statement reads: loaded names, attribute names, names imported from a module."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def unread_private_names(sources: dict):
    """(file, name) of each private module-level name that no module-level
    statement of sources reads, other than the one that defines it."""
    defined, read = [], []
    for path, source in sources.items():
        for node in ast.parse(source).body:
            defined += [(path, name, node) for name in _private_defined(node)]
            read.append((node, _reads(node)))
    return sorted((path, name) for path, name, node in defined
                  if not any(name in names for other, names in read if other is not node))


def test_private_walk_flags_unread_and_self_only_reads():
    sources = {"a.py": "_K = 1\n_dead = 2\n\ndef _rec(n):\n    return _rec(n - 1)\n\n"
                       "def f():\n    return _K\n",
               "b.py": "from a import _used\nimport a\n\nx = a._attr\n",
               "c.py": "def _used():\n    pass\n\ndef _attr():\n    pass\n"}
    assert unread_private_names(sources) == [("a.py", "_dead"), ("a.py", "_rec")]


def test_every_private_name_is_read_in_src():
    assert unread_private_names({p.name: p.read_text() for p in SRC}) == []
