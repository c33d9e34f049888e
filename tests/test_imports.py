"""Every imported name is used, and so is every private module-level name.

pyflakes and ruff are not part of the toolchain, so this walks the syntax
tree with the stdlib `ast` module: a name bound by an import (at any depth
of a module) must be read somewhere in that module. The package's
`__init__.py` imports nothing: callers import its submodules, and every
public attribute of the package is one.

A module-level name under src/guidefit/ that starts with one underscore
(a helper, constant or class) must be read somewhere in src/ outside its own
definition; tests do not count, so a helper left behind by a refactor fails.
A public module-level name must be read the same way, or be listed with its
reason in `TEST_ENTRY_POINTS`: a function that only tests call is either an
entry point the tests are built on or dead code.

A parameter with a default must be set by some call in src/, or be listed
with its reason in `UNSET_DEFAULTS`: a default that no caller overrides is a
constant, and belongs in the body.
"""

import ast
import types
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


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_attributes_are_only_submodules():
    """No re-export layer: the package's public attributes are the submodules
    that have been imported, nothing else."""
    assert [name for name in dir(guidefit) if not name.startswith("_")
            and not (isinstance(getattr(guidefit, name), types.ModuleType)
                     and getattr(guidefit, name).__name__ == f"guidefit.{name}")] == []


def _defined(node):
    """Names other than dunders that a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("__")]


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


def unread_names(sources: dict, private: bool):
    """(file, name) of each private (or, with private False, public) module-level
    name that no module-level statement of sources reads, other than the one
    that defines it."""
    defined, read = [], []
    for path, source in sources.items():
        for node in ast.parse(source).body:
            defined += [(path, name, node) for name in _defined(node)
                        if name.startswith("_") == private]
            read.append((node, _reads(node)))
    return sorted((path, name) for path, name, node in defined
                  if not any(name in names for other, names in read if other is not node))


def test_private_walk_flags_unread_and_self_only_reads():
    sources = {"a.py": "_K = 1\n_dead = 2\n\ndef _rec(n):\n    return _rec(n - 1)\n\n"
                       "def f():\n    return _K\n",
               "b.py": "from a import _used\nimport a\n\nx = a._attr\n",
               "c.py": "def _used():\n    pass\n\ndef _attr():\n    pass\n"}
    assert unread_names(sources, private=True) == [("a.py", "_dead"), ("a.py", "_rec")]


def test_public_walk_flags_unread_and_self_only_reads():
    sources = {"a.py": "K = 1\n_k = K\n\ndef rec(n):\n    return rec(n - 1)\n\n"
                       "def helper():\n    pass\n",
               "b.py": "from a import used\n\ndef g(obj):\n    return obj.attr\n",
               "c.py": "def used():\n    pass\n\ndef attr():\n    pass\n"}
    assert unread_names(sources, private=False) == [("a.py", "helper"), ("a.py", "rec"),
                                                    ("b.py", "g")]


def test_every_private_name_is_read_in_src():
    assert unread_names({p.name: p.read_text() for p in SRC}, private=True) == []


# Public names that only tests read, each with its reason.
TEST_ENTRY_POINTS = {
    ("denoisers.py", "mixture_log_density"):
        "the density alone, which the score checks difference and the byte oracles pin",
    ("denoisers.py", "mixture_score"):
        "the score alone: the Tweedie acceptance check's reference and the byte oracles'",
    ("guidance.py", "mean_abs_weight"): "the acceptance probe's mean |omega| over the grid",
    ("trainer.py", "loss_param_grad"): "the gradient checks' loss and d loss / d params",
}


def test_every_public_name_is_read_in_src_or_exported():
    """A public name no src/ statement reads is a listed test entry point."""
    unread = unread_names({p.name: p.read_text() for p in SRC}, private=False)
    assert [key for key in unread if key not in TEST_ENTRY_POINTS] == []
    assert sorted(TEST_ENTRY_POINTS) == unread  # no stale entry


def _callee(call):
    """The name a call reaches its function by: f(...) and obj.f(...) both give "f"."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unset_defaults(sources: dict):
    """(file, function, parameter) of each parameter with a default that no call
    in sources sets: by keyword to any callee (so obj.f and a function passed
    around count), by position to a callee of the function's name (its class's
    for __init__), or through * or ** unpacking to such a callee."""
    keywords, positional, unpacked, defaults = set(), {}, set(), []
    for path, source in sources.items():
        tree = ast.parse(source)
        owner = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for f in cls.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node)
                keywords.update(k.arg for k in node.keywords if k.arg)
                starred = [isinstance(a, ast.Starred) for a in node.args]
                if any(starred) or any(k.arg is None for k in node.keywords):
                    unpacked.add(name)
                n = starred.index(True) if any(starred) else len(starred)
                positional[name] = max(positional.get(name, 0), n)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                pos = args.posonlyargs + args.args
                bound = id(node) in owner and not any(
                    getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                callee = owner[id(node)] if node.name == "__init__" else node.name
                first = len(pos) - len(args.defaults)
                defaults += [(path, node.name, a.arg, callee, i - bound)
                             for i, a in enumerate(pos[first:], first)]
                defaults += [(path, node.name, a.arg, callee, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return sorted((path, fn, arg) for path, fn, arg, callee, i in defaults
                  if arg not in keywords and callee not in unpacked
                  and (i is None or positional.get(callee, 0) <= i))


def test_default_walk_flags_unset_and_keeps_set():
    sources = {"a.py": "def f(x, k=1, pos=2, unset=3, *, kw=4):\n    pass\n\n"
                       "class C:\n    def __init__(self, a=1, b=2):\n        pass\n\n"
                       "    def m(self, p=1, q=2):\n        pass\n\n"
                       "def g(a=1, b=2):\n    pass\n",
               "b.py": "from a import C, f, g\n\nf(0, 1, 2, kw=5)\nC(1)\nC().m(1)\n"
                       "h = f\nh(0, unset=1)\ng(*[1, 2])\n"}
    assert unset_defaults(sources) == [("a.py", "__init__", "b"), ("a.py", "m", "q")]


# Parameters kept with a default that no call in src/ sets, each with its reason.
UNSET_DEFAULTS = {
    ("cli.py", "main", "argv"): "the entry point: None reads sys.argv, tests pass a list",
    ("denoisers.py", "mixture_log_density", "t"):
        "p_t at t > 0 is what mixture_score(t) is the gradient of; the reward reads t = 0",
    ("denoisers.py", "mixture_score", "t"):
        "the Tweedie acceptance check's reference at t > 0; the reward reads t = 0",
}


def test_every_defaulted_parameter_is_set_in_src():
    """A default that no src/ caller overrides is a constant in disguise."""
    unset = unset_defaults({p.name: p.read_text() for p in SRC})
    assert [key for key in unset if key not in UNSET_DEFAULTS] == []
    assert sorted(UNSET_DEFAULTS) == unset  # no stale allowlist entry
