"""Static hygiene of the package source: no unused imports, no locals that
are assigned and never read, and only the cocycles module imports fractions.

A small ast pass stands in for a linter.  An import counts as used when
its bound name is loaded anywhere in the module; a local counts as read
when its name is loaded anywhere inside the function that assigns it,
nested functions and comprehensions included.  Names starting with an
underscore are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "twistkit"
MODULES = sorted(SRC.glob("*.py"))


def _loaded(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(tree: ast.Module) -> list[str]:
    used = _loaded(tree)
    # "__all__" and string annotations name things without loading them
    used |= {
        n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and not name.startswith("_"):
                    out.append(f"{name} (line {node.lineno})")
    return out


def unread_locals(tree: ast.Module) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = _loaded(fn)
        shared = {
            name
            for n in ast.walk(fn)
            if isinstance(n, (ast.Global, ast.Nonlocal))
            for name in n.names
        }
        for node in ast.walk(fn):
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) and node.value is not None else []
            )
            for t in targets:
                if (
                    isinstance(t, ast.Name)
                    and t.id not in read
                    and t.id not in shared
                    and not t.id.startswith("_")
                ):
                    out.append(f"{t.id} in {fn.name} (line {t.lineno})")
    return out


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules an import statement anywhere loads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_only_cocycles_imports_fractions():
    # cocycles is the one module that knows an angle is a rational; every
    # other module passes int64 numerators over a denominator q
    probe = ast.parse("import a.b\nfrom c.d import e\nfrom . import f\nfrom .g import h\n")
    assert imported_modules(probe) == {"a", "c"}
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    assert [name for name, tree in trees.items() if "fractions" in imported_modules(tree)] == ["cocycles.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert unread_locals(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_checker_catches_both():
    tree = ast.parse(
        "import os\nfrom x import y, z as w\n"
        "def f():\n    a = 1\n    b = 2\n    return b + y\n"
        "def g():\n    n = 0\n    def h():\n        return n\n    return h\n"
    )
    assert unused_imports(tree) == ["os (line 1)", "w (line 2)"]
    assert unread_locals(tree) == ["a in f (line 4)"]
