"""Static hygiene of the package source: no unused imports, no locals that
are assigned and never read, only the cocycles module imports fractions,
and staralg's float tolerances stay on its spectral block-profile path.

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


# the k x k split of the center in block_profile is the one float solver of
# staralg: tolerances and eigen- or singular-value solvers appear nowhere else in it
FLOAT_GATES = {"TOL", "EIG_GAP", "eig", "eigh", "eigvals", "eigvalsh", "svd"}
SPECTRAL = {"block_profile"}


def float_gate_references(tree: ast.AST) -> list[ast.AST]:
    """Loaded names and attributes among FLOAT_GATES under tree."""
    return [
        n
        for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in FLOAT_GATES)
        or (isinstance(n, ast.Attribute) and n.attr in FLOAT_GATES)
    ]


def stray_float_gates(tree: ast.Module) -> list[str]:
    allowed = {
        id(n)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in SPECTRAL
        for n in float_gate_references(fn)
    }
    stray = [n for n in float_gate_references(tree) if id(n) not in allowed]
    stray.sort(key=lambda n: (n.lineno, n.col_offset))
    return [f"{getattr(n, 'id', getattr(n, 'attr', ''))} (line {n.lineno})" for n in stray]


def test_tolerances_only_on_the_spectral_path():
    probe = ast.parse(
        "TOL = 1\n"
        "def block_profile():\n    return np.linalg.eigh(TOL)\n"
        "def _check_closure():\n    return np.linalg.eigvalsh(x) > TOL\n"
        "def _center():\n    return np.linalg.eig(x)\n"
    )
    assert stray_float_gates(probe) == ["eigvalsh (line 5)", "TOL (line 5)", "eig (line 7)"]
    assert stray_float_gates(ast.parse((SRC / "staralg.py").read_text(encoding="utf-8"))) == []
