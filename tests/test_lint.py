"""Static hygiene of the package source: no unused imports, no locals that
are assigned and never read, only the cocycles module imports fractions,
staralg's float tolerances stay on its spectral block-profile path, every
public name has a caller outside the tests and every defaulted parameter a
caller that sets it, and no module imports another's private names.

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


# ---------------------------------------------------------------------------
# the public surface is what a caller uses

# the callers besides the package itself: the benchmark and the acceptance suite
CALLERS = sorted((SRC.parents[1] / "perfbench").glob("*.py")) + [Path(__file__).with_name("test_acceptance.py")]
# public names kept with no caller, and why
UNCALLED = {
    "cocycles.coboundary": "perfbench reads its span time under this name (spans.FUNCTION_METRICS)",
    "descriptors.descriptor_to_json": "writes the descriptor documents descriptor_from_json reads, the CLI input format",
}

FOREIGN = "<foreign>"  # the type of a value from outside the package


def _annotated(node, classes):
    """The package class an annotation names, FOREIGN for a dotted name such
    as argparse.Namespace, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp):  # X | None
        named = [_annotated(side, classes) for side in (node.left, node.right) if not isinstance(side, ast.Constant)]
        return named[0] if len(named) == 1 else None
    if isinstance(node, ast.Name):
        return node.id if node.id in classes else None
    return FOREIGN if isinstance(node, ast.Attribute) else None


def _assignments(fn):
    """(target, value) of every assignment under fn, tuples paired element by element."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Tuple) and isinstance(node.value, ast.Tuple) and len(t.elts) == len(node.value.elts):
                    yield from zip(t.elts, node.value.elts)
                else:
                    yield t, node.value


class Surface:
    """The public functions, classes and methods of a package's modules, and
    the uses and calls that reach them from top-level code.

    A type is followed only as far as the code states it: annotations, self,
    constructor calls, return annotations, annotated fields and attributes
    set from annotated parameters.  A use on a value of unknown type counts
    for every function and method of that name, so the check errs towards
    finding a name used."""

    def __init__(self, package: str, modules: dict):
        self.package, self.modules = package, modules
        self.classes, self.functions, self.defs, self.names = {}, {}, {}, {}
        for mod, tree in modules.items():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.functions.setdefault(node.name, []).append(node)
                    self.defs[id(node)], self.names[id(node)] = node, f"{mod}.{node.name}"
                elif isinstance(node, ast.ClassDef):
                    self.classes[node.name], self.names[id(node)] = node, f"{mod}.{node.name}"
                    for m in node.body:
                        if isinstance(m, ast.FunctionDef):
                            self.defs[id(m)], self.names[id(m)] = m, f"{mod}.{node.name}.{m.name}"
        self.methods = {key for key, name in self.names.items() if name.count(".") == 2}
        self.public = {k: v for k, v in self.names.items() if not any(p.startswith("_") for p in v.split(".")[1:])}
        self.fields = {name: self._fields(node) for name, node in self.classes.items()}
        self.edges = {}  # def node, or None for top-level code -> the defs it uses
        self.calls = []  # (calling def node or None, the defs it may call, call node)

    def _mro(self, cls):
        out = [cls]
        for c in out:
            out += [b.id for b in self.classes[c].bases if isinstance(b, ast.Name) and b.id in self.classes]
        return out

    def _fields(self, node):
        out = {}
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                out[item.target.id] = _annotated(item.annotation, self.classes)
            elif isinstance(item, ast.FunctionDef):
                params = {a.arg: _annotated(a.annotation, self.classes) for a in item.args.args if a.annotation}
                for t, v in _assignments(item):
                    if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
                            and isinstance(v, ast.Name) and params.get(v.id)):
                        out.setdefault(t.attr, params[v.id])
        return out

    def method(self, cls, name):
        for c in self._mro(cls):
            for m in self.classes[c].body:
                if isinstance(m, ast.FunctionDef) and m.name == name:
                    return m
        return None

    def named(self, name):
        """The module-level functions and classes called name."""
        return self.functions.get(name, []) + ([self.classes[name]] if name in self.classes else [])

    def attribute(self, cls, name):
        """What name may denote on a value of type cls: the methods of cls, its
        bases and subclasses, or with cls unknown every function and method."""
        if cls is None:
            family, found = self.classes, self.named(name)
        else:
            family, found = {c for c in self.classes if cls in self._mro(c)} | set(self._mro(cls)), []
        return found + [m for c in family for m in self.classes[c].body if isinstance(m, ast.FunctionDef) and m.name == name]

    def scan(self, tree):
        """Record the uses and calls of one module or caller file."""
        _Uses(self, tree).visit(tree)

    def reached(self) -> set:
        """Ids of the defs top-level code reaches; a reached class reaches its dunder methods."""
        seen, todo = set(), list(self.edges.get(None, ()))
        while todo:
            d = todo.pop()
            if id(d) not in seen:
                seen.add(id(d))
                todo += self.edges.get(d, ())
                if isinstance(d, ast.ClassDef):
                    todo += [m for m in d.body if isinstance(m, ast.FunctionDef) and m.name.startswith("__")]
        return seen

    def unused(self) -> list[str]:
        """The public functions, classes and methods that nothing reached uses."""
        live = self.reached()
        return sorted(name for key, name in self.public.items() if key not in live)

    def unset_parameters(self) -> list[str]:
        """The defaulted parameters of reached public functions and constructors
        that no reached call passes."""
        live, passed = self.reached(), {}  # id(def) -> the parameters some call sets
        for caller, callees, call in self.calls:
            if caller is None or id(caller) in live:
                star = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
                for fn in callees:
                    params = fn.args.args[1:] if id(fn) in self.methods else fn.args.args
                    given = params if star else params[: len(call.args)]
                    passed.setdefault(id(fn), set()).update([a.arg for a in given] + [k.arg for k in call.keywords])
        out = []
        for key, fn in self.defs.items():
            if key in live and (key in self.public or fn.name == "__init__"):
                defaulted = fn.args.args[len(fn.args.args) - len(fn.args.defaults) :]
                out += [f"{self.names[key]}({a.arg})" for a in defaulted if a.arg not in passed.get(key, ())]
        return sorted(out)


class _Uses(ast.NodeVisitor):
    def __init__(self, surface, tree):
        self.s = surface
        self.aliases = {}  # local name of an imported module -> package module name, or FOREIGN
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    top = a.name.split(".")[0]
                    self.aliases[a.asname or top] = None if top == surface.package else FOREIGN
            elif isinstance(node, ast.ImportFrom):
                inside = node.level > 0 or (node.module or "").split(".")[0] == surface.package
                for a in node.names:
                    if not inside or a.name in surface.modules:
                        self.aliases[a.asname or a.name] = a.name if inside else FOREIGN
        self.scopes = []  # the local types of the enclosing functions
        self.cls = None  # the class whose body is being visited
        self.owner = None  # the package function, method or class the uses belong to

    def _use(self, defs):
        self.s.edges.setdefault(self.owner, set()).update(d for d in defs if d is not self.owner)

    def visit_ClassDef(self, node):
        outer = self.cls, self.owner
        self.cls = node.name
        if self.s.classes.get(node.name) is node:
            self.owner = node
        self.generic_visit(node)
        self.cls, self.owner = outer

    def visit_FunctionDef(self, node):
        env = {}
        for i, a in enumerate(node.args.posonlyargs + node.args.args + node.args.kwonlyargs):
            env[a.arg] = _annotated(a.annotation, self.s.classes) if a.annotation is not None else None
            if i == 0 and a.arg == "self" and self.cls in self.s.classes:
                env[a.arg] = self.cls
        outer = self.cls, self.owner
        if self.s.defs.get(id(node)) is node:
            self.owner = node
        self.scopes.append(env)
        self.cls = None
        params = set(env)
        for _ in range(3):  # a local typed from another local
            types = {}
            for t, v in _assignments(node):
                if isinstance(t, ast.Name) and t.id not in params:
                    types.setdefault(t.id, set()).add(self.type_of(v))
            env.update({n: ts.pop() if len(ts) == 1 else None for n, ts in types.items()})
        self.generic_visit(node)
        self.scopes.pop()
        self.cls, self.owner = outer

    def _bound(self, name):
        return any(name in env for env in self.scopes)

    def type_of(self, node):
        if isinstance(node, ast.Name):
            for env in reversed(self.scopes):
                if node.id in env:
                    return env[node.id]
            return FOREIGN if self.aliases.get(node.id, "") == FOREIGN else None
        if isinstance(node, ast.Call):
            defs = self._denoted(node.func)
            if defs == FOREIGN or len(defs) != 1:
                return FOREIGN if defs == FOREIGN else None
            if isinstance(defs[0], ast.ClassDef):
                return defs[0].name
            return _annotated(defs[0].returns, self.s.classes) if defs[0].returns is not None else None
        if isinstance(node, ast.Attribute):
            recv = self.type_of(node.value)
            if recv in (None, FOREIGN):
                return recv
            for c in self.s._mro(recv):
                if node.attr in self.s.fields[c]:
                    return self.s.fields[c][node.attr]
            m = self.s.method(recv, node.attr)
            return _annotated(m.returns, self.s.classes) if m is not None and m.returns is not None else None
        return None

    def _denoted(self, node):
        """The defs a name or attribute may denote, FOREIGN outside the package."""
        if isinstance(node, ast.Name):
            if self._bound(node.id):
                return []
            return FOREIGN if self.aliases.get(node.id, "") == FOREIGN else self.s.named(node.id)
        if isinstance(node, ast.Attribute):
            v = node.value
            if isinstance(v, ast.Name) and v.id in self.aliases and not self._bound(v.id):
                return FOREIGN if self.aliases[v.id] == FOREIGN else self.s.named(node.attr)
            recv = self.type_of(v)
            return FOREIGN if recv == FOREIGN else self.s.attribute(recv, node.attr)
        return []

    def visit_Name(self, node):
        found = self._denoted(node) if isinstance(node.ctx, ast.Load) else FOREIGN
        if found != FOREIGN:
            self._use(found)

    def visit_Attribute(self, node):
        found = self._denoted(node)
        if found != FOREIGN:
            self._use(found)
        self.generic_visit(node)

    def visit_Call(self, node):
        found = self._denoted(node.func)
        if found != FOREIGN:
            callees = [self.s.method(d.name, "__init__") if isinstance(d, ast.ClassDef) else d for d in found]
            self.s.calls.append((self.owner, [c for c in callees if c is not None], node))
        self.generic_visit(node)


def private_imports(modules: dict) -> list[str]:
    """Underscore names a package module imports from another package module."""
    return [
        f"{mod} imports {a.name} from {'.' * node.level}{node.module or ''}"
        for mod, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for a in node.names
        if a.name.startswith("_")
    ]


def _surface(modules: dict, package: str, callers) -> Surface:
    surface = Surface(package, modules)
    for tree in [*modules.values(), *callers]:
        surface.scan(tree)
    return surface


PACKAGE = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}


def test_public_names_have_a_caller():
    assert all(p.exists() for p in CALLERS) and CALLERS[0].parent.name == "perfbench"
    surface = _surface(PACKAGE, "twistkit", [ast.parse(p.read_text(encoding="utf-8")) for p in CALLERS])
    unused = surface.unused()
    assert [name for name in unused if name not in UNCALLED] == []
    assert sorted(UNCALLED) == [name for name in unused if name in UNCALLED]  # no stale entry
    assert surface.unset_parameters() == []


def test_no_private_imports_across_modules():
    assert private_imports(PACKAGE) == []


def test_surface_checker_catches_planted_faults():
    modules = {
        "a": ast.parse(
            "from .b import _hidden, helper\n"
            "def used(x, flag=False):\n    return helper(x)\n"
            "def orphan():\n    return used(1, flag=True)\n"
            "class Box:\n    def size(self):\n        return 0\n"
            "class Bag:\n    def __init__(self, n=0):\n        self.n = n\n    def size(self):\n        return 1\n"
        ),
        "b": ast.parse("def helper(x):\n    return x\n_hidden = 1\n"),
    }
    caller = ast.parse(
        "from pkg.a import Bag, used\n"
        "def weigh(bag: Bag):\n    return bag.size()\n"
        "used(2)\nweigh(Bag())\n"
    )
    surface = _surface(modules, "pkg", [caller])
    # Box.size shares its name with the Bag.size a typed caller uses; the call
    # that sets flag comes from orphan, which nothing reaches
    assert surface.unused() == ["a.Box", "a.Box.size", "a.orphan"]
    assert surface.unset_parameters() == ["a.Bag.__init__(n)", "a.used(flag)"]
    assert private_imports(modules) == ["a imports _hidden from .b"]
