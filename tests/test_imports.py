"""Every name a module of the package imports is used in that module, and
every private definition is read somewhere in the package.

No linter ships with the test dependencies, so this reads each module's
syntax tree with the standard library: a name bound by ``import`` or
``from ... import`` must appear as a name somewhere else in the module.
``__init__.py`` is exempt, because its imports are the package's exports.
A private module-level function or class, or a private method other than
a dunder, must be read as a name or an attribute in some module.  A name
that a function stores must be read in that function or in a function
nested in it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scalesym"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``from m import x as y`` binds ``y``
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_package_has_modules_to_check():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = ("import numpy as np\nimport os.path\n"
              "from .phase import PhasePoint, ScalarField as Field\n"
              "def f(q):\n    return np.asarray(q), os.sep\n")
    assert unused_imports(source) == ["PhasePoint", "Field"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The private module-level functions and classes, and private methods,
    that no source reads as a name or an attribute, in definition order."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)) and _private(node.name):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [item.name for item in node.body
                            if isinstance(item, FUNCTIONS) and _private(item.name)]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined if name not in read]


def test_every_private_definition_is_read():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")]
    assert unread_private_definitions(sources) == []


def test_an_unread_private_definition_is_reported():
    module = ("def _used():\n    return 1\n"
              "def _dead():\n    return 2\n"
              "class _Box:\n"
              "    def __init__(self):\n        self._live = _used()\n"
              "    def _unread(self):\n        return self._live\n"
              "    def _read(self):\n        return 0\n")
    user = "from .a import _Box\nvalue = _Box()._read()\n"
    assert unread_private_definitions([module, user]) == ["_dead", "_unread"]


def _own_nodes(function):
    """The nodes of function's own scope: its body, without the bodies of
    the functions, lambdas and classes defined in it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _position(node):
    return getattr(node, "lineno", 0), getattr(node, "col_offset", 0)


def unread_locals(source: str) -> list[str]:
    """``function:name`` for each name a function stores and never reads,
    in source order, nested functions included; a read in a nested function
    counts, and names that start with ``_`` or are declared global or
    nonlocal are skipped."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, FUNCTIONS + (ast.Lambda,)):
            continue
        own = list(_own_nodes(function))
        shared = {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                  for name in node.names}
        stored = [node.id for node in sorted(own, key=_position)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        read = {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.target.id for node in ast.walk(function)
                 if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        name = getattr(function, "name", "<lambda>")
        found += [f"{name}:{local}" for local in dict.fromkeys(stored)
                  if local not in read | shared and not local.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_local_is_read(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []


def test_an_unread_local_is_reported():
    source = ("def f(x):\n"
              "    rng = x + 1\n"
              "    total = 0\n    total += x\n"
              "    for _, item in enumerate(x):\n        pass\n"
              "    seen = 1\n"
              "    def g():\n        kept = seen\n        return [k for k in x]\n"
              "    return g\n")
    assert unread_locals(source) == ["f:rng", "f:item", "g:kept"]
