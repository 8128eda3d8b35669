"""Every name a module of the package imports is used in that module.

No linter ships with the test dependencies, so this reads each module's
syntax tree with the standard library: a name bound by ``import`` or
``from ... import`` must appear as a name somewhere else in the module.
``__init__.py`` is exempt, because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scalesym"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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
