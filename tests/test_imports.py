"""Every module-level import of the package is used, and so is every
top-level private function; importing the package loads neither
``dataclasses`` nor ``inspect``.

No linter runs on this repository, so an import or a ``_helper`` left
behind by a refactor would go unnoticed; this reads each module with the
standard ``ast`` module instead.  ``__init__.py`` is exempt from the
import check: its imports are re-exports.
"""
from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "stratacalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_modules_are_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit(c)\n") == ["os"]


def unused_private_functions(sources: list[str]) -> list[str]:
    """Top-level ``def _name`` of any source that no source references as
    a name or an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")]
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    return [name for name in defined if name not in used]


def test_no_unused_private_function():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_functions(sources) == []


def test_an_unused_private_function_is_reported():
    assert unused_private_functions([
        "def _called():\n    pass\ndef _orphan():\n    pass\ndef public():\n    pass\n",
        "import m\ndef _attribute():\n    pass\nm._attribute()\n_called()\n",
    ]) == ["_orphan"]


@pytest.mark.parametrize("module", ["stratacalc", "stratacalc.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """Every CLI call is a new interpreter and pays for what the package
    imports; ``dataclasses`` alone pulls in ``inspect``, ``ast`` and ``dis``."""
    code = (f"import sys; bare = set(sys.modules); import {module}; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    assert module in loaded
    assert not loaded & {"dataclasses", "inspect"}
