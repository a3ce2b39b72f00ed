"""Every module-level import of the package is used, and so is every
top-level function and every method of a top-level class but a dunder: a
private one by the package, a public one by the package, the demos or the
benchmark; importing the package loads neither ``dataclasses`` nor
``inspect``.

No linter runs on this repository, so an import, a ``_helper`` or a
function that only the tests call, left behind by a refactor, would go
unnoticed; this reads each module with the standard ``ast`` module
instead.  ``__init__.py`` is exempt from the import check: its imports
are re-exports.  Importing a name is no use of it, so a re-export alone
does not keep a function in the package.
"""
from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stratacalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# public functions that nothing in the repository calls yet, with the reason
UNCALLED_PUBLIC = {
    "stats": "caches.stats: the per-memo entry counts that library-native "
             "counters are to build on",
    "error": "cli._Parser.error: argparse calls it on a usage error",
    "boundary_integral": "evaluate.Evaluator.boundary_integral: the public "
                         "Fraction view of one boundary term; the library adds "
                         "the integer pairs of _boundary_pair",
}


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


def unused_functions(sources: list[str], users: tuple[str, ...] | list[str] = (),
                     private: bool = True) -> list[str]:
    """Top-level functions and methods of top-level classes of ``sources``,
    the private ``def _name`` ones or else the public ones, that no source
    and no user references as a name or an attribute; an import alone is
    no reference, and a dunder method is exempt."""
    trees = [ast.parse(source) for source in sources]
    defs = [node for tree in trees for top in tree.body
            for node in (top.body if isinstance(top, ast.ClassDef) else [top])]
    defined = [node.name for node in defs
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") == private
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    used = set()
    for tree in [*trees, *map(ast.parse, users)]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return [name for name in defined if name not in used]


def _sources(*paths: pathlib.Path) -> list[str]:
    return [p.read_text(encoding="utf-8") for p in paths]


def test_no_unused_private_function():
    assert unused_functions(_sources(*sorted(PACKAGE.glob("*.py")))) == []


def test_an_unused_private_function_is_reported():
    assert unused_functions([
        "def _called():\n    pass\ndef _orphan():\n    pass\ndef public():\n    pass\n",
        "import m\ndef _attribute():\n    pass\nm._attribute()\n_called()\n",
    ]) == ["_orphan"]


def test_no_public_function_is_used_by_the_tests_alone():
    """A function that only the tests call belongs with them (as the
    oracles in ``tests/oracles.py`` do)."""
    users = _sources(*sorted(ROOT.glob("demos/*.py")), *sorted(ROOT.glob("perfbench/*.py")))
    assert len(users) >= 10
    unused = unused_functions(_sources(*sorted(PACKAGE.glob("*.py"))), users, private=False)
    assert sorted(unused) == sorted(UNCALLED_PUBLIC)


def test_an_unused_public_function_is_reported():
    assert unused_functions([
        "def called():\n    pass\ndef imported():\n    pass\ndef orphan():\n    pass\n"
        "def _private():\n    pass\n",
    ], ["import m\nm.called()\n", "from m import imported\nimported()\n"],
        private=False) == ["orphan"]
    # so is a method of a class, a dunder method excepted
    assert unused_functions([
        "class K:\n    def __init__(self):\n        pass\n"
        "    def called(self):\n        pass\n    def orphan(self):\n        pass\n",
    ], ["import m\nm.K().called()\n"], private=False) == ["orphan"]
    # a re-export, as in ``__init__.py``, is no use of what it names
    assert unused_functions([
        "def exported():\n    pass\n", "from .m import exported\n",
    ], private=False) == ["exported"]


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
