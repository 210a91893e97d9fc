"""Import hygiene: no module of the package imports a name it never uses.

No linter ships with the package, and deleting a function is how a module
ends up holding an import nothing reads.  ``__init__.py`` is skipped: its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqrate"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import json\nfrom os import path, sep\n\nprint(path.join('a', sep))\n"
    assert unused_imports(source) == ["line 1: json"]


def test_package_modules_are_found():
    assert {p.name for p in MODULES} >= {"games.py", "kernels.py", "skillsim.py", "solvers.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
