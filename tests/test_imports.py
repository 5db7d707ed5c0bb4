"""Every name a library module imports is used in that module.

``__init__.py`` is exempt, since its imports are the package's exports, and
so are ``__future__`` imports.  A name counts as used when it appears as an
identifier anywhere in the module, annotations included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "railcirc"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in source and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from .reports import ONE_HOT, RAIL\n"
              "print(os.sep, RAIL)\n")
    assert unused_imports(source) == ["line 3: system", "line 4: ONE_HOT"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
