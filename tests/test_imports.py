"""Every name a library module imports is used in that module, and every
module-level function, class or constant is exported or read.

``__init__.py`` is exempt from the import check, since its imports are the
package's exports, and so are ``__future__`` imports.  A name counts as used
when it appears as an identifier anywhere in the module, annotations
included.  A definition counts as read when a library or test module loads
it, by name or as an attribute.  Test modules count because
``tableau.SIZE_COEFF``, the size bound the tableau tests check, is read
only by them.  Every annotated field of a library class (``InitVar``
fields aside, which are arguments and not fields) must be read as an
attribute, ``x.field``, by a library or test module.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "railcirc"
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


def definitions(tree) -> dict[str, int]:
    """Top-level functions, classes and assigned names, with their lines."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in (target.elts if isinstance(target, ast.Tuple)
                             else [target]):
                    if isinstance(name, ast.Name):
                        found[name.id] = node.lineno
    return found


def reads(tree) -> set[str]:
    """Names a module loads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unread_definitions(modules: dict[str, str], exports: str,
                       readers: tuple[str, ...] = ()) -> list[str]:
    """Definitions in ``modules`` (file name -> source) that the ``exports``
    source does not import and that no module, nor any source in
    ``readers``, reads."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    exported = {alias.asname or alias.name for node in ast.walk(ast.parse(exports))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set().union(*map(reads, trees.values()),
                       *(reads(ast.parse(text)) for text in readers))
    return [f"{module} line {line}: {name}"
            for module, tree in trees.items()
            for name, line in definitions(tree).items()
            if name not in exported and name not in read]


def test_checker_finds_an_unread_definition():
    modules = {
        "a.py": "LIMIT = 3\n_SPARE = 4\nBOUND = 5\ndef used():\n    return LIMIT\n"
                "def orphan():\n    return used()\nclass Kept:\n    pass\n"
                "X, Y = 1, 2\nprint(X)\n",
        "b.py": "from .a import Kept\nprint(Kept)\n",
    }
    readers = ("from a import BOUND\nassert BOUND\n",)
    assert unread_definitions(modules, "from .a import used\n", readers) == [
        "a.py line 2: _SPARE", "a.py line 6: orphan", "a.py line 10: Y"]


def test_every_definition_is_exported_or_read():
    modules = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in MODULES}
    exports = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    tests = tuple(p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py")))
    assert unread_definitions(modules, exports, tests) == []


def fields(tree) -> dict[str, int]:
    """Annotated class fields as class.field, with their lines, InitVar
    fields aside."""
    found = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                continue
            kind = node.annotation
            kind = kind.value if isinstance(kind, ast.Subscript) else kind
            if getattr(kind, "id", getattr(kind, "attr", None)) != "InitVar":
                found[f"{cls.name}.{node.target.id}"] = node.lineno
    return found


def attribute_reads(tree) -> set[str]:
    """Attribute names a module loads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(modules: dict[str, str], readers: tuple[str, ...] = ()) -> list[str]:
    """Fields of classes in ``modules`` (file name -> source) that no module,
    nor any source in ``readers``, reads as an attribute."""
    trees = {name: ast.parse(text) for name, text in modules.items()}
    read = set().union(*map(attribute_reads, trees.values()),
                       *(attribute_reads(ast.parse(text)) for text in readers))
    return [f"{module} line {line}: {name}"
            for module, tree in trees.items()
            for name, line in fields(tree).items()
            if name.split(".")[1] not in read]


def test_checker_finds_an_unread_field():
    modules = {
        "a.py": "from dataclasses import InitVar, dataclass\n"
                "from typing import NamedTuple\n"
                "@dataclass\nclass Box:\n    size: int\n    spare: int\n"
                "    text: InitVar[str]\n    def grow(self):\n"
                "        self.spare = self.size\n"
                "class Pair(NamedTuple):\n    left: int\n    right: int\n",
        "b.py": "from .a import Pair\nprint(Pair(1, 2).left)\n",
    }
    readers = ("def f(pair):\n    return pair.right\n",)
    assert unread_fields(modules, readers) == ["a.py line 6: Box.spare"]
    assert unread_fields(modules) == ["a.py line 6: Box.spare",
                                      "a.py line 12: Pair.right"]


def test_every_field_is_read():
    modules = {name: (PACKAGE / name).read_text(encoding="utf-8") for name in MODULES}
    tests = tuple(p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py")))
    assert unread_fields(modules, tests) == []
