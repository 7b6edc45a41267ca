"""No module imports a name it never loads.

CI's ``ruff check`` rejects such an import (F401); this is the same
check, so a tree without ruff catches one too.  It parses every ``.py``
under ``src/``, ``benchmarks/`` and ``tests/``.  A name counts as used
when the module loads it anywhere — an annotation, quoted or not,
included — or lists it in ``__all__``; ``from __future__`` imports are
directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every name ``tree`` imports and never loads."""
    imported: dict[str, int] = {}
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0],
                                    node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                           ast.Store):
            loaded.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            loaded |= _quoted_annotation_names(node)
    used = loaded | _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _quoted_annotation_names(node) -> set[str]:
    """The names a string annotation of ``node`` refers to."""
    annotation = getattr(node, "returns" if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef)) else "annotation")
    if not (isinstance(annotation, ast.Constant)
            and isinstance(annotation.value, str)):
        return set()
    return {name.id for name in ast.walk(ast.parse(annotation.value,
                                                   mode="eval"))
            if isinstance(name, ast.Name)}


def _exported(tree: ast.Module) -> set[str]:
    """The string literals of a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {element.value for element in node.value.elts
                    if isinstance(element, ast.Constant)}
    return set()


def _sources() -> list[Path]:
    return sorted(path for top in ("src", "benchmarks", "tests")
                  for path in (ROOT / top).rglob("*.py")
                  if "__pycache__" not in path.parts)


def test_no_module_imports_a_name_it_never_loads():
    report = [f"{path.relative_to(ROOT)}:{line}: {name} imported but unused"
              for path in _sources()
              for line, name in unused_imports(
                  ast.parse(path.read_text(encoding="utf-8")))]
    assert not report, "\n".join(report)


@pytest.mark.parametrize("source, expected", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("from __future__ import annotations\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import B\nx: 'list[B]' = []\n", []),
    ("from a import B\ndef f() -> 'B': pass\n", []),
    ("from a import B\ndef f(x: B): pass\n", []),
    ("from a import B\nprint('B')\n", [(1, "B")]),
    ("from a import b\nb = 1\n", [(1, "b")]),
    ("def f():\n    import json\n    return json\n", []),
    ("from a import *\n", []),
])
def test_unused_imports_on_small_modules(source, expected):
    assert unused_imports(ast.parse(source)) == expected
