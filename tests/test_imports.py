"""Every module of the package uses each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import qduplex

MODULES = sorted(
    path for path in Path(qduplex.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def used_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, those inside string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    for annotation in annotations:
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= used_names(ast.parse(part.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    """Each name an import binds and the source never reads, with its line.
    Imports from __future__ are not names the code reads, so they are skipped."""
    tree = ast.parse(source)
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{name} (line {node.lineno})")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found_and_string_annotations_count_as_uses():
    assert unused_imports(
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .session import Transcript\n"
        "def f(t: 'list[Transcript]') -> None: ...\n"
    ) == []
    assert unused_imports("import os.path\nimport sys as system\nfrom json import dumps, loads\n"
                          "loads('1')\n") == ["os (line 1)", "system (line 2)", "dumps (line 3)"]
