"""Every module of the package uses each name it imports, and every name it defines
at module level is read somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import qduplex

PACKAGE = sorted(Path(qduplex.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def annotation_names(tree: ast.AST) -> set[str]:
    """Every name read inside the tree's string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    names = set()
    for annotation in annotations:
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, those inside string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | annotation_names(tree)


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


def module_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Each function, class and plain name a module's top-level statements define, with its
    line; dunder names such as __all__ and __version__ are not definitions the code reads."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Store):
                        defined.append((part.id, node.lineno))
    return [(name, line) for name, line in defined if not name.startswith("__")]


def package_reads(tree: ast.Module) -> set[str]:
    """Every name a module reads: a name it loads, an attribute it takes, a name it
    imports from another module, and a name inside a string annotation."""
    reads = annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Each module-level function, class or assigned name of the named sources that no
    source reads, as "module: name (line n)"."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = set().union(*map(package_reads, trees.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in module_definitions(tree)
        if name not in reads
    ]


def test_package_reads_every_name_a_module_defines():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unreferenced_definitions(sources) == []


def test_unreferenced_definitions_are_found_in_a_fabricated_package():
    sources = {
        "a.py": (
            "from __future__ import annotations\n"
            "__all__ = ['f']\n"
            "LIMIT = 4\n"
            "_TABLE, _SPARE = {}, ()\n"
            "_ROWS: list = []\n"
            "_TABLE['spare'] = ()\n"
            "def f(x: 'Kept') -> int:\n"
            "    _TABLE['k'] = LIMIT\n"
            "    return x.size\n"
            "def _unused():\n"
            "    _unused_local = 1\n"
            "class Kept:\n"
            "    size = 1\n"
            "class Gone:\n"
            "    pass\n"
        ),
        "b.py": "from .a import f\nf.size = 2\n",
    }
    assert unreferenced_definitions(sources) == [
        "a.py: _SPARE (line 4)", "a.py: _ROWS (line 5)", "a.py: _unused (line 10)",
        "a.py: Gone (line 14)",
    ]
