"""Every import and every private top-level name of a package module is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "jprox"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unread_name():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nnp.zeros(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_names(source: str) -> list:
    """Module-level private names of ``source`` that no expression reads.

    A name is private when it starts with one underscore (dunders such as
    ``__all__`` are not); it counts when a top-level ``def``, ``class`` or
    assignment binds it.
    """
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in bound if name.startswith("_") and not name.startswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - read)


def test_dead_private_names_finds_an_unread_name():
    source = (
        "__all__ = ['run']\n_LIMIT, _SPARE = 1, 2\n_cache: dict = {}\n"
        "def _helper():\n    return _LIMIT\n"
        "def _unused():\n    _local = 3\n    return _local\n"
        "class _Shape:\n    pass\n"
        "def run():\n    return _helper()\n"
    )
    assert dead_private_names(source) == ["_SPARE", "_Shape", "_cache", "_unused"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_dead_private_names(path):
    assert dead_private_names(path.read_text(encoding="utf-8")) == []
