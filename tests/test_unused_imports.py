"""Every name a lindsum module imports is used there or re-exported in __all__."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lindsum

MODULES = sorted(Path(lindsum.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    keep = used | exported
    return [f"{name} (line {line})" for name, line in imported.items() if name not in keep]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from .family import MEMBERS, DistSpec\n__all__ = ['main']\nDistSpec(1)\n"
    assert _unused_imports(source) == ["MEMBERS (line 1)"]
