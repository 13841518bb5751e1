"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).resolve().parent.parent / "src" / "gaquot").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
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
    return sorted(name for name in imported if name not in used)


def test_sources_found():
    assert {"cli.py", "groebner.py", "poly.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    assert unused_imports("import os\nfrom typing import List, Sequence\nx: List\n") \
        == ["Sequence", "os"]
