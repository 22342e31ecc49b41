"""Guard for the runtime dependencies: pyproject.toml declares numpy only, so
a module of the package may import numpy, the standard library and the
package itself, and nothing else, even where other packages are installed."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tensorcast").glob("*.py"))
ALLOWED = {"numpy", "tensorcast"} | set(sys.stdlib_module_names)


def imported_roots(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modules_import_only_numpy_and_the_standard_library(path):
    undeclared = imported_roots(ast.parse(path.read_text(), str(path))) - ALLOWED
    assert not undeclared, f"{path.name} imports undeclared packages {sorted(undeclared)}"


def test_the_guard_sees_an_undeclared_import():
    tree = ast.parse("import numpy as np\nfrom scipy import linalg\nfrom . import panel\n")
    assert imported_roots(tree) - ALLOWED == {"scipy"}
