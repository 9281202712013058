"""The package runs on the standard library alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import graft_moments

SOURCES = sorted(Path(graft_moments.__file__).parent.glob("*.py"))


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, module) for every import in a file, lazy ones inside functions too."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_every_import_is_relative_or_standard_library():
    assert len(SOURCES) > 5
    stray = [
        f"{path.name}:{line}: {module}"
        for path in SOURCES
        for line, module in _imported_modules(path)
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert stray == []



def _code_names(path: Path) -> list[tuple[int, str, bool]]:
    """(line, name, from .graph) for every name, attribute and imported name in a file's code."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id, False))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr, False))
        elif isinstance(node, ast.ImportFrom):
            from_graph = node.level == 1 and node.module == "graph"
            found += [(node.lineno, alias.name, from_graph) for alias in node.names]
    return found


def test_the_bfs_kernels_stay_inside_graph():
    # D*x is graph._point_moments: only graph runs the int BFS and the
    # bit-parallel pass under it, and the verify oracle imports public names only
    kernels = {"_distances", "_bfs_reached", "_level_sums"}
    stray = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        if path.name != "graph.py"
        for line, name, from_graph in _code_names(path)
        if name in kernels or (path.name == "verify.py" and from_graph and name.startswith("_"))
    ]
    assert stray == []
