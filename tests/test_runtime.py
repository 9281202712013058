"""The package runs on the standard library alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import graft_moments

PACKAGE = Path(graft_moments.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


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



def _code_names(path: Path) -> list[tuple[int, str, str | None]]:
    """(line, name, source) for every name, attribute and imported name in a file's code.

    source is the package module a name is imported from (".graph" gives
    "graph"), else None.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id, None))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr, None))
        elif isinstance(node, ast.ImportFrom):
            source = node.module if node.level == 1 else None
            found += [(node.lineno, alias.name, source) for alias in node.names]
    return found


def test_the_bfs_kernels_stay_inside_graph():
    # D*x is graph._point_moments: only graph runs the int BFS and the
    # bit-parallel pass under it; the verify oracle runs its own BFS and
    # imports public names only, none of them graph's distance functions
    kernels = {"_distances", "_bfs_reached", "_ball_sums"}
    graph_distances = {"bfs_distances", "distance_matrix", "distance_row_sums", "is_connected"}
    stray = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        if path.name != "graph.py"
        for line, name, source in _code_names(path)
        if name in kernels
        or (
            path.name == "verify.py"
            and (name in graph_distances or (source == "graph" and name.startswith("_")))
        )
    ]
    assert stray == []


def test_the_isomoment_engine_stays_out_of_cli():
    # cli parses arguments and writes JSON; the orbit labels and the class
    # loop live in isomoment, and cli reaches them through its public classify
    private = {
        name
        for module in ("graph", "moments", "weights")
        for _, name, _ in _code_names(PACKAGE / f"{module}.py")
        if name.startswith("_") and name != "_" and not name.startswith("__")
    }
    stray = [
        f"cli.py:{line}: {name}"
        for line, name, source in _code_names(PACKAGE / "cli.py")
        if name in private or (source in ("graph", "moments", "weights") and name.startswith("_"))
    ]
    assert stray == []
    engine = {"_colour_orbits", "_root_orbits", "_orbit_labels"}
    defined = [
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in engine
    ]
    assert sorted(defined) == sorted(("isomoment.py", name) for name in engine)
