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

