"""Mutation gate: every listed single-text mutant of the package must fail the tests.

Run from the repository root:

    python tests/mutants.py

Each mutant replaces one exact text in one source file.  The runner
copies src/, tests/ and pyproject.toml to a temporary directory (pyproject
puts src/ on the test path, so a copy of src/ alone would test the
unmutated package), checks that the unmutated copy passes the listed test
files, then for each mutant applies it and runs its listed test files
with -x.  A mutant they do not fail is a survivor; the rest of the suite
then runs only to say whether some other file kills it.  The gate fails
on a survivor, and on a table entry whose old text is missing or is not
unique, so a refactor that moves the text must update the table.
Equivalent mutants are listed with their reasons and never run.  The
standard library is all it needs besides pytest and the test suite's own
dependencies; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/graft_moments/
    old: str
    new: str
    kills: tuple[str, ...]  # test files, under tests/, that must fail on it


MUTANTS = [
    Mutant(
        "budget", "cli.py",
        "if args.count * r * r > bound:", "if args.count * r * r >= bound:",
        ("test_cli.py",),
    ),
    Mutant(
        "class-size-set", "isomoment.py",
        "kept[class_of[label]][2] += 1", "kept[class_of[label]][2] = 1",
        ("test_cli.py",),
    ),
    Mutant(
        "root-orbit-position", "isomoment.py",
        "orbit[s - 1] for s in sigma", "orbit[0] for s in sigma",
        ("test_cli.py",),
    ),
    Mutant(
        "composed-cross-copy-term-r-squared", "isomoment.py",
        "r * (r - 1) * row[p]", "r * r * row[p]",
        ("test_cli.py",),
    ),
    Mutant(
        "composed-level-shift-off-by-one", "isomoment.py",
        "width * row[p],", "width * (row[p] + 1),",
        ("test_cli.py",),
    ),
    Mutant(
        "composed-cross-copies-include-own", "isomoment.py",
        "for j, d in enumerate(row) if j != i]", "for j, d in enumerate(row)]",
        ("test_cli.py",),
    ),
    Mutant(
        "product-offsets-not-shifted-past-root", "isomoment.py",
        "q - (q > rho)", "q",
        ("test_cli.py",),
    ),
    Mutant(
        "product-vertices-lose-their-root", "isomoment.py",
        "(i, *row) if touches_root else tuple(row)", "tuple(row)",
        ("test_cli.py",),
    ),
    Mutant(
        "product-row-sums-by-bfs", "isomoment.py",
        "            adjacency, signatures, row_sums = products(sigma)\n",
        "            adjacency, signatures, _ = products(sigma)\n"
        "            row_sums = _point_moments(adjacency, dict.fromkeys(vertices, 1))\n",
        ("test_cli.py",),
    ),
    Mutant(
        "duplicate-ids-pass", "graph.py",
        "if len(neighbor_sets) != len(vertex_list):", "if len(neighbor_sets) > len(vertex_list):",
        ("test_graph.py",),
    ),
    Mutant(
        "edge-of-three-escapes-as-value-error", "graph.py",
        "except (TypeError, ValueError):", "except TypeError:",
        ("test_graph.py", "test_cli.py"),
    ),
    Mutant(
        "reader-keeps-a-repeated-key", "graph.py",
        "json.load(fh, object_pairs_hook=_unique_keys)", "json.load(fh)",
        ("test_cli.py",),
    ),
    Mutant(
        "reader-lets-deep-nesting-crash", "graph.py",
        "except (ValueError, RecursionError) as exc:", "except ValueError as exc:",
        ("test_cli.py",),
    ),
    Mutant(
        "reader-renames-a-nested-file-error", "graph.py",
        "    except _FileError:\n        raise\n", "",
        ("test_cli.py",),
    ),
    Mutant(
        "reader-leaves-shape-errors-unnamed", "graph.py",
        "    except GraphFormatError as exc:\n        raise _FileError",
        "    except ValueError as exc:\n        raise _FileError",
        ("test_cli.py",),
    ),
    Mutant(
        "up-pass-without-head-mass", "graph.py",
        "sum(map(mass.__getitem__, block))", "sum(map(mass.__getitem__, block[1:]))",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "s0-from-the-last-row", "graph.py",
        "moments[0] = sum(map(mul, probe, mass))",
        "moments[0] = sum(map(mul, _distances(adjacency, n - 1), mass))",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "block-adjacency-without-slot-restriction", "graph.py",
        "[[slot[w] for w in adjacency[v] if w in slot] for v in block]",
        "[[slot.get(w, 0) for w in adjacency[v]] for v in block]",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "head-mass-off-by-one", "graph.py",
        "extra[0] = total - sum(extra.values()) - c * len(block)",
        "extra[0] = total - sum(extra.values()) - c * len(block) + 1",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "head-x-mass-without-what-lies-above", "graph.py",
        "extra[0] = total - sum(extra.values()) - c * len(block)",
        "extra[0] = mass[head] - c",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "x-mass-bridge-step-counts-the-far-side-once", "graph.py",
        "total - 2 * mass[block[1]]", "total - mass[block[1]]",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "heavy-map-without-minus-one", "closed_forms.py",
        "heavy = {x: n_x - 1 for x", "heavy = {x: n_x for x",
        ("test_closed_forms.py",),
    ),
    Mutant(
        "row-x-doubled", "closed_forms.py",
        "row_x = _point_moments(adjacency, {host.vertices.index(x): 1})",
        "row_x = _point_moments(adjacency, {host.vertices.index(x): 2})",
        ("test_closed_forms.py",),
    ),
    Mutant(
        "unicyclic-branches-unit-weighted", "closed_forms.py",
        "(x, tree, root, DEGREE)", "(x, tree, root, UNIT)",
        ("test_closed_forms.py",),
    ),
    Mutant(
        "slide-far-window-one-step-early", "graph.py",
        "near, far = n // 2, (n + 1) // 2 + 1", "near, far = n // 2, (n + 1) // 2",
        ("test_graph.py",),
    ),
    Mutant(
        "slide-near-window-one-step-long", "graph.py",
        "- prefix[i + near + 1] + prefix[i + 1]", "- prefix[i + near + 2] + prefix[i + 1]",
        ("test_graph.py",),
    ),
    Mutant(
        "ring-walk-steps-back", "graph.py",
        "ring.append(b if a == ring[-2] else a)", "ring.append(a if a == ring[-2] else b)",
        ("test_graph.py",),
    ),
    Mutant(
        "point-moments-drop-negative-multipliers", "graph.py",
        "{v: k for v, k in x.items() if k}", "{v: k for v, k in x.items() if k > 0}",
        ("test_graph.py",),
    ),
    Mutant(
        "point-moments-keep-only-the-last-entry", "graph.py",
        "moments = [m + k * d for m, d in zip(moments, row)]",
        "moments = [k * d for d in row]",
        ("test_graph.py",),
    ),
    Mutant(
        "private-graph-import-in-verify", "verify.py",
        "from .graph import Graph, bfs_distances,",
        "from .graph import Graph, _int_adjacency, bfs_distances,",
        ("test_runtime.py",),
    ),
    Mutant(
        "bfs-kernel-import-in-closed-forms", "closed_forms.py",
        "    _point_moments,\n    cycle_graph,",
        "    _distances,\n    _point_moments,\n    cycle_graph,",
        ("test_runtime.py",),
    ),
    Mutant(
        "private-graph-import-in-cli", "cli.py",
        "from .graph import bfs_distances,",
        "from .graph import _int_adjacency, bfs_distances,",
        ("test_runtime.py",),
    ),
]

# (mutant, why no test can kill it); their old text is checked, they are not run
EQUIVALENT = [
    (
        Mutant(
            "signature-field-width", "graph.py",
            "width, low = n.bit_length(),", "width, low = (n - 1).bit_length(),", (),
        ),
        "a level size at distance 1 or more is at most n - 1, which n - 1 bits hold",
    ),
    (
        Mutant(
            "duplicate-ids-check-reversed", "graph.py",
            "if len(neighbor_sets) != len(vertex_list):", "if len(neighbor_sets) < len(vertex_list):", (),
        ),
        "the neighbour map has one key per distinct id, so it is never longer than the id list",
    ),
    (
        Mutant(
            "oracle-absolute-numerator", "verify.py",
            "sums.get(q, 0) + p * row_sum", "sums.get(q, 0) + abs(p) * row_sum", (),
        ),
        "every weight's _at rejects a negative numerator, so p is never negative",
    ),
    (
        Mutant(
            "product-offsets-shifted-at-root", "isomoment.py",
            "q - (q > rho)", "q - (q >= rho)", (),
        ),
        "q = rho is filtered out before the offset is taken",
    ),
]


def _pytest(copy: Path, files: list[str], *extra: str) -> int:
    """pytest's exit code on the copy: 0 all passed, 1 some test failed."""
    # no bytecode cache: a mutant and its undoing can share a size and an mtime second
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *extra, *files]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def _check_texts(mutants: list[Mutant]) -> list[str]:
    problems = []
    for m in mutants:
        count = (ROOT / "src" / "graft_moments" / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text found {count} times in {m.path}")
    return problems


def main() -> int:
    problems = _check_texts(MUTANTS + [m for m, _ in EQUIVALENT])
    if problems:
        print(*problems, sep="\n")
        return 1
    with tempfile.TemporaryDirectory(prefix="graft-mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        listed = sorted({f"tests/{f}" for m in MUTANTS for f in m.kills})
        if _pytest(copy, listed) != 0:
            print(f"the unmutated copy fails {listed}; no mutant was run")
            return 1
        failures = 0
        for m in MUTANTS:
            source = copy / "src" / "graft_moments" / m.path
            original = source.read_text(encoding="utf-8")
            source.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            kills = [f"tests/{f}" for f in m.kills]
            code = _pytest(copy, kills, "-x")
            if code == 1:
                verdict = "killed"
            elif code == 0:
                ignores = [f"--ignore={f}" for f in kills]
                rest = _pytest(copy, ["tests"], "-x", *ignores)
                verdict = "SURVIVED" if rest == 0 else f"killed only outside {m.kills}: update the table"
                failures += 1
            else:
                verdict = f"pytest exited {code}"
                failures += 1
            source.write_text(original, encoding="utf-8")
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    for m, reason in EQUIVALENT:
        print(f"{m.name}: equivalent, not run ({reason})")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
