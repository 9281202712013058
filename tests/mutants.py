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
on a survivor, on a mutant run that takes longer than MUTANT_TIMEOUT (a
hang is not a kill), and on a table entry whose old text is missing or
is not unique, so a refactor that moves the text must update the table.
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
        "y[0] = total - sum(y)",
        "y[0] = total - sum(y) + 1",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "head-x-mass-without-what-lies-above", "graph.py",
        "y[0] = total - sum(y)",
        "y[0] = mass[head]",
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
        "one-entry-bfs-drops-a-negative-multiplier", "graph.py",
        "            if k:\n                row = _distances(adjacency, v)",
        "            if k > 0:\n                row = _distances(adjacency, v)",
        ("test_graph.py",),
    ),
    Mutant(
        "point-moments-keep-only-the-last-entry", "graph.py",
        "moments = [m + k * d for m, d in zip(moments, row)]",
        "moments = [k * d for d in row]",
        ("test_graph.py",),
    ),
    Mutant(
        "ball-plane-weight-doubled", "graph.py",
        "(ball & plane).bit_count() << k for", "(ball & plane).bit_count() << (k + 1) for",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "ball-level-0-without-own-entry", "graph.py",
        "sums = [2 * total - v - weigh(ball) for v, ball in zip(x, balls)]",
        "sums = [2 * total - weigh(ball) for ball in balls]",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "ball-leaves-on-every-vertex-not-the-support", "graph.py",
        "support = [i for i, v in enumerate(x) if v]", "support = list(range(n))",
        ("test_graph.py", "test_properties.py"),
    ),
    Mutant(
        "combined-ball-pass-never-taken", "graph.py",
        "<= 2400 * support", "< 0",
        ("test_graph.py",),
    ),
    Mutant(
        "constant-y-without-its-factor", "graph.py",
        "y[0] * sum(", "sum(",
        ("test_graph.py",),
    ),
    Mutant(
        "small-block-pass-for-sparse-y", "graph.py",
        "support == n <= 64", "n <= 64",
        ("test_graph.py",),
    ),
    Mutant(
        "private-graph-import-in-verify", "verify.py",
        "from .graph import Graph, cycle_graph,",
        "from .graph import Graph, _int_adjacency, cycle_graph,",
        ("test_runtime.py",),
    ),
    Mutant(
        "graph-bfs-import-in-verify", "verify.py",
        "from .graph import Graph, cycle_graph,",
        "from .graph import Graph, bfs_distances, cycle_graph,",
        ("test_runtime.py",),
    ),
    Mutant(
        "oracle-level-weight-off-by-one", "verify.py",
        "rows[i] += d * new.bit_count()", "rows[i] += (d + 1) * new.bit_count()",
        ("test_verify.py",),
    ),
    # without the mask a vertex of a disconnected graph never leaves the
    # loop, so this relies on -x stopping at the first (connected) failure
    Mutant(
        "oracle-without-the-reach-mask", "verify.py",
        "            new &= ~reach[i]\n", "",
        ("test_verify.py",),
    ),
    Mutant(
        "oracle-frontier-is-reach", "verify.py",
        "frontier = reach[:]", "frontier = reach",
        ("test_verify.py",),
    ),
    Mutant(
        "oracle-reports-the-last-vertex-reach", "verify.py",
        "f\"only {reach[0].bit_count()}", "f\"only {reach[-1].bit_count()}",
        ("test_verify.py",),
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
            "ball-union-starts-from-its-own-ball", "graph.py",
            "            ball = 0\n", "            ball = balls[i]\n", (),
        ),
        "for d >= 1 every neighbour's ball holds i and B_d(i) lies in their union, so adding it changes no bit",
    ),
    (
        Mutant(
            "oracle-keeps-every-vertex-that-grew", "verify.py",
            "                if reach[i] != everyone:\n                    still.append(i)\n",
            "                still.append(i)\n", (),
        ),
        "a vertex every source has reached finds nothing new at the next level and leaves then",
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


MUTANT_TIMEOUT = 120  # seconds for one mutant's test run; a mutant that hangs fails the gate


def _pytest(copy: Path, files: list[str], *extra: str, timeout: float | None = None) -> int | str:
    """pytest's exit code on the copy (0 all passed, 1 some test failed), or "timed out"."""
    # no bytecode cache: a mutant and its undoing can share a size and an mtime second
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *extra, *files]
    try:
        run = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out"
    return run.returncode


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
            code = _pytest(copy, kills, "-x", timeout=MUTANT_TIMEOUT)
            if code == 1:
                verdict = "killed"
            elif code == 0:
                ignores = [f"--ignore={f}" for f in kills]
                rest = _pytest(copy, ["tests"], "-x", *ignores, timeout=MUTANT_TIMEOUT)
                verdict = "SURVIVED" if rest == 0 else f"killed only outside {m.kills}: update the table"
                failures += 1
            else:
                verdict = f"pytest {code}" if code == "timed out" else f"pytest exited {code}"
                failures += 1
            source.write_text(original, encoding="utf-8")
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    for m, reason in EQUIVALENT:
        print(f"{m.name}: equivalent, not run ({reason})")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
