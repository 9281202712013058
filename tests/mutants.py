"""Mutation gate: every listed single-text mutant of the package must fail the tests.

Run from the repository root:

    python tests/mutants.py

Each mutant replaces one exact text in one source file.  The runner
copies src/, tests/ and pyproject.toml to a temporary directory (pyproject
puts src/ on the test path, so a copy of src/ alone would test the
unmutated package) and checks that the unmutated copy passes the listed
tests.  A kill list names pytest node ids (test_graph.py::test_name) or
whole test files.  For each mutant the runner applies it and runs its
ids with -x; if they all pass, the files they lie in and the listed
files; if those pass too, the rest of the suite.  It prints the node id
of the test that killed the mutant.  A mutant only its files kill
counts as killed and reads "update the table" (those files are then run
once on the unmutated copy, so that the kill is the mutant's).  Node ids
keep the gate short: a file run stops at its first failing test in file
order, so a mutant that only a late test kills pays for every test
before it.  test_acceptance.py's wall-time checks belong in no kill
list: a slow machine fails them as readily as a mutant does.  The gate
fails on a mutant that none of its listed tests kills, on a mutant run
that takes longer than MUTANT_TIMEOUT (a hang is not a kill), and on a
table entry whose old text is missing or is not unique, so a refactor
that moves the text must update the table.
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
    kills: tuple[str, ...]  # node ids or files under tests/, ids first, that must fail on it


MUTANTS = [
    Mutant(
        "budget", "cli.py",
        "if args.count * r * r > bound:", "if args.count * r * r >= bound:",
        ("test_cli.py::test_isomoment_sample_budget_is_inclusive",),
    ),
    Mutant(
        "class-size-set", "isomoment.py",
        "kept[class_of[label]][2] += 1", "kept[class_of[label]][2] = 1",
        ("test_cli.py::test_isomoment_diamond_p4",),
    ),
    Mutant(
        "root-orbit-position", "isomoment.py",
        "orbit[s - 1] for s in sigma", "orbit[0] for s in sigma",
        ("test_cli.py::test_isomoment_diamond_p4",),
    ),
    Mutant(
        "composed-cross-copy-term-r-squared", "isomoment.py",
        "r * (r - 1) * row[p]", "r * r * row[p]",
        ("test_cli.py::test_isomoment_diamond_p4",),
    ),
    Mutant(
        "composed-level-shift-off-by-one", "isomoment.py",
        "width * row[p],", "width * (row[p] + 1),",
        ("test_cli.py::test_isomoment_product_passes_match_built_products[host0-branch0]",),
    ),
    Mutant(
        "composed-cross-copies-include-own", "isomoment.py",
        "for j, d in enumerate(row) if j != i]", "for j, d in enumerate(row)]",
        ("test_cli.py::test_isomoment_product_passes_match_built_products[host0-branch0]",),
    ),
    Mutant(
        "product-offsets-not-shifted-past-root", "isomoment.py",
        "q - (q > rho)", "q",
        ("test_cli.py::test_isomoment_stdout_is_golden",),
    ),
    Mutant(
        "product-vertices-lose-their-root", "isomoment.py",
        "(i, *row) if touches_root else tuple(row)", "tuple(row)",
        ("test_cli.py::test_isomoment_diamond_p4",),
    ),
    Mutant(
        "product-row-sums-by-bfs", "isomoment.py",
        "            adjacency, signatures, row_sums = products(sigma)\n",
        "            adjacency, signatures, _ = products(sigma)\n"
        "            row_sums = _point_moments(adjacency, [1] * len(adjacency))\n",
        ("test_cli.py::test_isomoment_stdout_is_golden",),
    ),
    Mutant(
        "duplicate-ids-pass", "graph.py",
        "if len(neighbor_sets) != len(vertex_list):", "if len(neighbor_sets) > len(vertex_list):",
        ("test_graph.py::test_construction_rejects_non_simple_input[vertices0-edges0]",),
    ),
    Mutant(
        "edge-of-three-escapes-as-value-error", "graph.py",
        "except (TypeError, ValueError):", "except TypeError:",
        ("test_cli.py::test_a_shape_error_in_any_input_file_names_the_file[indices-edge]",),
    ),
    Mutant(
        "reader-keeps-a-repeated-key", "graph.py",
        "json.load(fh, object_pairs_hook=_unique_keys)", "json.load(fh)",
        ("test_cli.py::test_a_key_repeated_in_any_input_object_is_input_error[indices-graph]",),
    ),
    Mutant(
        "reader-lets-deep-nesting-crash", "graph.py",
        "except (ValueError, RecursionError) as exc:", "except ValueError as exc:",
        ("test_cli.py::test_a_malformed_json_file_is_input_error[nested-200000-indices-graph]",),
    ),
    Mutant(
        "reader-renames-a-nested-file-error", "graph.py",
        "    except _FileError:\n        raise\n", "",
        ("test_cli.py::test_a_key_repeated_in_any_input_object_is_input_error[spec-weights]",),
    ),
    Mutant(
        "reader-leaves-shape-errors-unnamed", "graph.py",
        "    except GraphFormatError as exc:\n        raise _FileError",
        "    except ValueError as exc:\n        raise _FileError",
        ("test_cli.py::test_indices_rejects_a_vertex_id_that_is_not_an_int",),
    ),
    Mutant(
        "up-pass-without-head-mass", "graph.py",
        "sum(map(mass.__getitem__, block))", "sum(map(mass.__getitem__, block[1:]))",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[path-9]",),
    ),
    Mutant(
        "s0-from-the-last-row", "graph.py",
        "moments[0] = sum(map(mul, probe, mass))",
        "moments[0] = sum(map(mul, _distances(adjacency, n - 1), mass))",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[tree-17]",),
    ),
    Mutant(
        "block-adjacency-without-slot-restriction", "graph.py",
        "[[slot[w] for w in adjacency[v] if w in slot] for v in block]",
        "[[slot.get(w, 0) for w in adjacency[v]] for v in block]",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[cactus-40]",),
    ),
    Mutant(
        "head-mass-off-by-one", "graph.py",
        "y[0] = total - sum(y)",
        "y[0] = total - sum(y) + 1",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[cactus-40]",),
    ),
    Mutant(
        "head-x-mass-without-what-lies-above", "graph.py",
        "y[0] = total - sum(y)",
        "y[0] = mass[head]",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[cactus-40]",),
    ),
    Mutant(
        "x-mass-bridge-step-counts-the-far-side-once", "graph.py",
        "total - 2 * mass[block[1]]", "total - mass[block[1]]",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[path-9]",),
    ),
    Mutant(
        "heavy-map-without-minus-one", "closed_forms.py",
        "heavy = [n_x - 1 for n_x in", "heavy = [n_x for n_x in",
        ("test_closed_forms.py::test_graft_formula_two_edges",),
    ),
    Mutant(
        "row-x-doubled", "closed_forms.py",
        "row_x = _point_moments(adjacency, [int(v == x) for v in host.vertices])",
        "row_x = _point_moments(adjacency, [2 * (v == x) for v in host.vertices])",
        ("test_closed_forms.py::test_comparison_path_fixture",),
    ),
    Mutant(
        "unicyclic-branches-unit-weighted", "closed_forms.py",
        "(x, tree, root, DEGREE)", "(x, tree, root, UNIT)",
        ("test_closed_forms.py::test_unicyclic_matches_oracle_randomly",),
    ),
    Mutant(
        "slide-far-window-one-step-early", "graph.py",
        "near, far = n // 2, (n + 1) // 2 + 1", "near, far = n // 2, (n + 1) // 2",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[c3]",),
    ),
    Mutant(
        "slide-near-window-one-step-long", "graph.py",
        "- prefix[i + near + 1] + prefix[i + 1]", "- prefix[i + near + 2] + prefix[i + 1]",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[c3]",),
    ),
    Mutant(
        "ring-walk-steps-back", "graph.py",
        "ring.append(b if a == ring[-2] else a)", "ring.append(a if a == ring[-2] else b)",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[c3]",),
    ),
    Mutant(
        "one-entry-bfs-drops-a-negative-multiplier", "graph.py",
        "k = max(y) or min(y)", "k = max(y)",
        ("test_graph.py::test_point_moments_are_the_matrix_product[k2]",),
    ),
    Mutant(
        "two-entries-take-one-bfs", "graph.py",
        "if y.count(0) >= n - 1:", "if y.count(0) >= n - 2:",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[k2]",),
    ),
    Mutant(
        "block-route-writes-masses-into-y", "graph.py",
        "mass = y[:]", "mass = y",
        ("test_graph.py::test_point_moments_only_read_y",),
    ),
    Mutant(
        "point-moments-keep-only-the-last-entry", "graph.py",
        "moments = [m + k * d for m, d in zip(moments, row)]",
        "moments = [k * d for d in row]",
        ("test_graph.py::test_one_block_is_the_matrix_product_by_either_route[k2]",),
    ),
    Mutant(
        "ball-plane-weight-doubled", "graph.py",
        "(ball & plane).bit_count() << k for", "(ball & plane).bit_count() << (k + 1) for",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[graft-like-1]",),
    ),
    Mutant(
        "ball-level-0-without-own-entry", "graph.py",
        "sums = [2 * total - v - weigh(ball) for v, ball in zip(x, balls)]",
        "sums = [2 * total - weigh(ball) for ball in balls]",
        ("test_graph.py::test_distance_row_sums_match_the_matrix[k1]",),
    ),
    Mutant(
        "ball-leaves-on-every-vertex-not-the-support", "graph.py",
        "support = [i for i, v in enumerate(x) if v]", "support = list(range(n))",
        ("test_graph.py::test_point_moments_agree_with_networkx[star-9]",),
    ),
    Mutant(
        "combined-ball-pass-never-taken", "graph.py",
        "<= 2400 * support", "< 0",
        ("test_graph.py::test_dense_nonnegative_point_moments_take_one_ball_pass[rand-300]",),
    ),
    Mutant(
        "constant-y-without-its-factor", "graph.py",
        "y[0] * sum(", "sum(",
        ("test_graph.py::test_one_block_is_the_matrix_product_by_either_route[k2]",),
    ),
    Mutant(
        "small-block-pass-for-sparse-y", "graph.py",
        "support == n <= 64", "n <= 64",
        ("test_graph.py::test_one_block_is_the_matrix_product_by_either_route[k2]",),
    ),
    Mutant(
        "private-graph-import-in-verify", "verify.py",
        "from .graph import Graph, cycle_graph,",
        "from .graph import Graph, _int_adjacency, cycle_graph,",
        ("test_runtime.py::test_the_bfs_kernels_stay_inside_graph",),
    ),
    Mutant(
        "graph-bfs-import-in-verify", "verify.py",
        "from .graph import Graph, cycle_graph,",
        "from .graph import Graph, bfs_distances, cycle_graph,",
        ("test_runtime.py::test_the_bfs_kernels_stay_inside_graph",),
    ),
    Mutant(
        "oracle-level-weight-off-by-one", "verify.py",
        "rows[i] += d * new.bit_count()", "rows[i] += (d + 1) * new.bit_count()",
        ("test_verify.py::test_each_formula_verifies_clean[extcycles]",),
    ),
    # without the mask a vertex of a disconnected graph never leaves the
    # loop, so this relies on -x stopping at the first (connected) failure
    Mutant(
        "oracle-without-the-reach-mask", "verify.py",
        "            new &= ~reach[i]\n", "",
        ("test_verify.py::test_each_formula_verifies_clean[comparison]",),
    ),
    Mutant(
        "oracle-frontier-is-reach", "verify.py",
        "frontier = reach[:]", "frontier = reach",
        ("test_verify.py::test_each_formula_verifies_clean[comparison]",),
    ),
    Mutant(
        "oracle-reports-the-last-vertex-reach", "verify.py",
        "f\"only {reach[0].bit_count()}", "f\"only {reach[-1].bit_count()}",
        ("test_verify.py::test_the_oracle_raises_like_the_matrix[g2-DisconnectedGraph]",),
    ),
    Mutant(
        "bfs-kernel-import-in-closed-forms", "closed_forms.py",
        "    _point_moments,\n    cycle_graph,",
        "    _distances,\n    _point_moments,\n    cycle_graph,",
        ("test_runtime.py::test_the_bfs_kernels_stay_inside_graph",),
    ),
    Mutant(
        "private-graph-import-in-cli", "cli.py",
        "from .graph import bfs_distances,",
        "from .graph import _int_adjacency, bfs_distances,",
        ("test_runtime.py::test_the_isomoment_engine_stays_out_of_cli",),
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


def _pytest(
    copy: Path, targets: list[str], *extra: str, timeout: float | None = None
) -> tuple[int | str, str]:
    """pytest's exit code on the copy (0 all passed, 1 some test failed) or
    "timed out", and the node id of the first test that failed or erred."""
    # no bytecode cache: a mutant and its undoing can share a size and an mtime second
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
    try:
        run = subprocess.run(
            [*command, *extra, *targets],
            cwd=copy, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timed out", ""
    # -rfE ends the output with a line "FAILED <node id> - <message>" per failure
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return run.returncode, line.split(" - ")[0].split(" ", 1)[1]
    return run.returncode, ""


def _check_texts(mutants: list[Mutant]) -> list[str]:
    problems = []
    for m in mutants:
        count = (ROOT / "src" / "graft_moments" / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text found {count} times in {m.path}")
    return problems


def _files(m: Mutant) -> list[str]:
    """The test files a mutant's kill list names, whole or by a node id in them."""
    return sorted({f"tests/{k.split('::')[0]}" for k in m.kills})


def _verdict(copy: Path, m: Mutant) -> tuple[str, str]:
    """What the tests say of the applied mutant: (what to print, "killed",
    "killed by its files" or "failed")."""
    ids = [f"tests/{k}" for k in m.kills if "::" in k]
    code, killer = _pytest(copy, ids, "-x", timeout=MUTANT_TIMEOUT) if ids else (0, "")
    if code == 1:
        return f"killed by {killer}", "killed"
    if code == 0:
        code, killer = _pytest(copy, _files(m), "-x", timeout=MUTANT_TIMEOUT)
        if code == 1 and not ids:  # files listed whole pass unmutated, as checked first
            return f"killed by {killer}", "killed"
        if code == 1:
            return f"killed by {killer}, not by its listed ids: update the table", "killed by its files"
    if code == 0:
        ignores = [f"--ignore={f}" for f in _files(m)]
        code, killer = _pytest(copy, ["tests"], "-x", *ignores, timeout=MUTANT_TIMEOUT)
        if code == 0:
            return "SURVIVED", "failed"
        if code == 1:
            return f"killed only by {killer}, outside {m.kills}: update the table", "failed"
    return f"pytest {code}" if code == "timed out" else f"pytest exited {code}", "failed"


def main() -> int:
    problems = _check_texts(MUTANTS + [m for m, _ in EQUIVALENT])
    if problems:
        print(*problems, sep="\n")
        return 1
    with tempfile.TemporaryDirectory(prefix="graft-mutants-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        # every listed node id must exist and pass, and so must every file listed whole
        listed = sorted({f"tests/{k}" for m in MUTANTS for k in m.kills})
        code, failed = _pytest(copy, listed)
        if code != 0:
            print(f"the unmutated copy fails {failed or listed} (pytest {code}); no mutant was run")
            return 1
        passing: dict[tuple[str, ...], bool] = {}  # file lists run whole on the unmutated copy
        failures = 0
        for m in MUTANTS:
            source = copy / "src" / "graft_moments" / m.path
            original = source.read_text(encoding="utf-8")
            source.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            verdict, status = _verdict(copy, m)
            source.write_text(original, encoding="utf-8")
            if status == "killed by its files":  # a kill counts only if they pass unmutated
                files = tuple(_files(m))
                if files not in passing:
                    passing[files] = _pytest(copy, list(files), "-x")[0] == 0
                if not passing[files]:
                    verdict, status = f"the unmutated copy fails {list(files)}", "failed"
            failures += status == "failed"
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    for m, reason in EQUIVALENT:
        print(f"{m.name}: equivalent, not run ({reason})")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
