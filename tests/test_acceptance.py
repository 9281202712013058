"""Acceptance gate: ten exact-arithmetic criteria, one report line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.  Every numeric comparison is exact (Fraction equality);
the timing bounds are generous on any modern machine.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from graft_moments import (
    ConstantWeight,
    DEGREE,
    UNIT,
    are_isomorphic,
    attachments_by_receptor,
    concentration_difference_formula,
    cycle_distance_row_sum,
    cycle_graph,
    diamond_graph,
    distance_matrix,
    extended_cycle_degree_distance,
    extended_cycle_edge_count,
    family_graft_moment_formula,
    graft_moment_formula,
    indices,
    moment,
    path_graph,
    permutation_graph,
    permutation_mean_distance,
    permutation_moment_formula,
    proper_cycle_degree_distance,
    unicyclic_degree_distance,
    zagreb_m1,
)
from graft_moments.randgen import (
    random_comparison_instance,
    random_connected_graph,
    random_extended_cycle_instance,
    random_graft_spec,
    random_proper_cycle_instance,
    random_unicyclic_instance,
)
from graft_moments.verify import (
    _comparison_oracle,
    _cycle_graft_oracle,
    _cycles_oracle,
    _graft_oracle,
    _oracle_moment,
)

DIAMOND = diamond_graph()
P4 = path_graph(4)


def finish(number: int, failures: list[str], detail: str) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {number:02d} {status} — {detail}")
    assert not failures, "; ".join(failures[:5])


def timed_moment(graph, weights) -> tuple[Fraction, float]:
    """Value plus best-of-three wall time in milliseconds."""
    best = float("inf")
    value = moment(graph, weights)
    for _ in range(3):
        start = time.perf_counter()
        value = moment(graph, weights)
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return value, best


def test_criterion_01_fixture_moments():
    failures: list[str] = []
    cases = [
        (DIAMOND, UNIT, 14),
        (DIAMOND, DEGREE, 34),
        (P4, UNIT, 20),
        (P4, DEGREE, 28),
    ]
    slowest = 0.0
    for graph, weights, expected in cases:
        value, ms = timed_moment(graph, weights)
        slowest = max(slowest, ms)
        if value != expected:
            failures.append(f"expected {expected}, got {value}")
        if ms >= 1.0:
            failures.append(f"took {ms:.3f} ms (bound 1 ms)")
    finish(1, failures, f"fixture moments 14/34/20/28, slowest {slowest:.3f} ms")


def test_criterion_02_sigma_family_values():
    failures: list[str] = []
    cases = [
        (ConstantWeight(0), UNIT, 784),
        (DEGREE, UNIT, 1120),
        (DEGREE, DEGREE, 1480),
    ]
    for alpha, beta, expected in cases:
        formula = permutation_moment_formula(DIAMOND, alpha, P4, beta)
        product = permutation_graph(
            DIAMOND, P4, [1, 2, 3, 4], host_weights=alpha, branch_weights=beta
        )
        via_oracle = _oracle_moment(product.graph, product.gamma)
        if formula != expected:
            failures.append(f"formula gave {formula}, expected {expected}")
        if via_oracle != expected:
            failures.append(f"oracle gave {via_oracle}, expected {expected}")
    mean = permutation_mean_distance(DIAMOND, P4)
    if mean != Fraction(49, 16):
        failures.append(f"mean distance {mean} != 49/16")
    finish(2, failures, "sigma moments 784/1120/1480, mean 49/16, formula == oracle")


def test_criterion_03_graft_formula_oracle_suite():
    failures: list[str] = []
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(200):
        spec = random_graft_spec(rng)  # host <= 12, <= 4 branches of <= 8
        formula = graft_moment_formula(spec)
        expected = _graft_oracle(spec)
        if formula != expected:
            failures.append(f"formula {formula} != oracle {expected}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f} s (bound 10 s)")
    finish(3, failures, f"200 random grafts == oracle in {elapsed:.2f} s")


def test_criterion_04_vector_form_suite():
    failures: list[str] = []
    rng = random.Random(41)
    repeated_seen = 0
    for _ in range(100):
        spec = random_graft_spec(
            rng, max_host=8, max_branch_order=6, allow_repeated_receptors=True
        )
        receptors = [a.receptor for a in spec.attachments]
        if len(set(receptors)) < len(receptors):
            repeated_seen += 1
        grouped = family_graft_moment_formula(
            spec.host, spec.host_weights, attachments_by_receptor(spec)
        )
        expected = _graft_oracle(spec)
        if grouped != expected:
            failures.append(f"vector form {grouped} != oracle {expected}")
        if len(set(receptors)) == len(receptors):
            scalar = graft_moment_formula(spec)
            if grouped != scalar:
                failures.append(f"vector form {grouped} != scalar form {scalar}")
    if repeated_seen == 0:
        failures.append("no instance exercised repeated receptors")
    finish(
        4,
        failures,
        f"100 vector-form instances == oracle ({repeated_seen} with repeats)",
    )


def test_criterion_05_sigma_invariance_and_isomorphism_classes():
    failures: list[str] = []
    weight_pairs = {
        "unit": (ConstantWeight(0), UNIT),
        "degree": (DEGREE, DEGREE),
        "mixed": (DEGREE, UNIT),
    }
    graphs = []
    values = {name: set() for name in weight_pairs}
    for sigma in itertools.permutations(range(1, 5)):
        for name, (alpha, beta) in weight_pairs.items():
            product = permutation_graph(
                DIAMOND, P4, sigma, host_weights=alpha, branch_weights=beta
            )
            values[name].add(moment(product.graph, product.gamma))
        graphs.append(permutation_graph(DIAMOND, P4, sigma).graph)
    for name, seen in values.items():
        if len(seen) != 1:
            failures.append(f"{name} moments differ across permutations: {seen}")
    expected = {"unit": {784}, "degree": {1480}, "mixed": {1120}}
    for name, want in expected.items():
        if values[name] != want:
            failures.append(f"{name} moments {values[name]} != {want}")

    classes: list = []
    sizes: list[int] = []
    for graph in graphs:
        for i, representative in enumerate(classes):
            if are_isomorphic(representative, graph):
                sizes[i] += 1
                break
        else:
            classes.append(graph)
            sizes.append(1)
    if len(classes) < 2:
        failures.append(f"only {len(classes)} isomorphism class(es) found")
    finish(
        5,
        failures,
        f"24 permutations, equal moments, {len(classes)} isomorphism classes "
        f"{sorted(sizes)}",
    )


def test_criterion_06_cycle_row_sums():
    failures: list[str] = []
    start = time.perf_counter()
    for r in range(1, 65):
        theta = cycle_distance_row_sum(r)
        if theta != (r // 2) * ((r + 1) // 2):
            failures.append(f"theta({r}) = {theta} is not floor(r/2)floor((r+1)/2)")
        row_sums = distance_matrix(cycle_graph(r)).row_sums
        if any(s != theta for s in row_sums):
            failures.append(f"C_{r} row sums {set(row_sums)} != {theta}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s (bound 1 s)")
    finish(6, failures, f"row sums match for r = 1..64 in {elapsed:.2f} s")


def test_criterion_07_unicyclic_suite():
    failures: list[str] = []
    rng = random.Random(71)
    for _ in range(100):
        cycle_order, forest = random_unicyclic_instance(rng)
        formula = unicyclic_degree_distance(cycle_order, forest)
        expected = _cycle_graft_oracle(cycle_order, forest)
        if formula != expected:
            failures.append(f"formula {formula} != oracle {expected}")
    paw = unicyclic_degree_distance(3, {0: [(path_graph(2), 0)]})
    if paw != 30:
        failures.append(f"paw graph gave {paw}, expected 30")
    bare = unicyclic_degree_distance(5, {})
    if bare != 60 or bare != 2 * 5 * cycle_distance_row_sum(5):
        failures.append(f"bare C5 gave {bare}, expected 60 = 2*5*theta_5")
    finish(7, failures, "100 cycle+forest instances == oracle; paw 30, C5 60")


def test_criterion_08_extended_and_proper_cycles():
    failures: list[str] = []
    rng = random.Random(81)
    for _ in range(100):
        host_order, pairs = random_extended_cycle_instance(rng, max_host=6)
        formula = extended_cycle_degree_distance(host_order, pairs)
        expected = _cycles_oracle(host_order, [r for r, _ in pairs])
        if formula != expected:
            failures.append(f"extended {formula} != oracle {expected}")
    for _ in range(100):
        host_order, branch_orders = random_proper_cycle_instance(rng, max_host=6)
        proper = proper_cycle_degree_distance(host_order, branch_orders)
        expected = _cycles_oracle(host_order, branch_orders)
        extended = extended_cycle_degree_distance(
            host_order,
            [(r, extended_cycle_edge_count(r)) for r in branch_orders],
        )
        if proper != expected:
            failures.append(f"proper {proper} != oracle {expected}")
        if proper != extended:
            failures.append(f"proper {proper} != extended {extended}")
    triangle = proper_cycle_degree_distance(3, [3, 3, 3])
    if triangle != 360:
        failures.append(f"triangle of triangles gave {triangle}, expected 360")
    square = proper_cycle_degree_distance(4, [3, 3, 3, 3])
    if square != 784:
        failures.append(f"C4 with four C3 branches gave {square}, expected 784")
    finish(
        8,
        failures,
        "100 extended + 100 proper instances == oracle; 360 and 784 fixtures",
    )


def test_criterion_09_branch_concentration():
    failures: list[str] = []
    rng = random.Random(91)
    for _ in range(100):
        host, alpha, x, receptors, branch, root, beta = (
            random_comparison_instance(rng)
        )
        total = beta.total(branch)
        formula = concentration_difference_formula(
            host, alpha, x, receptors, branch.order, total
        )
        expected = _comparison_oracle(host, alpha, x, receptors, branch, root, beta)
        if formula != expected:
            failures.append(f"formula {formula} != oracle {expected}")
        # swap the branch for any graph of equal order and total weight
        replacement = random_connected_graph(rng, branch.order)
        flat = ConstantWeight(total / branch.order)
        swapped = _comparison_oracle(
            host, alpha, x, receptors, replacement, replacement.vertices[0], flat
        )
        if swapped != expected:
            failures.append(f"replacement changed the difference: {swapped}")
    fixture = concentration_difference_formula(
        path_graph(3), UNIT, 1, [0, 2], 2, 2
    )
    if fixture != -14:
        failures.append(f"path fixture gave {fixture}, expected -14")
    finish(
        9,
        failures,
        "100 comparison instances == oracle, branch-replacement invariant, "
        "fixture -14",
    )


def test_criterion_10_identity_suite():
    failures: list[str] = []
    rng = random.Random(2025)
    for _ in range(50):
        graph = random_connected_graph(rng, rng.randint(1, 10))
        report = indices(graph)
        m1 = moment(graph, UNIT)
        if report.wiener != Fraction(m1, 2):
            failures.append("wiener != half the unit moment")
        if report.degree_distance != moment(graph, DEGREE):
            failures.append("degree distance != degree moment")
        if report.mti != zagreb_m1(graph) + report.degree_distance:
            failures.append("MTI != zagreb1 + degree distance")
        if report.mean_distance != Fraction(m1, graph.order**2):
            failures.append("mean distance != moment / n^2")
    finish(10, failures, "50 random graphs satisfy all four index identities")
