"""Formula-vs-oracle verification over seeded random instances.

The oracle is always the same: run one plain BFS (`bfs_distances`) from
every vertex of the product graph, sum its distances into that vertex's
row sum, and sum weight times row sum; no n x n matrix is kept.  Each
weight is its reduced int pair p/q, p * s(v) goes into one int per
denominator q, and one `Fraction` per distinct denominator gives the
exact result; the weights' `value` and `vector` are not called.
`_graft_oracle` builds a graft product with `graft` and sums it so,
weighted by its gamma unless told otherwise; every graft-based checker
and the test suite go through it.  The oracle shares no distance code
with what it certifies: `moments.moment`, `moments.indices` and the
closed forms take their row sums from the `distance_row_sums` kernel and
their point-moment rows and D*x from `graph._point_moments`, so a fault
in either shows up as a mismatch instead of cancelling out; the oracle
imports no private name from `graph`, and neither reads nor fills the
int adjacency and row sums a `Graph` keeps for them.  Only connectivity
validation (`is_connected`, when a product or a closed form checks its
factors) runs the oracle's BFS loop on both sides.  A verifier draws
random instances, evaluates the closed form and the oracle, and records
every disagreement (there should be none) in a report; an instance is
kept as its graphs, weights and numbers and written out as JSON only
when it disagrees.  Some verifiers chain extra checks onto each instance
-- the comparison formula must also be invariant under swapping the
branch for another of equal order and total weight, and the proper-cycle
formula must agree with the extended-cycle formula.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial

from .closed_forms import (
    attachments_by_receptor,
    concentration_difference_formula,
    extended_cycle_degree_distance,
    family_graft_moment_formula,
    flower_moment_formula,
    graft_moment_formula,
    permutation_moment_formula,
    proper_cycle_degree_distance,
    unicyclic_degree_distance,
)
from .errors import EmptyGraph, GraphFormatError
from .graph import Graph, bfs_distances, cycle_graph, graph_to_json_dict
from .products import Attachment, GraftSpec, flower, graft, permutation_graph
from .randgen import (
    random_comparison_instance,
    random_connected_graph,
    random_extended_cycle_instance,
    random_flower_branches,
    random_graft_spec,
    random_permutation_instance,
    random_proper_cycle_instance,
    random_rational,
    random_unicyclic_instance,
)
from .weights import (
    DEGREE,
    ConstantWeight,
    WeightFunction,
    describe_weight,
    format_rational,
)

Check = tuple[Fraction, Fraction, dict]


def _oracle_moment(g: Graph, weights: WeightFunction) -> Fraction:
    """sum_v w(v) * s(v), each row sum s(v) from its own plain BFS.

    Each weight is taken as its reduced pair p/q; p * s(v) is added to
    one int per denominator q, and each denominator makes one Fraction
    at the end.  Raises what distance_matrix raises, with the same
    messages, and a vertex's row error before its weight error.
    """
    if g.order == 0:
        raise EmptyGraph("distance matrix of the empty graph")
    sums: dict[int, int] = {}
    for v, degree in zip(g.vertices, g.degrees):
        row_sum = sum(bfs_distances(g, v).values())
        p, q = weights._at(v, degree)
        sums[q] = sums.get(q, 0) + p * row_sum
    return sum((Fraction(p, q) for q, p in sums.items()), Fraction(0))


def _graft_oracle(spec: GraftSpec, weights: WeightFunction | None = None) -> Fraction:
    """The oracle on the built graft product, weighted by its gamma by default."""
    product = graft(spec)
    return _oracle_moment(product.graph, product.gamma if weights is None else weights)


def _comparison_oracle(host, alpha, x, receptors, branch, root, beta) -> Fraction:
    """Moment with every branch stacked on x minus moment with them spread out."""

    def glued_at(at) -> Fraction:
        attachments = tuple(Attachment(r, branch, root, beta) for r in at)
        return _graft_oracle(GraftSpec(host, attachments, alpha))

    return glued_at([x] * len(receptors)) - glued_at(receptors)


def _cycle_graft_oracle(host_order: int, forest) -> Fraction:
    """Degree distance of C_r with the (branch, root) pairs of forest[x] glued at x."""
    attachments = tuple(Attachment(x, b, root) for x, pairs in forest.items() for b, root in pairs)
    return _graft_oracle(GraftSpec(cycle_graph(host_order), attachments), DEGREE)


def _cycles_oracle(host_order: int, branch_orders) -> Fraction:
    """Degree distance of C_r with a cycle of order branch_orders[x] glued at x."""
    forest = {x: [(cycle_graph(r), 0)] for x, r in enumerate(branch_orders)}
    return _cycle_graft_oracle(host_order, forest)


@dataclass(frozen=True)
class Mismatch:
    expected: str
    got: str
    instance: dict

    def to_json_dict(self) -> dict:
        return {
            "expected": self.expected,
            "got": self.got,
            "instance": self.instance,
        }


@dataclass
class VerificationReport:
    formula: str
    instances: int
    seed: int
    mismatches: list[Mismatch] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "formula": self.formula,
            "instances": self.instances,
            "seed": self.seed,
            "ok": self.ok,
            "mismatches": [m.to_json_dict() for m in self.mismatches],
        }


def _describe(value):
    """An instance as JSON data: graphs, weights and rationals written out."""
    if isinstance(value, Graph):
        return graph_to_json_dict(value)
    if isinstance(value, WeightFunction):
        return describe_weight(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Attachment):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _describe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_describe(v) for v in value]
    return value


def _cap(default: int, max_size: int | None, floor: int = 1) -> int:
    if max_size is None:
        return default
    return max(floor, min(default, max_size))


def _check_graft(rng: random.Random, max_size: int | None, family: bool) -> list[Check]:
    """Theorem 1 (graft form), or Theorem 4.1 (family form, receptors may repeat)."""
    spec = random_graft_spec(
        rng,
        max_host=_cap(12, max_size),
        max_branch_order=_cap(8, max_size),
        allow_repeated_receptors=family,
    )
    oracle = _graft_oracle(spec)
    if family:
        got = family_graft_moment_formula(
            spec.host, spec.host_weights, attachments_by_receptor(spec)
        )
    else:
        got = graft_moment_formula(spec)
    instance = {
        "host": spec.host,
        "host_weights": spec.host_weights,
        "attachments": spec.attachments,
    }
    return [(oracle, got, instance)]


def _check_sigma(rng: random.Random, max_size: int | None) -> list[Check]:
    host, alpha, branch, beta, sigma = random_permutation_instance(
        rng, max_order=_cap(5, max_size)
    )
    product = permutation_graph(
        host, branch, sigma, host_weights=alpha, branch_weights=beta
    )
    oracle = _oracle_moment(product.graph, product.gamma)
    got = permutation_moment_formula(host, alpha, branch, beta)
    instance = {"host": host, "alpha": alpha, "branch": branch, "beta": beta, "sigma": sigma}
    return [(oracle, got, instance)]


def _check_flower(rng: random.Random, max_size: int | None) -> list[Check]:
    center = random_rational(rng)
    branches = random_flower_branches(rng, max_branch_order=_cap(6, max_size))
    product = flower(center, branches)
    oracle = _oracle_moment(product.graph, product.gamma)
    got = flower_moment_formula(center, branches)
    instance = {
        "center": center,
        "branches": [{"branch": b, "root": root, "weights": w} for b, root, w in branches],
    }
    return [(oracle, got, instance)]


def _check_comparison(rng: random.Random, max_size: int | None) -> list[Check]:
    args = random_comparison_instance(
        rng, max_host=_cap(8, max_size, floor=2), max_branch_order=_cap(6, max_size)
    )
    host, alpha, x, receptors, branch, root, beta = args
    total = beta.total(branch)
    instance = dict(zip(("host", "alpha", "x", "receptors", "branch", "root", "beta"), args))
    oracle = _comparison_oracle(*args)
    got = concentration_difference_formula(
        host, alpha, x, receptors, branch.order, total
    )
    checks = [(oracle, got, dict(instance, check="formula"))]

    # Same order and total weight, different branch: difference must not move.
    replacement = random_connected_graph(rng, branch.order)
    replacement_beta = ConstantWeight(total / replacement.order)
    replaced = _comparison_oracle(
        host, alpha, x, receptors, replacement, replacement.vertices[0], replacement_beta
    )
    checks.append(
        (oracle, replaced, dict(instance, check="replacement", replacement=replacement))
    )
    return checks


def _check_unicyclic(rng: random.Random, max_size: int | None) -> list[Check]:
    cycle_order, forest = random_unicyclic_instance(
        rng, max_cycle=_cap(8, max_size, floor=3), max_tree_order=_cap(5, max_size)
    )
    oracle = _cycle_graft_oracle(cycle_order, forest)
    got = unicyclic_degree_distance(cycle_order, forest)
    instance = {
        "cycle_order": cycle_order,
        "forest": {
            x: [{"tree": t, "root": root} for t, root in trees] for x, trees in forest.items()
        },
    }
    return [(oracle, got, instance)]


def _check_extcycles(rng: random.Random, max_size: int | None) -> list[Check]:
    host_order, pairs = random_extended_cycle_instance(
        rng, max_host=_cap(8, max_size), max_branch_order=_cap(8, max_size)
    )
    oracle = _cycles_oracle(host_order, [r for r, _ in pairs])
    got = extended_cycle_degree_distance(host_order, pairs)
    return [(oracle, got, {"host_order": host_order, "pairs": pairs})]


def _check_propercycles(rng: random.Random, max_size: int | None) -> list[Check]:
    host_order, branch_orders = random_proper_cycle_instance(
        rng, max_host=_cap(8, max_size, floor=3), max_branch_order=_cap(8, max_size, floor=3)
    )
    oracle = _cycles_oracle(host_order, branch_orders)
    got = proper_cycle_degree_distance(host_order, branch_orders)
    instance = {"host_order": host_order, "branch_orders": branch_orders}
    checks = [(oracle, got, dict(instance, check="formula"))]

    # The general extended-cycle formula must give the same number here.
    pairs = [(r, r) for r in branch_orders]
    extended = extended_cycle_degree_distance(host_order, pairs)
    checks.append((got, extended, dict(instance, check="extended-agreement")))
    return checks


_CHECKERS = {
    "theorem1": partial(_check_graft, family=False),
    "theorem41": partial(_check_graft, family=True),
    "sigma": _check_sigma,
    "flower": _check_flower,
    "comparison": _check_comparison,
    "unicyclic": _check_unicyclic,
    "extcycles": _check_extcycles,
    "propercycles": _check_propercycles,
}

FORMULAS = tuple(sorted(_CHECKERS))


def run_verification(
    formula: str, count: int, seed: int, max_size: int | None = None
) -> VerificationReport:
    """Run `count` seeded random instances of one formula against the oracle."""
    if formula not in _CHECKERS:
        raise GraphFormatError(
            f"unknown formula {formula!r}; choose from {', '.join(FORMULAS)}"
        )
    if count < 0:
        raise GraphFormatError("count must be nonnegative")
    if max_size is not None and max_size < 1:
        raise GraphFormatError(f"max size must be at least 1, got {max_size}")
    checker = _CHECKERS[formula]
    rng = random.Random(seed)
    report = VerificationReport(formula=formula, instances=count, seed=seed)
    start = time.perf_counter()
    for _ in range(count):
        for expected, got, instance in checker(rng, max_size):
            if expected != got:
                report.mismatches.append(
                    Mismatch(
                        expected=format_rational(expected),
                        got=format_rational(got),
                        instance=_describe(instance),
                    )
                )
    report.elapsed_seconds = time.perf_counter() - start
    return report
