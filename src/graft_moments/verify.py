"""Formula-vs-oracle verification over seeded random instances.

The oracle is always the same: build the product graph, run one plain
BFS (`_bfs_reached`) from every vertex, sum each one's distances into
that vertex's row sum as it goes, and sum weight (`value`, one
`Fraction` per vertex) times row sum; no n x n matrix is kept.
`moments.moment`, `moments.indices` and the closed forms take their
row sums from the separate `distance_row_sums` kernel, so a fault in
either row-sum path shows up as a mismatch instead of cancelling out.
The closed forms' point moments use `bfs_distances`, which shares its
single-source loop `_bfs_reached` with the oracle (and with
`distance_matrix`); that loop is the one piece of distance code on both
sides.  A verifier draws random
instances, evaluates the closed form and the oracle, and records every
disagreement (there should be none) in a report.  Some verifiers chain
extra checks onto each instance -- the comparison formula must also be
invariant under swapping the branch for another of equal order and
total weight, and the proper-cycle formula must agree with the
extended-cycle formula.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

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
from .errors import DisconnectedGraph, EmptyGraph, GraphFormatError
from .graph import Graph, _bfs_reached, cycle_graph, graph_to_json_dict
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

    Raises what distance_matrix raises, with the same messages.
    """
    if g.order == 0:
        raise EmptyGraph("distance matrix of the empty graph")
    result = Fraction(0)
    for v in g.vertices:
        dist = _bfs_reached(g, v)
        if len(dist) != g.order:
            raise DisconnectedGraph(
                f"only {len(dist)} of {g.order} vertices reachable from {v!r}"
            )
        result += weights.value(g, v) * sum(dist.values())
    return result


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


def _cap(default: int, max_size: int | None, floor: int = 1) -> int:
    if max_size is None:
        return default
    return max(floor, min(default, max_size))


def _spec_instance(spec: GraftSpec) -> dict:
    return {
        "host": graph_to_json_dict(spec.host),
        "host_weights": describe_weight(spec.host_weights),
        "attachments": [
            {
                "receptor": a.receptor,
                "branch": graph_to_json_dict(a.branch),
                "root": a.root,
                "weights": describe_weight(a.weights),
            }
            for a in spec.attachments
        ],
    }


def _check_theorem1(rng: random.Random, max_size: int | None) -> list[Check]:
    spec = random_graft_spec(
        rng,
        max_host=_cap(12, max_size),
        max_branch_order=_cap(8, max_size),
    )
    product = graft(spec)
    oracle = _oracle_moment(product.graph, product.gamma)
    got = graft_moment_formula(spec)
    return [(oracle, got, _spec_instance(spec))]


def _check_theorem41(rng: random.Random, max_size: int | None) -> list[Check]:
    spec = random_graft_spec(
        rng,
        max_host=_cap(12, max_size),
        max_branch_order=_cap(8, max_size),
        allow_repeated_receptors=True,
    )
    product = graft(spec)
    oracle = _oracle_moment(product.graph, product.gamma)
    got = family_graft_moment_formula(
        spec.host, spec.host_weights, attachments_by_receptor(spec)
    )
    return [(oracle, got, _spec_instance(spec))]


def _check_sigma(rng: random.Random, max_size: int | None) -> list[Check]:
    host, alpha, branch, beta, sigma = random_permutation_instance(
        rng, max_order=_cap(5, max_size)
    )
    product = permutation_graph(
        host, branch, sigma, host_weights=alpha, branch_weights=beta
    )
    oracle = _oracle_moment(product.graph, product.gamma)
    got = permutation_moment_formula(host, alpha, branch, beta)
    instance = {
        "host": graph_to_json_dict(host),
        "alpha": describe_weight(alpha),
        "branch": graph_to_json_dict(branch),
        "beta": describe_weight(beta),
        "sigma": list(sigma),
    }
    return [(oracle, got, instance)]


def _check_flower(rng: random.Random, max_size: int | None) -> list[Check]:
    center = random_rational(rng)
    branches = random_flower_branches(rng, max_branch_order=_cap(6, max_size))
    product = flower(center, branches)
    oracle = _oracle_moment(product.graph, product.gamma)
    got = flower_moment_formula(center, branches)
    instance = {
        "center": format_rational(center),
        "branches": [
            {
                "branch": graph_to_json_dict(b),
                "root": root,
                "weights": describe_weight(w),
            }
            for b, root, w in branches
        ],
    }
    return [(oracle, got, instance)]


def _comparison_oracle(
    host: Graph,
    alpha,
    x: int,
    receptors: list[int],
    branch: Graph,
    root: int,
    beta,
) -> Fraction:
    spread = graft(
        GraftSpec(
            host,
            tuple(Attachment(r, branch, root, beta) for r in receptors),
            alpha,
        )
    )
    stacked = graft(
        GraftSpec(
            host,
            tuple(Attachment(x, branch, root, beta) for _ in receptors),
            alpha,
        )
    )
    return _oracle_moment(stacked.graph, stacked.gamma) - _oracle_moment(
        spread.graph, spread.gamma
    )


def _check_comparison(rng: random.Random, max_size: int | None) -> list[Check]:
    host, alpha, x, receptors, branch, root, beta = random_comparison_instance(
        rng, max_host=_cap(8, max_size, floor=2), max_branch_order=_cap(6, max_size)
    )
    total = beta.total(branch)
    instance = {
        "host": graph_to_json_dict(host),
        "alpha": describe_weight(alpha),
        "x": x,
        "receptors": list(receptors),
        "branch": graph_to_json_dict(branch),
        "root": root,
        "beta": describe_weight(beta),
    }
    oracle = _comparison_oracle(host, alpha, x, receptors, branch, root, beta)
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
        (
            oracle,
            replaced,
            dict(
                instance,
                check="replacement",
                replacement=graph_to_json_dict(replacement),
            ),
        )
    )
    return checks


def _check_unicyclic(rng: random.Random, max_size: int | None) -> list[Check]:
    cycle_order, forest = random_unicyclic_instance(
        rng, max_cycle=_cap(8, max_size, floor=3), max_tree_order=_cap(5, max_size)
    )
    attachments = tuple(
        Attachment(x, tree, root)
        for x in sorted(forest)
        for tree, root in forest[x]
    )
    product = graft(GraftSpec(cycle_graph(cycle_order), attachments))
    oracle = _oracle_moment(product.graph, DEGREE)
    got = unicyclic_degree_distance(cycle_order, forest)
    instance = {
        "cycle_order": cycle_order,
        "forest": {
            str(x): [
                {"tree": graph_to_json_dict(t), "root": root}
                for t, root in forest[x]
            ]
            for x in sorted(forest)
        },
    }
    return [(oracle, got, instance)]


def _build_cycle_product(host_order: int, branch_orders: list[int]) -> Graph:
    attachments = tuple(
        Attachment(x, cycle_graph(r), 0) for x, r in enumerate(branch_orders)
    )
    return graft(GraftSpec(cycle_graph(host_order), attachments)).graph


def _check_extcycles(rng: random.Random, max_size: int | None) -> list[Check]:
    host_order, pairs = random_extended_cycle_instance(
        rng, max_host=_cap(8, max_size), max_branch_order=_cap(8, max_size)
    )
    product = _build_cycle_product(host_order, [r for r, _ in pairs])
    oracle = _oracle_moment(product, DEGREE)
    got = extended_cycle_degree_distance(host_order, pairs)
    instance = {"host_order": host_order, "pairs": [list(p) for p in pairs]}
    return [(oracle, got, instance)]


def _check_propercycles(rng: random.Random, max_size: int | None) -> list[Check]:
    host_order, branch_orders = random_proper_cycle_instance(
        rng, max_host=_cap(8, max_size, floor=3), max_branch_order=_cap(8, max_size, floor=3)
    )
    product = _build_cycle_product(host_order, branch_orders)
    oracle = _oracle_moment(product, DEGREE)
    got = proper_cycle_degree_distance(host_order, branch_orders)
    instance = {"host_order": host_order, "branch_orders": list(branch_orders)}
    checks = [(oracle, got, dict(instance, check="formula"))]

    # The general extended-cycle formula must give the same number here.
    pairs = [(r, r) for r in branch_orders]
    extended = extended_cycle_degree_distance(host_order, pairs)
    checks.append((got, extended, dict(instance, check="extended-agreement")))
    return checks


_CHECKERS = {
    "theorem1": _check_theorem1,
    "theorem41": _check_theorem41,
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
                        instance=instance,
                    )
                )
    report.elapsed_seconds = time.perf_counter() - start
    return report
