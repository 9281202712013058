"""Formula-vs-oracle verification over seeded random instances.

The oracle is always the same: one level-synchronous BFS from every
vertex of the product graph at once, each source one bit of an int
(Then et al., "The More the Merrier: Efficient Multi-Source Graph
Traversal", PVLDB 2014).  At level d each vertex ORs its neighbours'
frontiers, keeps the sources it had not yet reached, and adds d times
their count to its row sum s(v); the oracle then sums weight times row
sum, and no n x n matrix is kept.  Each weight is its reduced int pair
p/q, p * s(v) goes into one int per denominator q, and one `Fraction`
per distinct denominator gives the exact result; the weights' `value`
and `vector` are not called.  `_graft_oracle` builds a graft product
with `graft` and sums it so, weighted by its gamma unless told
otherwise; every graft-based checker and the test suite go through it.
The oracle shares no distance code with what it certifies:
`moments.moment`, `moments.indices` and the closed forms take their row
sums (`distance_row_sums`, D*1), their point-moment rows and D*y, y a
list of ints by position, from `graph._point_moments`, whose ball pass
sums Y - y(B_d) where the oracle counts newly reached sources, so a
fault in either shows up as a mismatch instead of cancelling out.  The
oracle reads each graph through its public `vertices` and `neighbors`
alone, imports no private name from `graph`, runs none of its BFS code
(`_distances`, under `bfs_distances` and `distance_matrix` too), and
neither reads nor fills anything a `Graph` keeps; on the oracle's side
only `graft`'s factor validation (`is_connected`) runs `_distances`.  A
verifier draws random instances, evaluates the closed form and the
oracle, and records every disagreement (there should be none) in a
report; an instance is kept as its graphs, weights and numbers and
written out as JSON, with its 0-based index in the run, only when it
disagrees.  Some verifiers chain extra checks onto each instance -- the
comparison formula must also be invariant under swapping the branch for
another of equal order and total weight, and the proper-cycle formula
must agree with the extended-cycle formula.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field, fields
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
from .errors import DisconnectedGraph, EmptyGraph, GraphFormatError
from .graph import Graph, cycle_graph, graph_to_json_dict
from .products import Attachment, GraftSpec, _require_int, flower, graft, permutation_graph
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
    """sum_v w(v) * s(v), the row sums s(v) from one BFS of every source at once.

    reach[i] holds the sources that have reached vertex i, one bit each,
    and frontier[i] those that reached it at the last level; at level d,
    new = (OR of the neighbours' frontiers) & ~reach[i] is the set of
    sources at distance d from i, so d * popcount(new) goes into i's row,
    which by symmetry is s(v).  A vertex leaves the loop once nothing new
    reaches it or every source has.  Each weight is taken as its reduced
    pair p/q; p * s(v) is added to one int per denominator q, and each
    denominator makes one Fraction at the end.  Raises what
    distance_matrix raises, with the same messages, and a row error
    before any weight error.
    """
    vertices = g.vertices
    n = len(vertices)
    if n == 0:
        raise EmptyGraph("distance matrix of the empty graph")
    position = {v: i for i, v in enumerate(vertices)}
    neighbours = [[position[w] for w in g.neighbors(v)] for v in vertices]
    everyone = (1 << n) - 1
    reach = [1 << i for i in range(n)]
    frontier = reach[:]
    rows = [0] * n
    active = [i for i in range(n) if neighbours[i]]
    d = 0
    while active:
        d += 1
        grown = [0] * n
        still = []
        for i in active:
            new = 0
            for j in neighbours[i]:
                new |= frontier[j]
            new &= ~reach[i]
            if new:
                reach[i] |= new
                rows[i] += d * new.bit_count()
                grown[i] = new
                if reach[i] != everyone:
                    still.append(i)
        active = still
        frontier = grown
    if reach[0] != everyone:
        raise DisconnectedGraph(
            f"only {reach[0].bit_count()} of {n} vertices reachable from {vertices[0]!r}"
        )
    sums: dict[int, int] = {}
    for v, nbrs, row_sum in zip(vertices, neighbours, rows):
        p, q = weights._at(v, len(nbrs))
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
    index: int  # the instance's 0-based position; the seed and count index + 1 draw it again
    expected: str
    got: str
    instance: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    _require_int("count", count)
    if count < 0:
        raise GraphFormatError("count must be nonnegative")
    if max_size is not None:
        _require_int("max size", max_size)
        if max_size < 1:
            raise GraphFormatError(f"max size must be at least 1, got {max_size}")
    checker = _CHECKERS[formula]
    rng = random.Random(seed)
    report = VerificationReport(formula=formula, instances=count, seed=seed)
    start = time.perf_counter()
    for index in range(count):
        for expected, got, instance in checker(rng, max_size):
            if expected != got:
                report.mismatches.append(
                    Mismatch(
                        index=index,
                        expected=format_rational(expected),
                        got=format_rational(got),
                        instance=_describe(instance),
                    )
                )
    report.elapsed_seconds = time.perf_counter() - start
    return report
