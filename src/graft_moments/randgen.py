"""Seeded random instances for formula-vs-oracle verification.

Everything here is a pure function of the supplied random.Random, so a
fixed seed reproduces the exact same instances (and therefore the exact
same verification transcript).  Graphs are built as a random spanning
tree plus extra edges; rationals keep numerators <= 20 and denominators
<= 5 so intermediate values stay readable, and graft specs and flowers
glue at most 4 branches.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction

from .closed_forms import extended_cycle_edge_count
from .graph import Graph, _check_order
from .products import Attachment, GraftSpec
from .weights import (
    DEGREE,
    HALF,
    UNIT,
    AffineWeight,
    ConstantWeight,
    ExplicitWeight,
    WeightFunction,
)


def random_rational(rng: random.Random) -> Fraction:
    """Small nonnegative rational."""
    return Fraction(rng.randint(0, 20), rng.randint(1, 5))


def _tree_edges(rng: random.Random, order: int) -> list[tuple[int, int]]:
    """Attach each new vertex somewhere earlier: (parent, child), parent < child."""
    return [(rng.randrange(v), v) for v in range(1, order)]


def _graph_on_range(order: int, edges: list[tuple[int, int]]) -> Graph:
    """Graph(range(order), edges) for distinct edges drawn on range(order), unchecked."""
    _check_order(order)
    neighbors: list[list[int]] = [[] for _ in range(order)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    return Graph._trusted(neighbors)


def random_tree(rng: random.Random, order: int) -> Graph:
    """Uniform-ish random labeled tree: attach each new vertex somewhere earlier."""
    return _graph_on_range(order, _tree_edges(rng, order))


def random_connected_graph(rng: random.Random, order: int) -> Graph:
    """Random spanning tree (drawn as random_tree draws it) plus a few random extra edges.

    The extra edges are a sample of the missing pairs (u, v), u < v, in
    lexicographic order.  random.sample picks by the population's length
    alone, so the sample is drawn as indices and each index mapped to its
    pair through per-row counts: O(order) memory, not a list of every
    missing pair.
    """
    _check_order(order)
    edges = _tree_edges(rng, order)
    # skips[u][j] = c_j - u - 1 - j for u's tree children c_0 < c_1 < ...:
    # how many pairs of row u come before (u, c_j)
    skips: list[list[int]] = [[] for _ in range(order)]
    for u, v in edges:
        skips[u].append(v - u - 1 - len(skips[u]))
    starts, count = [], 0  # index of each row's first pair, pairs in all
    for u, children in enumerate(skips):
        starts.append(count)
        count += order - 1 - u - len(children)
    extra = rng.randint(0, min(count, order))
    for i in rng.sample(range(count), extra):
        u = bisect_right(starts, i) - 1
        k = i - starts[u]
        edges.append((u, u + 1 + k + bisect_right(skips[u], k)))
    return _graph_on_range(order, edges)


def random_weight_function(rng: random.Random, g: Graph) -> WeightFunction:
    """One of every supported weight kind, with valid random parameters."""
    kind = rng.choice(["unit", "half", "degree", "constant", "explicit", "affine"])
    if kind == "unit":
        return UNIT
    if kind == "half":
        return HALF
    if kind == "degree":
        return DEGREE
    if kind == "constant":
        return ConstantWeight(random_rational(rng))
    if kind == "explicit":
        return ExplicitWeight({v: random_rational(rng) for v in g.vertices})
    base = rng.choice([UNIT, HALF, DEGREE])
    return AffineWeight(random_rational(rng), base, random_rational(rng))


def random_graft_spec(
    rng: random.Random,
    *,
    max_host: int = 12,
    max_branch_order: int = 8,
    allow_repeated_receptors: bool = False,
) -> GraftSpec:
    host = random_connected_graph(rng, rng.randint(1, max_host))
    branch_count = rng.randint(0, 4)
    if allow_repeated_receptors:
        receptors = [rng.choice(host.vertices) for _ in range(branch_count)]
    else:
        branch_count = min(branch_count, host.order)
        receptors = rng.sample(host.vertices, branch_count)
    attachments = []
    for receptor in receptors:
        branch = random_connected_graph(rng, rng.randint(1, max_branch_order))
        root = rng.choice(branch.vertices)
        attachments.append(
            Attachment(receptor, branch, root, random_weight_function(rng, branch))
        )
    return GraftSpec(
        host, tuple(attachments), random_weight_function(rng, host)
    )


def random_flower_branches(
    rng: random.Random, *, max_branch_order: int = 6
) -> list[tuple[Graph, int, WeightFunction]]:
    branches = []
    for _ in range(rng.randint(1, 4)):
        branch = random_connected_graph(rng, rng.randint(1, max_branch_order))
        branches.append(
            (branch, rng.choice(branch.vertices), random_weight_function(rng, branch))
        )
    return branches


def random_permutation_instance(
    rng: random.Random, *, max_order: int = 5
) -> tuple[Graph, WeightFunction, Graph, WeightFunction, list[int]]:
    """(host, alpha, branch, beta, sigma) with |host| = |branch|."""
    r = rng.randint(1, max_order)
    host = random_connected_graph(rng, r)
    branch = random_connected_graph(rng, r)
    sigma = rng.sample(range(1, r + 1), r)
    return (
        host,
        random_weight_function(rng, host),
        branch,
        random_weight_function(rng, branch),
        sigma,
    )


def random_comparison_instance(
    rng: random.Random, *, max_host: int = 8, max_branch_order: int = 6
) -> tuple[Graph, WeightFunction, int, list[int], Graph, int, WeightFunction]:
    """(host, alpha, x, receptors, branch, root, beta); receptors distinct."""
    host = random_connected_graph(rng, rng.randint(2, max_host))
    x = rng.choice(host.vertices)
    receptor_count = rng.randint(1, min(4, host.order))
    receptors = rng.sample(host.vertices, receptor_count)
    branch = random_connected_graph(rng, rng.randint(1, max_branch_order))
    root = rng.choice(branch.vertices)
    return (
        host,
        random_weight_function(rng, host),
        x,
        receptors,
        branch,
        root,
        random_weight_function(rng, branch),
    )


def random_unicyclic_instance(
    rng: random.Random, *, max_cycle: int = 8, max_tree_order: int = 5
) -> tuple[int, dict[int, list[tuple[Graph, int]]]]:
    """(cycle order, forest) with zero to two random trees per cycle vertex."""
    cycle_order = rng.randint(3, max_cycle)
    forest: dict[int, list[tuple[Graph, int]]] = {}
    for x in range(cycle_order):
        trees = []
        for _ in range(rng.randint(0, 2)):
            tree = random_tree(rng, rng.randint(1, max_tree_order))
            trees.append((tree, rng.choice(tree.vertices)))
        if trees:
            forest[x] = trees
    return cycle_order, forest


def random_extended_cycle_instance(
    rng: random.Random, *, max_host: int = 8, max_branch_order: int = 8
) -> tuple[int, list[tuple[int, int]]]:
    """(host order, per-vertex (r, m) pairs) over the whole extended range."""
    host_order = rng.randint(1, max_host)
    pairs = []
    for _ in range(host_order):
        r = rng.randint(1, max_branch_order)
        pairs.append((r, extended_cycle_edge_count(r)))
    return host_order, pairs


def random_proper_cycle_instance(
    rng: random.Random, *, max_host: int = 8, max_branch_order: int = 8
) -> tuple[int, list[int]]:
    host_order = rng.randint(3, max_host)
    return host_order, [rng.randint(3, max_branch_order) for _ in range(host_order)]
