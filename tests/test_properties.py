"""Property tests of the paper's identities on small generated instances,
of the combined weight and moment linearity against Fraction references,
and of the CLI's JSON writer against json.dumps(obj, indent=2).

Hypothesis is a test-only dependency; without it this module is skipped.
Runs are derandomized, so a failure reproduces from the test alone.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graft_moments import (
    DEGREE,
    HALF,
    UNIT,
    AffineWeight,
    Attachment,
    ConstantWeight,
    DisconnectedGraph,
    EmptyGraph,
    ExplicitWeight,
    Graph,
    bfs_distances,
    distance_matrix,
    distance_row_sums,
    GraftSpec,
    concentration_difference_formula,
    extended_cycle_degree_distance,
    extended_cycle_edge_count,
    family_graft_moment_formula,
    flower,
    flower_moment_formula,
    graft,
    graft_moment_formula,
    graft_product_to_json_dict,
    indices,
    moment,
    permutation_graph,
    path_graph,
    permutation_moment_formula,
    proper_cycle_degree_distance,
    unicyclic_degree_distance,
)
from graft_moments.cli import _emit_json
from graft_moments.graph import _ball_sums, _blocks, _int_adjacency, _point_moments
from graft_moments.verify import (
    _comparison_oracle,
    _cycle_graft_oracle,
    _cycles_oracle,
    _graft_oracle,
    _oracle_moment,
)

PROPERTY_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None)

rationals = st.fractions(min_value=0, max_value=6, max_denominator=4)


@st.composite
def connected_graphs(draw, max_order: int = 5, min_order: int = 1) -> Graph:
    """A random tree on 0..n-1 (vertex i hangs on an earlier one) plus extra edges."""
    n = draw(st.integers(min_order, max_order))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return Graph(range(n), tree + extra)


@st.composite
def explicit_weights(draw, g: Graph) -> ExplicitWeight:
    return ExplicitWeight({v: draw(rationals) for v in g.vertices})


@st.composite
def weighted(draw, g: Graph):
    """A unit, degree, constant, explicit or affine weight on g."""
    kind = draw(st.sampled_from(["unit", "degree", "constant", "explicit", "affine"]))
    if kind == "unit":
        return UNIT
    if kind == "degree":
        return DEGREE
    if kind == "constant":
        return ConstantWeight(draw(rationals))
    if kind == "explicit":
        return draw(explicit_weights(g))
    return AffineWeight(draw(rationals), draw(weighted(g)), draw(rationals))


@st.composite
def rooted_branches(draw) -> tuple[Graph, int, object]:
    branch = draw(connected_graphs())
    return branch, draw(st.sampled_from(branch.vertices)), draw(weighted(branch))


@st.composite
def graft_specs(draw) -> GraftSpec:
    host = draw(connected_graphs())
    attachments = [
        Attachment(draw(st.sampled_from(host.vertices)), *draw(rooted_branches()))
        for _ in range(draw(st.integers(0, 4)))
    ]
    return GraftSpec(host, tuple(attachments), draw(weighted(host)))


@PROPERTY_SETTINGS
@given(graft_specs(), st.data())
def test_grafting_in_two_steps_equals_grafting_in_one(spec, data):
    split = data.draw(st.integers(0, len(spec.attachments)))
    first = graft(GraftSpec(spec.host, spec.attachments[:split], spec.host_weights))
    second = GraftSpec(
        first.graph,
        tuple(
            Attachment(first.host_map[a.receptor], a.branch, a.root, a.weights)
            for a in spec.attachments[split:]
        ),
        first.gamma,
    )
    assert graft_moment_formula(second) == graft_moment_formula(spec)


@PROPERTY_SETTINGS
@given(graft_specs())
def test_graft_form_equals_the_oracle(spec):
    assert graft_moment_formula(spec) == _graft_oracle(spec)


@st.composite
def families(draw):
    """(host, alpha, family): up to three rooted branches, or none, at some host vertices."""
    host = draw(connected_graphs())
    family = {
        x: [draw(rooted_branches()) for _ in range(draw(st.integers(0, 3)))]
        for x in draw(st.sets(st.sampled_from(host.vertices)))
    }
    return host, draw(weighted(host)), family


@PROPERTY_SETTINGS
# a repeated receptor next to one with an empty branch list
@example((path_graph(3), DEGREE, {0: [(path_graph(3), 0, UNIT), (path_graph(2), 1, DEGREE)], 2: []}))
@given(families())
def test_family_form_equals_the_oracle(instance):
    host, alpha, family = instance
    attachments = tuple(Attachment(x, *b) for x, branches in family.items() for b in branches)
    assert family_graft_moment_formula(host, alpha, family) == _graft_oracle(
        GraftSpec(host, attachments, alpha)
    )


@PROPERTY_SETTINGS
@given(st.integers(1, 6).flatmap(lambda r: st.lists(st.integers(1, 6), min_size=r, max_size=r)))
def test_extended_cycle_form_equals_the_oracle(branch_orders):
    host_order = len(branch_orders)
    pairs = [(r, extended_cycle_edge_count(r)) for r in branch_orders]
    assert extended_cycle_degree_distance(host_order, pairs) == _cycles_oracle(
        host_order, branch_orders
    )


@PROPERTY_SETTINGS
@given(st.integers(3, 6).flatmap(lambda r: st.lists(st.integers(3, 6), min_size=r, max_size=r)))
def test_proper_cycle_form_equals_the_oracle(branch_orders):
    host_order = len(branch_orders)
    assert proper_cycle_degree_distance(host_order, branch_orders) == _cycles_oracle(
        host_order, branch_orders
    )


@PROPERTY_SETTINGS
@given(rationals, st.lists(rooted_branches(), max_size=4))
def test_flower_form_equals_the_oracle(center, branches):
    product = flower(center, branches)
    assert flower_moment_formula(center, branches) == _oracle_moment(
        product.graph, product.gamma
    )


@st.composite
def relabelled_graphs(draw, max_order: int = 12) -> Graph:
    """A simple graph on distinct ids of either sign: connected_graphs, or any, empty included."""
    if draw(st.booleans()):
        g = draw(connected_graphs(max_order))
    else:
        n = draw(st.integers(0, max_order))
        pairs = [(u, v) for v in range(n) for u in range(v)]
        g = Graph(range(n), draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    ids = draw(st.lists(st.integers(-1000, 1000), min_size=g.order, max_size=g.order, unique=True))
    return Graph(ids, [(ids[u], ids[v]) for u, v in g.edges()])


@PROPERTY_SETTINGS
@given(relabelled_graphs(), st.data())
def test_the_oracle_is_the_matrix_sum_or_raises_as_the_matrix_does(g, data):
    weights = data.draw(weighted(g))
    try:
        row_sums = distance_matrix(g).row_sums
    except (EmptyGraph, DisconnectedGraph) as exc:
        with pytest.raises(type(exc)) as got:
            _oracle_moment(g, weights)
        assert str(got.value) == str(exc)
        return
    expected = sum((weights.value(g, v) * s for v, s in zip(g.vertices, row_sums)), Fraction(0))
    assert _oracle_moment(g, weights) == expected


@PROPERTY_SETTINGS
@given(graft_specs())
def test_gamma_json_is_the_fraction_sum_of_the_factor_weights(spec):
    product = graft(spec)
    expected = {
        product.host_map[v]: spec.host_weights.value(spec.host, v) for v in spec.host.vertices
    }
    for a, bmap in zip(spec.attachments, product.branch_maps):
        for bv in a.branch.vertices:
            expected[bmap[bv]] = expected.get(bmap[bv], 0) + a.weights.value(a.branch, bv)
    gamma = graft_product_to_json_dict(product)["gamma"]
    assert list(gamma.items()) == [
        (str(v), f"{w.numerator}/{w.denominator}") for v, w in sorted(expected.items())
    ]


@PROPERTY_SETTINGS
@given(connected_graphs(max_order=8).flatmap(lambda g: st.tuples(st.just(g), explicit_weights(g))))
def test_half_weight_gives_the_wiener_index(gw):
    g, w = gw
    report = indices(g, w)
    assert moment(g, HALF) == report.wiener
    assert report.moment == moment(g, w)


@PROPERTY_SETTINGS
@given(
    connected_graphs(max_order=8).flatmap(lambda g: st.tuples(st.just(g), explicit_weights(g))),
    rationals,
    rationals,
)
def test_moment_is_linear_in_the_weight(gw, a, c):
    g, w = gw
    assert moment(g, AffineWeight(a, w, c)) == a * moment(g, w) + c * moment(g, UNIT)


@st.composite
def trees(draw, max_order: int = 4) -> Graph:
    n = draw(st.integers(1, max_order))
    return Graph(range(n), [(draw(st.integers(0, i - 1)), i) for i in range(1, n)])


@st.composite
def long_trees(draw, max_order: int = 40) -> Graph:
    """A spine of 8 to 16 vertices from vertex 0, then leaves and two-vertex
    tails on spine vertices, each vertex i > 0 hung on an earlier one.

    Vertex 0's eccentricity is at least 7, above the bit length of any
    order up to 63, so distance_row_sums takes these trees by their blocks.
    """
    spine = draw(st.integers(8, 16))
    edges = [(i - 1, i) for i in range(1, spine)]
    n = spine
    for _ in range(draw(st.integers(0, (max_order - spine) // 2))):
        at = draw(st.integers(0, spine - 1))
        edges.append((at, n))
        n += 1
        if draw(st.booleans()):
            edges.append((n - 1, n))
            n += 1
    return Graph(range(n), edges)


def _reaches_the_blocks(g: Graph) -> bool:
    """Whether the first vertex's eccentricity sends distance_row_sums to _blocks."""
    return max(bfs_distances(g, g.vertices[0]).values()) > g.order.bit_length()


@PROPERTY_SETTINGS
@given(long_trees())
def test_tree_degree_distance_is_four_wiener_minus_pairs(tree):
    # D'(T) = 4 W(T) - n(n - 1) (Klein, Mihalic, Plavsic and Trinajstic 1992)
    assert _reaches_the_blocks(tree)
    n = tree.order
    assert moment(tree, DEGREE) == 4 * moment(tree, HALF) - n * (n - 1)


@st.composite
def glued_graphs(draw) -> Graph:
    """Connected pieces glued at cut vertices, a long pendant path, vertices shuffled.

    Up to five pieces (C3 to C8, K4, connected_graphs draws), each glued
    by one of its vertices onto a random vertex already placed, so a block
    may hold several cut vertices.  The path has 14 to 20 vertices and
    the order stays below 64, so every vertex's eccentricity is at least
    7, above the order's bit length.  The vertex order is shuffled, so the
    first vertex may be a cut vertex, inside a big block, or a leaf.
    """
    edges: list[tuple[int, int]] = []
    n = 1
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["cycle", "k4", "drawn"]))
        if kind == "cycle":
            k = draw(st.integers(3, 8))
            piece = [(i, (i + 1) % k) for i in range(k)]
        elif kind == "k4":
            k, piece = 4, [(u, v) for v in range(4) for u in range(v)]
        else:
            drawn = draw(connected_graphs(6, min_order=2))
            k, piece = drawn.order, list(drawn.edges())
        place = [draw(st.integers(0, n - 1)), *range(n, n + k - 1)]
        edges += [(place[u], place[v]) for u, v in piece]
        n += k - 1
    length = draw(st.integers(14, 20))
    edges += [(draw(st.integers(0, n - 1)), n)] + [(i, i + 1) for i in range(n, n + length - 1)]
    n += length
    return Graph(draw(st.permutations(range(n))), edges)


@settings(max_examples=150, derandomize=True, deadline=None)
# the first vertex is the pendant path's leaf; C5 and K4 share vertex 2
@example(
    Graph(
        range(21, -1, -1),
        [(i, (i + 1) % 5) for i in range(5)]
        + [(u, v) for v in (2, 5, 6, 7) for u in (2, 5, 6, 7) if u < v]
        + [(i, i + 1) for i in range(7, 21)],
    )
)
@given(glued_graphs())
def test_row_sums_by_blocks_equal_the_matrix(g):
    # s(0) comes from the probe BFS and each block's adjacency keeps only
    # its own edges: both show in the rerooted sums
    assert _reaches_the_blocks(g)
    assert len(_blocks(_int_adjacency(g))) > 1
    assert distance_row_sums(g) == distance_matrix(g).row_sums


# a connected graph and x >= 0 on it: small values (a plane or three) or up to 40 bits
graphs_with_nonnegative_maps = connected_graphs(max_order=12).flatmap(
    lambda g: st.tuples(
        st.just(g),
        st.lists(
            st.one_of(st.integers(0, 5), st.integers(0, 1 << 40)),
            min_size=g.order,
            max_size=g.order,
        ),
    )
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graphs_with_nonnegative_maps)
def test_nonnegative_point_moments_equal_the_matrix_product(gx):
    g, x = gx
    expected = [sum(map(lambda d, c: d * c, row, x)) for row in distance_matrix(g).entries]
    adjacency = _int_adjacency(g)
    assert _ball_sums(adjacency, x) == expected
    assert _point_moments(adjacency, x) == expected


# each vertex's explicit weight in twelfths from 0 to 6: int draws are fast
twelfths = st.integers(0, 72).map(lambda k: Fraction(k, 12))
weighted_long_trees = long_trees().flatmap(
    lambda t: st.tuples(st.just(t), st.lists(twelfths, min_size=t.order, max_size=t.order))
)


@PROPERTY_SETTINGS
@given(weighted_long_trees)
def test_tree_moment_is_a_sum_over_edge_splits(tw):
    # M^w(T) = sum over edges of n_a * W_b + n_b * W_a, the orders and total
    # weights of the two sides (Wiener 1947; Klavzar and Gutman 1997)
    tree, weights = tw
    assert _reaches_the_blocks(tree)
    n, w = tree.order, ExplicitWeight(dict(zip(tree.vertices, weights)))
    size, below = [1] * n, weights[:]  # order and weight of the subtree at i
    for i in reversed(range(1, n)):
        parent = min(tree.neighbors(i))  # every vertex hangs on an earlier one
        size[parent] += size[i]
        below[parent] += below[i]
    total = sum(weights)
    assert moment(tree, w) == sum(
        (n - size[i]) * below[i] + size[i] * (total - below[i]) for i in range(1, n)
    )


@PROPERTY_SETTINGS
@given(connected_graphs(4), st.data())
def test_permutation_form_equals_the_oracle(branch, data):
    host = data.draw(connected_graphs(branch.order, min_order=branch.order))
    alpha, beta = data.draw(weighted(host)), data.draw(weighted(branch))
    sigma = data.draw(st.permutations(range(1, host.order + 1)))
    product = permutation_graph(host, branch, sigma, host_weights=alpha, branch_weights=beta)
    assert permutation_moment_formula(host, alpha, branch, beta) == _oracle_moment(
        product.graph, product.gamma
    )


@PROPERTY_SETTINGS
@given(connected_graphs(), rooted_branches(), st.data())
def test_concentration_form_equals_the_oracle(host, rooted, data):
    branch, root, beta = rooted
    alpha = data.draw(weighted(host))
    x = data.draw(st.sampled_from(host.vertices))
    receptors = data.draw(st.lists(st.sampled_from(host.vertices), min_size=1, max_size=3))
    got = concentration_difference_formula(
        host, alpha, x, receptors, branch.order, beta.total(branch)
    )
    assert got == _comparison_oracle(host, alpha, x, receptors, branch, root, beta)


@st.composite
def cycle_forests(draw) -> tuple[int, dict[int, list[tuple[Graph, int]]]]:
    """(r, forest): up to two rooted trees at each of some vertices of C_r."""
    r = draw(st.integers(3, 6))
    forest = {}
    for x in draw(st.sets(st.integers(0, r - 1))):
        rooted = [draw(trees()) for _ in range(draw(st.integers(0, 2)))]
        forest[x] = [(t, draw(st.sampled_from(t.vertices))) for t in rooted]
    return r, forest


@PROPERTY_SETTINGS
@given(cycle_forests())
def test_unicyclic_form_equals_the_oracle(instance):
    cycle_order, forest = instance
    assert unicyclic_degree_distance(cycle_order, forest) == _cycle_graft_oracle(cycle_order, forest)


# JSON trees for the emitter: every scalar json writes, the shapes the
# emitter has a fast road for (int lists, [int, int] pair lists with the
# pairs as lists, tuples or both), and those shapes spoiled by a bool or a
# third item
json_text = st.text() | st.text(st.sampled_from('a"\\/\n\t\x00\x7f\u00e9\u2028\U0001f600'))
json_ints = st.integers() | st.integers(-(2**200), 2**200)
json_scalars = st.none() | st.booleans() | json_ints | st.floats() | json_text
json_keys = json_text | json_ints | st.booleans() | st.none() | st.floats()
int_pairs = st.lists(json_ints | st.booleans(), min_size=2, max_size=3)
json_trees = st.recursive(
    json_scalars
    | st.lists(json_ints, max_size=8)
    | st.lists(json_ints | st.booleans(), max_size=8)
    | st.lists(int_pairs, max_size=6)
    | st.lists(st.tuples(json_ints, json_ints), max_size=4)
    | st.lists(st.tuples(json_ints, json_ints) | int_pairs, max_size=4),
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(json_keys, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(json_trees)
def test_emit_json_writes_what_json_dumps_writes_with_indent_2(tree):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(tree)
    assert out.getvalue() == json.dumps(tree, indent=2) + "\n"
