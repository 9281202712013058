"""Graft product construction and its named special cases."""

from __future__ import annotations

import json
import operator
import random
from fractions import Fraction

import pytest

from graft_moments import products
from graft_moments import graph as graph_module
from graft_moments import (
    AffineWeight,
    ArityMismatch,
    Attachment,
    DEGREE,
    DisconnectedGraph,
    DuplicateReceptor,
    ExplicitWeight,
    GraftMomentsError,
    Graph,
    GraphFormatError,
    GraftSpec,
    OrderMismatch,
    TooLarge,
    UNIT,
    UnknownVertex,
    are_isomorphic,
    binomial_tree,
    coalescence,
    concentration_difference_formula,
    cycle_graph,
    diamond_graph,
    family_graft_moment_formula,
    flower,
    flower_moment_formula,
    graft,
    graft_moment_formula,
    graft_product_to_json_dict,
    graft_spec_from_json_dict,
    hierarchical_product,
    is_connected,
    path_graph,
    permutation_graph,
    permutation_moment_formula,
    rooted_product,
    star_graph,
    star_receptor_graft,
)
from graft_moments.randgen import random_graft_spec


def test_graft_two_edges_make_a_path(k2):
    product = graft(GraftSpec(k2, (Attachment(0, k2, 0),)))
    assert product.graph.order == 3
    assert are_isomorphic(product.graph, path_graph(3))


def test_graft_k1_branches_echo_host(p4, k1):
    spec = GraftSpec(p4, tuple(Attachment(v, k1, 0) for v in p4.vertices))
    product = graft(spec)
    assert product.graph == Graph(range(4), [(0, 1), (1, 2), (2, 3)])


def test_graft_order_and_edge_formulas():
    rng = random.Random(31)
    for _ in range(25):
        spec = random_graft_spec(rng, max_host=8, max_branch_order=6,
                                 allow_repeated_receptors=rng.random() < 0.5)
        product = graft(spec)
        expected_order = spec.host.order + sum(
            a.branch.order - 1 for a in spec.attachments
        )
        expected_edges = spec.host.edge_count + sum(
            a.branch.edge_count for a in spec.attachments
        )
        assert product.graph.order == expected_order
        assert product.graph.edge_count == expected_edges
        assert is_connected(product.graph)


def test_graft_provenance_maps():
    rng = random.Random(32)
    for _ in range(10):
        spec = random_graft_spec(rng, max_host=6, max_branch_order=5)
        product = graft(spec)
        host_ids = set(product.host_map.values())
        assert len(host_ids) == spec.host.order  # injective
        for att, bmap in zip(spec.attachments, product.branch_maps):
            assert bmap[att.root] == product.host_map[att.receptor]
            interior = {pid for bv, pid in bmap.items() if bv != att.root}
            assert interior.isdisjoint(host_ids)


def test_graft_rejects_bad_vertices(p4, k2):
    with pytest.raises(UnknownVertex):
        graft(GraftSpec(p4, (Attachment(9, k2, 0),)))
    with pytest.raises(UnknownVertex):
        graft(GraftSpec(p4, (Attachment(0, k2, 9),)))


def test_graft_rejects_disconnected_parts(k2):
    broken = Graph([0, 1, 2], [(0, 1)])
    with pytest.raises(DisconnectedGraph):
        graft(GraftSpec(broken, ()))
    with pytest.raises(DisconnectedGraph):
        graft(GraftSpec(k2, (Attachment(0, broken, 0),)))


def test_graft_reports_errors_in_order(k2, k1):
    # factors first, then the order cap, then host weights, then branch weights
    missing = ExplicitWeight({})
    negative = AffineWeight(-1, UNIT, 0)
    long_path = path_graph(5001)
    over_cap = (Attachment(0, long_path, 0), Attachment(0, long_path, 0))
    too_large = (TooLarge, "graph order 10001 exceeds cap 10000")
    no_entry = (UnknownVertex, "weight map has no entry for vertex 0")
    cases = [
        (GraftSpec(k1, over_cap, missing), too_large),
        (GraftSpec(k1, (over_cap[0], Attachment(0, long_path, 0, missing))), too_large),
        (GraftSpec(k2, (Attachment(0, k2, 0, negative),), missing), no_entry),
        (GraftSpec(k2, (Attachment(0, k2, 0, missing), Attachment(1, k2, 0, negative))), no_entry),
        (
            GraftSpec(k2, (Attachment(0, Graph([0, 1], []), 0, missing),), missing),
            (DisconnectedGraph, "branch graph is not connected"),
        ),
    ]
    for spec, expected in cases:
        with pytest.raises(GraftMomentsError) as caught:
            graft(spec)
        assert (caught.type, str(caught.value)) == expected


def _graft_by_edge_list(spec):
    """graft's product the plain way: an edge list through the checked
    Graph constructor, and gamma summed in Fractions."""
    host = spec.host
    host_map = {v: i for i, v in enumerate(host.vertices)}
    edges = [(host_map[u], host_map[v]) for u, v in host.edges()]
    gamma = [spec.host_weights.value(host, v) for v in host.vertices]
    branch_maps = []
    for att in spec.attachments:
        bmap = {}
        for bv in att.branch.vertices:
            weight = att.weights.value(att.branch, bv)
            if bv == att.root:
                bmap[bv] = host_map[att.receptor]
                gamma[bmap[bv]] += weight
            else:
                bmap[bv] = len(gamma)
                gamma.append(weight)
        branch_maps.append(bmap)
        edges.extend((bmap[u], bmap[v]) for u, v in att.branch.edges())
    pairs = {i: (w.numerator, w.denominator) for i, w in enumerate(gamma)}
    return Graph(range(len(gamma)), edges), pairs, host_map, tuple(branch_maps)


def test_graft_builds_what_the_checked_constructor_builds():
    rng = random.Random(34)
    for _ in range(3000):
        spec = random_graft_spec(rng, allow_repeated_receptors=True)
        product = graft(spec)
        graph, pairs, host_map, branch_maps = _graft_by_edge_list(spec)
        assert product.graph._vertices == graph._vertices
        assert list(product.graph._adjacency.items()) == list(graph._adjacency.items())
        assert product.graph.edge_count == graph.edge_count
        assert list(product.gamma._pairs.items()) == list(pairs.items())
        assert product.host_map == host_map
        assert product.branch_maps == branch_maps


def test_graft_refuses_an_over_cap_spec_before_building_an_edge(monkeypatch, k1, k2):
    def refuse(*args):
        raise AssertionError("graft built the product")

    long_path = path_graph(5001)
    over_cap = GraftSpec(k1, (Attachment(0, long_path, 0), Attachment(0, long_path, 0)))
    monkeypatch.setattr(products, "_int_adjacency", refuse)
    monkeypatch.setattr(Graph, "_trusted", refuse)
    with pytest.raises(TooLarge, match="graph order 10001 exceeds cap 10000"):
        graft(over_cap)
    with pytest.raises(AssertionError):
        graft(GraftSpec(k2, (Attachment(0, k2, 0),)))


def test_grafting_a_host_twice_leaves_its_kept_data_alone(p4, c3):
    # graft grows copies of the host's kept int adjacency, never the tuples themselves
    adjacency, row_sums = graph_module._int_adjacency(p4), graph_module.distance_row_sums(p4)
    spec = GraftSpec(p4, (Attachment(1, c3, 0), Attachment(1, c3, 2), Attachment(3, p4, 0)))
    first, second = graft(spec), graft(spec)
    assert first.graph._vertices == second.graph._vertices
    assert list(first.graph._adjacency.items()) == list(second.graph._adjacency.items())
    assert first.gamma._pairs == second.gamma._pairs
    assert (first.host_map, first.branch_maps) == (second.host_map, second.branch_maps)
    assert first.graph.order == 11 and first.graph.edge_count == 12
    assert graph_module._int_adjacency(p4) is adjacency
    assert adjacency == ((1,), (0, 2), (1, 3), (2,))
    assert graph_module.distance_row_sums(p4) is row_sums
    assert row_sums == (6, 4, 4, 6)


def test_graft_is_deterministic():
    rng1, rng2 = random.Random(33), random.Random(33)
    spec1 = random_graft_spec(rng1, max_host=6)
    spec2 = random_graft_spec(rng2, max_host=6)
    out1 = json.dumps(graft_product_to_json_dict(graft(spec1)))
    out2 = json.dumps(graft_product_to_json_dict(graft(spec2)))
    assert out1 == out2


def test_coalescence(p3, k1):
    product = coalescence(p3, 1, p3, 1)
    assert are_isomorphic(product.graph, star_graph(4))
    assert coalescence(p3, 0, k1, 0).graph.order == 3


def test_rooted_product(k2, k1, c3):
    product = rooted_product(k2, [(k2, 0), (k2, 0)])
    assert are_isomorphic(product.graph, path_graph(4))
    echo = rooted_product(k2, [(k1, 0), (k1, 0)])
    assert echo.graph.order == 2
    tri = rooted_product(c3, [(c3, 0), (c3, 1), (c3, 2)])
    assert tri.graph.order == 9
    assert tri.graph.edge_count == 12
    with pytest.raises(ArityMismatch):
        rooted_product(k2, [(k2, 0)])


def test_flower(k2, p3):
    assert are_isomorphic(flower(0, [(k2, 0)] * 3).graph, star_graph(3))
    single = flower(1, [(p3, 0)])
    assert are_isomorphic(single.graph, p3)
    double = flower(0, [(p3, 0), (p3, 2)])
    assert are_isomorphic(double.graph, path_graph(5))


def test_permutation_graph(diamond, p4, k2):
    product = permutation_graph(diamond, p4, [1, 2, 3, 4])
    assert product.graph.order == 16
    assert product.graph.edge_count == 17
    single = permutation_graph(Graph([0], []), Graph([5], []), [1])
    assert single.graph.order == 1
    with pytest.raises(OrderMismatch):
        permutation_graph(diamond, k2, [1, 2])
    with pytest.raises(GraphFormatError):
        permutation_graph(k2, k2, [1, 1])
    with pytest.raises(GraphFormatError):
        permutation_graph(k2, k2, [0, 1])


def test_permutations_differing_by_branch_automorphism_are_isomorphic(k2, p4, diamond):
    # swapping the two ends of P4 is an automorphism-like relabeling of roots
    a = permutation_graph(diamond, p4, [1, 2, 3, 4]).graph
    b = permutation_graph(diamond, p4, [4, 3, 2, 1]).graph
    assert are_isomorphic(a, b)


def test_hierarchical_product(k2, p3):
    assert are_isomorphic(hierarchical_product(k2, k2, 0).graph, path_graph(4))
    partial = hierarchical_product(p3, k2, 0, receptors=[1])
    assert are_isomorphic(partial.graph, star_graph(3))
    with pytest.raises(DuplicateReceptor):
        hierarchical_product(p3, k2, 0, receptors=[1, 1])
    with pytest.raises(ArityMismatch):
        hierarchical_product(p3, k2, 0, receptors=[])


def test_binomial_tree():
    t3 = binomial_tree(3)
    assert t3.order == 8
    assert t3.edge_count == 7
    assert is_connected(t3)
    assert binomial_tree(0).order == 1
    assert are_isomorphic(binomial_tree(2), path_graph(4))


def test_star_receptor_graft(p3, k2, k1):
    product = star_receptor_graft(p3, 1, k2, 0, 2)
    assert are_isomorphic(product.graph, star_graph(4))
    one = star_receptor_graft(p3, 0, k2, 0, 1)
    assert are_isomorphic(one.graph, coalescence(p3, 0, k2, 0).graph)
    hub = star_receptor_graft(k1, 0, k2, 0, 3)
    assert are_isomorphic(hub.graph, flower(0, [(k2, 0)] * 3).graph)


_K2, _P3 = path_graph(2), path_graph(3)
_NOT_A_BRANCH = "branch must be (graph, root) or (graph, root, weights)"

# (call, error class, message): every malformed argument of a builder or a
# Theorem 1 form is a GraftMomentsError with its own message, never a bare
# TypeError, AttributeError or ValueError from deep inside the build
BAD_ARGUMENTS = {
    "rooted-entry-of-one": (
        lambda: rooted_product(_K2, [(_K2,), (_K2, 0)]), GraphFormatError, _NOT_A_BRANCH,
    ),
    "rooted-branches-not-a-sequence": (
        lambda: rooted_product(_K2, 5), GraphFormatError, "branches must be a sequence, got 5",
    ),
    "flower-branches-not-a-sequence": (
        lambda: flower(1, 5), GraphFormatError, "branches must be a sequence, got 5",
    ),
    "flower-entry-not-a-sequence": (lambda: flower(1, [5]), GraphFormatError, _NOT_A_BRANCH),
    "flower-form-branches-not-a-sequence": (
        lambda: flower_moment_formula(1, 5),
        GraphFormatError,
        "branches must be a sequence, got 5",
    ),
    "flower-form-entry-not-a-sequence": (
        lambda: flower_moment_formula(1, [5]), GraphFormatError, _NOT_A_BRANCH,
    ),
    "family-not-a-mapping": (
        lambda: family_graft_moment_formula(_P3, UNIT, [1]),
        GraphFormatError,
        "family must be a mapping, got [1]",
    ),
    "family-branches-not-a-sequence": (
        lambda: family_graft_moment_formula(_P3, UNIT, {0: 5}),
        GraphFormatError,
        "branches at 0 must be a sequence, got 5",
    ),
    "family-entry-of-one": (
        lambda: family_graft_moment_formula(_P3, UNIT, {0: [(_K2,)]}),
        GraphFormatError,
        _NOT_A_BRANCH,
    ),
    "spec-entry-not-an-attachment": (
        lambda: graft(GraftSpec(_P3, [5])),
        GraphFormatError,
        "attachment must be of type Attachment, got 5",
    ),
    "spec-entry-a-tuple": (
        lambda: graft_moment_formula(GraftSpec(_P3, [(0, _K2, 0)])),
        GraphFormatError,
        "attachment must be of type Attachment, got (0, Graph(order=2, edges=1), 0)",
    ),
    "spec-attachments-not-iterable": (
        lambda: graft(GraftSpec(_P3, 5)),
        GraphFormatError,
        "attachments must be of type Iterable, got 5",
    ),
    "spec-not-a-spec": (
        lambda: graft(5), GraphFormatError, "spec must be of type GraftSpec, got 5",
    ),
    "spec-not-a-spec-formula": (
        lambda: graft_moment_formula(5),
        GraphFormatError,
        "spec must be of type GraftSpec, got 5",
    ),
    "spec-host-not-a-graph": (
        lambda: graft(GraftSpec(5)), GraphFormatError, "host must be of type Graph, got 5",
    ),
    "spec-host-a-list": (
        lambda: graft_moment_formula(GraftSpec([0])),
        GraphFormatError,
        "host must be of type Graph, got [0]",
    ),
    "rooted-host-not-a-graph": (
        lambda: rooted_product(5, [(_K2, 0)]),
        GraphFormatError,
        "host must be of type Graph, got 5",
    ),
    "hierarchical-host-not-a-graph": (
        lambda: hierarchical_product(5, _K2, 0),
        GraphFormatError,
        "host must be of type Graph, got 5",
    ),
    "permutation-host-not-a-graph": (
        lambda: permutation_graph(5, _K2, [1, 2]),
        GraphFormatError,
        "host must be of type Graph, got 5",
    ),
    "permutation-form-branch-not-a-graph": (
        lambda: permutation_moment_formula(_K2, UNIT, 5, UNIT),
        GraphFormatError,
        "branch must be of type Graph, got 5",
    ),
    "branch-not-a-graph": (
        lambda: coalescence(_P3, 0, 5, 0), GraphFormatError, "branch must be of type Graph, got 5",
    ),
    "branch-a-string": (
        lambda: graft_moment_formula(GraftSpec(_P3, [Attachment(0, "k2", 0)])),
        GraphFormatError,
        "branch must be of type Graph, got 'k2'",
    ),
    "branch-weights-not-a-weight": (
        lambda: coalescence(_P3, 0, _K2, 0, branch_weights=1),
        GraphFormatError,
        "branch weights must be of type WeightFunction, got 1",
    ),
    "host-weights-a-spec-string": (
        lambda: graft(GraftSpec(_P3, (), "unit")),
        GraphFormatError,
        "host weights must be of type WeightFunction, got 'unit'",
    ),
    "host-weights-an-int": (
        lambda: graft_moment_formula(GraftSpec(_P3, (), 2)),
        GraphFormatError,
        "host weights must be of type WeightFunction, got 2",
    ),
    "root-a-string": (
        lambda: graft(GraftSpec(_P3, [Attachment(0, _K2, "0")])),
        GraphFormatError,
        "receptor and root must be integer vertex ids",
    ),
    "binomial-index-negative": (
        lambda: binomial_tree(-1), GraphFormatError, "binomial tree index must be nonnegative",
    ),
    "binomial-index-a-float": (
        lambda: binomial_tree(2.5),
        GraphFormatError,
        "binomial tree index must be an integer, got 2.5",
    ),
    "copies-negative": (
        lambda: star_receptor_graft(_P3, 0, _K2, 0, copies=-1),
        GraphFormatError,
        "copies must be nonnegative",
    ),
    "copies-a-float": (
        lambda: star_receptor_graft(_P3, 0, _K2, 0, copies=2.5),
        GraphFormatError,
        "copies must be an integer, got 2.5",
    ),
    "hierarchical-receptors-not-a-sequence": (
        lambda: hierarchical_product(_P3, _K2, 0, receptors=5),
        GraphFormatError,
        "receptors must be a sequence, got 5",
    ),
    "hierarchical-receptor-a-list": (
        lambda: hierarchical_product(_P3, _K2, 0, receptors=[[0]]),
        GraphFormatError,
        "receptor and root must be integer vertex ids",
    ),
    "sigma-not-a-sequence": (
        lambda: permutation_graph(_K2, _K2, sigma=5),
        GraphFormatError,
        "sigma must be a sequence, got 5",
    ),
    "sigma-with-a-string": (
        lambda: permutation_graph(_K2, _K2, [1, "a"]),
        GraphFormatError,
        "sigma entry must be an integer, got 'a'",
    ),
    "sigma-of-floats": (
        lambda: permutation_graph(_K2, _K2, [1.0, 2.0]),
        GraphFormatError,
        "sigma entry must be an integer, got 1.0",
    ),
    "concentration-receptors-not-a-sequence": (
        lambda: concentration_difference_formula(_P3, UNIT, 0, 5, 2, 1),
        GraphFormatError,
        "receptors must be a sequence, got 5",
    ),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_builders_reject_bad_arguments(case):
    call, error, message = BAD_ARGUMENTS[case]
    with pytest.raises(GraftMomentsError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_spec_json_parsing(tmp_path):
    obj = {
        "host": {"vertices": [0, 1], "edges": [[0, 1]]},
        "attachments": [
            {
                "receptor": 0,
                "branch": {"vertices": [0, 1], "edges": [[0, 1]]},
                "root": 1,
                "weights": "degree",
            }
        ],
        "host_weights": "const:3/2",
    }
    spec = graft_spec_from_json_dict(obj)
    assert spec.host.order == 2
    assert spec.attachments[0].root == 1
    product = graft(spec)
    assert product.graph.order == 3


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        {"host": {"vertices": [0], "edges": []}, "attachments": [{}]},
        {"host": {"vertices": [0], "edges": []}, "bogus": 1},
        {
            "host": {"vertices": [0], "edges": []},
            "attachments": [
                {"receptor": "x", "branch": {"vertices": [0], "edges": []}, "root": 0}
            ],
        },
    ],
)
def test_spec_json_rejects_malformed(obj):
    with pytest.raises(GraphFormatError):
        graft_spec_from_json_dict(obj)


def _spec_with_branches(*branches):
    return {
        "host": {"vertices": [0, 1], "edges": [[0, 1]]},
        "attachments": [{"receptor": 0, "branch": b, "root": 0} for b in branches],
    }


def test_spec_json_parses_each_repeated_branch_once():
    k2 = {"vertices": [0, 1], "edges": [[0, 1]]}
    spec = graft_spec_from_json_dict(
        _spec_with_branches(k2, {"vertices": [0], "edges": []}, dict(k2), k2)
    )
    first, single, second, third = (a.branch for a in spec.attachments)
    assert first is second is third
    assert single is not first and single.order == 1
    # equal in value but not in repr: parsed on their own, and rejected
    for twin, message in [
        ({"vertices": [0, True], "edges": [[0, 1]]}, "vertex ids must be integers, got True"),
        ({"vertices": (0, 1), "edges": [[0, 1]]}, 'graph JSON needs "vertices" and "edges" lists'),
    ]:
        with pytest.raises(GraphFormatError, match=message):
            graft_spec_from_json_dict(_spec_with_branches(k2, twin))
    # a bad repeated branch fails where it first appears, before a later bad receptor
    bad = {"vertices": [0, 0], "edges": []}
    obj = _spec_with_branches({"vertices": [0], "edges": []}, bad, bad)
    obj["attachments"].insert(2, {"receptor": "x", "branch": bad, "root": 0})
    with pytest.raises(GraphFormatError, match="^duplicate vertex ids$"):
        graft_spec_from_json_dict(obj)


def test_spec_json_shares_branches_by_value_not_by_text():
    k2 = {"vertices": [0, 1], "edges": [[0, 1]]}
    reordered = {"edges": [[0, 1]], "vertices": [0, 1]}
    flipped = {"vertices": [1, 0], "edges": [[0, 1]]}
    spec = graft_spec_from_json_dict(
        _spec_with_branches(k2, reordered, json.loads(json.dumps(k2)), flipped)
    )
    first, second, third, flipped = (a.branch for a in spec.attachments)
    assert first is second is third
    assert flipped is not first and flipped.vertices == (1, 0)
    # equal to an earlier branch but not all ints: parsed on their own, and rejected
    for twin, message in [
        ({"vertices": [0, 1.0], "edges": [[0, 1]]}, "vertex ids must be integers, got 1.0"),
        ({"vertices": [0, 1], "edges": [[0, True]]}, "edge endpoints must be integers, got True"),
    ]:
        with pytest.raises(GraphFormatError, match=message):
            graft_spec_from_json_dict(_spec_with_branches(k2, twin))


def test_a_repeated_branch_is_checked_once(monkeypatch):
    rows = []
    distances = graph_module._distances
    monkeypatch.setattr(
        graph_module, "_distances", lambda adjacency, v: rows.append(adjacency) or distances(adjacency, v)
    )

    def one_bfs_each(spec):  # the host's, then the one branch object's, by their kept int adjacency
        kept = [g._int_adj for g in (spec.host, spec.attachments[0].branch)]
        return len(rows) == 2 and all(map(operator.is_, rows, kept))

    k2 = {"vertices": [0, 1], "edges": [[0, 1]]}
    spec = graft_spec_from_json_dict(_spec_with_branches(k2, k2, k2))
    assert graft(spec).graph.order == 5
    assert one_bfs_each(spec)

    rows.clear()
    broken = {"vertices": [0, 1, 2], "edges": [[0, 1]]}
    spec = graft_spec_from_json_dict(_spec_with_branches(broken, broken, broken))
    for _ in range(2):
        with pytest.raises(DisconnectedGraph, match="^branch graph is not connected$"):
            graft(spec)
    assert one_bfs_each(spec)


def test_repeated_receptors_accumulate(p3, k2):
    spec = GraftSpec(p3, (Attachment(1, k2, 0), Attachment(1, k2, 0)), UNIT)
    product = graft(spec)
    assert are_isomorphic(product.graph, star_graph(4))
    assert product.gamma.value(product.graph, product.host_map[1]) == 3
