"""Graph construction, BFS distances, distance matrices, isomorphism."""

from __future__ import annotations

import itertools
import random

import pytest

from graft_moments import (
    DisconnectedGraph,
    EmptyGraph,
    Graph,
    GraphFormatError,
    TooLarge,
    UnknownVertex,
    are_isomorphic,
    bfs_distances,
    complete_graph,
    cycle_graph,
    diamond_graph,
    distance_matrix,
    distance_row_sums,
    graph_from_json_dict,
    graph_to_json_dict,
    is_connected,
    isomorphism_classes,
    path_graph,
    star_graph,
)
from graft_moments.graph import (
    _int_adjacency,
    _Invariants,
    _row_sums_bit_parallel,
    _row_sums_per_source,
)
from graft_moments.products import permutation_graph
from graft_moments.randgen import random_connected_graph, random_tree


def test_construction_is_symmetric_and_counts_edges():
    g = Graph([0, 1, 2], [(0, 1), (1, 2)])
    assert g.order == 3
    assert g.edge_count == 2
    assert g.neighbors(1) == (0, 2)
    assert g.has_edge(1, 0) and g.has_edge(0, 1)
    assert 2 * g.edge_count == sum(g.degree(v) for v in g.vertices)


@pytest.mark.parametrize(
    "vertices,edges",
    [
        ([0, 0, 1], []),                # duplicate vertex id
        ([0, 1], [(0, 0)]),             # self-loop
        ([0, 1], [(0, 1), (1, 0)]),     # duplicate edge
        ([0, 1], [(0, 2)]),             # unknown endpoint
        ([0, 1], [(True, 0)]),          # bool endpoint equal to vertex 1
        ([0, 1], [(0, 1.0)]),           # float endpoint equal to vertex 1
    ],
)
def test_construction_rejects_non_simple_input(vertices, edges):
    with pytest.raises(GraphFormatError):
        Graph(vertices, edges)


def test_bfs_distances_on_path(p4):
    assert bfs_distances(p4, 0) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_bfs_distances_on_singleton(k1):
    assert bfs_distances(k1, 0) == {0: 0}


def test_bfs_distances_on_diamond_degree_two_vertex(diamond):
    # vertex 2 has degree 2; the opposite degree-2 vertex sits two steps away
    assert sorted(bfs_distances(diamond, 2).values()) == [0, 1, 1, 2]


def test_bfs_distances_unknown_source(p4):
    with pytest.raises(UnknownVertex):
        bfs_distances(p4, 9)


def test_bfs_distances_raises_on_disconnected():
    g = Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        bfs_distances(g, 0)


def test_distance_matrix_of_k2(k2):
    dm = distance_matrix(k2)
    assert dm.entries == ((0, 1), (1, 0))


def test_distance_matrix_row_sums_c5(c5):
    assert distance_matrix(c5).row_sums == (6, 6, 6, 6, 6)


def test_distance_matrix_row_sums_c4():
    assert distance_matrix(cycle_graph(4)).row_sums == (4, 4, 4, 4)


def test_distance_matrix_invariants_on_random_graphs():
    rng = random.Random(101)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(1, 10))
        dm = distance_matrix(g)
        n = g.order
        for i, u in enumerate(g.vertices):
            assert dm.entries[i][i] == 0
            assert dm.row_sum(u) == sum(bfs_distances(g, u).values())
            for j, v in enumerate(g.vertices):
                assert dm.entries[i][j] == dm.entries[j][i]
                if i != j:
                    assert dm.entries[i][j] >= 1
                    assert (dm.entries[i][j] == 1) == g.has_edge(u, v)
                for k in range(n):
                    assert dm.entries[i][k] <= dm.entries[i][j] + dm.entries[j][k]


def test_distance_matrix_requires_connected():
    with pytest.raises(DisconnectedGraph):
        distance_matrix(Graph([0, 1], []))


def test_is_connected(p4, k1):
    assert is_connected(p4)
    assert is_connected(k1)
    assert not is_connected(Graph([0, 1, 2, 3], [(0, 1), (2, 3)]))
    with pytest.raises(EmptyGraph):
        is_connected(Graph([], []))


def test_isomorphic_path_relabeled(p4):
    relabeled = Graph([7, 3, 5, 11], [(3, 7), (3, 5), (5, 11)])
    assert are_isomorphic(p4, relabeled)


def test_not_isomorphic_path_vs_star(p4):
    assert not are_isomorphic(p4, star_graph(3))


def test_isomorphism_cap():
    big = path_graph(17)
    with pytest.raises(TooLarge):
        are_isomorphic(big, big)
    assert are_isomorphic(big, big, cap=17)


def _brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.order != g2.order or g1.edge_count != g2.edge_count:
        return False
    e2 = {frozenset(e) for e in g2.edges()}
    for perm in itertools.permutations(g2.vertices):
        mapping = dict(zip(g1.vertices, perm))
        if {frozenset((mapping[u], mapping[v])) for u, v in g1.edges()} == e2:
            return True
    return False


def test_isomorphism_agrees_with_brute_force_on_small_graphs():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 6)
        g1 = random_connected_graph(rng, n)
        g2 = random_connected_graph(rng, n)
        assert are_isomorphic(g1, g2) == _brute_force_isomorphic(g1, g2)


def test_isomorphism_is_an_equivalence_on_a_sample():
    rng = random.Random(5)
    graphs = [random_connected_graph(rng, rng.randint(2, 7)) for _ in range(8)]
    for g in graphs:
        assert are_isomorphic(g, g)
    for g1, g2 in itertools.combinations(graphs, 2):
        assert are_isomorphic(g1, g2) == are_isomorphic(g2, g1)
    for g1, g2, g3 in itertools.combinations(graphs, 3):
        if are_isomorphic(g1, g2) and are_isomorphic(g2, g3):
            assert are_isomorphic(g1, g3)


def test_builders():
    assert complete_graph(4).edge_count == 6
    assert star_graph(5).degree(0) == 5
    assert cycle_graph(2).edge_count == 1
    assert cycle_graph(1).order == 1
    d = diamond_graph()
    assert sorted(d.degree(v) for v in d.vertices) == [2, 2, 3, 3]


def test_json_round_trip(diamond):
    again = graph_from_json_dict(graph_to_json_dict(diamond))
    assert again == diamond


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"vertices": [0, 1]},
        {"vertices": [0, 1], "edges": [[0, 1, 2]]},
        {"vertices": [0, 1], "edges": [[0, 0]]},
        {"vertices": [0, 1], "edges": [[0, 1]], "extra": 1},
        {"vertices": "xy", "edges": []},
        {"vertices": [0, 1], "edges": [[True, 0]]},
    ],
)
def test_json_rejects_malformed(obj):
    with pytest.raises(GraphFormatError):
        graph_from_json_dict(obj)


# -- row-sum kernel -------------------------------------------------------


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    """Same graph with shuffled vertex order and scattered integer ids."""
    ids = rng.sample(range(-500, 500), g.order)
    label = dict(zip(g.vertices, ids))
    order = list(g.vertices)
    rng.shuffle(order)
    return Graph([label[v] for v in order], [(label[u], label[v]) for u, v in g.edges()])


def _kernel_cases() -> list[tuple[str, Graph]]:
    rng = random.Random(2024)
    cases = [
        ("k1", Graph([0], [])),
        ("k2", path_graph(2)),
        ("p3", path_graph(3)),
        ("c3", cycle_graph(3)),
        ("diamond", diamond_graph()),
    ]
    for n in (4, 9, 40, 120):
        cases += [
            (f"path-{n}", path_graph(n)),
            (f"cycle-{n}", cycle_graph(n)),
            (f"star-{n}", star_graph(n - 1)),
        ]
    cases += [(f"complete-{n}", complete_graph(n)) for n in (4, 12, 30)]
    cases += [(f"tree-{n}", random_tree(rng, n)) for n in (5, 17, 64, 200, 300)]
    cases += [(f"rand-{n}", random_connected_graph(rng, n)) for n in (6, 23, 80, 150, 300)]
    cases += [
        (f"relabeled-{name}", _relabeled(g, rng))
        for name, g in list(cases)
        if name in ("p3", "diamond", "path-40", "tree-64", "rand-80")
    ]
    return cases


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name,g", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_distance_row_sums_match_the_matrix(name, g):
    expected = distance_matrix(g).row_sums
    assert distance_row_sums(g) == expected
    adjacency = _int_adjacency(g)
    assert _row_sums_bit_parallel(adjacency) == expected
    assert _row_sums_per_source(adjacency) == expected


@pytest.mark.parametrize(
    "g",
    [Graph([0, 1], []), Graph([0, 1, 2, 3], [(0, 1), (2, 3)]), Graph([5, 3, 4], [(3, 4)])],
)
def test_distance_row_sums_raise_like_the_matrix_when_disconnected(g):
    with pytest.raises(DisconnectedGraph) as expected:
        distance_matrix(g)
    with pytest.raises(DisconnectedGraph) as got:
        distance_row_sums(g)
    assert str(got.value) == str(expected.value)


def test_distance_row_sums_raise_like_the_matrix_when_empty():
    with pytest.raises(EmptyGraph) as expected:
        distance_matrix(Graph([], []))
    with pytest.raises(EmptyGraph) as got:
        distance_row_sums(Graph([], []))
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("name,g", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_distance_row_sums_agree_with_networkx(name, g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    row_sums = distance_row_sums(g)
    assert nx.wiener_index(h) == sum(row_sums) / 2
    for v, s in zip(g.vertices, row_sums):
        assert sum(nx.single_source_shortest_path_length(h, v).values()) == s


# -- isomorphism classes ---------------------------------------------------


def _pairwise_classes(graphs: list[Graph]) -> list[tuple[Graph, list[int]]]:
    """Reference: test each graph against every earlier class by brute force."""
    classes: list[tuple[Graph, list[int]]] = []
    for position, g in enumerate(graphs):
        for representative, members in classes:
            if _brute_force_isomorphic(representative, g):
                members.append(position)
                break
        else:
            classes.append((g, [position]))
    return classes


def _graph_lists() -> list[list[Graph]]:
    rng = random.Random(404)
    lists = []
    for _ in range(40):
        graphs = [random_connected_graph(rng, rng.randint(1, 6)) for _ in range(6)]
        graphs += [_relabeled(graphs[0], rng) for _ in range(3)]
        graphs += [_relabeled(rng.choice(graphs), rng) for _ in range(2)]
        rng.shuffle(graphs)
        lists.append(graphs)
    return lists


def test_isomorphism_classes_match_a_pairwise_scan():
    for graphs in _graph_lists():
        expected = _pairwise_classes(graphs)
        got = isomorphism_classes(iter(graphs))
        assert [members for _, members in got] == [members for _, members in expected]
        assert all(rep is graphs[members[0]] for rep, members in got)


def _k33() -> Graph:
    return Graph(range(6), [(i, j) for i in range(3) for j in range(3, 6)])


def _prism() -> Graph:
    """C3 x K2: triangles 0-1-2 and 3-4-5 joined by a perfect matching."""
    return Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def test_isomorphism_classes_split_a_bucket_collision():
    # both 3-regular of diameter 2: every vertex has 1, 3 and 2 vertices at
    # distances 0, 1 and 2, so the two share a bucket
    rng = random.Random(9)
    k33, prism = _k33(), _prism()
    assert _Invariants(k33).key == _Invariants(prism).key
    graphs = [k33, prism, _relabeled(prism, rng), _relabeled(k33, rng)]
    classes = isomorphism_classes(graphs)
    assert [members for _, members in classes] == [[0, 3], [1, 2]]
    assert not are_isomorphic(k33, prism)


def test_isomorphism_classes_cap():
    with pytest.raises(TooLarge):
        isomorphism_classes([path_graph(3), path_graph(17)])
    classes = isomorphism_classes([path_graph(17), path_graph(17)], cap=17)
    assert [members for _, members in classes] == [[0, 1]]
    assert isomorphism_classes([]) == []


def _permutation_products(host: Graph, branch: Graph) -> list[Graph]:
    return [
        permutation_graph(host, branch, sigma).graph
        for sigma in itertools.permutations(range(1, host.order + 1))
    ]


def test_isomorphism_classes_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    c4_with_tail = Graph(range(5), [(0, 1), (1, 2), (1, 4), (2, 3), (3, 4)])
    pairs = [
        (diamond_graph(), path_graph(4)),  # 3 classes
        (path_graph(4), path_graph(4)),  # 4
        (_relabeled(c4_with_tail, rng), _relabeled(path_graph(5), rng)),  # 18
        (  # 33
            _relabeled(c4_with_tail, rng),
            _relabeled(Graph(range(5), [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (3, 4)]), rng),
        ),
    ]
    for host, branch in pairs:
        products = _permutation_products(host, branch)
        buckets: dict[tuple[int, ...], list] = {}
        count = 0
        for g in products:
            h = nx.Graph()
            h.add_nodes_from(g.vertices)
            h.add_edges_from(g.edges())
            bucket = buckets.setdefault(tuple(sorted(d for _, d in h.degree())), [])
            if not any(nx.is_isomorphic(rep, h) for rep in bucket):
                bucket.append(h)
                count += 1
        assert len(isomorphism_classes(products, cap=25)) == count
