"""Graph construction, BFS distances, distance matrices, isomorphism."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from collections import Counter, deque
from operator import mul

import pytest

from graft_moments import (
    DisconnectedGraph,
    EmptyGraph,
    Graph,
    GraphFormatError,
    TooLarge,
    UNIT,
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
    indices,
    is_connected,
    isomorphism_classes,
    moment,
    path_graph,
    star_graph,
)
from graft_moments import graph as graph_module
from graft_moments.graph import (
    MAX_ORDER,
    _ball_sums,
    _blocks,
    _distances,
    _int_adjacency,
    _level_signatures,
    _one_block,
    _point_moments,
    _ring,
)
from graft_moments.closed_forms import permutation_unit_moment
from graft_moments.products import Attachment, GraftSpec, graft, permutation_graph
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


@pytest.mark.parametrize(
    "edges,message",
    [
        # two faulty edges: the earlier one is reported
        ([(0, 1), (0, 5), (1, 0)], "edge (0, 5) has an unknown endpoint"),
        # one edge, two faults each: type, then membership, then self-loop
        ([(5, True)], "edge endpoints must be integers, got True"),
        ([(1.0, True)], "edge endpoints must be integers, got 1.0"),
        ([(5, 5)], "edge (5, 5) has an unknown endpoint"),
        ([(0, 1), (1, 1), (1, 0)], "self-loop at vertex 1"),
        # an edge that is not a pair
        ([(0, 1, 2)], "edge (0, 1, 2) is not a pair"),
        ([5], "edge 5 is not a pair"),
        (["01"], "edge '01' is not a pair"),
        ([{"0": 1, "1": 0}], "edge {'0': 1, '1': 0} is not a pair"),
        # two bytes unpack to two ints, which may even be vertices
        ([b"\x00\x01"], "edge b'\\x00\\x01' is not a pair"),
        ([b"01"], "edge b'01' is not a pair"),
        ([bytearray(b"\x00\x01")], "edge bytearray(b'\\x00\\x01') is not a pair"),
    ],
)
def test_construction_reports_the_first_fault(edges, message):
    with pytest.raises(GraphFormatError) as info:
        Graph([0, 1], edges)
    assert str(info.value) == message


def test_construction_accepts_int_subclasses_but_bool():
    class Id(int):
        pass

    g = Graph([0, 1, 2], [(Id(0), 1), (1, Id(2))])
    assert g.edge_count == 2 and g.neighbors(1) == (0, 2)


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


def test_is_connected_runs_one_bfs_per_graph_object(monkeypatch):
    rows = []
    distances = graph_module._distances
    monkeypatch.setattr(
        graph_module, "_distances", lambda adjacency, v: rows.append(adjacency) or distances(adjacency, v)
    )

    def one_bfs_each(*graphs):  # one row, in this order, on each graph's kept int adjacency
        return len(rows) == len(graphs) and all(r is g._int_adj for r, g in zip(rows, graphs))

    split = Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
    assert [is_connected(split) for _ in range(3)] == [False] * 3
    assert one_bfs_each(split)
    empty = Graph([], [])
    for _ in range(3):
        with pytest.raises(EmptyGraph):
            is_connected(empty)
    # equal graphs, different vertex orders: each object checks itself
    forward = Graph([0, 1, 2], [(0, 1), (1, 2)])
    backward = Graph([2, 1, 0], [(0, 1), (1, 2)])
    assert forward == backward
    assert [is_connected(g) for g in (forward, backward, forward, backward)] == [True] * 4
    assert one_bfs_each(split, forward, backward)
    # the probe of distance_row_sums records what it found
    summed = Graph([0, 1, 2], [(0, 2), (1, 2)])
    distance_row_sums(summed)
    rows.clear()
    assert is_connected(summed) and rows == []


def test_isomorphic_path_relabeled(p4):
    relabeled = Graph([7, 3, 5, 11], [(3, 7), (3, 5), (5, 11)])
    assert are_isomorphic(p4, relabeled)


def test_not_isomorphic_path_vs_star(p4):
    assert not are_isomorphic(p4, star_graph(3))


def test_isomorphism_cap():
    big = path_graph(17)
    with pytest.raises(TooLarge):
        are_isomorphic(big, big)
    with pytest.raises(TooLarge, match=r"^isomorphism test capped at order 16; got 17$"):
        are_isomorphic(path_graph(3), big)
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
    with pytest.raises(GraphFormatError) as caught:
        cycle_graph(0)
    assert str(caught.value) == "cycle needs at least one vertex"
    d = diamond_graph()
    assert sorted(d.degree(v) for v in d.vertices) == [2, 2, 3, 3]


def _same_fields(built: Graph, checked: Graph) -> bool:
    """Field by field: vertex order, adjacency items in order, edge count; nothing kept yet."""
    return (
        built._vertices == checked._vertices
        and list(built._adjacency.items()) == list(checked._adjacency.items())
        and built.edge_count == checked.edge_count
        and built._connected is built._int_adj is built._sums is None
    )


def test_builders_build_what_the_checked_constructor_builds():
    for n in range(-2, 51):
        assert _same_fields(path_graph(n), Graph(range(n), [(i, i + 1) for i in range(n - 1)]))
        assert _same_fields(complete_graph(n), Graph(range(n), itertools.combinations(range(n), 2)))
        assert _same_fields(star_graph(n), Graph(range(n + 1), [(0, i) for i in range(1, n + 1)]))
        if n >= 3:
            cycle = Graph(range(n), [(i, (i + 1) % n) for i in range(n)])
            assert _same_fields(cycle_graph(n), cycle)
    for build in (path_graph, cycle_graph, complete_graph, star_graph):
        with pytest.raises(TooLarge, match=f"graph order {MAX_ORDER + 1} exceeds cap"):
            build(MAX_ORDER + 1 - (build is star_graph))


def test_random_generators_build_what_the_checked_constructor_builds():
    # the checking builds the generators made before, drawing the same stream
    def tree_edges(rng, n):
        return [(rng.randrange(v), v) for v in range(1, n)]

    def checked_connected(rng, n):
        edges = tree_edges(rng, n)
        present = set(edges)
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
        extra = rng.randint(0, min(len(missing), n))
        return Graph(range(n), edges + rng.sample(missing, extra))

    for seed in range(200):
        rngs = [random.Random(seed) for _ in range(4)]
        for n in range(51):
            assert _same_fields(random_tree(rngs[0], n), Graph(range(n), tree_edges(rngs[1], n)))
            assert _same_fields(random_connected_graph(rngs[2], n), checked_connected(rngs[3], n))
        assert rngs[0].getstate() == rngs[1].getstate()
        assert rngs[2].getstate() == rngs[3].getstate()
    for seed in range(10):
        rngs = [random.Random(seed) for _ in range(2)]
        for n in (100, 300):
            assert _same_fields(random_connected_graph(rngs[0], n), checked_connected(rngs[1], n))
        assert rngs[0].getstate() == rngs[1].getstate()
    for generate in (random_tree, random_connected_graph):
        with pytest.raises(TooLarge, match=f"graph order {MAX_ORDER + 1} exceeds cap"):
            generate(random.Random(0), MAX_ORDER + 1)


def test_random_connected_graph_lists_no_missing_pairs():
    # order 2,000 has about 2 million missing pairs: some 190 MB as a list
    tracemalloc.start()
    try:
        random_connected_graph(random.Random(0), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


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


def test_distance_matrix_entries_order_and_total():
    matrix = distance_matrix(Graph([7, 3, 5], [(7, 3), (3, 5)]))
    assert matrix.order == 3
    entries = [matrix.entry(u, v) for u in (7, 3, 5) for v in (7, 3, 5)]
    assert entries == [0, 1, 2, 1, 0, 1, 2, 1, 0]
    assert matrix.total == 8
    for u, v in ((7, 9), (9, 7)):
        with pytest.raises(UnknownVertex) as caught:
            matrix.entry(u, v)
        assert str(caught.value) == "vertex 9 is not in the matrix"


# -- row-sum kernel -------------------------------------------------------


def _relabeled(g: Graph, rng: random.Random, spread: int = 500) -> Graph:
    """Same graph with shuffled vertex order and scattered integer ids."""
    ids = rng.sample(range(-spread, spread), g.order)
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


def _grown(rng: random.Random, pieces: int, piece) -> Graph:
    """Glue `pieces` graphs, one at a time, at random vertices of what is built.

    piece(rng) gives the order k and the edges of a small graph on
    0..k-1; its vertex 0 lands on the chosen vertex.
    """
    order, edges = 1, []
    for _ in range(pieces):
        at = rng.randrange(order)
        k, piece_edges = piece(rng)
        label = [at] + list(range(order, order + k - 1))
        edges += [(label[u], label[v]) for u, v in piece_edges]
        order += k - 1
    return Graph(range(order), edges)


def _cactus(rng: random.Random, pieces: int) -> Graph:
    """Cycles of order 3, 4, 5 or 7 and pendant edges: every block is a cycle or a bridge."""

    def piece(rng):
        k = rng.choice([2, 3, 4, 5, 7])
        return k, [(i, i + 1) for i in range(k - 1)] + ([(k - 1, 0)] if k > 2 else [])

    return _grown(rng, pieces, piece)


def _block_graph(rng: random.Random, pieces: int) -> Graph:
    """Cliques of order 2 to 5 glued at cut vertices."""

    def piece(rng):
        k = rng.randint(2, 5)
        return k, list(itertools.combinations(range(k), 2))

    return _grown(rng, pieces, piece)


def _caterpillar(rng: random.Random, spine: int) -> Graph:
    """A path with 0 to 3 leaves on each spine vertex."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    order = spine
    for i in range(spine):
        for _ in range(rng.randint(0, 3)):
            edges.append((i, order))
            order += 1
    return Graph(range(order), edges)


def _graft_like(rng: random.Random) -> Graph:
    """A small dense host with path, cycle and tree branches, receptors repeated."""
    host = random_connected_graph(rng, rng.randint(6, 12))
    branches = []
    for _ in range(rng.randint(3, 6)):
        k = rng.randint(5, 30)
        kind = rng.choice(["path", "cycle", "tree"])
        b = path_graph(k) if kind == "path" else cycle_graph(k) if kind == "cycle" else random_tree(rng, k)
        branches.append((b, rng.randrange(k)))
    attachments = [
        Attachment(rng.choice(host.vertices), *rng.choice(branches)) for _ in range(12)
    ]
    return graft(GraftSpec(host, attachments)).graph


def _block_with_tails(rng: random.Random, order: int, tails: int, length: int) -> Graph:
    """A random connected graph with long paths hanging from random vertices."""
    g = random_connected_graph(rng, order)
    edges = list(g.edges())
    n = order
    for _ in range(tails):
        previous = rng.randrange(order)
        for _ in range(length):
            edges.append((previous, n))
            previous, n = n, n + 1
    return Graph(range(n), edges)


def _block_cases() -> list[tuple[str, Graph]]:
    rng = random.Random(77)
    cases = [(f"cactus-{k}", _cactus(rng, k)) for k in (1, 6, 40, 90)]
    cases += [(f"block-graph-{k}", _block_graph(rng, k)) for k in (3, 20, 70)]
    cases += [(f"caterpillar-{k}", _caterpillar(rng, k)) for k in (3, 25, 120)]
    cases += [(f"graft-like-{i}", _graft_like(rng)) for i in range(4)]
    cases += [("block-with-tails", _block_with_tails(rng, 120, 3, 60))]
    cases += [
        (f"relabeled-{name}", _relabeled(g, rng))
        for name, g in list(cases)
        if name in ("cactus-40", "block-graph-20", "caterpillar-25", "graft-like-0", "block-with-tails")
    ]
    return cases


KERNEL_CASES = _kernel_cases()
BLOCK_CASES = _block_cases()
ROW_SUM_CASES = KERNEL_CASES + BLOCK_CASES
CYCLE_CASES = {"c3", "cycle-4", "cycle-9", "cycle-40", "cycle-120", "cactus-1"}


def _eccentricity(adjacency: list[list[int]]) -> int:
    return max(_distances(adjacency, 0))


def _signature_pass(adjacency: list[list[int]]) -> tuple[list, list[int]]:
    """One signature pass: each vertex's isomorphism signature and its row sum."""
    return _level_signatures(adjacency)


def _queue_bfs(g: Graph, source: int) -> dict[int, int]:
    """Textbook FIFO breadth-first search, for comparison."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _level_sizes(g: Graph, v: int) -> tuple[int, ...]:
    """How many vertices lie at distance 0, 1, 2, ... from v, in v's component."""
    counts = Counter(_queue_bfs(g, v).values())
    return tuple(counts[d] for d in range(len(counts)))


DISCONNECTED_CASES = [
    ("two-k1", Graph([0, 1], [])),
    ("p3+k1", Graph(range(4), [(0, 1), (1, 2)])),
    ("c5+p4", Graph(range(9), [(i, (i + 1) % 5) for i in range(5)] + [(5, 6), (6, 7), (7, 8)])),
    ("k3+k3", Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
    ("c6+k1", Graph(range(7), [(i, (i + 1) % 6) for i in range(6)])),
    (
        "rand-40+tree-30",
        Graph(
            range(70),
            list(random_connected_graph(random.Random(5), 40).edges())
            + [(u + 40, v + 40) for u, v in random_tree(random.Random(6), 30).edges()],
        ),
    ),
]
# Two trees of order 15 with level sizes (1, 5, 1, 7, 1) at vertex 0 of the
# first and (1, 1, 10, 1, 2) at vertex 0 of the second: equal orders, equal
# row sums (32), and equal sums of size * 4**d, so level sizes packed into
# 2-bit fields would carry into equal signatures
CARRY_CASES = [
    ("carry-15a", Graph(range(15), [(0, i) for i in range(1, 6)] + [(1, 6)]
                        + [(6, i) for i in range(7, 14)] + [(7, 14)])),
    ("carry-15b", Graph(range(15), [(0, 1)] + [(1, i) for i in range(2, 12)]
                        + [(2, 12), (12, 13), (12, 14)])),
]
SIGNATURE_CASES = ROW_SUM_CASES + DISCONNECTED_CASES + CARRY_CASES


@pytest.mark.parametrize("name,g", SIGNATURE_CASES, ids=[c[0] for c in SIGNATURE_CASES])
def test_signatures_are_equal_exactly_when_level_sizes_are(name, g):
    signatures, row_sums = _signature_pass(_int_adjacency(g))
    levels = [_level_sizes(g, v) for v in g.vertices]
    pairs = set(zip(signatures, levels))
    assert len(set(signatures)) == len(set(levels)) == len(pairs)
    if is_connected(g):
        assert list(row_sums) == list(distance_matrix(g).row_sums)


def test_signatures_of_equal_orders_are_equal_exactly_when_level_sizes_are():
    # across graphs too: isomorphism buckets compare signatures of different graphs
    by_order: dict[int, set] = {}
    for _, g in SIGNATURE_CASES:
        signatures, _ = _signature_pass(_int_adjacency(g))
        levels = [_level_sizes(g, v) for v in g.vertices]
        by_order.setdefault(g.order, set()).update(zip(signatures, levels))
    assert sum(len(pairs) > 1 for pairs in by_order.values()) > 5
    for pairs in by_order.values():
        assert len({s for s, _ in pairs}) == len({sizes for _, sizes in pairs}) == len(pairs)


@pytest.mark.parametrize("name,g", ROW_SUM_CASES, ids=[c[0] for c in ROW_SUM_CASES])
def test_distance_row_sums_match_the_matrix(name, g):
    expected = distance_matrix(g).row_sums
    assert distance_row_sums(g) == expected
    adjacency = _int_adjacency(g)
    assert tuple(_ball_sums(adjacency, [1] * g.order)) == expected
    assert tuple(sum(_distances(adjacency, v)) for v in range(g.order)) == expected
    # D*1 by the dispatcher, which then takes its own probe
    assert _point_moments(adjacency, [1] * g.order) == list(expected)


def test_the_route_rule_splits_the_kernel_cases():
    # the row sums above and the D*x below are certified on graphs from both sides of the rule
    sides = {
        name: _eccentricity(_int_adjacency(g)) > g.order.bit_length() for name, g in ROW_SUM_CASES
    }
    assert not sides["rand-300"] and not sides["complete-30"] and not sides["star-120"]
    assert sides["path-120"] and sides["tree-300"] and sides["cycle-120"]
    assert all(sides[name] for name, _ in BLOCK_CASES if name.startswith(("graft-like", "block-with")))


def _bfs_sources(monkeypatch) -> list[int]:
    """The source of every _distances call from here on, in call order."""
    sources: list[int] = []
    distances = graph_module._distances
    monkeypatch.setattr(
        graph_module, "_distances", lambda adj, v: sources.append(v) or distances(adj, v)
    )
    return sources


@pytest.mark.parametrize("g", [path_graph(500), _caterpillar(random.Random(3), 200)], ids=["path", "caterpillar"])
def test_tree_row_sums_need_no_whole_graph_kernel(monkeypatch, g):
    g = Graph(g.vertices, g.edges())  # keeps no row sums yet, however often this runs
    expected = distance_matrix(g).row_sums
    sources = _refuse_the_ball_pass(monkeypatch)
    assert distance_row_sums(g) == expected
    assert sources == [0]  # the probe alone: no block BFS, so no _one_block


def _refuse_the_ball_pass(monkeypatch) -> list[int]:
    """Refuse the ball pass; the sources of the BFS runs that follow."""

    def refuse(*args):
        raise AssertionError("the bit-parallel kernel ran")

    monkeypatch.setattr(graph_module, "_ball_sums", refuse)
    return _bfs_sources(monkeypatch)


@pytest.mark.parametrize("n", [3, 10, 30, 64])
def test_small_cycles_take_the_cyclic_slide(monkeypatch, n):
    sources = _refuse_the_ball_pass(monkeypatch)
    assert distance_row_sums(cycle_graph(n)) == (n * n // 4,) * n
    assert sources == [0]  # the probe, then the slide


def _ladder(rungs: int) -> Graph:
    """P_2 x P_rungs: two paths with vertex i of one joined to vertex i of the other."""
    edges = [(i, i + rungs) for i in range(rungs)]
    for start in (0, rungs):
        edges += [(start + i, start + i + 1) for i in range(rungs - 1)]
    return Graph(range(2 * rungs), edges)


def test_larger_cycles_take_the_cyclic_slide_but_a_ladder_goes_per_source(monkeypatch):
    ladder = _ladder(100)
    expected = distance_matrix(ladder).row_sums
    sources = _refuse_the_ball_pass(monkeypatch)
    assert distance_row_sums(ladder) == expected  # one block, not a cycle
    assert sources == [0, *range(ladder.order)]  # the probe, then one BFS per source
    for n in (65, 500):
        sources.clear()
        assert distance_row_sums(cycle_graph(n)) == (n * n // 4,) * n
        assert sources == [0]


def _block_vectors(n: int, rng: random.Random) -> list[list[int]]:
    """y = 1, y = -3, y >= 1 of 1, 8 and 40 bits, y half zero, y with two
    nonzero entries (fewer below order 3), and y >= 1 with one negative entry."""
    vectors = [[1] * n, [-3] * n]
    vectors += [[rng.randint(1, 1 << bits) for _ in range(n)] for bits in (1, 8, 40)]
    for share in (n // 2, min(n - 1, 2)):
        y = [0] * n
        for p in rng.sample(range(n), share):
            y[p] = rng.randint(1, 1 << 40)
        vectors.append(y)
    y = [rng.randint(1, 255) for _ in range(n)]
    y[rng.randrange(n)] = -rng.randint(1, 255)
    vectors.append(y)
    return vectors


class _PassRefused(Exception):
    pass


@pytest.mark.parametrize("name,g", ROW_SUM_CASES, ids=[c[0] for c in ROW_SUM_CASES])
def test_one_block_is_the_matrix_product_by_either_route(monkeypatch, name, g):
    # as routed, then with the ball pass refused: the BFS route gives the
    # same product, and only a y >= 0 may take the pass
    entries, adjacency = distance_matrix(g).entries, _int_adjacency(g)
    n, row0 = g.order, _distances(adjacency, 0)
    sources, passes = _bfs_sources(monkeypatch), []
    ball_sums = graph_module._ball_sums

    def refuse(*args):
        raise _PassRefused

    for y in _block_vectors(n, random.Random(name)):
        expected = _matrix_product(entries, y)
        sources.clear()
        monkeypatch.setattr(
            graph_module, "_ball_sums", lambda adj, y: passes.append(1) or ball_sums(adj, y)
        )
        passes.clear()
        assert _one_block(adjacency, y, row0) == expected
        if passes:
            assert passes == [1] and sources == [] and min(y) >= 0
        elif y.count(y[0]) == n != y.count(0):  # each source sums its own row
            assert sources == list(range(n))
        else:  # row0 stands in for the BFS from 0
            assert sources == [p for p in range(1, n) if y[p]]
        # the pass needs y >= 0, and two entries never pay for it once e0 >= 1
        if min(y) < 0 or n > 1 and 0 in y and n - y.count(0) <= 2:
            assert not passes
        elif y.count(0) == 0 and n <= 64:  # small and nonzero everywhere: the pass
            assert passes
        monkeypatch.setattr(graph_module, "_ball_sums", refuse)
        if passes:
            with pytest.raises(_PassRefused):
                _one_block(adjacency, y, row0)
        else:
            assert _one_block(adjacency, y, row0) == expected


def _edge_split_wiener(tree: Graph) -> int:
    """sum over edges of n_a * n_b, the orders of the two sides (Wiener 1947)."""
    root = tree.vertices[0]
    parent, order = {root: None}, [root]
    for u in order:
        for w in tree.neighbors(u):
            if w not in parent:
                parent[w] = u
                order.append(w)
    size = dict.fromkeys(order, 1)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    n = tree.order
    return sum(size[u] * (n - size[u]) for u in order[1:])


def test_tree_identities_hold_on_random_trees():
    rng = random.Random(12)
    for n in (2, 3, 10, 57, 400, 1000, 2000):
        for tree in (random_tree(rng, n), _relabeled(random_tree(rng, n), random.Random(n), spread=2 * n)):
            row_sums = distance_row_sums(tree)
            wiener = sum(row_sums) // 2
            assert wiener == _edge_split_wiener(tree)
            degree_distance = sum(map(lambda d, s: d * s, tree.degrees, row_sums))
            assert degree_distance == 4 * wiener - n * (n - 1)


def test_row_sums_at_max_order_do_not_recurse():
    n = MAX_ORDER
    assert distance_row_sums(path_graph(n)) == tuple(
        (i * (i + 1) + (n - 1 - i) * (n - i)) // 2 for i in range(n)
    )
    tree = random_tree(random.Random(8), n)
    assert _eccentricity(_int_adjacency(tree)) > n.bit_length()
    row_sums = distance_row_sums(tree)
    assert sum(row_sums) == 2 * _edge_split_wiener(tree)
    assert sum(map(lambda d, s: d * s, tree.degrees, row_sums)) == 2 * sum(row_sums) - n * (n - 1)


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


def test_each_graph_object_keeps_its_own_int_adjacency_and_row_sums():
    forward = Graph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    shuffled = Graph([1, 0, 3, 2], [(0, 1), (1, 2), (2, 3)])
    assert forward == shuffled
    assert _int_adjacency(forward) == ((1,), (0, 2), (1, 3), (2,))
    assert _int_adjacency(shuffled) == ((1, 3), (0,), (3,), (0, 2))
    assert distance_row_sums(forward) == (6, 4, 4, 6)
    assert distance_row_sums(shuffled) == (4, 6, 6, 4)
    assert forward._sums == (6, 4, 4, 6) and shuffled._sums == (4, 6, 6, 4)
    # kept once: the same objects come back
    assert _int_adjacency(forward) is _int_adjacency(forward)
    assert distance_row_sums(forward) is distance_row_sums(forward)


def test_the_kept_int_adjacency_cannot_be_changed():
    g = Graph([5, 7, 6], [(5, 7), (7, 6)])
    adjacency = _int_adjacency(g)
    with pytest.raises(AttributeError):
        adjacency[0].append(2)
    with pytest.raises(AttributeError):
        adjacency.append((0,))
    with pytest.raises(TypeError):
        adjacency[1][0] = 2
    assert _int_adjacency(g) == ((1,), (0, 2), (1,))


def test_row_sums_are_summed_once_per_graph_object(monkeypatch):
    passes = []
    point_moments = graph_module._point_moments
    monkeypatch.setattr(
        graph_module, "_point_moments", lambda *args: passes.append(1) or point_moments(*args)
    )
    g = cycle_graph(6)
    expected = distance_matrix(g).row_sums
    assert distance_row_sums(g) == expected
    assert moment(g, UNIT) == sum(expected)
    assert indices(g).wiener * 2 == sum(expected)
    # r^2 * M_H^1 + r(2r - 1) * M_K^1 with H = K = C_6, from the same kept sums
    assert permutation_unit_moment(g, g) == 102 * sum(expected)
    assert passes == [1]
    assert distance_row_sums(cycle_graph(6)) == expected
    assert passes == [1, 1]


def test_failed_row_sums_keep_nothing_and_raise_every_time():
    for g, error in [
        (Graph([], []), EmptyGraph),
        (Graph([0, 1, 2], [(0, 1)]), DisconnectedGraph),
    ]:
        for _ in range(3):
            with pytest.raises(error):
                distance_row_sums(g)
            assert g._sums is None


@pytest.mark.parametrize("name,g", ROW_SUM_CASES, ids=[c[0] for c in ROW_SUM_CASES])
def test_distance_row_sums_agree_with_networkx(name, g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    row_sums = distance_row_sums(g)
    assert nx.wiener_index(h) == sum(row_sums) / 2
    for v, s in zip(g.vertices, row_sums):
        assert sum(nx.single_source_shortest_path_length(h, v).values()) == s


def test_distances_and_connectivity_agree_with_networkx():
    # distance_matrix and bfs_distances share _distances with _point_moments,
    # so networkx is their independent reference; ids shuffled and negative
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    graphs = []
    for n in range(1, 25):
        g = random_connected_graph(rng, n)
        k = rng.randint(1, 6)
        tail = [(u + n, v + n) for u, v in random_tree(rng, k).edges()]
        graphs += [_relabeled(g, rng), _relabeled(Graph(range(n + k), [*g.edges(), *tail]), rng)]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges())
        lengths = dict(nx.all_pairs_shortest_path_length(h))
        connected = nx.is_connected(h)
        assert is_connected(g) is connected
        for v in g.vertices:
            if connected:
                dist = bfs_distances(g, v)
                assert list(dist) == list(g.vertices) and dist == lengths[v]
            else:
                message = f"only {len(lengths[v])} of {g.order} vertices reachable from {v}"
                with pytest.raises(DisconnectedGraph, match=f"^{message}$"):
                    bfs_distances(g, v)
        if connected:
            rows = tuple(tuple(lengths[u][v] for v in g.vertices) for u in g.vertices)
            assert distance_matrix(g).entries == rows
        else:
            first = g.vertices[0]
            message = f"only {len(lengths[first])} of {g.order} vertices reachable from {first}"
            with pytest.raises(DisconnectedGraph, match=f"^{message}$"):
                distance_matrix(g)
    assert sum(map(is_connected, graphs)) == len(graphs) // 2


def _multiplier_lists(n: int, rng: random.Random) -> list[list[int]]:
    """y = 0, one negative entry alone, then sparse and dense lists of 1, 8 and 200 bits.

    The lone negative entries lie at the last and the middle position,
    so at 0 only on K1.  A sparse list has up to 6 drawn positions, one
    of them zero and one negative (only the negative one on K1).  A
    dense list has every entry nonzero, of either sign, and one negative.
    """
    vectors = [[0] * n]
    vectors += [[-k * (p == q) for p in range(n)] for k, q in ((7, n - 1), (1 << 200, n // 2))]
    for bits in (1, 8, 200):
        positions = rng.sample(range(n), min(n, 6))
        y = [0] * n
        for p in positions:
            y[p] = rng.randint(-(1 << bits), 1 << bits)
        y[positions[0]], y[positions[-1]] = 0, -(1 << bits)
        vectors.append(y)
    for bits in (1, 8, 200):
        y = [rng.choice((-1, 1)) * rng.randint(1, 1 << bits) for _ in range(n)]
        y[rng.randrange(n)] = -(1 << bits)
        vectors.append(y)
    return vectors


def _routes_by_blocks(g: Graph) -> bool:
    adjacency = _int_adjacency(g)
    return _eccentricity(adjacency) > g.order.bit_length() and len(_blocks(adjacency)) > 1


def _block_rows(adjacency: list[list[int]]) -> int:
    """How many vertices lie in blocks that are neither a bridge nor a cycle, counted per block."""
    rows = 0
    for block in _blocks(adjacency):
        slot = {v: i for i, v in enumerate(block)}
        local = [[slot[w] for w in adjacency[v] if w in slot] for v in block]
        rows += len(block) if len(block) > 2 and _ring(local) is None else 0
    return rows


@pytest.mark.parametrize("name,g", ROW_SUM_CASES, ids=[c[0] for c in ROW_SUM_CASES])
def test_point_moments_are_the_matrix_product(monkeypatch, name, g):
    entries, adjacency = distance_matrix(g).entries, _int_adjacency(g)
    sources = _bfs_sources(monkeypatch)
    for y in _multiplier_lists(g.order, random.Random(name)):
        sources.clear()
        expected = _matrix_product(entries, y)
        assert _point_moments(adjacency, y) == expected
        nonzero = [p for p, c in enumerate(y) if c]
        if len(nonzero) < 2:  # one plain BFS, or none
            assert sources == nonzero
        elif name in CYCLE_CASES:  # the slide round the ring
            assert sources == []
        elif not _routes_by_blocks(g):  # the probe, standing in for position 0's row
            assert sources == [0] + sorted(p for p in nonzero if p)
        else:  # the probe, then rows inside the blocks only, whatever y is
            assert sources[0] == 0 and len(sources) <= 1 + _block_rows(adjacency)


def test_dense_point_moments_on_a_tree_take_only_the_probe(monkeypatch):
    tree = random_tree(random.Random(20), 400)
    entries, adjacency = distance_matrix(tree).entries, _int_adjacency(tree)
    assert _eccentricity(adjacency) > tree.order.bit_length()
    sources = _bfs_sources(monkeypatch)
    for y in _multiplier_lists(tree.order, random.Random(20))[-3:]:  # the dense lists
        sources.clear()
        assert _point_moments(adjacency, y) == _matrix_product(entries, y)
        assert sources == [0]


@pytest.mark.parametrize("name,g", ROW_SUM_CASES, ids=[c[0] for c in ROW_SUM_CASES])
def test_point_moments_agree_with_networkx(name, g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    rng = random.Random(name)
    for y in _multiplier_lists(g.order, rng) + _nonnegative_lists(g.order, rng, (1, 40)):
        expected = [0] * g.order
        for p in filter(y.__getitem__, range(g.order)):
            dist = nx.single_source_shortest_path_length(h, g.vertices[p])
            expected = [e + y[p] * dist[v] for e, v in zip(expected, g.vertices)]
        assert _point_moments(_int_adjacency(g), y) == expected


def _nonnegative_lists(
    n: int, rng: random.Random, bits: tuple[int, ...] = (1, 2, 8, 40)
) -> list[list[int]]:
    """Lists y >= 0 of each bit length: sparse (a tenth of the positions,
    at least two), half full and dense (every position), values from 1 up;
    so 1 bit gives indicator lists and, dense, y = 1."""
    vectors = []
    for b in bits:
        for share in (max(2, n // 10), n // 2, n):
            y = [0] * n
            for p in rng.sample(range(n), min(n, share)):
                y[p] = rng.randint(1, (1 << b) - 1)
            vectors.append(y)
    return vectors


def _matrix_product(entries: tuple[tuple[int, ...], ...], y: list[int]) -> list[int]:
    return [sum(map(mul, row, y)) for row in entries]


@pytest.mark.parametrize("name,g", ROW_SUM_CASES, ids=[c[0] for c in ROW_SUM_CASES])
def test_nonnegative_point_moments_are_the_matrix_product(name, g):
    # the ball pass itself on every case, whatever route the dispatcher takes
    entries, adjacency = distance_matrix(g).entries, _int_adjacency(g)
    for y in _nonnegative_lists(g.order, random.Random(name)):
        expected = _matrix_product(entries, y)
        assert _point_moments(adjacency, y) == expected
        assert _ball_sums(adjacency, y) == expected


@pytest.mark.parametrize("name", ["rand-300", "complete-30", "star-120"])
def test_dense_nonnegative_point_moments_take_one_ball_pass(monkeypatch, name):
    # every entry nonzero, of 1 to 40 bits, on a graph of small eccentricity:
    # the probe BFS from 0, then one pass, and no BFS per entry
    g = dict(ROW_SUM_CASES)[name]
    entries, adjacency = distance_matrix(g).entries, _int_adjacency(g)
    sources, passes = _bfs_sources(monkeypatch), []
    ball_sums = graph_module._ball_sums
    monkeypatch.setattr(
        graph_module, "_ball_sums", lambda adj, y: passes.append(len(y)) or ball_sums(adj, y)
    )
    for y in _nonnegative_lists(g.order, random.Random(name))[2::3]:  # the dense lists
        sources.clear()
        passes.clear()
        assert _point_moments(adjacency, y) == _matrix_product(entries, y)
        assert sources == [0] and passes == [g.order]


def test_point_moments_only_read_y(monkeypatch):
    # every route leaves the caller's list as it was: the block route
    # writes its masses into a copy, and the others never write
    calls = []

    def recorded(name, kernel):
        return lambda *args: calls.append(name) or kernel(*args)

    for name in ("_slide", "_blocks", "_ball_sums"):
        monkeypatch.setattr(graph_module, name, recorded(name, getattr(graph_module, name)))
    rng = random.Random(31)
    tails, k12 = dict(BLOCK_CASES)["block-with-tails"], complete_graph(12)
    signed = [rng.choice((-1, 1)) * rng.randint(1, 99) for _ in range(tails.order)]
    assert _routes_by_blocks(tails)
    routes = [  # (graph, y, the kernels its route runs)
        (path_graph(6), [0] * 6, []),  # no nonzero entry
        (path_graph(6), [0, 0, 0, -5, 0, 0], []),  # one, by its BFS
        (cycle_graph(9), [3, -1, 0, 2, 5, 0, 0, 1, 7], ["_slide"]),
        # the block route: its one large block by BFS, as the masses take either sign
        (tails, signed, ["_blocks"]),
        (k12, list(range(1, 13)), ["_ball_sums"]),  # _one_block by the pass
        (k12, [5, -2, *range(10)], []),  # _one_block, one BFS per entry
        (k12, [-3] * 12, []),  # _one_block, a constant y by each source's row sum
    ]
    for g, y, kernels in routes:
        before = y[:]
        calls.clear()
        expected = _matrix_product(distance_matrix(g).entries, y)
        assert _point_moments(_int_adjacency(g), y) == expected
        assert calls == kernels
        assert y == before


def _cycle_with_trees(r: int, trees: list[tuple[int, Graph]]) -> Graph:
    """C_r with each (cycle vertex, tree) pair glued at the tree's vertex 0."""
    return graft(GraftSpec(cycle_graph(r), [Attachment(x, tree, 0) for x, tree in trees])).graph


def _cycle_gate_cases() -> list[tuple[str, Graph]]:
    """C_3 to C_200, cycles with pendant trees and chains of cycles (cacti)."""
    rng = random.Random(303)
    cases = [(f"cycle-{r}", cycle_graph(r)) for r in range(3, 201)]
    for r, k in ((3, 1), (8, 5), (37, 20), (150, 60)):
        trees = [(rng.randrange(r), random_tree(rng, rng.randint(2, 12))) for _ in range(k)]
        cases.append((f"cycle-{r}-trees-{k}", _cycle_with_trees(r, trees)))
    pendants = [(x, path_graph(2)) for x in range(60)]
    cases.append(("cycle-60-pendant-everywhere", _cycle_with_trees(60, pendants)))
    cases += [(f"cycle-chain-{k}", _cactus(rng, k)) for k in (2, 9, 30, 70)]
    return cases


CYCLE_GATE_CASES = _cycle_gate_cases()


def test_the_cyclic_slide_is_the_matrix_product_on_cycles_and_cacti():
    for name, g in CYCLE_GATE_CASES:
        matrix = distance_matrix(g)
        assert distance_row_sums(g) == matrix.row_sums, name
        rng = random.Random(name)
        for y in _multiplier_lists(g.order, rng) + _nonnegative_lists(g.order, rng, (1, 40)):
            expected = _matrix_product(matrix.entries, y)
            assert _point_moments(_int_adjacency(g), y) == expected, name


def test_the_cyclic_slide_agrees_with_networkx_on_cycles_and_cacti():
    nx = pytest.importorskip("networkx")
    for name, g in CYCLE_GATE_CASES:
        h = nx.Graph(list(g.edges()))
        dist = dict(nx.all_pairs_shortest_path_length(h))
        assert distance_row_sums(g) == tuple(sum(dist[v].values()) for v in g.vertices), name
        rng = random.Random(name)
        for y in _multiplier_lists(g.order, rng) + _nonnegative_lists(g.order, rng, (40,)):
            expected = [sum(c * dist[u][v] for v, c in zip(g.vertices, y)) for u in g.vertices]
            assert _point_moments(_int_adjacency(g), y) == expected, name


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
    keys = []
    for g in (k33, prism):
        adjacency = _int_adjacency(g)
        keys.append(tuple(sorted(_signature_pass(adjacency)[0])))
    assert keys[0] == keys[1]
    graphs = [k33, prism, _relabeled(prism, rng), _relabeled(k33, rng)]
    classes = isomorphism_classes(graphs)
    assert [members for _, members in classes] == [[0, 3], [1, 2]]
    assert not are_isomorphic(k33, prism)


def test_isomorphism_classes_build_no_search_order_for_lone_buckets(monkeypatch):
    # a search order is needed only when a second graph lands in a bucket
    graphs = [path_graph(n) for n in range(1, 8)]
    graphs += [cycle_graph(n) for n in range(3, 8)]
    graphs += [star_graph(n) for n in range(3, 7)] + [_k33(), diamond_graph()]
    keys = set()
    for g in graphs:
        adjacency = _int_adjacency(g)
        keys.add(tuple(sorted(_signature_pass(adjacency)[0])))
    assert len(keys) == len(graphs)
    built = []
    search_order = graph_module._search_order
    monkeypatch.setattr(
        graph_module, "_search_order", lambda *rep: built.append(rep) or search_order(*rep)
    )
    classes = isomorphism_classes(graphs)
    assert [members for _, members in classes] == [[i] for i in range(len(graphs))]
    assert built == []
    # the first comparison in a bucket builds its representative's order, once
    classes = isomorphism_classes([_k33(), _prism(), _relabeled(_prism(), random.Random(1))])
    assert [members for _, members in classes] == [[0], [1, 2]]
    assert len(built) == 2


def test_isomorphism_classes_cap():
    with pytest.raises(TooLarge):
        isomorphism_classes([path_graph(3), path_graph(17)])
    classes = isomorphism_classes([path_graph(17), path_graph(17)], cap=17)
    assert [members for _, members in classes] == [[0, 1]]
    assert isomorphism_classes([]) == []
    empty = Graph([], [])
    assert [members for _, members in isomorphism_classes([empty, Graph([], [])])] == [[0, 1]]
    assert are_isomorphic(empty, Graph([], []))


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
