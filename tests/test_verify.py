"""Randomized self-verification harness."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from graft_moments import (
    DEGREE,
    FORMULAS,
    UNIT,
    AffineWeight,
    Attachment,
    ConstantWeight,
    DegreeWeight,
    DisconnectedGraph,
    EmptyGraph,
    ExplicitWeight,
    Graph,
    GraftSpec,
    GraphFormatError,
    HALF,
    Mismatch,
    NegativeWeight,
    UnknownVertex,
    VerificationReport,
    WeightFunction,
    bfs_distances,
    cycle_graph,
    distance_matrix,
    graft,
    is_connected,
    moment,
    run_verification,
)
from graft_moments import closed_forms as closed_forms_module
from graft_moments import graph as graph_module
from graft_moments import moments as moments_module
from graft_moments import verify
from graft_moments.randgen import random_connected_graph, random_graft_spec, random_tree


def test_formula_names_are_sorted_and_complete():
    assert FORMULAS == tuple(sorted(FORMULAS))
    assert set(FORMULAS) == {
        "comparison",
        "extcycles",
        "flower",
        "propercycles",
        "sigma",
        "theorem1",
        "theorem41",
        "unicyclic",
    }


@pytest.mark.parametrize("formula", FORMULAS)
def test_each_formula_verifies_clean(formula):
    report = run_verification(formula, count=8, seed=7)
    assert report.ok
    assert report.formula == formula
    assert report.instances == 8
    assert report.seed == 7
    assert report.mismatches == []
    assert report.elapsed_seconds >= 0


def test_same_seed_gives_identical_reports():
    a = run_verification("theorem1", count=12, seed=42)
    b = run_verification("theorem1", count=12, seed=42)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_different_seeds_draw_different_instances():
    # not guaranteed in principle, but with these seeds the sampled sizes
    # differ, which is what makes the seed argument worth exposing
    a = run_verification("sigma", count=5, seed=1)
    b = run_verification("sigma", count=5, seed=2)
    assert a.seed != b.seed
    assert a.ok and b.ok


def test_zero_count_is_vacuously_ok():
    report = run_verification("flower", count=0, seed=0)
    assert report.ok
    assert report.instances == 0


def test_max_size_caps_instances():
    report = run_verification("theorem1", count=5, seed=3, max_size=3)
    assert report.ok


def test_unknown_formula_and_bad_count_are_rejected():
    with pytest.raises(GraphFormatError):
        run_verification("theorem99", count=1, seed=0)
    with pytest.raises(GraphFormatError):
        run_verification("theorem1", count=-1, seed=0)
    for max_size in (0, -5):
        with pytest.raises(GraphFormatError, match=f"max size must be at least 1, got {max_size}"):
            run_verification("theorem1", count=1, seed=0, max_size=max_size)


def test_report_json_shape():
    report = run_verification("unicyclic", count=3, seed=5)
    payload = report.to_json_dict()
    assert payload["formula"] == "unicyclic"
    assert payload["instances"] == 3
    assert payload["seed"] == 5
    assert payload["ok"] is True
    assert payload["mismatches"] == []
    assert "elapsed_seconds" not in payload
    json.dumps(payload)  # must be serializable as-is


def test_mismatch_json_shape():
    m = Mismatch(index=2, expected="3/2", got="1/1", instance={"case": "demo"})
    payload = m.to_json_dict()
    assert list(payload) == ["index", "expected", "got", "instance"]
    assert payload == {
        "index": 2,
        "expected": "3/2",
        "got": "1/1",
        "instance": {"case": "demo"},
    }
    report = VerificationReport(
        formula="sigma",
        instances=1,
        seed=0,
        mismatches=[m],
        elapsed_seconds=0.0,
    )
    assert not report.ok
    assert report.to_json_dict()["ok"] is False
    assert report.to_json_dict()["mismatches"] == [payload]
    json.dumps(report.to_json_dict())


# Every closed form that verify imports, and the sha256 of each formula's
# report when all of them return their value + 1 (4 mismatches each, one
# per instance, each with its index).
_CLOSED_FORMS = (
    "concentration_difference_formula",
    "extended_cycle_degree_distance",
    "family_graft_moment_formula",
    "flower_moment_formula",
    "graft_moment_formula",
    "permutation_moment_formula",
    "proper_cycle_degree_distance",
    "unicyclic_degree_distance",
)
_MISMATCH_REPORT_DIGESTS = {
    "comparison": "e0b7d2115ac2d1f7ba674b463c812c561a5f57463331a7aec7335145e6a41551",
    "extcycles": "c2b1e10c9369820fbda1bb6d8e953450ae1212dde52af6ea2e2e5a4e6b826cc9",
    "flower": "a2755cc958676bf5f49d8268766604e9b3218294a3fd1fc56d604fe49238789e",
    "propercycles": "082b7b0a43d2f980d50386d512398756f61dbe30e9028968bd098c049b5ec3c6",
    "sigma": "46851332deca26dee6a4d6137c8983357609aecbf4446ddc42f97c1f6ee7acea",
    "theorem1": "72f0f2f80c82dc470e7facd562740ffd927f934068304461519368635ef08e4c",
    "theorem41": "8eb5a0b917fcc385196aced077f806373db314f94c621867359d7e1c8b1a38e7",
    "unicyclic": "5fab25d265a2c3b6f89470d991823c4c56753b2886ee85388e99823366ec9a9b",
}


@pytest.mark.parametrize("formula", FORMULAS)
def test_mismatch_reports_are_pinned(monkeypatch, formula):
    for name in _CLOSED_FORMS:
        form = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, form=form: form(*args) + 1)
    report = run_verification(formula, count=4, seed=11)
    # one mismatch per instance: the formula check; each chained check
    # compares two oracles or two closed forms, which both move by 1 or not at all
    assert [m.index for m in report.mismatches] == [0, 1, 2, 3]
    text = json.dumps(report.to_json_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == _MISMATCH_REPORT_DIGESTS[formula]


# -- the oracle ------------------------------------------------------------------


def _refuse_the_distance_kernels(monkeypatch):
    """Make every distance kernel of graph raise.

    These are the kernels moment and the closed forms take their rows from,
    and the plain BFS under bfs_distances, distance_matrix and is_connected.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran a distance kernel of graph")

    for module in (graph_module, moments_module, closed_forms_module):
        for name in (
            "distance_row_sums", "_distances", "_point_moments", "_ball_sums",
            "_level_signatures", "_bfs_reached", "bfs_distances",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        moment(cycle_graph(3), UNIT)
    with pytest.raises(AssertionError):
        distance_matrix(cycle_graph(3))
    with pytest.raises(AssertionError):
        is_connected(cycle_graph(3))


def _fresh(g: Graph) -> Graph:
    """An equal graph that keeps no connectivity, int adjacency or row sums yet."""
    return Graph(g.vertices, g.edges())


def _keeps_nothing(*graphs: Graph) -> bool:
    """Whether no code has filled these graphs' int adjacency or row sums."""
    return all(g._int_adj is None and g._sums is None for g in graphs)


def _untouched(*graphs: Graph) -> bool:
    """Whether no code has filled anything these graphs keep, connectivity included."""
    return _keeps_nothing(*graphs) and all(g._connected is None for g in graphs)


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    """g on shuffled ids drawn from the negative and positive ints."""
    ids = rng.sample(range(-10**6, 10**6), g.order)
    order = list(range(g.order))
    rng.shuffle(order)
    return Graph([ids[i] for i in order], [(ids[u], ids[v]) for u, v in g.edges()])


def _every_weight_kind(rng: random.Random, g: Graph) -> tuple[WeightFunction, ...]:
    explicit = ExplicitWeight(
        {v: Fraction(rng.randint(0, 9), rng.randint(1, 5)) for v in g.vertices}
    )
    return (
        UNIT,
        HALF,
        DEGREE,
        ConstantWeight(Fraction(2, 7)),
        explicit,
        AffineWeight(Fraction(3, 2), DEGREE, Fraction(1, 3)),
        AffineWeight(Fraction(1, 2), explicit, Fraction(2, 3)),
    )


def test_the_oracle_agrees_with_networkx(monkeypatch):
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    instances = []
    for n in range(1, 41):
        for g in (random_connected_graph(rng, n), random_tree(rng, n), cycle_graph(n)):
            g = _relabelled(g, rng)
            reference = nx.Graph()
            reference.add_nodes_from(g.vertices)
            reference.add_edges_from(g.edges())
            row_sums = {
                v: sum(lengths.values()) for v, lengths in nx.all_pairs_shortest_path_length(reference)
            }
            for weights in _every_weight_kind(rng, g):
                expected = sum(
                    (weights.value(g, v) * row_sums[v] for v in g.vertices), Fraction(0)
                )
                instances.append((g, weights, expected))
    _refuse_the_distance_kernels(monkeypatch)
    for g, weights, expected in instances:
        assert verify._oracle_moment(g, weights) == expected
        assert _untouched(g)


def test_the_oracle_keeps_no_distance_matrix(monkeypatch, k2, p3, p4, c3, diamond):
    rng = random.Random(4)
    graphs = [Graph([9], []), cycle_graph(7)] + [random_connected_graph(rng, n) for n in (2, 9, 30)]
    weight_list = (UNIT, DEGREE, ConstantWeight(Fraction(2, 7)))
    expected = [moment(g, weights) for g in graphs for weights in weight_list]
    graphs = [_fresh(g) for g in graphs]  # the oracle cannot read what moment kept
    spec = GraftSpec(diamond, (Attachment(0, p4, 1, DEGREE), Attachment(0, k2, 0)), DEGREE)
    spec_product = graft(spec)
    cycles_product = graft(
        GraftSpec(cycle_graph(4), tuple(Attachment(x, cycle_graph(3), 0) for x in range(4)))
    )
    stacked = graft(GraftSpec(p4, (Attachment(0, c3, 0),) * 3, DEGREE))
    spread = graft(GraftSpec(p4, tuple(Attachment(x, c3, 0) for x in (1, 3, 3)), DEGREE))
    helpers = {
        "graft": moment(spec_product.graph, spec_product.gamma),
        "graft-degree": moment(spec_product.graph, DEGREE),
        "cycle-graft": moment(graft(GraftSpec(cycle_graph(4), (Attachment(0, p3, 1),))).graph, DEGREE),
        "cycles": moment(cycles_product.graph, DEGREE),
        "comparison": moment(stacked.graph, stacked.gamma) - moment(spread.graph, spread.gamma),
    }
    # graft validates its factors through is_connected, which runs the
    # plain BFS once per object; the cycle helpers build theirs with
    # cycle_graph, so they get checked objects here
    cycles = {r: cycle_graph(r) for r in (3, 4)}
    for g in (k2, p3, p4, c3, diamond, *cycles.values()):
        assert is_connected(g)
    monkeypatch.setattr(verify, "cycle_graph", cycles.__getitem__)

    def refuse(self, *args, **kwargs):
        raise AssertionError("the oracle built a distance matrix")

    monkeypatch.setattr(graph_module.DistanceMatrix, "__init__", refuse)
    _refuse_the_distance_kernels(monkeypatch)
    got = [verify._oracle_moment(g, weights) for g in graphs for weights in weight_list]
    assert got == expected
    assert _untouched(*graphs)
    assert verify._graft_oracle(spec) == helpers["graft"]
    assert verify._graft_oracle(spec, DEGREE) == helpers["graft-degree"]
    assert verify._cycle_graft_oracle(4, {0: [(p3, 1)]}) == helpers["cycle-graft"]
    assert verify._cycles_oracle(4, [3, 3, 3, 3]) == helpers["cycles"]
    assert verify._comparison_oracle(p4, DEGREE, 0, [1, 3, 3], c3, 0, UNIT) == (
        helpers["comparison"]
    )


def test_the_oracle_sums_weights_without_the_int_vectors(monkeypatch):
    rng = random.Random(5)
    instances = []
    for _ in range(6):
        spec = random_graft_spec(rng, max_host=6, max_branch_order=5, allow_repeated_receptors=True)
        product = graft(spec)
        for weights in (product.gamma, UNIT, DEGREE, AffineWeight(Fraction(3, 2), DEGREE, Fraction(1, 3))):
            instances.append((_fresh(product.graph), weights, moment(product.graph, weights)))

    def refuse(self, *args, **kwargs):
        raise AssertionError("the oracle took a weight vector")

    for kind in (WeightFunction, ConstantWeight, DegreeWeight):
        monkeypatch.setattr(kind, "vector", refuse)
    _refuse_the_distance_kernels(monkeypatch)
    for g, weights, expected in instances:
        assert verify._oracle_moment(g, weights) == expected
        assert _untouched(g)


def test_the_oracle_sums_int_pairs_without_value_or_the_kernels(monkeypatch):
    rng = random.Random(6)
    instances = []
    for n in (1, 2, 5, 12, 30):
        g = random_connected_graph(rng, n)
        for weights in _every_weight_kind(rng, g):
            row_sums = distance_matrix(g).row_sums
            plain = sum(
                (weights.value(g, v) * s for v, s in zip(g.vertices, row_sums)), Fraction(0)
            )
            instances.append((g, weights, plain))
    product = graft(random_graft_spec(rng, allow_repeated_receptors=True))
    instances.append((_fresh(product.graph), product.gamma, moment(product.graph, product.gamma)))
    k2 = Graph([3, 4], [(3, 4)])
    bad = [
        (ExplicitWeight({4: 1}), UnknownVertex, "weight map has no entry for vertex 3"),
        (
            ExplicitWeight({3: 1, 4: Fraction(-1, 2)}),
            NegativeWeight,
            "weight -1/2 at vertex 4 is negative",
        ),
        (AffineWeight(-1, UNIT, 0), NegativeWeight, "affine weight -1 at vertex 3 is negative"),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle took a weight value or vector")

    for kind in (WeightFunction, ConstantWeight, DegreeWeight):
        monkeypatch.setattr(kind, "vector", refuse)
    monkeypatch.setattr(WeightFunction, "value", refuse)
    _refuse_the_distance_kernels(monkeypatch)
    for g, weights, expected in instances:
        got = verify._oracle_moment(g, weights)
        assert type(got) is Fraction and got == expected
        assert _untouched(g)
    for weights, error, message in bad:
        with pytest.raises(error) as caught:
            verify._oracle_moment(k2, weights)
        assert str(caught.value) == message


def test_the_graft_oracle_keeps_no_row_sums(monkeypatch):
    # the oracle builds the product and sums it by its own BFS: no factor
    # and no product gets row sums or (but for the host, which graft
    # copies) an int adjacency from it, and the product no connectivity
    built = []
    monkeypatch.setattr(verify, "graft", lambda spec: built.append(graft(spec)) or built[-1])
    rng = random.Random(8)
    for _ in range(60):
        spec = random_graft_spec(rng, max_host=6, max_branch_order=5, allow_repeated_receptors=True)
        verify._graft_oracle(spec)
        branches = [a.branch for a in spec.attachments]
        assert spec.host._sums is None
        assert _untouched(built[-1].graph) and _keeps_nothing(*branches)
    host, branch = cycle_graph(4), cycle_graph(3)
    verify._comparison_oracle(host, UNIT, 0, [1, 2], branch, 0, DEGREE)
    verify._cycle_graft_oracle(4, {0: [(branch, 1)], 2: [(branch, 0)]})
    assert host._sums is None and _keeps_nothing(branch)
    assert _untouched(*(p.graph for p in built[-3:]))


@pytest.mark.parametrize(
    "g,error",
    [
        (Graph([], []), EmptyGraph),
        (Graph([0, 1], []), DisconnectedGraph),
        (Graph([5, 3, 4], [(3, 4)]), DisconnectedGraph),
        (Graph([0, 1, 2, 3], [(0, 1), (2, 3)]), DisconnectedGraph),
        (Graph([-7, 40, 9, 2], [(-7, 40), (40, 9)]), DisconnectedGraph),
        (Graph([2, 0, 1, 3, 4], [(0, 1), (1, 2), (3, 4)]), DisconnectedGraph),
    ],
)
def test_the_oracle_raises_like_the_matrix(monkeypatch, g, error):
    with pytest.raises(error) as expected:
        distance_matrix(g)
    if g.order:  # the first vertex's row is the one the oracle reports
        with pytest.raises(error) as first_row:
            bfs_distances(g, g.vertices[0])
        assert str(first_row.value) == str(expected.value)
    _refuse_the_distance_kernels(monkeypatch)
    with pytest.raises(error) as got:
        verify._oracle_moment(g, UNIT)
    assert str(got.value) == str(expected.value)
    assert _untouched(g)


def test_a_row_error_comes_before_a_weight_error(monkeypatch):
    g = Graph([3, 4, 5], [(4, 5)])
    _refuse_the_distance_kernels(monkeypatch)
    for weights in (
        ExplicitWeight({4: 1, 5: 1}),
        ExplicitWeight({3: Fraction(-1, 2), 4: 1, 5: 1}),
        AffineWeight(-1, UNIT, 0),
    ):
        with pytest.raises(DisconnectedGraph) as caught:
            verify._oracle_moment(g, weights)
        assert str(caught.value) == "only 1 of 3 vertices reachable from 3"
