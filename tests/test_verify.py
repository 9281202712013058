"""Randomized self-verification harness."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from graft_moments import (
    DEGREE,
    FORMULAS,
    UNIT,
    ConstantWeight,
    DisconnectedGraph,
    EmptyGraph,
    Graph,
    GraphFormatError,
    Mismatch,
    VerificationReport,
    cycle_graph,
    distance_matrix,
    moment,
    run_verification,
)
from graft_moments import graph as graph_module
from graft_moments import verify
from graft_moments.randgen import random_connected_graph


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
    m = Mismatch(expected="3/2", got="1/1", instance={"case": "demo"})
    payload = m.to_json_dict()
    assert payload == {
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


# -- the oracle ------------------------------------------------------------------


def test_the_oracle_keeps_no_distance_matrix(monkeypatch):
    rng = random.Random(4)
    graphs = [Graph([9], []), cycle_graph(7)] + [random_connected_graph(rng, n) for n in (2, 9, 30)]

    def refuse(self, *args, **kwargs):
        raise AssertionError("the oracle built a distance matrix")

    monkeypatch.setattr(graph_module.DistanceMatrix, "__init__", refuse)
    for g in graphs:
        for weights in (UNIT, DEGREE, ConstantWeight(Fraction(2, 7))):
            assert verify._oracle_moment(g, weights) == moment(g, weights)


@pytest.mark.parametrize(
    "g,error",
    [
        (Graph([], []), EmptyGraph),
        (Graph([0, 1], []), DisconnectedGraph),
        (Graph([5, 3, 4], [(3, 4)]), DisconnectedGraph),
        (Graph([0, 1, 2, 3], [(0, 1), (2, 3)]), DisconnectedGraph),
    ],
)
def test_the_oracle_raises_like_the_matrix(g, error):
    with pytest.raises(error) as expected:
        distance_matrix(g)
    with pytest.raises(error) as got:
        verify._oracle_moment(g, UNIT)
    assert str(got.value) == str(expected.value)
