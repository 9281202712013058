"""Property tests of the paper's identities on small generated instances.

Hypothesis is a test-only dependency; without it this module is skipped.
Runs are derandomized, so a failure reproduces from the test alone.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from graft_moments import (
    DEGREE,
    UNIT,
    Attachment,
    ConstantWeight,
    ExplicitWeight,
    Graph,
    GraftSpec,
    flower,
    flower_moment_formula,
    graft,
    graft_moment_formula,
)
from graft_moments.verify import _oracle_moment

PROPERTY_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None)

rationals = st.fractions(min_value=0, max_value=6, max_denominator=4)


@st.composite
def connected_graphs(draw, max_order: int = 5) -> Graph:
    """A random tree on 0..n-1 (vertex i hangs on an earlier one) plus extra edges."""
    n = draw(st.integers(1, max_order))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return Graph(range(n), tree + extra)


@st.composite
def weighted(draw, g: Graph):
    """A unit, degree, constant or explicit weight on g."""
    kind = draw(st.sampled_from(["unit", "degree", "constant", "explicit"]))
    if kind == "unit":
        return UNIT
    if kind == "degree":
        return DEGREE
    if kind == "constant":
        return ConstantWeight(draw(rationals))
    return ExplicitWeight({v: draw(rationals) for v in g.vertices})


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
@given(rationals, st.lists(rooted_branches(), max_size=4))
def test_flower_form_equals_the_oracle(center, branches):
    product = flower(center, branches)
    assert flower_moment_formula(center, branches) == _oracle_moment(
        product.graph, product.gamma
    )
