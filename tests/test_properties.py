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

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from graft_moments import (
    DEGREE,
    HALF,
    UNIT,
    AffineWeight,
    Attachment,
    ConstantWeight,
    ExplicitWeight,
    Graph,
    GraftSpec,
    flower,
    flower_moment_formula,
    graft,
    graft_moment_formula,
    graft_product_to_json_dict,
    indices,
    moment,
)
from graft_moments.cli import _emit_json
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
@given(rationals, st.lists(rooted_branches(), max_size=4))
def test_flower_form_equals_the_oracle(center, branches):
    product = flower(center, branches)
    assert flower_moment_formula(center, branches) == _oracle_moment(
        product.graph, product.gamma
    )


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


# JSON trees for the emitter: every scalar json writes, the shapes the
# emitter has a fast road for (int lists, [int, int] pair lists), and those
# shapes spoiled by a bool, a tuple or a third item
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
    | st.lists(st.tuples(json_ints, json_ints), max_size=4),
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
