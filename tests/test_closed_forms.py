"""Closed-form moment formulas checked against the brute-force oracle."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from graft_moments import (
    ArityMismatch,
    Attachment,
    ConstantWeight,
    DEGREE,
    DisconnectedGraph,
    ExplicitWeight,
    Graph,
    GraphFormatError,
    GraftSpec,
    InvalidExtendedCycle,
    NegativeWeight,
    NotATree,
    OrderMismatch,
    TooLarge,
    UNIT,
    UnknownVertex,
    attachments_by_receptor,
    concentration_difference_formula,
    cycle_distance_row_sum,
    cycle_graph,
    distance_matrix,
    extended_cycle_degree_distance,
    extended_cycle_edge_count,
    family_graft_moment_formula,
    flower,
    flower_moment_formula,
    graft,
    graft_moment_formula,
    moment,
    moment_at,
    path_graph,
    permutation_degree_distance,
    permutation_graph,
    permutation_mean_distance,
    permutation_moment_formula,
    permutation_unit_moment,
    proper_cycle_degree_distance,
    star_graph,
    unicyclic_degree_distance,
)
from graft_moments.randgen import (
    random_comparison_instance,
    random_connected_graph,
    random_extended_cycle_instance,
    random_flower_branches,
    random_graft_spec,
    random_permutation_instance,
    random_proper_cycle_instance,
    random_tree,
    random_unicyclic_instance,
)
from graft_moments import closed_forms, graph, products
from graft_moments.closed_forms import _cycle_quadratic
from graft_moments.verify import (
    _comparison_oracle,
    _cycle_graft_oracle,
    _cycles_oracle,
    _graft_oracle,
    _oracle_moment,
)


# -- general graft formula ---------------------------------------------------


def test_graft_formula_two_edges(k2):
    spec = GraftSpec(k2, (Attachment(0, k2, 0),))
    assert graft_moment_formula(spec) == 10
    assert _graft_oracle(spec) == 10


def test_graft_formula_k1_branches_reduce_to_weighted_row_sums(p4, k1):
    spec = GraftSpec(
        p4,
        (
            Attachment(0, k1, 0, ConstantWeight(3)),
            Attachment(2, k1, 0, ConstantWeight(Fraction(1, 2))),
        ),
        DEGREE,
    )
    row = distance_matrix(p4).row_sums
    expected = moment(p4, DEGREE) + 3 * row[0] + Fraction(1, 2) * row[2]
    assert graft_moment_formula(spec) == expected == 48
    assert _graft_oracle(spec) == expected


def test_graft_formula_diamond_with_four_paths(diamond, p4):
    # one path per diamond vertex, copy at vertex v rooted at path vertex v
    spec = GraftSpec(
        diamond,
        tuple(Attachment(v, p4, v, DEGREE) for v in diamond.vertices),
        DEGREE,
    )
    assert graft_moment_formula(spec) == 1480
    assert _graft_oracle(spec) == 1480
    assert permutation_degree_distance(diamond, p4) == 1480


def test_graft_formula_matches_oracle_randomly():
    rng = random.Random(101)
    for _ in range(20):
        spec = random_graft_spec(
            rng, max_host=7, max_branch_order=5,
            allow_repeated_receptors=rng.random() < 0.5,
        )
        assert graft_moment_formula(spec) == _graft_oracle(spec)


# -- vector (family) form ----------------------------------------------------


def test_family_formula_paw_degree(c3, k2):
    family = {0: [(k2, 0, DEGREE)]}
    assert family_graft_moment_formula(c3, DEGREE, family) == 30


def test_family_formula_matches_scalar_form():
    rng = random.Random(102)
    for _ in range(20):
        spec = random_graft_spec(
            rng, max_host=7, max_branch_order=5, allow_repeated_receptors=True
        )
        grouped = attachments_by_receptor(spec)
        assert family_graft_moment_formula(
            spec.host, spec.host_weights, grouped
        ) == graft_moment_formula(spec)


def test_family_formula_rejects_unknown_receptor(p3, k2):
    with pytest.raises(UnknownVertex) as caught:
        family_graft_moment_formula(p3, UNIT, {9: [(k2, 0, UNIT)]})
    assert str(caught.value) == "receptor 9 is not a host vertex"
    # a receptor with no branches is checked too
    with pytest.raises(UnknownVertex) as caught:
        family_graft_moment_formula(p3, UNIT, {9: []})
    assert str(caught.value) == "family receptor 9 is not a host vertex"


def test_extended_cycle_degree_distance_small_case():
    assert extended_cycle_degree_distance(3, [(3, 3), (1, 0), (2, 1)]) == 108
    assert _cycles_oracle(3, [3, 1, 2]) == 108


# -- shared factor validation ------------------------------------------------

# Each builder glues one branch: (host, receptor, branch, root) -> result.
GRAFT_BUILDERS = {
    "graft": lambda h, x, b, r: graft(GraftSpec(h, (Attachment(x, b, r),))),
    "graft_moment_formula": lambda h, x, b, r: graft_moment_formula(
        GraftSpec(h, (Attachment(x, b, r),))
    ),
    "family_graft_moment_formula": lambda h, x, b, r: family_graft_moment_formula(
        h, UNIT, {x: [(b, r, UNIT)]}
    ),
    "flower_moment_formula": lambda h, x, b, r: flower_moment_formula(0, [(b, r, UNIT)]),
    "unicyclic_degree_distance": lambda h, x, b, r: unicyclic_degree_distance(
        h.order, {x: [(b, r)]}
    ),
}
BAD_FACTORS = {
    "disconnected-host": (
        Graph([0, 1, 2], [(0, 1)]), 0, path_graph(2), 0, DisconnectedGraph
    ),
    "disconnected-branch": (
        cycle_graph(3), 0, Graph([0, 1, 2], [(0, 1)]), 0, DisconnectedGraph
    ),
    "unknown-receptor": (cycle_graph(3), 9, path_graph(2), 0, UnknownVertex),
    "unknown-root": (cycle_graph(3), 0, path_graph(2), 9, UnknownVertex),
}
# The flower has no host graph; the unicyclic host is always a cycle.
NO_HOST_INPUT = {
    ("flower_moment_formula", "disconnected-host"),
    ("flower_moment_formula", "unknown-receptor"),
    ("unicyclic_degree_distance", "disconnected-host"),
}
# The unicyclic form names its cycle host in its own message.
OWN_MESSAGE = {("unicyclic_degree_distance", "unknown-receptor")}


@pytest.mark.parametrize(
    "builder, case",
    [
        (builder, case)
        for builder in GRAFT_BUILDERS
        for case in BAD_FACTORS
        if (builder, case) not in NO_HOST_INPUT
    ],
)
def test_bad_factors_raise_the_same_error_as_graft(builder, case):
    host, receptor, branch, root, expected = BAD_FACTORS[case]
    with pytest.raises(expected) as caught:
        GRAFT_BUILDERS[builder](host, receptor, branch, root)
    assert caught.type is expected
    if (builder, case) not in OWN_MESSAGE:
        with pytest.raises(expected) as by_graft:
            GRAFT_BUILDERS["graft"](host, receptor, branch, root)
        assert str(caught.value) == str(by_graft.value)


# The permutation and concentration forms stand for products built by
# permutation_graph and by _comparison_oracle: a bad factor must raise the
# error of the product it stands for.
PERMUTATION_FORMS = {
    "permutation_moment_formula": lambda h, b: permutation_moment_formula(h, UNIT, b, DEGREE),
    "permutation_unit_moment": permutation_unit_moment,
    "permutation_mean_distance": permutation_mean_distance,
    "permutation_degree_distance": permutation_degree_distance,
}
BAD_PERMUTATION_FACTORS = {
    "unequal-orders": (path_graph(3), path_graph(2), OrderMismatch),
    "disconnected-host": (Graph([0, 1, 2], [(0, 1)]), path_graph(3), DisconnectedGraph),
    "disconnected-branch": (path_graph(3), Graph([0, 1, 2], [(0, 1)]), DisconnectedGraph),
    "disconnected-both": (Graph([0, 1, 2], [(0, 1)]), Graph([0, 1, 2], []), DisconnectedGraph),
}


@pytest.mark.parametrize("case", BAD_PERMUTATION_FACTORS)
@pytest.mark.parametrize("form", PERMUTATION_FORMS)
def test_bad_factors_raise_the_same_error_as_the_permutation_product(form, case):
    host, branch, expected = BAD_PERMUTATION_FACTORS[case]
    with pytest.raises(expected) as caught:
        PERMUTATION_FORMS[form](host, branch)
    with pytest.raises(expected) as built:
        permutation_graph(host, branch, list(range(1, host.order + 1)))
    assert caught.type is built.type is expected
    assert str(caught.value) == str(built.value)


BAD_CONCENTRATIONS = {
    "disconnected-host": (Graph([0, 1, 2], [(0, 1)]), 0, [1], DisconnectedGraph),
    "unknown-x": (path_graph(3), 9, [1], UnknownVertex),
    "unknown-receptor": (path_graph(3), 0, [1, 9], UnknownVertex),
}


@pytest.mark.parametrize("case", BAD_CONCENTRATIONS)
def test_bad_factors_raise_the_same_error_as_the_concentration_oracle(case):
    host, x, receptors, expected = BAD_CONCENTRATIONS[case]
    with pytest.raises(expected) as caught:
        concentration_difference_formula(host, UNIT, x, receptors, 2, 1)
    with pytest.raises(expected) as built:
        _comparison_oracle(host, UNIT, x, receptors, path_graph(2), 0, UNIT)
    assert caught.type is built.type is expected
    assert str(caught.value) == str(built.value)


# -- flowers ------------------------------------------------------------------


@pytest.mark.parametrize("copies, expected", [(1, 2), (2, 10), (3, 24)])
def test_flower_formula_star_values(k2, copies, expected):
    branches = [(k2, 0, UNIT)] * copies
    assert flower_moment_formula(0, branches) == expected
    product = flower(0, [(k2, 0, UNIT)] * copies)
    assert moment(product.graph, product.gamma) == expected


def test_flower_formula_rejects_a_negative_center(k2):
    # the form reports a bad center exactly as the flower it stands for
    for center in (-1, Fraction(-1, 2), "x", None):
        with pytest.raises((NegativeWeight, GraphFormatError)) as built:
            flower(center, [(k2, 0, UNIT)])
        with pytest.raises(built.type) as caught:
            flower_moment_formula(center, [(k2, 0, UNIT)])
        assert caught.type is built.type
        assert str(caught.value) == str(built.value)
    with pytest.raises(NegativeWeight, match="^constant weight -1 is negative$"):
        flower_moment_formula(-1, [(k2, 0, UNIT)])


def test_flower_formula_matches_oracle_randomly():
    rng = random.Random(103)
    for _ in range(20):
        branches = random_flower_branches(rng)
        center = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        product = flower(center, branches)
        assert flower_moment_formula(center, branches) == _oracle_moment(
            product.graph, product.gamma
        )


# -- permutation products ------------------------------------------------------


def test_sigma_diamond_p4_values(diamond, p4):
    assert permutation_moment_formula(diamond, ConstantWeight(0), p4, UNIT) == 784
    assert permutation_unit_moment(diamond, p4) == 784
    assert permutation_moment_formula(diamond, DEGREE, p4, UNIT) == 1120
    assert permutation_moment_formula(diamond, DEGREE, p4, DEGREE) == 1480
    assert permutation_mean_distance(diamond, p4) == Fraction(49, 16)


def test_sigma_value_is_independent_of_sigma(diamond, p4):
    expected = permutation_moment_formula(diamond, DEGREE, p4, DEGREE)
    for sigma in ([1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3]):
        product = permutation_graph(
            diamond, p4, sigma, host_weights=DEGREE, branch_weights=DEGREE
        )
        assert moment(product.graph, product.gamma) == expected
        assert moment(product.graph, DEGREE) == expected


def test_sigma_triangle_on_triangle_unit(c3):
    # the product of two triangles has unit moment 144: each of the nine
    # vertices has distance row sum 16 in the product graph
    assert permutation_unit_moment(c3, c3) == 144
    product = permutation_graph(
        c3, c3, [1, 2, 3], host_weights=ConstantWeight(0), branch_weights=UNIT
    )
    assert moment(product.graph, UNIT) == 144
    assert moment(product.graph, product.gamma) == 144


def test_sigma_two_edges_give_p4_degree_distance(k2, p4):
    assert permutation_degree_distance(k2, k2) == 28
    product = permutation_graph(
        k2, k2, [1, 2], host_weights=DEGREE, branch_weights=DEGREE
    )
    assert product.graph.order == 4
    assert moment(product.graph, DEGREE) == 28
    assert moment(p4, DEGREE) == 28


def test_sigma_formula_matches_oracle_randomly():
    rng = random.Random(104)
    for _ in range(15):
        host, alpha, branch, beta, sigma = random_permutation_instance(rng)
        product = permutation_graph(
            host, branch, sigma, host_weights=alpha, branch_weights=beta
        )
        assert permutation_moment_formula(host, alpha, branch, beta) == _oracle_moment(
            product.graph, product.gamma
        )


def test_sigma_specializations_agree_randomly():
    rng = random.Random(105)
    for _ in range(15):
        host, _, branch, _, _ = random_permutation_instance(rng)
        assert permutation_unit_moment(host, branch) == permutation_moment_formula(
            host, ConstantWeight(0), branch, UNIT
        )
        assert permutation_degree_distance(
            host, branch
        ) == permutation_moment_formula(host, DEGREE, branch, DEGREE)


def test_sigma_mean_distance_identity():
    # d(product) - d(host) - 2 d(branch) == -d(branch)/r
    rng = random.Random(106)
    for _ in range(15):
        host, _, branch, _, _ = random_permutation_instance(rng)
        r = host.order
        d_host = moment(host, UNIT) / Fraction(r * r)
        d_branch = moment(branch, UNIT) / Fraction(r * r)
        d_product = permutation_mean_distance(host, branch)
        assert d_product - d_host - 2 * d_branch == -d_branch / r


def test_sigma_rejects_order_mismatch(diamond, k2):
    for fn in (
        permutation_unit_moment,
        permutation_mean_distance,
        permutation_degree_distance,
    ):
        with pytest.raises(OrderMismatch):
            fn(diamond, k2)
    with pytest.raises(OrderMismatch):
        permutation_moment_formula(diamond, UNIT, k2, UNIT)


# -- concentrating branches on one receptor -----------------------------------


def test_comparison_path_fixture(p3, k2):
    got = concentration_difference_formula(p3, UNIT, 1, [0, 2], 2, 2)
    assert got == -14
    assert _comparison_oracle(p3, UNIT, 1, [0, 2], k2, 0, ConstantWeight(1)) == -14


def test_comparison_already_stacked_is_zero(p4):
    assert concentration_difference_formula(p4, DEGREE, 2, [2, 2, 2], 5, 7) == 0


def test_comparison_matches_oracle_randomly():
    rng = random.Random(107)
    for _ in range(15):
        host, alpha, x, receptors, branch, root, beta = (
            random_comparison_instance(rng)
        )
        expected = _comparison_oracle(host, alpha, x, receptors, branch, root, beta)
        got = concentration_difference_formula(
            host, alpha, x, receptors, branch.order, beta.total(branch)
        )
        assert got == expected


def test_comparison_sums_no_row_sums(monkeypatch, p3, p4):
    # the form reads point-moment rows only, so no factor sums its row sums
    def refuse(*args):
        raise AssertionError("the concentration form summed row sums")

    monkeypatch.setattr(closed_forms, "distance_row_sums", refuse)
    assert concentration_difference_formula(p3, UNIT, 1, [0, 2], 2, 2) == -14
    branch_weight = ConstantWeight(Fraction(7, 5))  # total 7 on 5 vertices
    expected = _comparison_oracle(p4, DEGREE, 1, [0, 3, 3], path_graph(5), 2, branch_weight)
    assert concentration_difference_formula(p4, DEGREE, 1, [0, 3, 3], 5, 7) == expected
    # nor by any other route: both hosts still keep no row sums
    assert p3._sums is None and p4._sums is None


def test_comparison_depends_only_on_order_and_total(p3):
    # two branch shapes with equal order and total weight give the same
    # difference, so the formula's (order, total) arguments are enough
    shape_a = path_graph(4)
    shape_b = star_graph(3)
    weight_a = ConstantWeight(Fraction(3, 4))
    weight_b = ExplicitWeight({0: Fraction(3), 1: 0, 2: 0, 3: 0})
    diff_a = _comparison_oracle(p3, UNIT, 1, [0, 2], shape_a, 0, weight_a)
    diff_b = _comparison_oracle(p3, UNIT, 1, [0, 2], shape_b, 0, weight_b)
    assert diff_a == diff_b
    assert diff_a == concentration_difference_formula(p3, UNIT, 1, [0, 2], 4, 3)


def test_comparison_rejects_bad_arguments(p3):
    with pytest.raises(GraphFormatError):
        concentration_difference_formula(p3, UNIT, 1, [0], 0, 1)
    with pytest.raises(UnknownVertex):
        concentration_difference_formula(p3, UNIT, 9, [0], 2, 1)
    with pytest.raises(UnknownVertex):
        concentration_difference_formula(p3, UNIT, 1, [9], 2, 1)
    with pytest.raises(NegativeWeight) as caught:
        concentration_difference_formula(p3, UNIT, 1, [0], 2, -1)
    assert str(caught.value) == "branch total weight -1 is negative"


@pytest.mark.parametrize("scalar", ["x", None], ids=["text", "none"])
def test_scalar_weights_that_are_not_rationals_are_malformed_input(p3, scalar):
    # the forms report a bad scalar as flower() does, with the same text
    with pytest.raises(GraphFormatError) as built:
        flower(scalar, [])
    with pytest.raises(GraphFormatError) as caught:
        flower_moment_formula(scalar, [])
    assert str(caught.value) == str(built.value)
    assert str(caught.value).startswith(f"bad rational value {scalar!r}: ")
    with pytest.raises(GraphFormatError) as caught:
        concentration_difference_formula(p3, UNIT, 1, [0], 2, scalar)
    assert str(caught.value) == str(built.value)


# -- cycle row sums ------------------------------------------------------------


@pytest.mark.parametrize(
    "r, expected", [(1, 0), (2, 1), (3, 2), (4, 4), (5, 6), (6, 9), (7, 12)]
)
def test_cycle_row_sum_small_values(r, expected):
    assert cycle_distance_row_sum(r) == expected


def test_cycle_row_sum_matches_distance_matrix():
    for r in range(3, 21):
        theta = cycle_distance_row_sum(r)
        assert distance_matrix(cycle_graph(r)).row_sums == (theta,) * r
    with pytest.raises(InvalidExtendedCycle):
        cycle_distance_row_sum(0)


# -- unicyclic graphs -----------------------------------------------------------


def test_unicyclic_paw_and_bare_cycles(k2):
    assert unicyclic_degree_distance(3, {0: [(k2, 0)]}) == 30
    assert _cycle_graft_oracle(3, {0: [(k2, 0)]}) == 30
    assert unicyclic_degree_distance(5, {}) == 60
    assert _cycle_graft_oracle(5, {}) == 60


def test_unicyclic_sun(k2):
    forest = {x: [(k2, 0)] for x in range(4)}
    assert unicyclic_degree_distance(4, forest) == 216
    assert _cycle_graft_oracle(4, forest) == 216


def test_unicyclic_matches_oracle_randomly():
    rng = random.Random(108)
    for _ in range(15):
        cycle_order, forest = random_unicyclic_instance(rng)
        assert unicyclic_degree_distance(cycle_order, forest) == _cycle_graft_oracle(
            cycle_order, forest
        )


def test_unicyclic_bare_cycle_at_the_cap_is_linear_time():
    # 2 n^T D n with n = 1 is 2 r theta_r; Theorem 1's core reads the host's
    # row sums, which one BFS per cycle vertex gave in tens of seconds
    r = 10_000
    start = time.perf_counter()
    assert unicyclic_degree_distance(r, {}) == 2 * r * cycle_distance_row_sum(r) == 5 * 10**11
    assert time.perf_counter() - start < 1.0


def test_unicyclic_rejects_bad_input(c3, k2):
    with pytest.raises(InvalidExtendedCycle):
        unicyclic_degree_distance(2, {})
    with pytest.raises(NotATree):
        unicyclic_degree_distance(4, {0: [(c3, 0)]})
    with pytest.raises(UnknownVertex):
        unicyclic_degree_distance(3, {9: [(k2, 0)]})
    with pytest.raises(UnknownVertex):
        unicyclic_degree_distance(3, {0: [(k2, 9)]})


# -- extended and proper cycles --------------------------------------------------


def test_extended_cycle_edge_counts():
    assert [extended_cycle_edge_count(r) for r in (1, 2, 3, 4)] == [0, 1, 3, 4]
    with pytest.raises(InvalidExtendedCycle):
        extended_cycle_edge_count(0)


def test_extended_cycles_degenerate_hosts():
    # bare triangle written as a host with three trivial branches
    assert extended_cycle_degree_distance(3, [(1, 0)] * 3) == 12
    # a single host vertex carrying one triangle is again the triangle
    assert extended_cycle_degree_distance(1, [(3, 3)]) == 12
    # an edge host with a triangle on one end is the paw graph
    assert extended_cycle_degree_distance(2, [(3, 3), (1, 0)]) == 30
    assert _cycles_oracle(2, [3, 1]) == 30


def test_extended_cycles_match_oracle_randomly():
    rng = random.Random(109)
    for _ in range(15):
        host_order, pairs = random_extended_cycle_instance(
            rng, max_host=6, max_branch_order=6
        )
        got = extended_cycle_degree_distance(host_order, pairs)
        assert got == _cycles_oracle(host_order, [r for r, _ in pairs])


def test_extended_cycles_reject_bad_input():
    with pytest.raises(ArityMismatch):
        extended_cycle_degree_distance(3, [(1, 0)])
    with pytest.raises(InvalidExtendedCycle):
        extended_cycle_degree_distance(3, [(3, 2), (1, 0), (1, 0)])
    with pytest.raises(InvalidExtendedCycle):
        extended_cycle_degree_distance(0, [])


def test_proper_cycles_fixture_values():
    assert proper_cycle_degree_distance(3, [3, 3, 3]) == 360
    assert _cycles_oracle(3, [3, 3, 3]) == 360
    assert proper_cycle_degree_distance(4, [3, 3, 3, 3]) == 784
    assert _cycles_oracle(4, [3, 3, 3, 3]) == 784


def test_proper_cycles_agree_with_extended_form():
    rng = random.Random(110)
    for _ in range(15):
        host_order, branch_orders = random_proper_cycle_instance(
            rng, max_host=6, max_branch_order=6
        )
        proper = proper_cycle_degree_distance(host_order, branch_orders)
        extended = extended_cycle_degree_distance(
            host_order, [(r, extended_cycle_edge_count(r)) for r in branch_orders]
        )
        assert proper == extended
        assert proper == _cycles_oracle(host_order, branch_orders)


def test_proper_cycles_reject_bad_input():
    with pytest.raises(InvalidExtendedCycle):
        proper_cycle_degree_distance(2, [3, 3])
    with pytest.raises(InvalidExtendedCycle):
        proper_cycle_degree_distance(3, [3, 3, 2])
    with pytest.raises(ArityMismatch):
        proper_cycle_degree_distance(3, [3, 3])


@pytest.mark.parametrize(
    "form, args, value",
    [
        (proper_cycle_degree_distance, (3, [3.5, 3, 3]), 3.5),
        (proper_cycle_degree_distance, (3.0, [3, 3, 3]), 3.0),
        (cycle_distance_row_sum, (3.5,), 3.5),
        (cycle_distance_row_sum, (True,), True),
        (extended_cycle_edge_count, (2.5,), 2.5),
        (extended_cycle_degree_distance, (1, [(3, 3.0)]), 3.0),
        (extended_cycle_degree_distance, (1, [(3.0, 3)]), 3.0),
        (extended_cycle_degree_distance, (3.0, [(1, 0)] * 3), 3.0),
        (extended_cycle_degree_distance, (1, [(1, False)]), False),
        (unicyclic_degree_distance, (5.0, {}), 5.0),
        (concentration_difference_formula, (path_graph(4), DEGREE, 0, [1, 3], 2.5, 1), 2.5),
        (concentration_difference_formula, (path_graph(4), DEGREE, 0, [1, 3], True, 1), True),
    ],
    ids=[
        "proper-branch", "proper-host", "row-sum", "row-sum-bool", "edge-count",
        "extended-edge-count", "extended-branch", "extended-host", "extended-bool-edge-count",
        "unicyclic-host", "concentration-branch", "concentration-bool-branch",
    ],
)
def test_cycle_and_concentration_forms_refuse_an_order_that_is_no_int(form, args, value):
    # as Graph refuses a bool id: an order or edge count must be an int, and a bool is not
    with pytest.raises(GraphFormatError, match=rf"must be an integer, got {value!r}$"):
        form(*args)


@pytest.mark.parametrize(
    "form, args, message",
    [
        (extended_cycle_degree_distance, (1, [(3,)]), r"^branch entry \(3,\) is not a pair$"),
        (extended_cycle_degree_distance, (1, [3]), r"^branch entry 3 is not a pair$"),
        (extended_cycle_degree_distance, (1, 5), r"^branch pairs must be a sequence, got 5$"),
        (proper_cycle_degree_distance, (3, 5), r"^branch orders must be a sequence, got 5$"),
        (
            unicyclic_degree_distance,
            (4, {0: [(path_graph(2),)]}),
            r"^branch entry \(Graph\(order=2, edges=1\),\) is not a pair$",
        ),
    ],
    ids=["extended-one-tuple", "extended-int", "extended-no-sequence", "proper-no-sequence",
         "unicyclic-one-tuple"],
)
def test_cycle_forms_refuse_a_malformed_branch_entry(form, args, message):
    with pytest.raises(GraphFormatError, match=message):
        form(*args)


def test_cycle_forms_keep_the_order_cap():
    message = r"^graph order 10001 exceeds cap 10000$"
    with pytest.raises(TooLarge, match=message):
        proper_cycle_degree_distance(10_001, [3] * 10_001)
    with pytest.raises(TooLarge, match=message):
        extended_cycle_degree_distance(10_001, [(1, 0)] * 10_001)


def test_cycle_quadratic_matches_distance_matrix():
    rng = random.Random(111)
    for r in range(1, 13):
        entries = distance_matrix(cycle_graph(r)).entries
        u = [rng.randint(-4, 9) for _ in range(r)]
        v = [rng.randint(-4, 9) for _ in range(r)]
        expected = sum(
            u[i] * entries[i][j] * v[j] for i in range(r) for j in range(r)
        )
        assert _cycle_quadratic(u, v) == expected


def test_cycle_quadratic_is_linear_time_and_exact_at_the_cap():
    # 1^T D 1 = r * theta(r); the O(r^2) double loop took seconds here
    r = 10_000
    assert _cycle_quadratic([1] * r, [1] * r) == r * cycle_distance_row_sum(r)
    rng = random.Random(115)
    for r in (13, 20, 31, 64):
        u = [rng.randint(-4, 9) for _ in range(r)]
        v = [rng.randint(-4, 9) for _ in range(r)]
        expected = sum(
            u[i] * min(abs(i - j), r - abs(i - j)) * v[j]
            for i in range(r)
            for j in range(r)
        )
        assert _cycle_quadratic(u, v) == expected


def test_graft_forms_with_equal_branches_in_different_vertex_orders(p3, diamond):
    # Graph equality ignores vertex order; each branch's rows must follow its own
    p3_reordered = Graph([1, 0, 2], list(p3.edges()))
    assert p3_reordered == p3 and p3_reordered.vertices != p3.vertices
    uneven = ExplicitWeight({0: 3, 1: Fraction(1, 2), 2: 0})
    branches = [
        (p3, 0, DEGREE),
        (p3_reordered, 0, DEGREE),
        (p3, 1, uneven),
        (p3_reordered, 1, uneven),
    ]
    spec = GraftSpec(
        diamond,
        tuple(Attachment(x, b, y, w) for x, (b, y, w) in zip([0, 0, 2, 3], branches)),
        DEGREE,
    )
    expected = _graft_oracle(spec)
    assert graft_moment_formula(spec) == expected
    assert family_graft_moment_formula(diamond, DEGREE, attachments_by_receptor(spec)) == (
        expected
    )
    center = Fraction(1, 3)
    product = flower(center, branches)
    assert flower_moment_formula(center, branches) == _oracle_moment(product.graph, product.gamma)


# -- independence from the distance matrix and the plain BFS ---------------------


def _no_matrix_instances(k2, p3, p4, c3, diamond):
    """The graft spec, flower branches and unicyclic forest the next test uses."""
    spec = GraftSpec(
        diamond,
        (
            Attachment(0, p4, 1, DEGREE),
            Attachment(0, k2, 0, ConstantWeight(3)),
            Attachment(2, c3, 0, UNIT),
        ),
        DEGREE,
    )
    branches = [(p4, 2, DEGREE), (c3, 0, ConstantWeight(Fraction(1, 3)))]
    forest = {0: [(p3, 1)], 2: [(k2, 0)]}
    return spec, branches, forest


def test_closed_forms_build_no_distance_matrix(monkeypatch, k2, p3, p4, c3, diamond):
    oracle = _oracle_moment
    spec, branches, forest = _no_matrix_instances(k2, p3, p4, c3, diamond)
    spec_product = graft(spec)
    flower_product = flower(Fraction(1, 2), branches)
    sigma = (2, 4, 1, 3)
    sigma_product = permutation_graph(
        diamond, p4, sigma, host_weights=DEGREE, branch_weights=ConstantWeight(2)
    )
    expected = {
        "graft": oracle(spec_product.graph, spec_product.gamma),
        "flower": oracle(flower_product.graph, flower_product.gamma),
        "concentration": _comparison_oracle(
            p4, DEGREE, 0, [1, 3, 3], c3, 0, UNIT
        ),
        "sigma": oracle(sigma_product.graph, sigma_product.gamma),
        "sigma-unit": oracle(sigma_product.graph, UNIT),
        "sigma-degree": oracle(sigma_product.graph, DEGREE),
        "unicyclic": _cycle_graft_oracle(4, forest),
        "extended": _cycles_oracle(3, [3, 1, 2]),
        "proper": _cycles_oracle(4, [3, 4, 3, 5]),
    }
    # the forms run on equal graphs that keep no connectivity, int adjacency
    # or row sums from the oracle runs above
    k2, p3, p4, c3, diamond = (Graph(g.vertices, g.edges()) for g in (k2, p3, p4, c3, diamond))
    spec, branches, forest = _no_matrix_instances(k2, p3, p4, c3, diamond)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a closed form built a distance matrix")

    def refuse_bfs(*args):
        raise AssertionError("a closed form ran the plain BFS under bfs_distances")

    def connected(g):  # what factor validation needs, without the plain BFS
        return -1 not in graph._distances(graph._int_adjacency(g), 0)

    monkeypatch.setattr(graph.DistanceMatrix, "__init__", refuse)
    monkeypatch.setattr(graph, "_bfs_reached", refuse_bfs)
    monkeypatch.setattr(products, "is_connected", connected)
    with pytest.raises(AssertionError):
        distance_matrix(k2)
    with pytest.raises(AssertionError):
        graph.bfs_distances(k2, 0)

    assert graft_moment_formula(spec) == expected["graft"]
    assert family_graft_moment_formula(
        diamond, DEGREE, attachments_by_receptor(spec)
    ) == expected["graft"]
    assert flower_moment_formula(Fraction(1, 2), branches) == expected["flower"]
    assert concentration_difference_formula(
        p4, DEGREE, 0, [1, 3, 3], c3.order, 3
    ) == expected["concentration"]
    assert permutation_moment_formula(
        diamond, DEGREE, p4, ConstantWeight(2)
    ) == expected["sigma"]
    assert permutation_unit_moment(diamond, p4) == expected["sigma-unit"]
    assert permutation_mean_distance(diamond, p4) == expected["sigma-unit"] / 16**2
    assert permutation_degree_distance(diamond, p4) == expected["sigma-degree"]
    assert unicyclic_degree_distance(4, forest) == expected["unicyclic"]
    assert extended_cycle_degree_distance(
        3, [(3, 3), (1, 0), (2, 1)]
    ) == expected["extended"]
    assert proper_cycle_degree_distance(4, [3, 4, 3, 5]) == expected["proper"]


def test_graft_forms_take_each_factor_pass_once(monkeypatch, p4, diamond):
    # one row-sum pass per Graph object, shared by both forms, and one root
    # BFS per (branch object, root) in a call
    rows, passes = [], []
    point_moments = closed_forms._point_moments

    def recorded(adjacency, y):
        rows.extend(p for p, c in enumerate(y) if c)
        return point_moments(adjacency, y)

    monkeypatch.setattr(closed_forms, "_point_moments", recorded)
    # distance_row_sums takes D*1 from graph's own _point_moments
    monkeypatch.setattr(
        graph, "_point_moments", lambda *args: passes.append(len(args[0])) or point_moments(*args)
    )
    c5 = cycle_graph(5)
    spec = GraftSpec(
        diamond,
        (
            Attachment(0, p4, 1),
            Attachment(2, p4, 1, DEGREE),
            Attachment(2, c5, 3),
            Attachment(3, p4, 1, ConstantWeight(Fraction(1, 3))),
            Attachment(3, p4, 0),
        ),
        DEGREE,
    )
    expected = _graft_oracle(spec)
    assert graft_moment_formula(spec) == expected
    # host rows at the receptors 0, 2, 3, then (p4, 1), (c5, 3), (p4, 0)
    assert rows == [0, 2, 3, 1, 3, 0]
    assert sorted(passes) == [4, 4, 5]
    family = attachments_by_receptor(spec)
    assert family_graft_moment_formula(diamond, DEGREE, family) == expected
    assert rows == [0, 2, 3, 1, 3, 0] * 2 and sorted(passes) == [4, 4, 5]


def test_a_tree_host_term_takes_the_probe_not_a_bfs_per_host_vertex(monkeypatch):
    # the K2 rooted product of a random tree: every host vertex is heavy, and
    # D*(n - 1) on the host takes the block route, so the count does not grow with n
    host = random_tree(random.Random(5), 2000)
    k2 = path_graph(2)
    spec = GraftSpec(host, [Attachment(x, k2, 0, DEGREE) for x in host.vertices], DEGREE)
    sources = []
    distances = graph._distances
    monkeypatch.setattr(graph, "_distances", lambda adj, v: sources.append(v) or distances(adj, v))
    value = graft_moment_formula(spec)
    assert len(sources) <= 4
    monkeypatch.undo()
    product = graft(spec)
    assert value == moment(product.graph, product.gamma)


def test_a_dense_host_term_takes_one_ball_pass_not_a_bfs_per_host_vertex(monkeypatch):
    # K2 and P3 on alternate vertices of a host of small eccentricity: D*(n - 1)
    # has entries 1 and 2 at every host vertex, one pass over two bit planes
    host = random_connected_graph(random.Random(2000), 2000)
    k2, p3 = path_graph(2), path_graph(3)
    spec = GraftSpec(
        host,
        [Attachment(x, p3 if i % 2 else k2, 0, DEGREE) for i, x in enumerate(host.vertices)],
        DEGREE,
    )
    orders = []
    distances = graph._distances
    monkeypatch.setattr(graph, "_distances", lambda adj, v: orders.append(len(adj)) or distances(adj, v))
    value = graft_moment_formula(spec)
    assert orders.count(host.order) == 2  # the probes of s and of D*(n - 1)
    monkeypatch.undo()
    product = graft(spec)
    assert value == moment(product.graph, product.gamma)


# -- cross-check against networkx distances --------------------------------------


def networkx_moment(product) -> Fraction:
    """sum_v gamma(v) * s(v), with s from networkx's single-source BFS."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(product.graph.vertices)
    g.add_edges_from(product.graph.edges())
    return sum(
        (
            product.gamma.value(product.graph, v)
            * sum(nx.single_source_shortest_path_length(g, v).values())
            for v in product.graph.vertices
        ),
        Fraction(0),
    )


@pytest.mark.parametrize("repeated", [False, True])
def test_graft_forms_agree_with_networkx(repeated):
    rng = random.Random(112 + repeated)
    for _ in range(15):
        spec = random_graft_spec(
            rng, max_host=8, max_branch_order=6, allow_repeated_receptors=repeated
        )
        expected = networkx_moment(graft(spec))
        assert graft_moment_formula(spec) == expected
        assert family_graft_moment_formula(
            spec.host, spec.host_weights, attachments_by_receptor(spec)
        ) == expected


def test_flower_form_agrees_with_networkx():
    rng = random.Random(114)
    for _ in range(15):
        center = Fraction(rng.randint(0, 6), rng.randint(1, 4))
        branches = random_flower_branches(rng, max_branch_order=6)
        expected = networkx_moment(flower(center, branches))
        assert flower_moment_formula(center, branches) == expected
