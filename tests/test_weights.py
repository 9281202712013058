"""Weight function evaluation, totals, gamma combination, spec strings."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from graft_moments import (
    DEGREE,
    HALF,
    UNIT,
    AffineWeight,
    Attachment,
    ConstantWeight,
    EmptyGraph,
    ExplicitWeight,
    Graph,
    GraphFormatError,
    GraftSpec,
    NegativeWeight,
    UnknownVertex,
    WeightFunction,
    describe_weight,
    distance_row_sums,
    format_rational,
    graft,
    graft_product_to_json_dict,
    moment,
    parse_rational,
    parse_weight_spec,
    path_graph,
)
from graft_moments.randgen import (
    random_connected_graph,
    random_rational,
    random_weight_function,
)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2/6") == Fraction(-1, 3)
    assert parse_rational("5") == Fraction(5)
    for bad in ["", "x", "1/0", "1/2/3", "1.5"]:
        with pytest.raises(GraphFormatError):
            parse_rational(bad)


def test_format_rational_always_carries_denominator():
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


def test_preset_values(p4):
    assert UNIT.value(p4, 0) == 1
    assert HALF.value(p4, 2) == Fraction(1, 2)
    assert DEGREE.value(p4, 0) == 1
    assert DEGREE.value(p4, 1) == 2
    assert ConstantWeight("7/2").value(p4, 3) == Fraction(7, 2)


def test_affine_value(p4):
    w = AffineWeight(3, UNIT, 15)
    assert all(w.value(p4, v) == 18 for v in p4.vertices)


def test_eval_unknown_vertex(p4):
    for w in [UNIT, HALF, DEGREE, ConstantWeight(1), ExplicitWeight({})]:
        with pytest.raises(UnknownVertex):
            w.value(p4, 99)


def test_explicit_must_cover_graph(p4):
    w = ExplicitWeight({0: 1, 1: 1, 2: 1})
    with pytest.raises(UnknownVertex):
        w.value(p4, 3)


def test_negative_weights_rejected(p4):
    with pytest.raises(NegativeWeight):
        ConstantWeight(-1)
    with pytest.raises(NegativeWeight):
        ExplicitWeight({0: Fraction(-1, 2)}).value(p4, 0)
    with pytest.raises(NegativeWeight):
        AffineWeight(-1, UNIT, 0).value(p4, 0)


def test_totals(p4, diamond, k1):
    assert DEGREE.total(p4) == 6  # twice the edge count
    assert UNIT.total(diamond) == 4
    assert ConstantWeight(15).total(k1) == 15
    with pytest.raises(EmptyGraph):
        UNIT.total(Graph([], []))


def test_degree_total_is_twice_edge_count_on_random_graphs():
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(1, 10))
        assert DEGREE.total(g) == 2 * g.edge_count


def test_affine_is_exactly_linear_on_random_graphs():
    rng = random.Random(12)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(1, 9))
        base = random_weight_function(rng, g)
        a = Fraction(rng.randint(0, 20), rng.randint(1, 5))
        c = Fraction(rng.randint(0, 20), rng.randint(1, 5))
        w = AffineWeight(a, base, c)
        for v in g.vertices:
            assert w.value(g, v) == a * base.value(g, v) + c


def test_gamma_of_single_gluing(k2):
    product = graft(GraftSpec(k2, (Attachment(0, k2, 0, UNIT),), UNIT))
    values = [product.gamma.value(product.graph, v) for v in product.graph.vertices]
    assert sorted(values) == [1, 1, 2]
    assert product.gamma.value(product.graph, 0) == 2  # the identified vertex


def test_gamma_zero_branches_echo_host_weight(p4, k1):
    zero = ConstantWeight(0)
    spec = GraftSpec(p4, tuple(Attachment(v, k1, 0, zero) for v in p4.vertices), DEGREE)
    product = graft(spec)
    for v in p4.vertices:
        assert product.gamma.value(product.graph, product.host_map[v]) == p4.degree(v)


def test_gamma_degree_weights_give_product_degree():
    rng = random.Random(13)
    from graft_moments.randgen import random_graft_spec

    for _ in range(20):
        spec = random_graft_spec(rng, max_host=8, max_branch_order=6,
                                 allow_repeated_receptors=True)
        spec = GraftSpec(
            spec.host,
            tuple(
                Attachment(a.receptor, a.branch, a.root, DEGREE)
                for a in spec.attachments
            ),
            DEGREE,
        )
        product = graft(spec)
        for v in product.graph.vertices:
            assert product.gamma.value(product.graph, v) == product.graph.degree(v)


def test_gamma_total_is_host_plus_branch_totals(p3, k2):
    spec = GraftSpec(p3, (Attachment(0, k2, 0, HALF), Attachment(0, k2, 1, DEGREE)), UNIT)
    product = graft(spec)
    expected = UNIT.total(p3) + HALF.total(k2) + DEGREE.total(k2)
    assert product.gamma.total(product.graph) == expected


def test_parse_weight_spec_presets():
    assert parse_weight_spec("unit") is UNIT
    assert parse_weight_spec("half") is HALF
    assert parse_weight_spec("degree") is DEGREE
    w = parse_weight_spec("const:7/3")
    assert isinstance(w, ConstantWeight) and w.constant == Fraction(7, 3)


def test_describe_weight_names_only_the_presets():
    assert describe_weight(UNIT) == "unit"
    assert describe_weight(HALF) == "half"
    assert describe_weight(ConstantWeight(1)) == "const:1/1"
    assert describe_weight(ConstantWeight(Fraction(1, 2))) == "const:1/2"
    assert describe_weight(AffineWeight(2, UNIT, 1))["affine"]["base"] == "unit"


def test_parse_weight_spec_file(tmp_path, p4):
    path = tmp_path / "w.json"
    path.write_text('{"0": "1/2", "1": "3/1", "2": "0/1", "3": "5/4"}')
    w = parse_weight_spec(f"file:{path}")
    assert w.value(p4, 1) == 3
    assert w.value(p4, 3) == Fraction(5, 4)
    # relative paths resolve against base_dir
    w2 = parse_weight_spec("file:w.json", base_dir=str(tmp_path))
    assert w2.value(p4, 0) == Fraction(1, 2)


def test_parse_weight_spec_rejects_garbage(tmp_path):
    for bad in ["", "units", "const:", "const:1/0"]:
        with pytest.raises(GraphFormatError):
            parse_weight_spec(bad)
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(GraphFormatError):
        parse_weight_spec(f"file:{path}")


# -- integer weight vectors ------------------------------------------------------


def _vector_values(w, g: Graph) -> list[Fraction]:
    numerators, denominator = w.vector(g.vertices, g.degrees)
    assert isinstance(denominator, int) and denominator > 0
    assert all(isinstance(x, int) for x in numerators)
    return [Fraction(x, denominator) for x in numerators]


def test_vector_agrees_with_value_for_every_kind():
    rng = random.Random(14)
    mixed = [Fraction(1, 2), Fraction(2, 3), Fraction(5), Fraction(0), Fraction(7, 10)]
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(1, 9))
        explicit = ExplicitWeight(
            {v: mixed[v] if v < len(mixed) else random_rational(rng) for v in g.vertices}
        )
        kinds = [
            UNIT, HALF, DEGREE, ConstantWeight(Fraction(7, 3)), ConstantWeight(0),
            explicit, random_weight_function(rng, g),
            AffineWeight(Fraction(3, 4), explicit, Fraction(5, 6)),
            AffineWeight(2, AffineWeight(Fraction(1, 3), DEGREE, Fraction(1, 2)), Fraction(1, 5)),
            AffineWeight(-1, UNIT, 1),  # zero everywhere
        ]
        for w in kinds:
            assert _vector_values(w, g) == [w.value(g, v) for v in g.vertices]


def test_vector_of_no_vertices_is_empty():
    for w in [UNIT, HALF, DEGREE, ExplicitWeight({}), AffineWeight(2, HALF, Fraction(1, 3))]:
        numerators, denominator = w.vector((), ())
        assert numerators == [] and denominator > 0


def _first_value_error(w, g: Graph) -> tuple[type, str] | None:
    for v in g.vertices:
        try:
            w.value(g, v)
        except (UnknownVertex, NegativeWeight) as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "w",
    [
        ExplicitWeight({0: 1, 1: 2, 3: 1}),  # 2 missing
        ExplicitWeight({0: 1, 1: Fraction(-1, 2), 3: 1}),  # negative before missing
        ExplicitWeight({0: 1, 2: -3, 3: 1, 1: 4}),
        AffineWeight(1, ExplicitWeight({0: 1, 1: 2, 3: 1}), 0),  # base missing at 2
        # affine negative at 1 before the base's missing vertex 2
        AffineWeight(-1, ExplicitWeight({0: 0, 1: 2, 3: 1}), 1),
        AffineWeight(1, ExplicitWeight({0: 0, 1: 2, 2: -1, 3: 1}), Fraction(1, 2)),  # affine at 2
        AffineWeight(-1, DEGREE, Fraction(3, 2)),  # negative at the degree-2 vertices 1 and 2
        AffineWeight(2, AffineWeight(-1, UNIT, 0), 1),  # inner affine negative at 0
    ],
)
def test_vector_raises_like_value_at_the_first_bad_vertex(p4, w):
    expected = _first_value_error(w, p4)
    assert expected is not None
    with pytest.raises(expected[0]) as got:
        w.vector(p4.vertices, p4.degrees)
    assert str(got.value) == expected[1]


# -- reduced int pairs against a Fraction reference ------------------------------


def _reference_rational(text) -> Fraction:
    """The Fraction parser weight files used to go through, error texts and all."""
    if not isinstance(text, str):
        raise GraphFormatError(f"expected a rational string, got {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad rational {text!r}: {exc}") from None


_BIG = "1234567890" * 4
_TEXTS = ["-2/6", "3/-4", "0/7", " 5 ", "10/4", "0", "-0/-3", f"-{_BIG}/{_BIG[::-1]}", _BIG]


def _weight_file(tmp_path, texts) -> WeightFunction:
    path = tmp_path / "w.json"
    path.write_text(json.dumps({str(v): text for v, text in enumerate(texts)}))
    return parse_weight_spec(f"file:{path}")


def test_weight_file_texts_parse_to_reduced_pairs(tmp_path):
    w = _weight_file(tmp_path, _TEXTS)
    for v, text in enumerate(_TEXTS):
        expected = _reference_rational(text)
        assert parse_rational(text) == expected
        assert w.values[v] == expected
        assert w._pairs[v] == (expected.numerator, expected.denominator)
    assert describe_weight(w)["explicit"] == {
        str(v): format_rational(_reference_rational(text)) for v, text in enumerate(_TEXTS)
    }


@pytest.mark.parametrize("text", ["1/0", "-3/0", "x/2", "1/2/3", "1.5", "", 3, None, [1, 2]])
def test_weight_file_texts_fail_as_before(tmp_path, text):
    with pytest.raises(GraphFormatError) as expected:
        _reference_rational(text)
    with pytest.raises(GraphFormatError) as got:
        _weight_file(tmp_path, ["1/2", text])
    assert str(got.value) == f"{tmp_path / 'w.json'}: {expected.value}"
    if isinstance(text, str):
        with pytest.raises(GraphFormatError) as got:
            parse_rational(text)
        assert str(got.value) == str(expected.value)


def test_negative_weight_messages_print_the_value_as_fraction_does(p4):
    cases = [
        (ExplicitWeight({0: Fraction(-1, 2)}), "weight -1/2 at vertex 0 is negative"),
        (ExplicitWeight({0: -3}), "weight -3 at vertex 0 is negative"),
        (AffineWeight(-1, UNIT, 0), "affine weight -1 at vertex 0 is negative"),
        (AffineWeight(-2, HALF, Fraction(1, 3)), "affine weight -2/3 at vertex 0 is negative"),
    ]
    for w, message in cases:
        with pytest.raises(NegativeWeight) as got:
            w.value(p4, 0)
        assert str(got.value) == message
    with pytest.raises(NegativeWeight) as got:
        ConstantWeight(Fraction(-6, 4))
    assert str(got.value) == "constant weight -3/2 is negative"


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def test_host_weight_file_with_1000_prime_denominators_round_trips(tmp_path):
    primes = _primes(1000)
    host = random_connected_graph(random.Random(21), 1000)
    texts = [f"{v + 1}/{p}" for v, p in zip(host.vertices, primes)]
    host_weights = _weight_file(tmp_path, texts)
    spec = GraftSpec(
        host,
        (Attachment(0, path_graph(3), 0, ConstantWeight(Fraction(1, 7))),
         Attachment(5, path_graph(2), 1, DEGREE)),
        host_weights,
    )
    product = graft(spec)
    gamma = graft_product_to_json_dict(product)["gamma"]
    expected = {
        product.host_map[v]: _reference_rational(text) for v, text in zip(host.vertices, texts)
    }
    expected[product.host_map[0]] += Fraction(1, 7)
    expected[product.host_map[5]] += 1
    expected.update({v: Fraction(1, 7) for v in (1000, 1001)})
    expected[1002] = Fraction(1)
    assert list(gamma.items()) == [(str(v), format_rational(expected[v])) for v in range(1003)]
    # no numerator grows to the lcm of the denominators
    assert max(len(text) for text in gamma.values()) <= 12
    (tmp_path / "gamma.json").write_text(json.dumps(gamma))
    again = parse_weight_spec(f"file:{tmp_path / 'gamma.json'}")
    assert again._pairs == product.gamma._pairs
    sums = distance_row_sums(product.graph)
    reference = sum(expected[v] * sums[v] for v in product.graph.vertices)
    assert moment(product.graph, again) == moment(product.graph, product.gamma) == reference
