"""Vertex weight functions with exact rational values.

A weight function assigns a nonnegative rational to every vertex of the
graph it is evaluated on.  The built-in kinds cover the weightings the
closed-form results specialize to (unit, one-half, degree, constants),
plus explicit per-vertex maps and affine combinations a*base + c.

Every kind gives a vertex's weight as a reduced (numerator, positive
denominator) int pair, which explicit maps, products, weight files and
JSON output keep as it is: `value` is the only place a `Fraction` is
built, and `vector` the only place a common denominator is formed.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    EmptyGraph,
    GraphFormatError,
    NegativeWeight,
    ProvenanceMismatch,
    UnknownVertex,
)
from .graph import Graph

Rational = Fraction
Pair = tuple[int, int]


def _reduced(num: int, den: int) -> Pair:
    """num/den in lowest terms; den must be positive."""
    g = gcd(num, den)
    return (num // g, den // g) if g != 1 else (num, den)


def _parse_pair(text: str) -> Pair:
    """Parse "p/q" (or a bare integer "p") into a reduced int pair."""
    if not isinstance(text, str):
        raise GraphFormatError(f"expected a rational string, got {text!r}")
    try:
        if "/" not in text:
            return int(text.strip()), 1
        num, den = text.split("/", 1)
        p, q = int(num.strip()), int(den.strip())
        if q == 0:
            Fraction(p, q)  # raises ZeroDivisionError with Fraction's message
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad rational {text!r}: {exc}") from None
    return _reduced(p, q) if q > 0 else _reduced(-p, -q)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into an exact rational."""
    return Fraction(*_parse_pair(text))


def format_rational(value: Fraction) -> str:
    """Serialize to "p/q" with positive denominator; integers become "p/1"."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _as_rational(value) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad rational value {value!r}: {exc}") from None


def _as_pair(value) -> Pair:
    value = _as_rational(value)
    return value.numerator, value.denominator


def _text(pair: Pair) -> str:
    """A pair as str(Fraction) writes it: "3", "-1/2"."""
    return "/".join(map(str, pair)) if pair[1] != 1 else str(pair[0])


class WeightFunction:
    """Base class; subclasses define _at(vertex, degree)."""

    def value(self, g: Graph, v: int) -> Fraction:
        return Fraction(*self._at(v, g.degree(v)))

    def _at(self, v: int, degree: int) -> Pair:
        """v's weight, given its degree, as a reduced pair; raises on a bad one."""
        raise NotImplementedError

    def vector(
        self, vertices: Sequence[int], degrees: Sequence[int]
    ) -> tuple[list[int], int]:
        """(numerators, denominator): the weights as ints over one denominator.

        numerators[i] / denominator == value(g, vertices[i]) when
        degrees[i] is that vertex's degree in g; moments then sum in ints
        and divide once.  A bad vertex raises what value raises, at the
        first one in vertex order.  The denominator is the least common
        one (1 for no vertices).
        """
        pairs = list(map(self._at, vertices, degrees))
        den = lcm(*{q for _, q in pairs})
        return [p * (den // q) for p, q in pairs], den

    def total(self, g: Graph) -> Fraction:
        """Sum of the weight over all vertices of g."""
        if g.order == 0:
            raise EmptyGraph("total weight of the empty graph")
        numerators, denominator = self.vector(g.vertices, g.degrees)
        return Fraction(sum(numerators), denominator)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DegreeWeight(WeightFunction):
    """Weight = vertex degree; the moment is the degree distance."""

    def _at(self, v: int, degree: int) -> Pair:
        return degree, 1

    def vector(self, vertices, degrees):
        return list(degrees), 1


class ConstantWeight(WeightFunction):
    """Every vertex weighs the same nonnegative rational.

    UNIT (weight 1) gives the Wiener-type distance sum; HALF (weight 1/2)
    gives the Wiener index.
    """

    __slots__ = ("constant", "_pair")

    def __init__(self, constant):
        c = _as_rational(constant)
        if c < 0:
            raise NegativeWeight(f"constant weight {c} is negative")
        self.constant = c
        self._pair = (c.numerator, c.denominator)

    def _at(self, v: int, degree: int) -> Pair:
        return self._pair

    def vector(self, vertices, degrees):
        p, q = self._pair
        return [p] * len(vertices), q

    def __repr__(self) -> str:
        return f"ConstantWeight({self.constant})"


class ExplicitWeight(WeightFunction):
    """Per-vertex map; must cover the whole vertex set it is used on."""

    __slots__ = ("_pairs",)

    def __init__(self, values: Mapping[int, object]):
        self._pairs = {v: _as_pair(w) for v, w in values.items()}

    @classmethod
    def _from_pairs(cls, pairs: dict[int, Pair]) -> ExplicitWeight:
        """Wrap a {vertex: reduced pair} dict, which the weight then owns."""
        w = cls.__new__(cls)
        w._pairs = pairs
        return w

    @property
    def values(self) -> Mapping[int, Fraction]:
        """A read-only view of the weights, which are kept as int pairs."""
        return MappingProxyType({v: Fraction(*pair) for v, pair in self._pairs.items()})

    def _at(self, v: int, degree: int) -> Pair:
        pair = self._pairs.get(v)
        if pair is None:
            raise UnknownVertex(f"weight map has no entry for vertex {v!r}")
        if pair[0] < 0:
            raise NegativeWeight(f"weight {_text(pair)} at vertex {v!r} is negative")
        return pair

    def __repr__(self) -> str:
        return f"ExplicitWeight({dict(self.values)})"


class AffineWeight(WeightFunction):
    """scale * base(v) + shift, exact; the result must stay nonnegative."""

    __slots__ = ("scale", "base", "shift", "_terms")

    def __init__(self, scale, base: WeightFunction, shift):
        self.scale = _as_rational(scale)
        self.base = base
        self.shift = _as_rational(shift)
        self._terms = (*_as_pair(self.scale), *_as_pair(self.shift))

    def _at(self, v: int, degree: int) -> Pair:
        a, b, c, d = self._terms
        p, q = self.base._at(v, degree)
        pair = _reduced(a * p * d + c * b * q, b * q * d)
        if pair[0] < 0:
            raise NegativeWeight(
                f"affine weight {_text(pair)} at vertex {v!r} is negative"
            )
        return pair

    def __repr__(self) -> str:
        return f"AffineWeight({self.scale}, {self.base!r}, {self.shift})"


UNIT = ConstantWeight(1)
HALF = ConstantWeight(Fraction(1, 2))
DEGREE = DegreeWeight()


def combine_gamma(
    host: Graph,
    host_weights: WeightFunction,
    branch_weights: Sequence[tuple[Graph, int, WeightFunction]],
    host_map: Mapping[int, int],
    branch_maps: Sequence[Mapping[int, int]],
    product_vertices: Sequence[int],
) -> ExplicitWeight:
    """Combined weight on a graft product.

    Off the identified vertices the combined weight is the host weight
    (on host vertices) or the branch weight (inside a branch).  At each
    identified root it is the host weight plus the root weights of every
    branch glued there, so stacking several branches on one receptor
    accumulates.
    """
    if len(branch_weights) != len(branch_maps):
        raise ProvenanceMismatch(
            f"{len(branch_weights)} branches but {len(branch_maps)} provenance maps"
        )
    values: dict[int, Pair] = {}
    for v, degree in zip(host.vertices, host.degrees):
        values[host_map[v]] = host_weights._at(v, degree)
    for (branch, root, weights), bmap in zip(branch_weights, branch_maps):
        for bv, degree in zip(branch.vertices, branch.degrees):
            pid = bmap[bv]
            pair = weights._at(bv, degree)
            if bv == root:
                if pid not in values:
                    raise ProvenanceMismatch(
                        f"branch root {bv!r} maps to {pid!r}, not a host vertex"
                    )
                (p, q), (r, s) = values[pid], pair
                values[pid] = _reduced(p * s + r * q, q * s)
            else:
                if pid in values:
                    raise ProvenanceMismatch(
                        f"product vertex {pid!r} claimed twice"
                    )
                values[pid] = pair
    if set(values) != set(product_vertices):
        raise ProvenanceMismatch("provenance maps do not cover the product")
    return ExplicitWeight._from_pairs(values)


# -- weight spec strings (CLI / JSON surface) ----------------------------


def parse_weight_spec(spec: str, *, base_dir: str | None = None) -> WeightFunction:
    """Parse "unit" | "half" | "degree" | "const:p/q" | "file:PATH".

    A weight file is a JSON object mapping vertex ids to "p/q" strings;
    each key is an id as str(int) writes it, and no key repeats, so no
    vertex is named twice.  Relative paths resolve against base_dir
    (default: the process cwd).
    """
    if not isinstance(spec, str):
        raise GraphFormatError(f"weight spec must be a string, got {spec!r}")
    if spec == "unit":
        return UNIT
    if spec == "half":
        return HALF
    if spec == "degree":
        return DEGREE
    if spec.startswith("const:"):
        return ConstantWeight(parse_rational(spec[len("const:"):]))
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)

        def unique_keys(pairs: list[tuple[str, object]]) -> dict:
            obj = dict(pairs)
            if len(obj) != len(pairs):
                raise GraphFormatError(f"weight file {path} repeats a key")
            return obj

        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh, object_pairs_hook=unique_keys)
            except json.JSONDecodeError as exc:
                raise GraphFormatError(f"bad weight file {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise GraphFormatError(f"weight file {path} must hold an object")
        values = {}
        for key, text in raw.items():
            try:
                vertex = int(key)
            except ValueError:
                vertex = None
            # "01", "+1", " 1" and "1_0" would alias (or invent) a vertex id
            if str(vertex) != key:
                raise GraphFormatError(
                    f"weight file {path} keys must be integer vertex ids "
                    f"written plainly, got {key!r}"
                )
            values[vertex] = _parse_pair(text)
        return ExplicitWeight._from_pairs(values)
    raise GraphFormatError(f"unknown weight spec {spec!r}")


def describe_weight(w: WeightFunction) -> object:
    """JSON-friendly description of a weight function, for diagnostics."""
    if w is UNIT:
        return "unit"
    if w is HALF:
        return "half"
    if isinstance(w, DegreeWeight):
        return "degree"
    if isinstance(w, ConstantWeight):
        return f"const:{format_rational(w.constant)}"
    if isinstance(w, ExplicitWeight):
        return {"explicit": {str(v): f"{p}/{q}" for v, (p, q) in w._pairs.items()}}
    if isinstance(w, AffineWeight):
        return {
            "affine": {
                "scale": format_rational(w.scale),
                "base": describe_weight(w.base),
                "shift": format_rational(w.shift),
            }
        }
    return repr(w)
