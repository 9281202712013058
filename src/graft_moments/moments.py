"""Weighted distance moments and the indices derived from them.

The moment of a weight w at a vertex u is sum_v w(v) * dist(v, u); the
moment of the whole graph is the sum of those over u, which equals
sum_v w(v) * s(v) where s(v) is the v-th row sum of the distance
matrix.  Classical indices are moments for specific weights: weight 1/2
gives the Wiener index, the degree weight gives the degree distance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from operator import mul
from typing import Sequence

from .graph import Graph, bfs_distances, distance_row_sums
from .weights import UNIT, WeightFunction, format_rational


def moment_at(g: Graph, weights: WeightFunction, u: int) -> Fraction:
    """sum_v w(v) * dist(v, u), by one BFS from u."""
    dist = bfs_distances(g, u)
    return _weighted_sum(weights, g.vertices, g.degrees, [dist[v] for v in g.vertices])


def moment(g: Graph, weights: WeightFunction) -> Fraction:
    """Total moment sum_u sum_v w(v) * dist(v, u), via row sums."""
    return _weighted_sum(weights, g.vertices, g.degrees, distance_row_sums(g))


def _weighted_sum(
    weights: WeightFunction,
    vertices: Sequence[int],
    degrees: Sequence[int],
    column: Sequence[int],
) -> Fraction:
    """sum_v w(v) * c(v) for a column c: the weight vector's numerators, one division."""
    numerators, denominator = weights.vector(vertices, degrees)
    return Fraction(sum(map(mul, numerators, column)), denominator)


def zagreb_m1(g: Graph) -> Fraction:
    """First Zagreb index: sum of squared degrees."""
    return Fraction(sum(d * d for d in g.degrees))


@dataclass(frozen=True)
class MomentReport:
    """All derived indices of one graph under one weight function."""

    moment: Fraction
    mean_distance: Fraction
    wiener: Fraction
    degree_distance: Fraction
    zagreb1: Fraction
    mti: Fraction
    hyper_wiener_paper: Fraction

    def to_json_dict(self) -> dict[str, str]:
        return {f.name: format_rational(getattr(self, f.name)) for f in fields(self)}


def indices(g: Graph, weights: WeightFunction = UNIT) -> MomentReport:
    """One row-sum pass; every index exact.

    hyper_wiener_paper is deliberately W/2 + M1/2 (Wiener plus first
    Zagreb, halved) -- a historical variant, not the modern hyper-Wiener
    index -- hence the flagged name.
    """
    row_sums = distance_row_sums(g)
    degrees = g.degrees
    unit_moment = sum(row_sums)
    degree_dist = Fraction(sum(map(mul, degrees, row_sums)))
    zagreb = zagreb_m1(g)
    wiener = Fraction(unit_moment, 2)
    return MomentReport(
        moment=_weighted_sum(weights, g.vertices, degrees, row_sums),
        mean_distance=Fraction(unit_moment, g.order**2),
        wiener=wiener,
        degree_distance=degree_dist,
        zagreb1=zagreb,
        mti=zagreb + degree_dist,
        hyper_wiener_paper=wiener / 2 + zagreb / 2,
    )
