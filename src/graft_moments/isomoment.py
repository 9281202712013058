"""The isomoment engine: permutation products bucketed by isomorphism.

classify makes one pass per orbit of sigmas.  Copy i of the branch K
is rooted at sigma(i), and roots in one Aut(K) orbit give isomorphic
rooted copies; sigma's word (the orbits of sigma(1), ..., sigma(r))
colours the host, and sigmas whose coloured hosts are isomorphic share a
label and give isomorphic products, with equal degree and constant-weight
moments.  Sigmas are drawn and labelled one at a time; the sigma that
opens a label gets the pass: the product's int adjacency comes straight
from the factors, and one bit-parallel BFS of all sources gives every
vertex's level sizes packed into one int (its isomorphism signature) and
its row sum, from which every moment is summed in ints.  A class keeps
only what is printed: its first sigma, adjacency and size.  A file: weight is not
isomorphism-invariant; with one, each sigma is its own label.  No product
becomes a Graph.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .graph import Graph, _Classes, _int_adjacency, _level_signatures, _point_moments
from .moments import _weighted_sum
from .products import _permutation_adjacencies
from .weights import ConstantWeight, DegreeWeight, WeightFunction


def _colour_orbits(g: Graph, colourings: Iterable[tuple[int, ...]]) -> Iterator[int]:
    """Each colouring's Aut(g) orbit, numbered as first met, yielded as it goes.

    Vertex i's signature codes the colour c of each vertex at distance d
    as d * order + c (colours are below the order), sorted; the one code
    at distance 0 is i's own.  So the coloured copies' classes are the
    orbits (individualise, then refine, as in McKay and Piperno, J. Symb.
    Comput. 60, 2014).  Signatures this fine keep the buckets small: with
    level sizes alone, a vertex-transitive g in distinct colours puts
    every colouring in one bucket.
    """
    adjacency = _int_adjacency(g)
    n = len(adjacency)
    scaled = [_point_moments(adjacency, {i: n}) for i in range(n)]  # rows of n * D
    classes = _Classes()
    label_of: dict[tuple[int, ...], int] = {}
    for colouring in colourings:
        label = label_of.get(colouring)
        if label is None:
            signatures = [tuple(sorted(map(add, row, colouring))) for row in scaled]
            label = label_of[colouring] = classes.add(adjacency, signatures)
        yield label


def _root_orbits(branch: Graph) -> list[int]:
    """Each branch position's Aut(branch) orbit: one vertex coloured 1."""
    n = branch.order
    return list(
        _colour_orbits(branch, [tuple(int(v == u) for v in range(n)) for u in range(n)])
    )


def _orbit_labels(host: Graph, branch: Graph, sigmas: Iterable[Sequence[int]]) -> Iterator[int]:
    """Each sigma's word's Aut(host) orbit, numbered as first met, yielded as it goes.

    sigma's word colours host vertex i by the root orbit of sigma(i).
    """
    orbit = _root_orbits(branch)
    return _colour_orbits(host, (tuple(orbit[s - 1] for s in sigma) for sigma in sigmas))


def classify(
    host: Graph, branch: Graph, weight_functions: Mapping[str, WeightFunction], sigmas: Iterable
) -> tuple[list[list], dict[str, set]]:
    """Each class's [first sigma, adjacency, size] in first-seen order, and each spec's moments.

    The sigmas, permutations of 1..r for r the common order, are drawn
    as the loop goes; each spec's moments are the set its products take.
    """
    build = _permutation_adjacencies(host, branch)

    # sigmas sharing a label give isomorphic products with equal moments;
    # with a weight that is not isomorphism-invariant, each is its own label
    if all(isinstance(w, (ConstantWeight, DegreeWeight)) for w in weight_functions.values()):
        sigmas, words = itertools.tee(sigmas)
        labels: Iterator[int] = _orbit_labels(host, branch, words)
    else:
        labels = itertools.count()
    vertices = range(host.order**2)
    values: dict[str, set] = {spec_name: set() for spec_name in weight_functions}
    classes = _Classes()
    class_of: list[int] = []  # by label; labels are numbered as first met
    kept: list[list] = []  # per class: its first sigma, adjacency and size
    for sigma, label in zip(sigmas, labels):
        if label == len(class_of):
            adjacency = build(sigma)
            signatures, row_sums = _level_signatures(adjacency)
            degrees = [len(nbrs) for nbrs in adjacency]
            for seen, weights in zip(values.values(), weight_functions.values()):
                seen.add(_weighted_sum(weights, vertices, degrees, row_sums))
            class_of.append(classes.add(adjacency, signatures))
            if class_of[label] == len(kept):
                kept.append([sigma, adjacency, 0])
        kept[class_of[label]][2] += 1
    return kept, values
