"""The isomoment engine: permutation products bucketed by isomorphism.

classify makes one pass per orbit of sigmas.  Copy i of the branch K
is rooted at sigma(i), and roots in one Aut(K) orbit give isomorphic
rooted copies; sigma's word (the orbits of sigma(1), ..., sigma(r))
colours the host, and sigmas whose coloured hosts are isomorphic share a
label and give isomorphic products, with equal degree and constant-weight
moments.  Sigmas are drawn and labelled one at a time; the sigma that
opens a label gets the pass (_permutation_products): one loop over the
product's vertices gives its int adjacency, every vertex's level sizes
packed into one int (its isomorphism signature) and its row sum, all
from the factors' adjacency and distance rows, with no BFS of the
product.  Every moment is summed from them in ints.  A class keeps only
what is printed: its first sigma, adjacency and size.  A file: weight is
not isomorphism-invariant; with one, each sigma is its own label.  No
product becomes a Graph.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .graph import Graph, _check_order, _Classes, _int_adjacency, _point_moments
from .moments import _weighted_sum
from .products import _permutation_order
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
    # the rows of n * D
    scaled = [_point_moments(adjacency, [n * (j == i) for j in range(n)]) for i in range(n)]
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


# a product's int adjacency, its vertices' signatures and their row sums
_Product = tuple[tuple[tuple[int, ...], ...], list[int], list[int]]


def _permutation_products(host: Graph, branch: Graph) -> Callable[[Sequence[int]], _Product]:
    """Each sigma's product int adjacency, signatures and row sums, from the factors alone.

    The orders and factors are checked as permutation_graph checks them,
    then the product order r*r against MAX_ORDER, before any table is
    built.  The returned function's value at sigma, a permutation of
    1..r, is (adjacency, *_level_signatures(adjacency)) for adjacency =
    _int_adjacency(permutation_graph(host, branch, sigma).graph): host
    positions 0..r-1, then copy i's non-root vertices in branch order
    from r + i*(r-1), neighbour lists sorted.  There is no BFS of the
    product.  A shortest path between two branch copies runs root to
    root (the graft distance decomposition behind Theorem 1), so for u at
    branch position p of copy i, rooted at rho = sigma(i) - 1, and v at
    position q of copy j != i,

        d(u, v) = d_K(p, rho) + d_H(i, j) + d_K(sigma(j) - 1, q).

    A signature is u's vertex Hosoya polynomial sum_v T**d(u, v)
    (Hosoya, Discrete Appl. Math. 19, 1988) at T = 2**width, above its
    row sum in the low bits.  With A(q) = sum_q' T**d_K(q, q') it is

        A(p) + T**d_K(p, rho) * sum_{j != i} T**d_H(i, j) * A(sigma(j) - 1)

    and the row sum is s_K(p) + r(r-1) d_K(p, rho) + r s_H(i) +
    sum_{j != i} s_K(sigma(j) - 1): one loop over the r*r vertices per
    sigma, over tables built once from one BFS per factor vertex.
    """
    r = _permutation_order(host, branch)
    n = r * r
    _check_order(n)
    width, low = n.bit_length(), (n * n).bit_length()
    mask = (1 << low) - 1
    host_adjacency = [tuple(sorted(nbrs)) for nbrs in _int_adjacency(host)]
    branch_adjacency = [sorted(nbrs) for nbrs in _int_adjacency(branch)]
    one_hot = [[int(q == p) for q in range(r)] for p in range(r)]
    host_rows = [_point_moments(_int_adjacency(host), row) for row in one_hot]
    branch_rows = [_point_moments(_int_adjacency(branch), row) for row in one_hot]
    branch_sums = [sum(row) for row in branch_rows]
    # A(q) in the level fields, above the row sum
    profiles = [sum(1 << (low + width * d) for d in row) for row in branch_rows]
    # per host vertex i: every other copy's level shift T**d_H(i, j), and
    # r s_H(i) + sum_j s_K(sigma(j) - 1), the same sum for every sigma
    cross_shifts = [
        [(j, width * d) for j, d in enumerate(row) if j != i] for i, row in enumerate(host_rows)
    ]
    bases = [r * sum(row) + sum(branch_sums) for row in host_rows]
    # per root position rho, each branch vertex p in product order (the
    # root, then the non-roots in branch order): whether p touches the
    # root, its other neighbours' copy offsets (a non-root q sits at
    # offset q or q - 1), its own terms less s_K(rho) (the j = i term of
    # bases), and its level shift T**d_K(p, rho)
    layouts = [
        [
            (
                rho in branch_adjacency[p],
                [q - (q > rho) for q in branch_adjacency[p] if q != rho],
                profiles[p] + branch_sums[p] - branch_sums[rho] + r * (r - 1) * row[p],
                width * row[p],
            )
            for p in (rho, *(p for p in range(r) if p != rho))
        ]
        for rho, row in enumerate(branch_rows)
    ]

    def products(sigma: Sequence[int]) -> _Product:
        at_roots = [profiles[s - 1] for s in sigma]
        rows = []
        signatures = []
        for i, s in enumerate(sigma):
            offset = r + i * (r - 1)
            cross = sum([at_roots[j] << shift for j, shift in cross_shifts[i]])
            base = bases[i]
            for touches_root, others, own, shift in layouts[s - 1]:
                row = [offset + q for q in others]
                rows.append((i, *row) if touches_root else tuple(row))
                signatures.append(own + (cross << shift) + base)
        # copy i's root is host vertex i: the roots first, then the rest
        roots = [nbrs + row for nbrs, row in zip(host_adjacency, rows[::r])]
        root_signatures = signatures[::r]
        del rows[::r], signatures[::r]
        signatures[:0] = root_signatures
        return (*roots, *rows), signatures, [s & mask for s in signatures]

    return products


def classify(
    host: Graph, branch: Graph, weight_functions: Mapping[str, WeightFunction], sigmas: Iterable
) -> tuple[list[list], dict[str, set]]:
    """Each class's [first sigma, adjacency, size] in first-seen order, and each spec's moments.

    The sigmas, permutations of 1..r for r the common order, are drawn
    as the loop goes; each spec's moments are the set its products take.
    """
    products = _permutation_products(host, branch)

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
            adjacency, signatures, row_sums = products(sigma)
            degrees = [len(nbrs) for nbrs in adjacency]
            for seen, weights in zip(values.values(), weight_functions.values()):
                seen.add(_weighted_sum(weights, vertices, degrees, row_sums))
            class_of.append(classes.add(adjacency, signatures))
            if class_of[label] == len(kept):
                kept.append([sigma, adjacency, 0])
        kept[class_of[label]][2] += 1
    return kept, values
