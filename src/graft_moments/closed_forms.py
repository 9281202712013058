"""Closed-form moment formulas for graft products.

Each function evaluates a published formula symbol by symbol from its
inputs -- factor moments, branch orders, total weights, host distances
-- without building the product graph.  No form builds a distance
matrix: each factor graph gets one `distance_row_sums` pass for its
moment, and a point moment costs one BFS from its vertex
(`bfs_distances`), whose row gives it by linearity,
M^(a*w+c)(y) = a*M^w(y) + c*s(y) with s(y) the row sum at y.  Weights
enter as int numerators over one denominator (`WeightFunction.vector`),
so totals, moments and point moments are int dot products divided once.
Host distances between receptors come from those same rows, and
distances on a cycle host from min(|i - j|, r - |i - j|).  Every formula
is certified against the brute-force oracle (build the product, run BFS
from every vertex, sum) by the verify module and the test suite;
agreement is exact, never approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .errors import (
    ArityMismatch,
    GraphFormatError,
    InvalidExtendedCycle,
    NegativeWeight,
    NotATree,
    OrderMismatch,
    TooLarge,
    UnknownVertex,
)
from .graph import MAX_ORDER, Graph, bfs_distances, cycle_graph, distance_row_sums
from .weights import DEGREE, UNIT, WeightFunction, _over_common_denominator
from .products import GraftSpec, _validate_factors

# A family maps a host vertex to the rooted, weighted branches glued there.
Family = Mapping[int, Sequence[tuple[Graph, int, WeightFunction]]]


def attachments_by_receptor(spec: GraftSpec) -> dict[int, list[tuple[Graph, int, WeightFunction]]]:
    """Group a spec's attachments into the family mapping the vector form uses."""
    family: dict[int, list[tuple[Graph, int, WeightFunction]]] = {}
    for att in spec.attachments:
        family.setdefault(att.receptor, []).append(
            (att.branch, att.root, att.weights)
        )
    return family


def cycle_distance_row_sum(r: int) -> int:
    """Common row sum of the distance matrix of C_r: floor(r/2)*floor((r+1)/2).

    Also its largest eigenvalue (the all-ones vector is an eigenvector).
    Degenerate orders work too: r=1 gives 0, r=2 gives 1.
    """
    if r < 1:
        raise InvalidExtendedCycle(f"cycle order {r} must be >= 1")
    return (r // 2) * ((r + 1) // 2)


@dataclass(frozen=True)
class HostVectors:
    """Per-host-vertex bookkeeping for the vectorized formulas.

    block_orders[i] is the order of the product block sitting over the
    i-th host vertex (1 plus the non-root sizes of its branches);
    attached_totals[i] is the total branch weight glued there.
    """

    host: Graph
    block_orders: tuple[int, ...]
    attached_totals: tuple[Fraction, ...]

    @property
    def product_order(self) -> int:
        return sum(self.block_orders)

    @classmethod
    def from_family(
        cls,
        host: Graph,
        family: Family,
        attached: Mapping[int, Fraction] | None = None,
    ) -> "HostVectors":
        """Vectors of a family; attached maps a receptor to its glued weight.

        Without attached, each branch's weight total is evaluated here.
        """
        for x in family:
            if not host.has_vertex(x):
                raise UnknownVertex(f"family receptor {x!r} is not a host vertex")
        if attached is None:
            attached = {
                x: sum((w.total(b) for b, _, w in bs), Fraction(0))
                for x, bs in family.items()
            }
        return cls(
            host=host,
            block_orders=tuple(
                1 + sum(b.order - 1 for b, _, _ in family.get(x, ()))
                for x in host.vertices
            ),
            attached_totals=tuple(
                attached.get(x, Fraction(0)) for x in host.vertices
            ),
        )


# -- one row-sum pass per factor, one BFS per point moment --------------------


class _Factor:
    """Weights and distance row sums of one factor graph, in vertex order.

    The weights are int numerators over one denominator
    (WeightFunction.vector), so the total, the moment and each point
    moment are int dot products with one division each.
    """

    __slots__ = ("graph", "numerators", "denominator", "row_sums", "total", "moment")

    def __init__(self, g: Graph, weights: WeightFunction):
        self.graph = g
        self.numerators, self.denominator = weights.vector(g.vertices, g.degrees)
        self.row_sums = distance_row_sums(g)
        self.total = Fraction(sum(self.numerators), self.denominator)
        self.moment = self.weighted(self.row_sums)

    def weighted(self, column: Sequence[int]) -> Fraction:
        """sum_v w(v) * column[v], over vertices in vertex order."""
        return Fraction(sum(map(mul, self.numerators, column)), self.denominator)

    def row(self, y: int) -> list[int]:
        """dist(y, v) for every vertex v, in vertex order: one BFS."""
        dist = bfs_distances(self.graph, y)
        return [dist[v] for v in self.graph.vertices]

    def point_moment(self, row: list[int], scale, shift) -> Fraction:
        """M^(scale*w + shift)(y) = scale*M^w(y) + shift*s(y), from y's row."""
        return scale * self.weighted(row) + shift * sum(row)


# -- general graft products -------------------------------------------------


def graft_moment_formula(spec: GraftSpec) -> Fraction:
    """Moment of a graft product from factor data alone.

    M_H^a + sum_i M_Ki^bi + sum_i M_H^(xi_i)(x_i) + sum_i M_Ki^(eta_i)(y_i)
    + sum_{i,j} (|V_i|-1) * dist(x_i, x_j) * B_j, where
    xi_i = (|V_i|-1)*a + B_i and eta_i = (|V|-|V_i|)*b_i + (W - B_i).
    The sums run over the attachment list, so repeated receptors are fine.
    The cross term is summed as sum_i (|V_i|-1) * <row(x_i), A>, with A
    the branch weight glued at each host vertex (ints over A's common
    denominator): one host BFS per receptor, one branch BFS per root.
    """
    host = spec.host
    _validate_factors(host, ((a.receptor, a.branch, a.root) for a in spec.attachments))
    h = _Factor(host, spec.host_weights)
    factors = [_Factor(a.branch, a.weights) for a in spec.attachments]
    grand_total = h.total + sum((f.total for f in factors), Fraction(0))
    product_order = spec.product_order
    attached = dict.fromkeys(host.vertices, Fraction(0))
    for att, f in zip(spec.attachments, factors):
        attached[att.receptor] += f.total
    attached_numerators, attached_denominator = _over_common_denominator(
        list(attached.values())
    )
    rows = {x: h.row(x) for x in dict.fromkeys(a.receptor for a in spec.attachments)}

    result = h.moment
    cross = 0
    for att, f in zip(spec.attachments, factors):
        grown = att.branch.order - 1
        row = rows[att.receptor]
        result += f.moment
        result += h.point_moment(row, grown, f.total)
        result += f.point_moment(
            f.row(att.root), product_order - att.branch.order, grand_total - f.total
        )
        cross += grown * sum(map(mul, row, attached_numerators))
    return result + Fraction(cross, attached_denominator)


def family_graft_moment_formula(
    host: Graph, alpha: WeightFunction, family: Family
) -> Fraction:
    """Vectorized form of the graft moment, grouped by receptor.

    Same value as graft_moment_formula; the cross term becomes
    (n - 1)^T D w over host vertices, with n the block orders and w the
    attached weight totals.  Together with the host point moments it is
    M_H^(xi_x)(x) + (n_x - 1) * <row(x), w> = (n_x - 1) * <row(x), a + w>
    + w_x * s(x), so only vertices with n_x > 1 take a host BFS; the
    rest need just the row sums.
    """
    _validate_factors(
        host, ((x, b, root) for x, bs in family.items() for b, root, _ in bs)
    )
    factors = {x: [_Factor(b, beta) for b, _, beta in bs] for x, bs in family.items()}
    vectors = HostVectors.from_family(
        host,
        family,
        {x: sum((f.total for f in fs), Fraction(0)) for x, fs in factors.items()},
    )
    h = _Factor(host, alpha)
    product_order = vectors.product_order
    attached = vectors.attached_totals
    grand_total = h.total + sum(attached, Fraction(0))

    attached_numerators, attached_denominator = _over_common_denominator(attached)
    host_cross = 0
    attached_cross = sum(map(mul, attached_numerators, h.row_sums))
    for x, n_x in zip(host.vertices, vectors.block_orders):
        if n_x > 1:
            row = h.row(x)
            host_cross += (n_x - 1) * sum(map(mul, h.numerators, row))
            attached_cross += (n_x - 1) * sum(map(mul, attached_numerators, row))
    result = (
        h.moment
        + Fraction(host_cross, h.denominator)
        + Fraction(attached_cross, attached_denominator)
    )
    for x, branches in family.items():
        for (branch, root, _), f in zip(branches, factors[x]):
            result += f.moment
            result += f.point_moment(
                f.row(root), product_order - branch.order, grand_total - f.total
            )
    return result


def flower_moment_formula(
    center_weight, branches: Sequence[tuple[Graph, int, WeightFunction]]
) -> Fraction:
    """Moment of a flower: branches glued at one center of scalar weight.

    sum_i M_Ki^bi + sum_i M_Ki^(eta_i)(y_i) with
    eta_i = (sum_{j != i} |V_j| - r + 1) * b_i + center + sum_{j != i} B_j.
    """
    center = Fraction(center_weight)
    if center < 0:
        raise NegativeWeight(f"center weight {center} is negative")
    _validate_factors(None, ((None, branch, root) for branch, root, _ in branches))
    r = len(branches)
    factors = [_Factor(branch, beta) for branch, _, beta in branches]
    order_sum = sum(branch.order for branch, _, _ in branches)
    total_sum = sum((f.total for f in factors), Fraction(0))
    result = Fraction(0)
    for (branch, root, _), f in zip(branches, factors):
        result += f.moment
        result += f.point_moment(
            f.row(root), order_sum - branch.order - r + 1, center + total_sum - f.total
        )
    return result


# -- permutation products ---------------------------------------------------


def _equal_orders(host: Graph, branch: Graph) -> int:
    if host.order != branch.order:
        raise OrderMismatch(
            f"need equal orders, got {host.order} and {branch.order}"
        )
    return host.order


def permutation_moment_formula(
    host: Graph,
    alpha: WeightFunction,
    branch: Graph,
    beta: WeightFunction,
) -> Fraction:
    """Moment of any permutation product of host and branch (equal order r).

    r*M_H^a + r^2*M_K^b + r*B*M_H^1 + (A + (r-1)*B)*M_K^1 -- the same for
    every permutation, which is what makes these graphs equal-moment
    families.
    """
    r = _equal_orders(host, branch)
    h = _Factor(host, alpha)
    k = _Factor(branch, beta)
    return (
        r * h.moment
        + r * r * k.moment
        + r * k.total * sum(h.row_sums)
        + (h.total + (r - 1) * k.total) * sum(k.row_sums)
    )


def permutation_unit_moment(host: Graph, branch: Graph) -> Fraction:
    """Unit-weight specialization: r^2*M_H^1 + r(2r-1)*M_K^1."""
    r = _equal_orders(host, branch)
    host_unit = _Factor(host, UNIT).moment
    branch_unit = _Factor(branch, UNIT).moment
    return r * r * host_unit + r * (2 * r - 1) * branch_unit


def permutation_mean_distance(host: Graph, branch: Graph) -> Fraction:
    """Mean distance of the permutation product: d(H) + (2 - 1/r) d(K)."""
    r = _equal_orders(host, branch)
    d_host = _Factor(host, UNIT).moment / (r * r)
    d_branch = _Factor(branch, UNIT).moment / (r * r)
    return d_host + (2 - Fraction(1, r)) * d_branch


def permutation_degree_distance(host: Graph, branch: Graph) -> Fraction:
    """Degree-weight specialization, in terms of factor edge counts.

    r*M_H^d + r^2*M_K^d + 2r*m_K*M_H^1 + 2(m_H + (r-1)m_K)*M_K^1.
    """
    r = _equal_orders(host, branch)
    m_host = host.edge_count
    m_branch = branch.edge_count
    h = _Factor(host, DEGREE)
    k = _Factor(branch, DEGREE)
    return (
        r * h.moment
        + r * r * k.moment
        + 2 * r * m_branch * sum(h.row_sums)
        + 2 * (m_host + (r - 1) * m_branch) * sum(k.row_sums)
    )


# -- concentrating branches on one receptor ---------------------------------


def concentration_difference_formula(
    host: Graph,
    alpha: WeightFunction,
    x: int,
    receptors: Sequence[int],
    branch_order: int,
    branch_total_weight,
) -> Fraction:
    """Moment change when all branches move to the single receptor x.

    For branches of a common order and total weight B glued at
    `receptors`, versus the same branches all glued at x:
    sum_i [M_H^xi(x) - M_H^xi(x_i)] - B(order-1) * sum_{i,j} dist(x_i,x_j),
    with xi = (order-1)*alpha + B.  The value depends on the branches
    only through their order and total weight.
    """
    if branch_order < 1:
        raise GraphFormatError(f"branch order {branch_order} must be >= 1")
    total = Fraction(branch_total_weight)
    if total < 0:
        raise NegativeWeight(f"branch total weight {total} is negative")
    if not host.has_vertex(x):
        raise UnknownVertex(f"vertex {x!r} is not a host vertex")
    for receptor in receptors:
        if not host.has_vertex(receptor):
            raise UnknownVertex(f"receptor {receptor!r} is not a host vertex")
    h = _Factor(host, alpha)
    grown = branch_order - 1
    at_x = h.point_moment(h.row(x), grown, total)
    copies = dict.fromkeys(host.vertices, 0)
    for receptor in receptors:
        copies[receptor] += 1
    result = Fraction(0)
    pair_sum = 0
    for receptor, c in copies.items():
        if c:
            row = h.row(receptor)
            result += c * (at_x - h.point_moment(row, grown, total))
            pair_sum += c * sum(map(mul, row, copies.values()))
    return result - total * grown * pair_sum


# -- cycles with grafted branches (degree weights) ---------------------------


def unicyclic_degree_distance(
    cycle_order: int,
    forest: Mapping[int, Sequence[tuple[Graph, int]]],
) -> Fraction:
    """Degree distance of a cycle C_r with trees grafted on its vertices.

    sum_T M_T^d + sum_T M_T^(eta_T)(y_T) + 2 n^T D n, where n_x counts the
    product vertices over cycle vertex x and eta_T = (N - |V_T|)(d + 2) + 2
    for N the product order.  Branches must be trees.
    """
    if cycle_order < 3:
        raise InvalidExtendedCycle(
            f"unicyclic host cycle needs order >= 3, got {cycle_order}"
        )
    host = cycle_graph(cycle_order)
    flattened: list[tuple[int, Graph, int]] = []
    for x, branches in forest.items():
        if not host.has_vertex(x):
            raise UnknownVertex(f"forest receptor {x!r} is not a cycle vertex")
        flattened.extend((x, tree, root) for tree, root in branches)
    _validate_factors(host, flattened)
    block_orders = {x: 1 for x in host.vertices}
    for x, tree, _ in flattened:
        if tree.edge_count != tree.order - 1:
            raise NotATree(
                f"branch at {x!r} has {tree.edge_count} edges "
                f"on {tree.order} vertices"
            )
        block_orders[x] += tree.order - 1
    product_order = sum(block_orders.values())

    result = Fraction(0)
    for _, tree, root in flattened:
        f = _Factor(tree, DEGREE)
        outside = product_order - tree.order
        result += f.moment + f.point_moment(f.row(root), outside, 2 * outside + 2)
    n = list(block_orders.values())
    return result + 2 * _cycle_quadratic(n, n)


def _cycle_quadratic(u: Sequence[int], v: Sequence[int]) -> int:
    """u^T D v for D the distance matrix of C_r, r = len(u), in O(r).

    dist(i, j) = min(k, r - k) for k = (j - i) mod r; this holds for r = 1
    and r = 2 too.  (Dv)_i is slid from i to i + 1: vertex i + k comes one
    step nearer for 1 <= k <= floor(r/2), goes one step farther for k = 0
    (unless r = 1) and for k > ceil(r/2), and stays put for k = (r + 1)/2
    when r is odd.  The window sums come from prefix sums of v twice over.
    """
    r = len(u)
    v = list(v)
    prefix = [0]
    for x in v + v:
        prefix.append(prefix[-1] + x)
    near, far = r // 2, (r + 1) // 2 + 1
    grow_here = min(1, r - 1)
    dv = sum(min(k, r - k) * x for k, x in enumerate(v))
    total = 0
    for i, x in enumerate(u):
        total += x * dv
        dv += (
            grow_here * v[i]
            - (prefix[i + near + 1] - prefix[i + 1])
            + (prefix[i + r] - prefix[i + far])
        )
    return total


def _check_cycle_cap(r: int) -> None:
    """The cap cycle_graph(r) enforces, for forms that do not build C_r."""
    if r > MAX_ORDER:
        raise TooLarge(f"graph order {r} exceeds cap {MAX_ORDER}")


def _extended_degree(r: int) -> int:
    """Vertex degree of the extended cycle C_r: 2, except 1 for K2, 0 for K1."""
    if r >= 3:
        return 2
    return r - 1


def extended_cycle_edge_count(r: int) -> int:
    """Edges of the extended cycle C_r: r for r >= 3, else r - 1."""
    if r < 1:
        raise InvalidExtendedCycle(f"extended cycle order {r} must be >= 1")
    if r >= 3:
        return r
    return r - 1


def _check_extended_pair(r: int, m: int) -> None:
    expected = extended_cycle_edge_count(r)
    if m != expected:
        raise InvalidExtendedCycle(
            f"extended cycle of order {r} has {expected} edges, not {m}"
        )


def extended_cycle_degree_distance(
    host_order: int, pairs: Sequence[tuple[int, int]]
) -> Fraction:
    """Degree distance of extended cycles grafted on an extended cycle.

    One branch (r_x, m_x) per host vertex; K1 branches (1, 0) leave their
    vertex bare.  With theta_x the branch row sums, delta_x the branch
    degrees, [v] = sum of v, and D the host distance matrix:

        2(m_C*[theta] + [m]*[theta] - <m, theta>)
        + (delta_C*theta_C + <delta, theta>)*[r] + 2 r^T D m

    m_C, delta_C, theta_C are the HOST's edge count, degree, and row sum.
    """
    if host_order < 1:
        raise InvalidExtendedCycle(f"host order {host_order} must be >= 1")
    if len(pairs) != host_order:
        raise ArityMismatch(
            f"need one branch per host vertex: {host_order} != {len(pairs)}"
        )
    _check_cycle_cap(host_order)
    for r_x, m_x in pairs:
        _check_extended_pair(r_x, m_x)
    r_vec = [r for r, _ in pairs]
    m_vec = [m for _, m in pairs]
    theta_vec = [cycle_distance_row_sum(r) for r in r_vec]
    delta_vec = [_extended_degree(r) for r in r_vec]
    host_edges = extended_cycle_edge_count(host_order)
    host_degree = _extended_degree(host_order)
    host_theta = cycle_distance_row_sum(host_order)

    sum_r = sum(r_vec)
    sum_m = sum(m_vec)
    sum_theta = sum(theta_vec)
    m_dot_theta = sum(m * t for m, t in zip(m_vec, theta_vec))
    delta_dot_theta = sum(d * t for d, t in zip(delta_vec, theta_vec))
    return Fraction(
        2 * (host_edges * sum_theta + sum_m * sum_theta - m_dot_theta)
        + (host_degree * host_theta + delta_dot_theta) * sum_r
        + 2 * _cycle_quadratic(r_vec, m_vec)
    )


def proper_cycle_degree_distance(
    host_order: int, branch_orders: Sequence[int]
) -> Fraction:
    """Degree distance when host and every branch are proper cycles (>= 3).

    4[r][theta] + 2(theta_C*[r] + r_C*[theta] - <r, theta>) + 2 r^T D r.
    Agrees with the extended-cycle formula on its whole domain.
    """
    if host_order < 3:
        raise InvalidExtendedCycle(
            f"proper cycle host needs order >= 3, got {host_order}"
        )
    if len(branch_orders) != host_order:
        raise ArityMismatch(
            f"need one branch per host vertex: {host_order} != {len(branch_orders)}"
        )
    for r in branch_orders:
        if r < 3:
            raise InvalidExtendedCycle(f"proper cycle branch needs order >= 3, got {r}")
    _check_cycle_cap(host_order)
    theta_vec = [cycle_distance_row_sum(r) for r in branch_orders]
    host_theta = cycle_distance_row_sum(host_order)
    sum_r = sum(branch_orders)
    sum_theta = sum(theta_vec)
    r_dot_theta = sum(r * t for r, t in zip(branch_orders, theta_vec))
    return Fraction(
        4 * sum_r * sum_theta
        + 2 * (host_theta * sum_r + host_order * sum_theta - r_dot_theta)
        + 2 * _cycle_quadratic(branch_orders, branch_orders)
    )
