"""Closed-form moment formulas for graft products.

Each function evaluates a published formula symbol by symbol from its
inputs -- factor moments, branch orders, total weights, host distances
-- without building the product graph.  Each factor graph gets one
distance pass; point moments of affine weights follow by linearity,
M^(a*w+c)(y) = a*M^w(y) + c*s(y) with s(y) the row sum at y.  The
permutation forms need no point moments, so their pass is
`distance_row_sums` and keeps no distance matrix.  Every
formula is certified against the brute-force oracle (build the product,
run BFS, sum) by the verify module and the test suite; agreement is
exact, never approximate.
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
    UnknownVertex,
)
from .graph import (
    DistanceMatrix,
    Graph,
    cycle_graph,
    distance_matrix,
    distance_row_sums,
)
from .weights import DEGREE, WeightFunction
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
    attached_totals[i] is the total branch weight glued there.  The
    cycle-specific vectors (branch order, edges, row sum, degree) are
    filled only by from_cycle_pairs.
    """

    host: Graph
    distances: DistanceMatrix
    block_orders: tuple[int, ...]
    attached_totals: tuple[Fraction, ...]
    branch_orders: tuple[int, ...] | None = None
    branch_edge_counts: tuple[int, ...] | None = None
    branch_row_sums: tuple[int, ...] | None = None
    branch_degrees: tuple[int, ...] | None = None

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
            distances=distance_matrix(host),
            block_orders=tuple(
                1 + sum(b.order - 1 for b, _, _ in family.get(x, ()))
                for x in host.vertices
            ),
            attached_totals=tuple(
                attached.get(x, Fraction(0)) for x in host.vertices
            ),
        )

    @classmethod
    def from_cycle_pairs(
        cls, host_order: int, pairs: Sequence[tuple[int, int]]
    ) -> "HostVectors":
        """Vectors for a cycle host with one extended-cycle branch per vertex."""
        host = cycle_graph(host_order)
        orders = []
        edge_counts = []
        row_sums = []
        degrees = []
        for r_x, m_x in pairs:
            _check_extended_pair(r_x, m_x)
            orders.append(r_x)
            edge_counts.append(m_x)
            row_sums.append(cycle_distance_row_sum(r_x))
            degrees.append(_extended_degree(r_x))
        return cls(
            host=host,
            distances=distance_matrix(host),
            block_orders=tuple(r for r in orders),
            attached_totals=tuple(Fraction(2 * m) for m in edge_counts),
            branch_orders=tuple(orders),
            branch_edge_counts=tuple(edge_counts),
            branch_row_sums=tuple(row_sums),
            branch_degrees=tuple(degrees),
        )


# -- one distance pass per factor ---------------------------------------------


class _Factor:
    """Distances and weights of one factor graph, from a single pass."""

    __slots__ = ("distances", "values", "total", "moment")

    def __init__(
        self, g: Graph, weights: WeightFunction, distances: DistanceMatrix | None = None
    ):
        self.distances = distance_matrix(g) if distances is None else distances
        self.values = [weights.value(g, v) for v in g.vertices]
        self.total = sum(self.values, Fraction(0))
        self.moment = sum(map(mul, self.values, self.distances.row_sums), Fraction(0))

    def point_moment(self, y: int, scale, shift) -> Fraction:
        """M^(scale*w + shift)(y) = scale*M^w(y) + shift*s(y)."""
        row = self.distances.row(y)
        return scale * sum(map(mul, self.values, row), Fraction(0)) + shift * sum(row)


# -- general graft products -------------------------------------------------


def graft_moment_formula(spec: GraftSpec) -> Fraction:
    """Moment of a graft product from factor data alone.

    M_H^a + sum_i M_Ki^bi + sum_i M_H^(xi_i)(x_i) + sum_i M_Ki^(eta_i)(y_i)
    + sum_{i,j} (|V_i|-1) * dist(x_i, x_j) * B_j, where
    xi_i = (|V_i|-1)*a + B_i and eta_i = (|V|-|V_i|)*b_i + (W - B_i).
    The sums run over the attachment list, so repeated receptors are fine.
    """
    host = spec.host
    _validate_factors(host, ((a.receptor, a.branch, a.root) for a in spec.attachments))
    h = _Factor(host, spec.host_weights)
    factors = [_Factor(a.branch, a.weights) for a in spec.attachments]
    grand_total = h.total + sum((f.total for f in factors), Fraction(0))
    product_order = spec.product_order

    result = h.moment
    for att, f in zip(spec.attachments, factors):
        grown = att.branch.order - 1
        result += f.moment
        result += h.point_moment(att.receptor, grown, f.total)
        result += f.point_moment(
            att.root, product_order - att.branch.order, grand_total - f.total
        )
        for other, other_f in zip(spec.attachments, factors):
            dist = h.distances.entry(att.receptor, other.receptor)
            result += grown * dist * other_f.total
    return result


def family_graft_moment_formula(
    host: Graph, alpha: WeightFunction, family: Family
) -> Fraction:
    """Vectorized form of the graft moment, grouped by receptor.

    Same value as graft_moment_formula; the cross term becomes
    (n - 1)^T D w over host vertices, with n the block orders and w the
    attached weight totals.
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
    h = _Factor(host, alpha, vectors.distances)
    product_order = vectors.product_order
    grand_total = h.total + sum(vectors.attached_totals, Fraction(0))

    result = h.moment
    for x, n_x, w_x in zip(
        host.vertices, vectors.block_orders, vectors.attached_totals
    ):
        result += h.point_moment(x, n_x - 1, w_x)
    for x, branches in family.items():
        for (branch, root, _), f in zip(branches, factors[x]):
            result += f.moment
            result += f.point_moment(
                root, product_order - branch.order, grand_total - f.total
            )
    dm = vectors.distances
    for x, n_x in zip(host.vertices, vectors.block_orders):
        if n_x == 1:
            continue
        for y, w_y in zip(host.vertices, vectors.attached_totals):
            result += (n_x - 1) * dm.entry(x, y) * w_y
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
            root, order_sum - branch.order - r + 1, center + total_sum - f.total
        )
    return result


# -- permutation products ---------------------------------------------------


def _equal_orders(host: Graph, branch: Graph) -> int:
    if host.order != branch.order:
        raise OrderMismatch(
            f"need equal orders, got {host.order} and {branch.order}"
        )
    return host.order


def _row_sum_pass(g: Graph, weights: WeightFunction) -> tuple[Fraction, Fraction, int]:
    """(total weight, M^w, M^1) of g from one row-sum pass; M^1 is sum s(v)."""
    values = [weights.value(g, v) for v in g.vertices]
    row_sums = distance_row_sums(g)
    return (
        sum(values, Fraction(0)),
        sum(map(mul, values, row_sums), Fraction(0)),
        sum(row_sums),
    )


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
    a_total, host_moment, host_unit = _row_sum_pass(host, alpha)
    b_total, branch_moment, branch_unit = _row_sum_pass(branch, beta)
    return (
        r * host_moment
        + r * r * branch_moment
        + r * b_total * host_unit
        + (a_total + (r - 1) * b_total) * branch_unit
    )


def permutation_unit_moment(host: Graph, branch: Graph) -> Fraction:
    """Unit-weight specialization: r^2*M_H^1 + r(2r-1)*M_K^1."""
    r = _equal_orders(host, branch)
    host_unit = sum(distance_row_sums(host))
    branch_unit = sum(distance_row_sums(branch))
    return Fraction(r * r * host_unit + r * (2 * r - 1) * branch_unit)


def permutation_mean_distance(host: Graph, branch: Graph) -> Fraction:
    """Mean distance of the permutation product: d(H) + (2 - 1/r) d(K)."""
    r = _equal_orders(host, branch)
    d_host = Fraction(sum(distance_row_sums(host)), r * r)
    d_branch = Fraction(sum(distance_row_sums(branch)), r * r)
    return d_host + (2 - Fraction(1, r)) * d_branch


def permutation_degree_distance(host: Graph, branch: Graph) -> Fraction:
    """Degree-weight specialization, in terms of factor edge counts.

    r*M_H^d + r^2*M_K^d + 2r*m_K*M_H^1 + 2(m_H + (r-1)m_K)*M_K^1.
    """
    r = _equal_orders(host, branch)
    m_host = host.edge_count
    m_branch = branch.edge_count
    _, host_moment, host_unit = _row_sum_pass(host, DEGREE)
    _, branch_moment, branch_unit = _row_sum_pass(branch, DEGREE)
    return (
        r * host_moment
        + r * r * branch_moment
        + 2 * r * m_branch * host_unit
        + 2 * (m_host + (r - 1) * m_branch) * branch_unit
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
    at_x = h.point_moment(x, grown, total)
    result = Fraction(0)
    for receptor in receptors:
        result += at_x - h.point_moment(receptor, grown, total)
    pair_sum = sum(
        h.distances.entry(a, b) for a in receptors for b in receptors
    )
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
        result += f.moment + f.point_moment(root, outside, 2 * outside + 2)
    dm = distance_matrix(host)
    for x in host.vertices:
        for y in host.vertices:
            result += 2 * block_orders[x] * dm.entry(x, y) * block_orders[y]
    return result


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
    vectors = HostVectors.from_cycle_pairs(host_order, pairs)
    r_vec = vectors.branch_orders
    m_vec = vectors.branch_edge_counts
    theta_vec = vectors.branch_row_sums
    delta_vec = vectors.branch_degrees
    host_edges = extended_cycle_edge_count(host_order)
    host_degree = _extended_degree(host_order)
    host_theta = cycle_distance_row_sum(host_order)

    sum_r = sum(r_vec)
    sum_m = sum(m_vec)
    sum_theta = sum(theta_vec)
    m_dot_theta = sum(m * t for m, t in zip(m_vec, theta_vec))
    delta_dot_theta = sum(d * t for d, t in zip(delta_vec, theta_vec))
    dm = vectors.distances
    cross = sum(
        r_vec[i] * dm.entries[i][j] * m_vec[j]
        for i in range(host_order)
        for j in range(host_order)
    )
    return Fraction(
        2 * (host_edges * sum_theta + sum_m * sum_theta - m_dot_theta)
        + (host_degree * host_theta + delta_dot_theta) * sum_r
        + 2 * cross
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
    theta_vec = [cycle_distance_row_sum(r) for r in branch_orders]
    host_theta = cycle_distance_row_sum(host_order)
    sum_r = sum(branch_orders)
    sum_theta = sum(theta_vec)
    r_dot_theta = sum(r * t for r, t in zip(branch_orders, theta_vec))
    dm = distance_matrix(cycle_graph(host_order))
    cross = sum(
        branch_orders[i] * dm.entries[i][j] * branch_orders[j]
        for i in range(host_order)
        for j in range(host_order)
    )
    return Fraction(
        4 * sum_r * sum_theta
        + 2 * (host_theta * sum_r + host_order * sum_theta - r_dot_theta)
        + 2 * cross
    )
