"""Closed-form moment formulas for graft products.

Each function evaluates a published formula symbol by symbol from its
inputs -- factor moments, branch orders, total weights, host distances
-- without building the product graph, reading each factor straight
from the data its Graph object keeps.  No form builds a distance
matrix: a factor moment M_K^b is `moments.moment`, on the row sums the
object keeps (`graph.distance_row_sums`, one pass per object however
many attachments and forms share it), a factor total is
`WeightFunction.total`, and every D*y, y a list of ints by position
(one-hot for a row), is `graph._point_moments` on the int adjacency the
object keeps (one BFS for a single entry, a slide round a cycle, one
pass over the blocks of a tree-like graph).  A row gives a point moment
by linearity, M^(a*w+c)(v) = a*M^w(v) + c*s(v) with s(v) the row sum
at v.  Weights enter as int numerators over one denominator
(`WeightFunction.vector`), so totals, moments and point moments are int
dot products divided once.  Host distances between receptors come from
those same rows, and the cycle forms' r^T D m from D*m on C_r.

Theorem 1 is evaluated once, in its vector form (_graft_moment): the
graft, family, flower and unicyclic forms each hand it a GraftSpec (a
flower's host is one vertex, a unicyclic host a cycle).
Likewise the sigma corollaries (unit moment, mean distance, degree
distance) are weight choices of the one permutation-product formula.
Every formula is certified against the brute-force oracle (build the
product, run BFS from every vertex, sum) by the verify module and the
test suite; agreement is exact, never approximate.  The oracle runs
none of the distance code above; only the factor checks that `graft`
runs for it (`_validate_factors`, through `is_connected`) run the BFS
under that code, `graph._distances`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul

from .errors import (
    ArityMismatch,
    GraphFormatError,
    InvalidExtendedCycle,
    NegativeWeight,
    NotATree,
    UnknownVertex,
)
from .graph import (
    Graph,
    _check_order,
    _int_adjacency,
    _point_moments,
    cycle_graph,
    distance_row_sums,
)
from .moments import moment
from .weights import DEGREE, UNIT, ConstantWeight, WeightFunction, _as_rational
from .products import (
    _CENTER, Attachment, GraftSpec, _as_attachments, _flower_spec, _permutation_order,
    _require_int, _sized, _validate_factors,
)

# A family maps a host vertex to the rooted, weighted branches glued there.
Family = Mapping[int, Sequence[tuple[Graph, int, WeightFunction]]]


def attachments_by_receptor(spec: GraftSpec) -> dict[int, list[tuple[Graph, int, WeightFunction]]]:
    """Group a spec's attachments into the mapping family_graft_moment_formula takes."""
    family: dict[int, list[tuple[Graph, int, WeightFunction]]] = {}
    for att in spec.attachments:
        family.setdefault(att.receptor, []).append(
            (att.branch, att.root, att.weights)
        )
    return family


def _int_at_least(what: str, value: object, least: int, error=InvalidExtendedCycle) -> None:
    """Refuse an order or edge count below least, or not an int (_require_int)."""
    _require_int(what, value)
    if value < least:
        raise error(f"{what} must be >= {least}, got {value}")


def _pair(what: str, entry: object) -> tuple[object, object]:
    """entry unpacked as a pair, or a GraphFormatError that names it."""
    try:
        first, second = entry  # type: ignore[misc]
    except (TypeError, ValueError):
        raise GraphFormatError(f"{what} {entry!r} is not a pair") from None
    return first, second


def cycle_distance_row_sum(r: int) -> int:
    """Common row sum of the distance matrix of C_r: floor(r/2)*floor((r+1)/2).

    Also its largest eigenvalue (the all-ones vector is an eigenvector).
    Degenerate orders work too: r=1 gives 0, r=2 gives 1.
    """
    _int_at_least("cycle order", r, 1)
    return (r // 2) * ((r + 1) // 2)


# -- general graft products: Theorem 1 in vector form ------------------------


def _graft_moment(spec: GraftSpec) -> Fraction:
    """Theorem 1 in vector form, for any graft spec.

    n^T D (a + w) + sum_i [M_Ki^bi + M_Ki^(eta_i)(y_i)], eta_i =
    (N - |V_i|)*b_i + (W - B_i): n_x is the order of the product block
    over host vertex x, w_x the branch weight glued there, N the product
    order and W the total weight.  The host term is <a + w, s + D (n - 1)>
    with s the host row sums; D (n - 1) is one _point_moments pass (its
    probe BFS alone on a tree host it splits into blocks).  Receptors may
    repeat.  Weights are ints over the least common denominator of all
    factors, divided once at the end.
    A branch object glued at one root several times takes one root BFS.
    """
    _validate_factors(spec)
    host, attachments = spec.host, spec.attachments
    host_numerators, host_denominator = spec.host_weights.vector(host.vertices, host.degrees)
    vectors = [att.weights.vector(att.branch.vertices, att.branch.degrees) for att in attachments]
    unit = lcm(host_denominator, *(den for _, den in vectors))
    totals = [sum(numerators) * (unit // den) for numerators, den in vectors]
    block_orders = dict.fromkeys(host.vertices, 1)
    attached = dict.fromkeys(host.vertices, 0)
    for att, total in zip(attachments, totals):
        block_orders[att.receptor] += att.branch.order - 1
        attached[att.receptor] += total
    scale = unit // host_denominator
    glued = [a * scale + w for a, w in zip(host_numerators, attached.values())]  # a + w
    grand_total = sum(glued)
    product_order = sum(block_orders.values())

    heavy = [n_x - 1 for n_x in block_orders.values()]
    result = sum(map(mul, glued, distance_row_sums(host)))
    result += sum(map(mul, glued, _point_moments(_int_adjacency(host), heavy)))
    # M_K^b + M_K^(eta)(y) = <b, s_K + outside * row> + (W - B) * s_K(y),
    # with the column taken once per (branch object, root)
    columns: dict[tuple[int, int], tuple[list[int], int]] = {}
    for att, (numerators, den), total in zip(attachments, vectors, totals):
        branch, root = att.branch, att.root
        key = (id(branch), root)
        if key not in columns:
            y, sums = branch.vertices.index(root), distance_row_sums(branch)
            outside = [(product_order - branch.order) * (v == root) for v in branch.vertices]
            outside = _point_moments(_int_adjacency(branch), outside)
            columns[key] = list(map(add, sums, outside)), sums[y]
        column, row_total = columns[key]
        result += (unit // den) * sum(map(mul, numerators, column))
        result += (grand_total - total) * row_total
    return Fraction(result, unit)


def graft_moment_formula(spec: GraftSpec) -> Fraction:
    """Moment of a graft product from factor data alone (Theorem 1).

    M_H^a + sum_i M_Ki^bi + sum_i M_H^(xi_i)(x_i) + sum_i M_Ki^(eta_i)(y_i)
    + sum_{i,j} (|V_i|-1) * dist(x_i, x_j) * B_j, where
    xi_i = (|V_i|-1)*a + B_i and eta_i = (|V|-|V_i|)*b_i + (W - B_i).
    The sums run over the attachment list, so repeated receptors are
    fine; _graft_moment evaluates them grouped by receptor.
    """
    return _graft_moment(spec)


def family_graft_moment_formula(
    host: Graph, alpha: WeightFunction, family: Family
) -> Fraction:
    """Vectorized form of the graft moment, grouped by receptor.

    Same value as graft_moment_formula: M_H^a, the host point moments
    and the cross term together are n^T D (a + w), with n the block
    orders and w the branch weight glued at each host vertex.
    _graft_moment evaluates both forms.  A receptor with no branches
    must still be a host vertex.
    """
    if not isinstance(family, Mapping):
        raise GraphFormatError(f"family must be a mapping, got {family!r}")
    attachments = []
    for x, branches in family.items():
        attachments += _as_attachments(repeat(x), branches, f"branches at {x!r}")
    spec = GraftSpec(host, attachments, alpha)
    for x, branches in family.items():
        if not branches and not host.has_vertex(x):
            raise UnknownVertex(f"family receptor {x!r} is not a host vertex")
    return _graft_moment(spec)


def flower_moment_formula(
    center_weight, branches: Sequence[tuple[Graph, int, WeightFunction]]
) -> Fraction:
    """Moment of a flower: branches glued at one center of scalar weight.

    sum_i M_Ki^bi + sum_i M_Ki^(eta_i)(y_i) with
    eta_i = (sum_{j != i} |V_j| - r + 1) * b_i + center + sum_{j != i} B_j:
    the graft product on a one-vertex host weighted `center`, whose host
    terms all vanish.
    """
    return _graft_moment(_flower_spec(center_weight, branches))


# -- permutation products ---------------------------------------------------


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
    r = _permutation_order(host, branch)
    host_moment, branch_moment = moment(host, alpha), moment(branch, beta)
    branch_total = beta.total(branch)
    return (
        r * host_moment
        + r * r * branch_moment
        + r * branch_total * sum(distance_row_sums(host))
        + (alpha.total(host) + (r - 1) * branch_total) * sum(distance_row_sums(branch))
    )


def permutation_unit_moment(host: Graph, branch: Graph) -> Fraction:
    """Unit-weight specialization: r^2*M_H^1 + r(2r-1)*M_K^1.

    Host weight 0, as every host vertex is a glued root of branch weight 1.
    """
    return permutation_moment_formula(host, ConstantWeight(0), branch, UNIT)


def permutation_mean_distance(host: Graph, branch: Graph) -> Fraction:
    """Mean distance of the permutation product: d(H) + (2 - 1/r) d(K).

    The unit moment over the r^4 vertex pairs of the order-r^2 product.
    """
    return permutation_unit_moment(host, branch) / host.order**4


def permutation_degree_distance(host: Graph, branch: Graph) -> Fraction:
    """Degree-weight specialization, in terms of factor edge counts.

    r*M_H^d + r^2*M_K^d + 2r*m_K*M_H^1 + 2(m_H + (r-1)m_K)*M_K^1.  Every
    host vertex is a glued root, and a root's product degree is its host
    degree plus its branch degree.
    """
    return permutation_moment_formula(host, DEGREE, branch, DEGREE)


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
    _int_at_least("branch order", branch_order, 1, GraphFormatError)
    total = _as_rational(branch_total_weight)
    if total < 0:
        raise NegativeWeight(f"branch total weight {total} is negative")
    # the branches count only by order and total weight: one vertex stands for each
    _sized("receptors", receptors)
    _validate_factors(GraftSpec(host, [Attachment(r, _CENTER, 0) for r in [x, *receptors]]))
    numerators, denominator = alpha.vector(host.vertices, host.degrees)
    adjacency = _int_adjacency(host)
    row_x = _point_moments(adjacency, [int(v == x) for v in host.vertices])
    copies = dict.fromkeys(host.vertices, 0)
    for receptor in receptors:
        copies[receptor] += 1
    # every term is linear in the receptors' rows, so they enter summed:
    # spread = D * copies, and moved = k * row(x) - spread for k receptors
    spread = _point_moments(adjacency, list(copies.values()))
    moved = [len(receptors) * d - a for d, a in zip(row_x, spread)]
    grown = branch_order - 1
    # sum_i [M_H^xi(x) - M_H^xi(x_i)] = grown * <alpha, moved> + B * sum(moved)
    return (
        Fraction(grown * sum(map(mul, numerators, moved)), denominator)
        + total * sum(moved)
        - total * grown * sum(map(mul, spread, copies.values()))
    )


# -- cycles with grafted branches (degree weights) ---------------------------


def unicyclic_degree_distance(
    cycle_order: int,
    forest: Mapping[int, Sequence[tuple[Graph, int]]],
) -> Fraction:
    """Degree distance of a cycle C_r with trees grafted on its vertices.

    sum_T M_T^d + sum_T M_T^(eta_T)(y_T) + 2 n^T D n, where n_x counts the
    product vertices over cycle vertex x and eta_T = (N - |V_T|)(d + 2) + 2
    for N the product order.  Branches must be trees.  It is _graft_moment
    with degree weights: a + w = 2 + 2(n_x - 1) = 2 n_x at cycle vertex x.
    """
    _int_at_least("unicyclic host cycle order", cycle_order, 3)
    host = cycle_graph(cycle_order)
    if not isinstance(forest, Mapping):
        raise GraphFormatError(f"forest must be a mapping, got {forest!r}")
    attachments = []
    for x, branches in forest.items():
        if not host.has_vertex(x):
            raise UnknownVertex(f"forest receptor {x!r} is not a cycle vertex")
        _sized(f"branches at {x!r}", branches)
        attachments += (Attachment(x, *_pair("branch entry", e), DEGREE) for e in branches)
    spec = GraftSpec(host, attachments, DEGREE)
    _validate_factors(spec)
    for att in attachments:
        if att.branch.edge_count != att.branch.order - 1:
            raise NotATree(
                f"branch at {att.receptor!r} has {att.branch.edge_count} edges "
                f"on {att.branch.order} vertices"
            )
    return _graft_moment(spec)


def _cycle_quadratic(u: Sequence[int], v: Sequence[int]) -> int:
    """u^T D v for D the distance matrix of C_r, r = len(u); cycle_graph gives P_r for r < 3."""
    moments = _point_moments(_int_adjacency(cycle_graph(len(u))), list(v))
    return sum(map(mul, u, moments))


def _extended_degree(r: int) -> int:
    """Vertex degree of the extended cycle C_r: 2, except 1 for K2, 0 for K1."""
    if r >= 3:
        return 2
    return r - 1


def extended_cycle_edge_count(r: int) -> int:
    """Edges of the extended cycle C_r: r for r >= 3, else r - 1."""
    _int_at_least("extended cycle order", r, 1)
    if r >= 3:
        return r
    return r - 1


def _check_extended_pair(r: int, m: int) -> None:
    expected = extended_cycle_edge_count(r)
    _int_at_least("extended cycle edge count", m, 0)
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
    _int_at_least("host order", host_order, 1)
    if _sized("branch pairs", pairs) != host_order:
        raise ArityMismatch(
            f"need one branch per host vertex: {host_order} != {len(pairs)}"
        )
    _check_order(host_order)
    pairs = [_pair("branch entry", entry) for entry in pairs]
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
    _int_at_least("proper cycle host order", host_order, 3)
    if _sized("branch orders", branch_orders) != host_order:
        raise ArityMismatch(
            f"need one branch per host vertex: {host_order} != {len(branch_orders)}"
        )
    for r in branch_orders:
        _int_at_least("proper cycle branch order", r, 3)
    _check_order(host_order)
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
