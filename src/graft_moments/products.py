"""Graft products: glue rooted branch graphs onto receptor vertices.

A graft product takes a connected host H, a list of attachments
(receptor vertex of H, rooted connected branch), and identifies each
branch root with its receptor.  Receptors may repeat; stacking several
branches on one vertex is allowed.  A spec is always a `GraftSpec` of
`Attachment`s, which check their own field types when built.  The
classic constructions -- vertex coalescence, rooted product, flowers,
permutation products, hierarchical products -- are thin wrappers that
build one, reading branch tuples with `_as_attachments` alone.

Product vertex ids are deterministic: host vertices keep positions
0..|V_H|-1 in host order, then each attachment's non-root vertices
follow in branch order, attachment by attachment.  Re-building the same
spec therefore yields byte-identical JSON.  `graft` makes the combined
weight gamma in the same pass that assigns those ids.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat

from .errors import (
    ArityMismatch,
    DisconnectedGraph,
    DuplicateReceptor,
    GraphFormatError,
    OrderMismatch,
    UnknownVertex,
)
from .graph import (
    Graph,
    _check_order,
    _int_adjacency,
    graph_from_json_dict,
    graph_to_json_dict,
    is_connected,
)
from .weights import (
    UNIT,
    ConstantWeight,
    ExplicitWeight,
    WeightFunction,
    _reduced,
    parse_weight_spec,
)


def _require_int(what: str, value: object) -> None:
    """Refuse a value that is not an int, or is a bool (as Graph refuses a bool id)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise GraphFormatError(f"{what} must be an integer, got {value!r}")


def _require_type(what: str, value: object, kind: type) -> None:
    """Refuse a value that is not an instance of kind."""
    if not isinstance(value, kind):
        raise GraphFormatError(f"{what} must be of type {kind.__name__}, got {value!r}")


def _sized(what: str, value: object) -> int:
    """len(value), or a GraphFormatError that names value."""
    try:
        return len(value)  # type: ignore[arg-type]
    except TypeError:
        raise GraphFormatError(f"{what} must be a sequence, got {value!r}") from None


@dataclass(frozen=True)
class Attachment:
    """One rooted branch to glue: branch's root lands on host's receptor."""

    receptor: int
    branch: Graph
    root: int
    weights: WeightFunction = UNIT

    def __post_init__(self) -> None:
        for v in (self.receptor, self.root):  # int subclasses but bool pass
            if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
                raise GraphFormatError("receptor and root must be integer vertex ids")
        _require_type("branch", self.branch, Graph)
        _require_type("branch weights", self.weights, WeightFunction)


@dataclass(frozen=True)
class GraftSpec:
    """Everything needed to build a graft product."""

    host: Graph
    attachments: tuple[Attachment, ...] = ()
    host_weights: WeightFunction = UNIT

    def __post_init__(self) -> None:
        _require_type("host", self.host, Graph)
        _require_type("host weights", self.host_weights, WeightFunction)
        _require_type("attachments", self.attachments, Iterable)
        object.__setattr__(self, "attachments", tuple(self.attachments))
        for att in self.attachments:
            _require_type("attachment", att, Attachment)

    @property
    def product_order(self) -> int:
        return self.host.order + sum(a.branch.order - 1 for a in self.attachments)


def _validate_factors(spec: GraftSpec) -> None:
    """The checks every graft construction and closed form shares.

    The host must be connected, and each attachment needs a host
    receptor, a branch root and a connected branch.
    """
    _require_type("spec", spec, GraftSpec)
    if not is_connected(spec.host):
        raise DisconnectedGraph("host graph is not connected")
    for att in spec.attachments:
        if not spec.host.has_vertex(att.receptor):
            raise UnknownVertex(f"receptor {att.receptor!r} is not a host vertex")
        if not att.branch.has_vertex(att.root):
            raise UnknownVertex(f"root {att.root!r} is not a branch vertex")
        if not is_connected(att.branch):
            raise DisconnectedGraph("branch graph is not connected")


@dataclass(frozen=True)
class GraftProduct:
    """Built product graph plus combined weight and provenance maps."""

    graph: Graph
    gamma: ExplicitWeight
    host_map: dict[int, int]
    branch_maps: tuple[dict[int, int], ...] = field(default=())


def graft(spec: GraftSpec) -> GraftProduct:
    """Build the graft product of a spec, weighing it as it is numbered.

    Host and branches must be connected, branch roots must exist and the
    product order must be within MAX_ORDER, all before any weight is read.
    The combined weight gamma is the host weight off the glue points, the
    branch weight inside branches, and the sum of both at each identified
    vertex (accumulating when receptors repeat).  The product's neighbour
    lists are valid by construction, so the trusted Graph constructor
    checks only their count against MAX_ORDER; a branch repeated on many
    attachments is one Graph object, which is_connected checks once.
    """
    _validate_factors(spec)
    _check_order(spec.product_order)
    host = spec.host

    host_map = {v: i for i, v in enumerate(host.vertices)}
    # neighbour lists and gamma as reduced pairs, both indexed by product id;
    # the host's kept int adjacency is copied, as receptors' lists grow
    neighbors = list(map(list, _int_adjacency(host)))
    pairs = list(map(spec.host_weights._at, host.vertices, host.degrees))
    branch_maps: list[dict[int, int]] = []
    for att in spec.attachments:
        branch = att.branch
        bmap: dict[int, int] = {}
        weights = map(att.weights._at, branch.vertices, branch.degrees)
        for bv, pair in zip(branch.vertices, weights):
            if bv == att.root:
                pid = bmap[bv] = host_map[att.receptor]
                (p, q), (r, s) = pairs[pid], pair
                pairs[pid] = _reduced(p * s + r * q, q * s)
            else:
                bmap[bv] = len(pairs)
                pairs.append(pair)
        branch_maps.append(bmap)
        # non-root vertices take the next ids in branch order, so append in it
        for bv in branch.vertices:
            mapped = [bmap[u] for u in branch._adjacency[bv]]
            if bv == att.root:
                neighbors[bmap[bv]] += mapped
            else:
                neighbors.append(mapped)
    graph = Graph._trusted(neighbors)
    gamma = ExplicitWeight._from_pairs(dict(enumerate(pairs)))
    return GraftProduct(graph, gamma, host_map, tuple(branch_maps))


# -- named constructions --------------------------------------------------


# a flower's host and a binomial tree's start: graft copies a host's adjacency
_CENTER = Graph([0], [])


def _as_attachments(
    receptors: Iterable[int], branches: Sequence[tuple], what: str = "branches"
) -> list[Attachment]:
    """Read (graph, root) or (graph, root, weights) branch tuples, one per receptor."""
    _sized(what, branches)
    out = []
    for receptor, entry in zip(receptors, branches):
        if not isinstance(entry, (tuple, list)) or len(entry) not in (2, 3):
            raise GraphFormatError("branch must be (graph, root) or (graph, root, weights)")
        out.append(Attachment(receptor, *entry))
    return out


def coalescence(
    host: Graph,
    receptor: int,
    branch: Graph,
    root: int,
    *,
    host_weights: WeightFunction = UNIT,
    branch_weights: WeightFunction = UNIT,
) -> GraftProduct:
    """Identify one vertex of each graph (the dot product H . K)."""
    attachment = Attachment(receptor, branch, root, branch_weights)
    return graft(GraftSpec(host, [attachment], host_weights))


def rooted_product(
    host: Graph,
    branches: Sequence[tuple],
    *,
    host_weights: WeightFunction = UNIT,
) -> GraftProduct:
    """One rooted branch per host vertex, glued in host vertex order."""
    _require_type("host", host, Graph)
    if _sized("branches", branches) != host.order:
        raise ArityMismatch(
            f"rooted product needs {host.order} branches, got {len(branches)}"
        )
    return graft(GraftSpec(host, _as_attachments(host.vertices, branches), host_weights))


def _flower_spec(center_weight, branches: Sequence[tuple]) -> GraftSpec:
    """A flower: every branch root glued at one center vertex (id 0) of scalar weight."""
    weights = ConstantWeight(center_weight)
    return GraftSpec(_CENTER, _as_attachments(repeat(0), branches), weights)


def flower(
    center_weight,
    branches: Sequence[tuple],
) -> GraftProduct:
    """All branch roots identified with a single center vertex (id 0)."""
    return graft(_flower_spec(center_weight, branches))


def _equal_orders(host: Graph, branch: Graph) -> int:
    """r, the common order of a permutation product's host and branch."""
    _require_type("host", host, Graph)
    _require_type("branch", branch, Graph)
    if host.order != branch.order:
        raise OrderMismatch(
            f"permutation product needs equal orders, got {host.order} and {branch.order}"
        )
    return host.order


def _permutation_order(host: Graph, branch: Graph) -> int:
    """r, once host and branch pass the checks permutation_graph makes of them.

    Equal orders, then graft's factor checks on the host and one branch
    copy: every copy is the same branch.
    """
    r = _equal_orders(host, branch)
    copy = [Attachment(x, branch, branch.vertices[0]) for x in host.vertices[:1]]
    _validate_factors(GraftSpec(host, copy))
    return r


def permutation_graph(
    host: Graph,
    branch: Graph,
    sigma: Sequence[int],
    *,
    host_weights: WeightFunction = UNIT,
    branch_weights: WeightFunction = UNIT,
) -> GraftProduct:
    """Glue a copy of `branch` at every host vertex, roots chosen by sigma.

    Both graphs must have the same order r; sigma is a permutation of
    1..r, and copy i (at the i-th host vertex) is rooted at the
    sigma(i)-th vertex of `branch`, counting in branch vertex order.
    """
    r = _equal_orders(host, branch)
    _sized("sigma", sigma)
    for s in sigma:
        _require_int("sigma entry", s)
    if sorted(sigma) != list(range(1, r + 1)):
        raise GraphFormatError(f"sigma {list(sigma)!r} is not a permutation of 1..{r}")
    attachments = tuple(
        Attachment(x, branch, branch.vertices[s - 1], branch_weights)
        for x, s in zip(host.vertices, sigma)
    )
    return graft(GraftSpec(host, attachments, host_weights))


def hierarchical_product(
    host: Graph,
    branch: Graph,
    root: int,
    receptors: Sequence[int] | None = None,
    *,
    host_weights: WeightFunction = UNIT,
    branch_weights: WeightFunction = UNIT,
) -> GraftProduct:
    """Copy of `branch` rooted at `root` glued onto each receptor.

    receptors defaults to every host vertex (the full hierarchical
    product); they must be distinct and nonempty when given.
    """
    _require_type("host", host, Graph)
    receptors = host.vertices if receptors is None else receptors
    _sized("receptors", receptors)
    receptors = list(receptors)
    attachments = [Attachment(x, branch, root, branch_weights) for x in receptors]
    if not receptors:
        raise ArityMismatch("hierarchical product needs at least one receptor")
    if len(set(receptors)) != len(receptors):
        raise DuplicateReceptor(f"repeated receptor in {receptors!r}")
    return graft(GraftSpec(host, attachments, host_weights))


def star_receptor_graft(
    host: Graph,
    receptor: int,
    branch: Graph,
    root: int,
    copies: int,
    *,
    host_weights: WeightFunction = UNIT,
    branch_weights: WeightFunction = UNIT,
) -> GraftProduct:
    """Stack `copies` identical rooted branches on one receptor vertex."""
    _require_int("copies", copies)
    if copies < 0:
        raise GraphFormatError("copies must be nonnegative")
    attachments = [Attachment(receptor, branch, root, branch_weights)] * copies
    return graft(GraftSpec(host, attachments, host_weights))


def binomial_tree(n: int) -> Graph:
    """Iterated hierarchical product of single edges: 2**n vertices."""
    _require_int("binomial tree index", n)
    if n < 0:
        raise GraphFormatError("binomial tree index must be nonnegative")
    tree = _CENTER
    edge = Graph([0, 1], [(0, 1)])
    for _ in range(n):
        tree = hierarchical_product(tree, edge, 0).graph
    return tree


# -- JSON ------------------------------------------------------------------


def graft_spec_from_json_dict(obj: object, *, base_dir: str | None = None) -> GraftSpec:
    """Parse a graft spec object.

    Shape: {"host": <graph>, "attachments": [{"receptor": int,
    "branch": <graph>, "root": int, "weights": <spec-string>}, ...],
    "host_weights": <spec-string>}; weights default to "unit".  Equal
    branch objects share one parsed Graph (_shared_branch), and so its
    connectivity check, int adjacency and row sums.
    """
    if not isinstance(obj, dict):
        raise GraphFormatError("graft spec JSON must be an object")
    unknown = set(obj) - {"host", "attachments", "host_weights"}
    if unknown:
        raise GraphFormatError(f"unexpected spec keys: {sorted(unknown)}")
    if "host" not in obj:
        raise GraphFormatError('graft spec needs a "host" graph')
    host = graph_from_json_dict(obj["host"])
    host_weights = parse_weight_spec(
        obj.get("host_weights", "unit"), base_dir=base_dir
    )
    raw_attachments = obj.get("attachments", [])
    if not isinstance(raw_attachments, list):
        raise GraphFormatError('"attachments" must be a list')
    attachments = []
    parsed: _ParsedBranches = {}
    for raw in raw_attachments:
        if not isinstance(raw, dict):
            raise GraphFormatError("attachment must be an object")
        unknown = set(raw) - {"receptor", "branch", "root", "weights"}
        if unknown:
            raise GraphFormatError(f"unexpected attachment keys: {sorted(unknown)}")
        missing = {"receptor", "branch", "root"} - set(raw)
        if missing:
            raise GraphFormatError(f"attachment is missing {sorted(missing)}")
        attachments.append(
            Attachment(
                receptor=raw["receptor"],
                branch=_shared_branch(raw["branch"], parsed),
                root=raw["root"],
                weights=parse_weight_spec(
                    raw.get("weights", "unit"), base_dir=base_dir
                ),
            )
        )
    return GraftSpec(host, tuple(attachments), host_weights)


# the branches a spec has parsed, by vertex and edge count: (JSON object, Graph)
_ParsedBranches = dict[tuple[int, int], list[tuple[dict, Graph]]]


def _shared_branch(raw: object, parsed: _ParsedBranches) -> Graph:
    """graph_from_json_dict(raw), or the Graph of an earlier branch written alike.

    An earlier branch is reused when it equals raw and raw gives every
    vertex id and edge endpoint as an exact int (the earlier one passed
    graph_from_json_dict, which takes ints only), so [0, true] stays apart
    from [0, 1] (and a tuple from a list, which never equals it).  The
    parsed branches are bucketed by their vertex and edge counts.
    """
    vertices = raw.get("vertices") if isinstance(raw, dict) else None
    edges = raw.get("edges") if isinstance(raw, dict) else None
    if not isinstance(vertices, list) or not isinstance(edges, list):
        return graph_from_json_dict(raw)  # raises its own message
    bucket = parsed.setdefault((len(vertices), len(edges)), [])
    for earlier, g in bucket:
        if earlier == raw and _exact_ints(raw):
            return g
    g = graph_from_json_dict(raw)
    bucket.append((raw, g))
    return g


def _exact_ints(raw: dict) -> bool:
    """Whether a graph object's vertex ids and edge endpoints are all of type int."""
    return {*map(type, raw["vertices"]), *map(type, chain.from_iterable(raw["edges"]))} <= {int}


def graft_product_to_json_dict(product: GraftProduct) -> dict:
    """Serializable view: graph, gamma as p/q strings, provenance maps."""
    graph = product.graph
    pairs = map(product.gamma._at, graph.vertices, graph.degrees)
    gamma = {str(v): f"{p}/{q}" for v, (p, q) in zip(graph.vertices, pairs)}
    return {
        "graph": graph_to_json_dict(graph),
        "gamma": gamma,
        "host_map": {str(v): pid for v, pid in product.host_map.items()},
        "branch_maps": [
            {str(v): pid for v, pid in bmap.items()}
            for bmap in product.branch_maps
        ],
    }
