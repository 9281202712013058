"""Graft products: glue rooted branch graphs onto receptor vertices.

A graft product takes a connected host H, a list of attachments
(receptor vertex of H, rooted connected branch), and identifies each
branch root with its receptor.  Receptors may repeat; stacking several
branches on one vertex is allowed.  The classic constructions --
vertex coalescence, rooted product, flowers, permutation products,
hierarchical products -- are thin wrappers over the same build.

Product vertex ids are deterministic: host vertices keep positions
0..|V_H|-1 in host order, then each attachment's non-root vertices
follow in branch order, attachment by attachment.  Re-building the same
spec therefore yields byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    DisconnectedGraph,
    DuplicateReceptor,
    GraphFormatError,
    OrderMismatch,
    TooLarge,
    UnknownVertex,
)
from .graph import (
    MAX_ORDER,
    Graph,
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
    combine_gamma,
    parse_weight_spec,
)


@dataclass(frozen=True)
class Attachment:
    """One rooted branch to glue: branch's root lands on host's receptor."""

    receptor: int
    branch: Graph
    root: int
    weights: WeightFunction = UNIT


@dataclass(frozen=True)
class GraftSpec:
    """Everything needed to build a graft product."""

    host: Graph
    attachments: tuple[Attachment, ...] = ()
    host_weights: WeightFunction = UNIT

    def __post_init__(self) -> None:
        object.__setattr__(self, "attachments", tuple(self.attachments))

    @property
    def product_order(self) -> int:
        return self.host.order + sum(a.branch.order - 1 for a in self.attachments)


def _validate_factors(host: Graph, triples: Iterable[tuple[int, Graph, int]]) -> None:
    """The checks every graft construction and closed form shares.

    The host must be connected, and each (receptor, branch, root) triple
    needs a host receptor, a branch root and a connected branch.
    """
    if not is_connected(host):
        raise DisconnectedGraph("host graph is not connected")
    for receptor, branch, root in triples:
        if not host.has_vertex(receptor):
            raise UnknownVertex(f"receptor {receptor!r} is not a host vertex")
        if not branch.has_vertex(root):
            raise UnknownVertex(f"root {root!r} is not a branch vertex")
        if not is_connected(branch):
            raise DisconnectedGraph("branch graph is not connected")


@dataclass(frozen=True)
class GraftProduct:
    """Built product graph plus combined weight and provenance maps."""

    graph: Graph
    gamma: ExplicitWeight
    host_map: dict[int, int]
    branch_maps: tuple[dict[int, int], ...] = field(default=())


def graft(spec: GraftSpec) -> GraftProduct:
    """Build the graft product of a spec.

    Host and branches must be connected; branch roots must exist; the
    combined weight gamma is the host weight off the glue points, the
    branch weight inside branches, and the sum of both at each
    identified vertex (accumulating when receptors repeat).
    """
    host = spec.host
    _validate_factors(host, ((a.receptor, a.branch, a.root) for a in spec.attachments))

    host_map = {v: i for i, v in enumerate(host.vertices)}
    next_id = host.order
    branch_maps: list[dict[int, int]] = []
    for att in spec.attachments:
        bmap: dict[int, int] = {}
        for bv in att.branch.vertices:
            if bv == att.root:
                bmap[bv] = host_map[att.receptor]
            else:
                bmap[bv] = next_id
                next_id += 1
        branch_maps.append(bmap)

    edges: list[tuple[int, int]] = [
        (host_map[u], host_map[v]) for u, v in host.edges()
    ]
    for att, bmap in zip(spec.attachments, branch_maps):
        edges.extend((bmap[u], bmap[v]) for u, v in att.branch.edges())
    graph = Graph(range(next_id), edges)

    gamma = combine_gamma(
        host,
        spec.host_weights,
        [(a.branch, a.root, a.weights) for a in spec.attachments],
        host_map,
        branch_maps,
        graph.vertices,
    )
    return GraftProduct(graph, gamma, host_map, tuple(branch_maps))


# -- named constructions --------------------------------------------------


def _as_attachments(
    receptors: Sequence[int],
    branches: Sequence[tuple],
) -> list[Attachment]:
    """Accept (graph, root) or (graph, root, weights) branch tuples."""
    out = []
    for receptor, branch_tuple in zip(receptors, branches):
        if len(branch_tuple) == 2:
            branch, root = branch_tuple
            weights: WeightFunction = UNIT
        elif len(branch_tuple) == 3:
            branch, root, weights = branch_tuple
        else:
            raise GraphFormatError(
                "branch must be (graph, root) or (graph, root, weights)"
            )
        out.append(Attachment(receptor, branch, root, weights))
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
    spec = GraftSpec(
        host, (Attachment(receptor, branch, root, branch_weights),), host_weights
    )
    return graft(spec)


def rooted_product(
    host: Graph,
    branches: Sequence[tuple],
    *,
    host_weights: WeightFunction = UNIT,
) -> GraftProduct:
    """One rooted branch per host vertex, glued in host vertex order."""
    if len(branches) != host.order:
        raise ArityMismatch(
            f"rooted product needs {host.order} branches, got {len(branches)}"
        )
    attachments = _as_attachments(list(host.vertices), branches)
    return graft(GraftSpec(host, tuple(attachments), host_weights))


def flower(
    center_weight,
    branches: Sequence[tuple],
) -> GraftProduct:
    """All branch roots identified with a single center vertex (id 0)."""
    center = Graph([0], [])
    attachments = _as_attachments([0] * len(branches), branches)
    return graft(
        GraftSpec(center, tuple(attachments), ConstantWeight(center_weight))
    )


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
    r = host.order
    if branch.order != r:
        raise OrderMismatch(
            f"permutation product needs equal orders, got {r} and {branch.order}"
        )
    if sorted(sigma) != list(range(1, r + 1)):
        raise GraphFormatError(f"sigma {list(sigma)!r} is not a permutation of 1..{r}")
    attachments = tuple(
        Attachment(x, branch, branch.vertices[s - 1], branch_weights)
        for x, s in zip(host.vertices, sigma)
    )
    return graft(GraftSpec(host, attachments, host_weights))


def _permutation_adjacencies(
    host: Graph, branch: Graph, sigmas: Iterable[Sequence[int]]
) -> Iterator[list[list[int]]]:
    """Int adjacency of each sigma's permutation product, without a Graph.

    Position v of the result is product vertex v of permutation_graph's
    numbering (host positions 0..r-1, then copy i's non-root vertices in
    branch order from r + i*(r-1)), and neighbour lists are sorted, so it
    equals _int_adjacency(permutation_graph(host, branch, sigma).graph).
    The factors are checked as graft checks them, then the product order
    r*r against MAX_ORDER, before the first product is built.  Orders must
    be equal and each sigma a permutation of 1..r.
    """
    r = host.order
    # every copy is the same branch, so one (receptor, branch, root) covers them
    _validate_factors(host, [(x, branch, branch.vertices[0]) for x in host.vertices[:1]])
    if r * r > MAX_ORDER:
        raise TooLarge(f"graph order {r * r} exceeds cap {MAX_ORDER}")
    host_adjacency = [sorted(nbrs) for nbrs in _int_adjacency(host)]
    branch_adjacency = [sorted(nbrs) for nbrs in _int_adjacency(branch)]
    # per root position: the copy offsets of the root's neighbours, and for
    # each non-root vertex whether it touches the root plus its other
    # neighbours' offsets (a non-root vertex p sits at offset p or p - 1)
    layouts = []
    for root, root_nbrs in enumerate(branch_adjacency):
        offsets = [p - (p > root) for p in range(r)]
        layouts.append(
            (
                [offsets[q] for q in root_nbrs],
                [
                    (root in nbrs, [offsets[q] for q in nbrs if q != root])
                    for p, nbrs in enumerate(branch_adjacency)
                    if p != root
                ],
            )
        )
    for sigma in sigmas:
        adjacency = []
        copies = []
        for i, s in enumerate(sigma):
            root_offsets, rest = layouts[s - 1]
            base = r + i * (r - 1)
            adjacency.append(host_adjacency[i] + [base + o for o in root_offsets])
            for touches_root, others in rest:
                row = [base + o for o in others]
                copies.append([i, *row] if touches_root else row)
        adjacency += copies
        yield adjacency


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
    if receptors is None:
        receptors = list(host.vertices)
    receptors = list(receptors)
    if not receptors:
        raise ArityMismatch("hierarchical product needs at least one receptor")
    if len(set(receptors)) != len(receptors):
        raise DuplicateReceptor(f"repeated receptor in {receptors!r}")
    attachments = tuple(
        Attachment(x, branch, root, branch_weights) for x in receptors
    )
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
    if copies < 0:
        raise GraphFormatError("copies must be nonnegative")
    attachments = tuple(
        Attachment(receptor, branch, root, branch_weights) for _ in range(copies)
    )
    return graft(GraftSpec(host, attachments, host_weights))


def binomial_tree(n: int) -> Graph:
    """Iterated hierarchical product of single edges: 2**n vertices."""
    if n < 0:
        raise GraphFormatError("binomial tree index must be nonnegative")
    tree = Graph([0], [])
    edge = Graph([0, 1], [(0, 1)])
    for _ in range(n):
        tree = hierarchical_product(tree, edge, 0).graph
    return tree


# -- JSON ------------------------------------------------------------------


def graft_spec_from_json_dict(obj: object, *, base_dir: str | None = None) -> GraftSpec:
    """Parse a graft spec object.

    Shape: {"host": <graph>, "attachments": [{"receptor": int,
    "branch": <graph>, "root": int, "weights": <spec-string>}, ...],
    "host_weights": <spec-string>}; weights default to "unit".
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
    for raw in raw_attachments:
        if not isinstance(raw, dict):
            raise GraphFormatError("attachment must be an object")
        unknown = set(raw) - {"receptor", "branch", "root", "weights"}
        if unknown:
            raise GraphFormatError(f"unexpected attachment keys: {sorted(unknown)}")
        missing = {"receptor", "branch", "root"} - set(raw)
        if missing:
            raise GraphFormatError(f"attachment is missing {sorted(missing)}")
        if not isinstance(raw["receptor"], int) or not isinstance(raw["root"], int):
            raise GraphFormatError("receptor and root must be integer vertex ids")
        attachments.append(
            Attachment(
                receptor=raw["receptor"],
                branch=graph_from_json_dict(raw["branch"]),
                root=raw["root"],
                weights=parse_weight_spec(
                    raw.get("weights", "unit"), base_dir=base_dir
                ),
            )
        )
    return GraftSpec(host, tuple(attachments), host_weights)


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
