"""Simple undirected graphs with exact BFS distances.

Graphs are immutable: a vertex tuple (ids are arbitrary ints, order is
preserved and used everywhere a deterministic iteration order matters)
plus an adjacency map with sorted neighbor tuples.  Each Graph object
also keeps what is derived from it once asked, filled on the first call
and never shared with an equal graph: its connectivity (is_connected),
its int adjacency (_int_adjacency: neighbour positions as tuples) and its
distance row sums (distance_row_sums, the one function that computes
them, by the kernel or by the blocks).  An empty or disconnected graph
caches no row sums; it raises on every call.  Distances are hop counts
computed by breadth-first search; no floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DisconnectedGraph,
    EmptyGraph,
    GraphFormatError,
    TooLarge,
    UnknownVertex,
)

# Caps every graph's order.  moment, indices and the closed forms keep
# O(n) row sums plus at most three lists of n-bit ints (about 37 MB at
# n = 10,000) while they run; each Graph then keeps only its int
# adjacency, O(n + m), and its O(n) row sums.  The block route of
# distance_row_sums adds O(n + m) lists and runs the kernel on one block
# at a time.  Its block search is iterative, so a path or tree of this
# order takes tens of milliseconds.  The verify oracle and theta keep one BFS dict at a
# time; no command builds the O(n^2) distance matrix (about 800 MB of
# tuples at n = 10,000), which stays for tests and library users.
MAX_ORDER = 10_000


# neighbour positions per vertex: an _int_adjacency, or lists built like one
_Adjacency = Sequence[Sequence[int]]


def _check_order(n: int) -> None:
    """The MAX_ORDER cap, also for code that sizes a graph before building it."""
    if n > MAX_ORDER:
        raise TooLarge(f"graph order {n} exceeds cap {MAX_ORDER}")


class Graph:
    """Finite simple undirected graph."""

    __slots__ = ("_vertices", "_adjacency", "_edge_count", "_connected", "_int_adj", "_sums")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        vertex_list = list(vertices)
        for v in vertex_list:
            if not isinstance(v, int) or isinstance(v, bool):
                raise GraphFormatError(f"vertex ids must be integers, got {v!r}")
        if len(set(vertex_list)) != len(vertex_list):
            raise GraphFormatError("duplicate vertex ids")
        _check_order(len(vertex_list))
        neighbor_sets: dict[int, set[int]] = {v: set() for v in vertex_list}
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {edge!r} is not a pair") from None
            if type(u) is not int or type(v) is not int:  # int subclasses but bool pass
                for x in (u, v):
                    if not isinstance(x, int) or isinstance(x, bool):
                        raise GraphFormatError(f"edge endpoints must be integers, got {x!r}")
            u_nbrs = neighbor_sets.get(u)
            v_nbrs = neighbor_sets.get(v)
            if u_nbrs is None or v_nbrs is None:
                raise GraphFormatError(f"edge ({u!r}, {v!r}) has an unknown endpoint")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u!r}")
            if v in u_nbrs:
                raise GraphFormatError(f"duplicate edge ({u!r}, {v!r})")
            u_nbrs.add(v)
            v_nbrs.add(u)
        self._fill(tuple(vertex_list), neighbor_sets.values())

    @classmethod
    def _trusted(cls, neighbors: list[list[int]]) -> Graph:
        """The graph on ids 0..n-1 whose vertex i has the neighbours neighbors[i].

        For code that builds a simple graph correctly by construction:
        only the MAX_ORDER cap is checked, not the ids or the edges.
        """
        _check_order(len(neighbors))
        g = cls.__new__(cls)
        g._fill(tuple(range(len(neighbors))), neighbors)
        return g

    def _fill(self, vertices: tuple[int, ...], neighbors: Iterable[Iterable[int]]) -> None:
        """Set the fields from valid neighbour collections, one per vertex in order."""
        self._vertices = vertices
        self._adjacency: dict[int, tuple[int, ...]] = dict(
            zip(vertices, map(tuple, map(sorted, neighbors)))
        )
        self._edge_count = sum(map(len, self._adjacency.values())) // 2
        # derived once per object, on first use
        self._connected: bool | None = None  # is_connected
        self._int_adj: tuple[tuple[int, ...], ...] | None = None  # _int_adjacency
        self._sums: tuple[int, ...] | None = None  # distance_row_sums

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def order(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def has_vertex(self, v: int) -> bool:
        return v in self._adjacency

    __contains__ = has_vertex

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._require(v)
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        self._require(v)
        return len(self._adjacency[v])

    @property
    def degrees(self) -> list[int]:
        """Every vertex's degree, in vertex order."""
        return [len(nbrs) for nbrs in self._adjacency.values()]

    def has_edge(self, u: int, v: int) -> bool:
        self._require(u)
        self._require(v)
        return v in self._adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as (u, v) with u appearing before v's sort order."""
        for u in self._vertices:
            for v in self._adjacency[u]:
                if u < v:
                    yield (u, v)

    def _require(self, v: int) -> None:
        if v not in self._adjacency:
            raise UnknownVertex(f"vertex {v!r} is not in the graph")

    # -- equality is structural (same vertex set, same edge set) --------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            set(self._vertices) == set(other._vertices)
            and self._adjacency == other._adjacency
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._vertices), frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count})"


# -- traversal ----------------------------------------------------------


def _bfs_reached(g: Graph, source: int) -> dict[int, int]:
    """Hop counts from source to every vertex BFS can reach, in BFS order.

    Level by level over the adjacency map; source must be a vertex of g.
    """
    adjacency = g._adjacency
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        grown = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = d
                    grown.append(v)
        frontier = grown
    return dist


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    """Exact distances from source to every vertex of a connected graph."""
    if source not in g:
        raise UnknownVertex(f"vertex {source!r} is not in the graph")
    dist = _bfs_reached(g, source)
    if len(dist) != g.order:
        raise DisconnectedGraph(
            f"only {len(dist)} of {g.order} vertices reachable from {source!r}"
        )
    return dist


def is_connected(g: Graph) -> bool:
    """Whether g is connected; one BFS per Graph object, whatever it equals."""
    if g.order == 0:
        raise EmptyGraph("connectivity is undefined for the empty graph")
    if g._connected is None:
        g._connected = len(_bfs_reached(g, g.vertices[0])) == g.order
    return g._connected


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop counts of a connected graph, in vertex order."""

    vertices: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.vertices)

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def _index(self, v: int) -> int:
        try:
            return self._positions[v]
        except (KeyError, TypeError):
            raise UnknownVertex(f"vertex {v!r} is not in the matrix") from None

    def entry(self, u: int, v: int) -> int:
        return self.entries[self._index(u)][self._index(v)]

    def row(self, v: int) -> tuple[int, ...]:
        return self.entries[self._index(v)]

    def row_sum(self, v: int) -> int:
        return sum(self.row(v))

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    @property
    def total(self) -> int:
        """Sum over all ordered vertex pairs."""
        return sum(self.row_sums)


def distance_matrix(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; raises DisconnectedGraph / EmptyGraph."""
    if g.order == 0:
        raise EmptyGraph("distance matrix of the empty graph")
    order = g.vertices
    rows = []
    for u in order:
        dist = bfs_distances(g, u)
        rows.append(tuple(dist[v] for v in order))
    return DistanceMatrix(order, tuple(rows))


# -- row sums without the matrix ------------------------------------------


def distance_row_sums(g: Graph) -> tuple[int, ...]:
    """Distance row sums s(v) in vertex order, keeping no n x n matrix.

    Vertices are renumbered 0..n-1 once.  A probe BFS from the first
    vertex checks connectivity (same errors and messages as
    distance_matrix), gives its eccentricity e0 (the diameter D lies in
    [e0, 2*e0]) and is row 0, so s(0) is its sum.

    Fixed rule: if e0 <= n.bit_length(), the whole graph goes to the
    kernel (_row_sums_kernel); otherwise _blocks splits it, and a graph
    of two or more blocks goes by them (_row_sums_by_blocks, rerooted
    from s(0)) while one block goes to the kernel.  A small e0 means few
    bit-parallel passes over the whole graph; a large one usually means
    long tree-like parts, where the blocks are small.  Measured with
    CPython 3.11 (whole kernel -> this rule): random graphs of order 150
    to 560 with e0 = 4 to 6 stay on the kernel; 64 graft products of
    order 150 to 1,852 with path, cycle and tree branches (e0 = 9 to 61)
    all take the blocks, 0.37 s -> 0.13 s in all; path-3000 2.4 s -> 6
    ms; a random tree of order 3,000 83 -> 8 ms, of order 10,000 about 25
    ms; a random order-1,500 block with three 300-vertex paths attached
    0.75 s -> 7 ms; 3,900 random graphs and trees of order 2 to 40 take
    the same 0.25 to 0.32 s.  A cycle gains nothing: it is one block, and
    pays only the block search on top.

    The sums are computed once per Graph object and kept on it.
    """
    sums = g._sums
    if sums is None:
        adjacency = _int_adjacency(g)
        n = len(adjacency)
        if n == 0:
            raise EmptyGraph("distance matrix of the empty graph")
        probe = _distances(adjacency, 0)
        reached, eccentricity = n - probe.count(-1), max(probe)
        if reached != n:
            raise DisconnectedGraph(
                f"only {reached} of {n} vertices reachable from {g._vertices[0]!r}"
            )
        blocks = _blocks(adjacency) if eccentricity > n.bit_length() else []
        if len(blocks) > 1:
            sums = _row_sums_by_blocks(adjacency, blocks, sum(probe))
        else:
            sums = _row_sums_kernel(adjacency, eccentricity)
        g._sums = sums
    return sums


def _row_sums_kernel(adjacency: _Adjacency, eccentricity: int) -> tuple[int, ...]:
    """Row sums of a connected graph whose vertex 0 has this eccentricity.

    Fixed rule: if n <= 64 or e0 * (n + 1200) <= 600 * n, every source
    is searched at once by the bit-parallel BFS (Akiba, Iwata and
    Yoshida, SIGMOD 2013), D passes over n-bit sets; otherwise each
    source gets its own level-synchronous BFS.  The bound is e0 <= n/2.5
    at n = 300, n/3.7 at n = 1,000 and n/19 at n = 10,000.  Measured with
    CPython 3.11 on paths, cycles, grids, random trees and random graphs
    of order 40 to 10,000, the bit-parallel time over the per-source time
    is about (D/n) * (1 + n/1200): 0.02 to 0.17 on random graphs and
    trees, 0.96 on a 10 x 1000 grid (D = 1,008), 1.3 on C_3000 (D =
    1,500).  The bound is where that ratio reaches 1 for D = 2*e0, so the
    bit-parallel branch is not picked where it is predicted slower; when
    D = e0 the per-source branch it falls back to takes at most about
    twice as long.  Small graphs break that model: the ratio is 0.55 to
    0.66 on C_10 to C_64 and 0.58 on a 2 x 32 grid (D = n/2), 0.71 on
    C_100 and 1.05 on C_128, so order 64 and below always goes
    bit-parallel; the small cycle blocks of graft products land there.
    """
    n = len(adjacency)
    if n <= 64 or eccentricity * (n + 1200) <= 600 * n:
        return tuple(_level_sums(adjacency, lambda d: d))
    return _row_sums_per_source(adjacency)


def _blocks(adjacency: _Adjacency) -> list[list[int]]:
    """The blocks (biconnected components) of a connected graph.

    Depth-first search from vertex 0 with low points (Hopcroft and
    Tarjan, CACM 16, 1973), kept on an explicit stack so that depth is
    not bounded by the recursion limit.  Each block is listed as
    [head, *others]: the head is its vertex nearest vertex 0, and every
    vertex other than 0 is a non-head vertex of exactly one block.  A
    block comes before the block that holds its head as a non-head
    vertex, so the list runs from the leaves of the block-cut tree
    towards vertex 0.  A graph of one vertex has no blocks.  The tree
    edge back to the parent counts as a back edge, which leaves the
    block test low(child) >= number(parent) unchanged in a simple graph.
    """
    n = len(adjacency)
    number = [0] * n  # discovery number from 1; 0 while unseen
    low = [0] * n
    number[0] = low[0] = 1
    count = 1
    trail: list[int] = []  # seen vertices not yet in a block
    mark = [0] * n  # where each vertex went on the trail
    stack = [(0, iter(adjacency[0]))]
    blocks = []
    while stack:
        v, rest = stack[-1]
        for w in rest:
            if not number[w]:
                count += 1
                number[w] = low[w] = count
                mark[w] = len(trail)
                trail.append(w)
                stack.append((w, iter(adjacency[w])))
                break
            if number[w] < low[v]:
                low[v] = number[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] >= number[u]:
                    blocks.append([u, *trail[mark[v]:]])
                    del trail[mark[v]:]
                elif low[v] < low[u]:
                    low[u] = low[v]
    return blocks


def _row_sums_by_blocks(
    adjacency: _Adjacency, blocks: list[list[int]], s0: int
) -> tuple[int, ...]:
    """Row sums from each block's own row sums, rerooted over the block-cut tree.

    The graph is connected with s(0) = s0, and blocks are its _blocks,
    two or more: it is their graft product, glued at cut vertices, and a
    shortest path between two vertices of a block stays in it.  Up pass,
    blocks from the leaves: mass(v) counts the vertices hanging below v,
    v included.  Down pass from s(0): every vertex u of the graph hangs
    on one vertex a of a block B, with mass m_a (for the head, n minus
    the masses of the others) and distance sum t_a, so for c in B

        s(c) = sum_a m_a * d_B(c, a) + sum_a t_a
             = s_B(c) + sum_{m_a != 1} (m_a - 1) * d_B(c, a) + C_B,

    with s_B the block's row sums from the kernel.  So row = s_B + D_B *
    (m - 1) is s(c) - C_B and C_B = s(head) - row(head); D_B * (m - 1)
    is _point_moments for the vertices other than the head, one BFS in B
    per mass other than 1, plus a BFS from the head, which also gives
    the kernel its eccentricity.  An edge with both ends in B belongs to
    B, so B's own adjacency keeps the neighbours found in its slot map.
    A bridge (head p, other vertex w) needs none of that: s(w) = s(p) +
    n - 2 * mass(w).
    """
    n = len(adjacency)
    mass = [1] * n
    for block in blocks:
        mass[block[0]] = sum(map(mass.__getitem__, block))

    sums = [0] * n
    sums[0] = s0
    for block in reversed(blocks):
        head = block[0]
        if len(block) == 2:
            sums[block[1]] = sums[head] + n - 2 * mass[block[1]]
            continue
        slot = {v: i for i, v in enumerate(block)}
        local = [[slot[w] for w in adjacency[v] if w in slot] for v in block]
        hops = _distances(local, 0)
        grown = {a: mass[v] - 1 for a, v in enumerate(block) if a}  # m - 1 off the head
        head_grown = n - len(block) - sum(grown.values())  # m - 1 at the head
        row = _row_sums_kernel(local, max(hops))
        row = [s + p + head_grown * d for s, p, d in zip(row, _point_moments(local, grown), hops)]
        constant = sums[head] - row[0]
        for v, s in zip(block[1:], row[1:]):
            sums[v] = s + constant
    return tuple(sums)


def _distances(adjacency: _Adjacency, source: int) -> list[int]:
    """Hop counts from source to every vertex, by position (-1 if unreached)."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        grown = []
        for u in frontier:
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = d
                    grown.append(w)
        frontier = grown
    return dist


def _point_moments(adjacency: _Adjacency, x: Mapping[int, int]) -> list[int]:
    """D*x by position: sum_v x[v] * dist(u, v) at every u, x mapping positions to ints.

    One _distances BFS per nonzero entry of x; the graph must be connected.
    The first nonzero row starts the sum, as it is for a multiplier of 1.
    """
    moments = None
    for v, c in x.items():
        if c:
            row = _distances(adjacency, v)
            if moments is None:
                moments = row if c == 1 else [c * d for d in row]
            else:
                moments = [m + c * d for m, d in zip(moments, row)]
    return [0] * len(adjacency) if moments is None else moments


def _int_adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Neighbour positions of each vertex, positions in vertex order.

    Computed once per Graph object and kept on it; tuples, so no caller
    can change what the next one reads.
    """
    adjacency = g._int_adj
    if adjacency is None:
        vertices, neighbours = g._vertices, g._adjacency
        if vertices == tuple(range(len(vertices))):  # ids are already positions
            adjacency = tuple(neighbours.values())
        else:
            position = {v: i for i, v in enumerate(vertices)}
            adjacency = tuple([tuple([position[w] for w in neighbours[v]]) for v in vertices])
        g._int_adj = adjacency
    return adjacency


def _row_sums_per_source(adjacency: _Adjacency) -> tuple[int, ...]:
    """One level-synchronous BFS per source: O(n*m) steps, O(n) memory."""
    return tuple(sum(_distances(adjacency, s)) for s in range(len(adjacency)))


def _level_sums(adjacency: _Adjacency, weight: Callable[[int], int]) -> list[int]:
    """sum_j weight(dist(i, j)) over the vertices j that i reaches, for every i.

    All sources at once (Akiba, Iwata and Yoshida, SIGMOD 2013): bit j of
    reach[i] is set once source j reached i.  At each level a vertex ORs
    its neighbours' frontiers (the sources they first reached one level
    earlier); the new bits are the sources at exactly that distance.  A
    vertex reached by every source leaves the scan, and a level that
    brings nothing ends it, so disconnected graphs work too.  Three lists
    of n-bit ints; diameter passes.
    """
    n = len(adjacency)
    everyone = (1 << n) - 1
    frontier = [1 << i for i in range(n)]
    reach = frontier[:]
    sums = [weight(0)] * n
    active = range(n)
    level = 0
    while active:
        level += 1
        step = weight(level)
        grown = [0] * n
        still = []
        for i in active:
            known = reach[i]
            seen = known
            for j in adjacency[i]:
                seen |= frontier[j]
            new = seen ^ known
            reach[i] = seen
            sums[i] += step * new.bit_count()
            grown[i] = new
            if seen != everyone:
                still.append(i)
        if not any(grown):
            break
        frontier = grown
        active = still
    return sums


def _level_signatures(adjacency: _Adjacency) -> tuple[list[int], list[int]]:
    """Each vertex's isomorphism signature and row sum, from one _level_sums pass.

    The signature of i packs the number of vertices at each distance d
    from i into one int, in a field of width = n.bit_length() bits from
    bit low + width * d, above the row sum in the low = (n * n).bit_length()
    bits: level d weighs d + 2**(low + width * d).  A count is at most n
    and a row sum below n * n, so no field carries into the next.  So in graphs
    of one order (the only ones that share an isomorphism bucket), two
    vertices have equal signatures exactly when their level sizes are
    equal, and a signature's low bits are its row sum.
    """
    n = len(adjacency)
    width, low = n.bit_length(), (n * n).bit_length()
    signatures = _level_sums(adjacency, lambda d: d + (1 << (low + width * d)))
    mask = (1 << low) - 1
    return signatures, [s & mask for s in signatures]


# -- isomorphism --------------------------------------------------------

DEFAULT_ISO_CAP = 16

# a _level_signatures int, or a tuple from isomoment._colour_orbits
_Signature = int | tuple[int, ...]
# One step per vertex: its signature, and the earlier steps that placed
# its neighbours.
_SearchOrder = list[tuple[_Signature, tuple[int, ...]]]


def _search_order(adjacency: _Adjacency, signatures: list[_Signature]) -> _SearchOrder:
    """Visit vertices tied to the most placed ones first, then rare signatures.

    A vertex's signature codes at least its level sizes, and so its
    degree.  The next vertex minimises (-placed neighbours, vertices
    sharing its signature, position), kept as one int rank per vertex:
    placing a vertex lowers each neighbour's rank by one tie step.
    """
    n = len(signatures)
    tie = (n + 1) * n
    shared = Counter(signatures)
    rank = [
        (n * (n + 1) + shared[signature]) * n + i
        for i, signature in enumerate(signatures)
    ]
    step_of: dict[int, int] = {}
    order = []
    remaining = set(range(n))
    while remaining:
        best = min(remaining, key=rank.__getitem__)
        neighbours = adjacency[best]
        order.append(
            (
                signatures[best],
                tuple(step_of[j] for j in neighbours if j in step_of),
            )
        )
        step_of[best] = len(step_of)
        remaining.remove(best)
        for j in neighbours:
            rank[j] -= tie
    return order


def _maps_onto(
    order: _SearchOrder, masks: list[int], by_signature: dict[_Signature, list[int]]
) -> bool:
    """Backtrack for an isomorphism placing the representative in `order`.

    The other graph, given by its neighbour bitsets and the positions of
    each signature, must have the representative's signature multiset.
    Step k sends its vertex to an unused vertex u of the same signature
    whose neighbours among the images so far are exactly the images of
    its placed neighbours.
    """
    n = len(order)
    if n == 0:
        return True
    images = [0] * n  # bit of each step's image
    expected = [0] * n
    candidates: list[Iterator[int]] = [iter(())] * n
    candidates[0] = iter(by_signature[order[0][0]])
    used = 0
    k = 0
    while True:
        for u in candidates[k]:
            bit = 1 << u
            if not used & bit and masks[u] & used == expected[k]:
                break
        else:
            k -= 1
            if k < 0:
                return False
            used ^= images[k]
            continue
        images[k] = bit
        used |= bit
        k += 1
        if k == n:
            return True
        signature, earlier = order[k]
        mask = 0
        for j in earlier:
            mask |= images[j]
        expected[k] = mask
        candidates[k] = iter(by_signature[signature])


class _Classes:
    """Isomorphism classes of a stream of graphs, fed as (adjacency, signatures).

    Classes are numbered as they first appear.  A graph's sorted
    signature multiset picks a bucket, and the graph is tested by exact
    backtracking only against the earlier representatives there, so it
    joins at most one class.  Most buckets never get a second graph: a
    representative is its (adjacency, signatures) until its first
    comparison builds its search order, and a graph builds the masks and
    signature index a comparison needs only if its bucket is not empty.
    Signatures may be any hashable, sortable values.
    """

    __slots__ = ("_buckets", "_count")

    def __init__(self) -> None:
        # [representative: (adjacency, signatures), later its _SearchOrder; class index]
        self._buckets: dict[tuple[_Signature, ...], list[list]] = {}
        self._count = 0

    def add(self, adjacency: _Adjacency, signatures: list[_Signature]) -> int:
        """File the next graph; the index of its class (the next index if new)."""
        bucket = self._buckets.setdefault(tuple(sorted(signatures)), [])
        if bucket:
            masks = [sum(1 << j for j in nbrs) for nbrs in adjacency]
            by_signature: dict[_Signature, list[int]] = {}
            for i, signature in enumerate(signatures):
                by_signature.setdefault(signature, []).append(i)
            for entry in bucket:
                order, index = entry
                if type(order) is tuple:
                    order = entry[0] = _search_order(*order)
                if _maps_onto(order, masks, by_signature):
                    return index
        bucket.append([(adjacency, signatures), self._count])
        self._count += 1
        return self._count - 1


def isomorphism_classes(
    graphs: Iterable[Graph], *, cap: int = DEFAULT_ISO_CAP
) -> list[tuple[Graph, list[int]]]:
    """Partition graphs into isomorphism classes in one pass.

    Returns one (representative, member positions) pair per class, in
    the order classes first appear; the representative is the first
    member.  Each graph is filed by the int signatures of one
    _level_signatures pass (see _Classes), so it need not be connected.
    The cap bounds every graph's order (search is exponential in the
    worst case).  Only the representatives are kept, so `graphs` may be
    a generator.
    """
    classes = _Classes()
    found: list[tuple[Graph, list[int]]] = []
    for position, g in enumerate(graphs):
        if g.order > cap:
            raise TooLarge(f"isomorphism test capped at order {cap}; got {g.order}")
        adjacency = _int_adjacency(g)
        index = classes.add(adjacency, _level_signatures(adjacency)[0])
        if index == len(found):
            found.append((g, []))
        found[index][1].append(position)
    return found


def are_isomorphic(g1: Graph, g2: Graph, *, cap: int = DEFAULT_ISO_CAP) -> bool:
    """Exact isomorphism test: do g1 and g2 fall into one class?

    The cap bounds the order of either input; raise it explicitly for
    larger graphs (search is exponential in the worst case).
    """
    if g1.order > cap or g2.order > cap:
        raise TooLarge(
            f"isomorphism test capped at order {cap}; "
            f"got {g1.order} and {g2.order}"
        )
    return len(isomorphism_classes((g1, g2), cap=cap)) == 1


# -- small named builders ------------------------------------------------
#
# Each is valid by construction, so it builds through Graph._trusted; the
# result equals Graph(range(n), edges) for the edges the docstring names.


def path_graph(n: int) -> Graph:
    """P_n: i joined to i + 1; empty for n <= 0."""
    _check_order(n)
    return Graph._trusted([[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)])


def cycle_graph(n: int) -> Graph:
    """C_n for n >= 3; n = 2 gives a single edge, n = 1 a single vertex."""
    if n < 1:
        raise GraphFormatError("cycle needs at least one vertex")
    if n <= 2:
        return path_graph(n)
    _check_order(n)
    return Graph._trusted([[(i - 1) % n, (i + 1) % n] for i in range(n)])


def complete_graph(n: int) -> Graph:
    """K_n: every pair joined; empty for n <= 0."""
    _check_order(n)
    return Graph._trusted([[j for j in range(n) if j != i] for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: center 0 joined to 1..leaves."""
    _check_order(leaves + 1)
    if leaves < 0:
        return Graph._trusted([])
    return Graph._trusted([list(range(1, leaves + 1))] + [[0]] * leaves)


def diamond_graph() -> Graph:
    """K4 minus one edge; 0 and 1 have degree 3, 2 and 3 degree 2."""
    return Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


# -- JSON ----------------------------------------------------------------


def graph_from_json_dict(obj: object) -> Graph:
    """Parse {"vertices": [...], "edges": [[u, v], ...]}."""
    if not isinstance(obj, dict):
        raise GraphFormatError("graph JSON must be an object")
    unknown = set(obj) - {"vertices", "edges"}
    if unknown:
        raise GraphFormatError(f"unexpected graph keys: {sorted(unknown)}")
    vertices = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphFormatError('graph JSON needs "vertices" and "edges" lists')
    parsed_edges = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise GraphFormatError(f"edge {e!r} is not a two-element list")
        parsed_edges.append((e[0], e[1]))
    return Graph(vertices, parsed_edges)


def graph_to_json_dict(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in sorted(g.edges())],
    }
