"""Simple undirected graphs with exact BFS distances.

Graphs are immutable: a vertex tuple (ids are arbitrary ints, order is
preserved and used everywhere a deterministic iteration order matters)
plus an adjacency map with sorted neighbor tuples.  Each Graph object
also keeps what is derived from it once asked, filled on the first call
and never shared with an equal graph: its connectivity (is_connected),
its int adjacency (_int_adjacency: neighbour positions as tuples) and its
distance row sums (distance_row_sums: D*1 from _point_moments, the one
dispatcher for every D*y, y a list of ints by position).  An empty or
disconnected graph caches no row sums and raises on every call.  Every
distance row, connectivity check included, is one BFS by position,
_distances, on the int adjacency; it gives hop counts, so no floating
point anywhere.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DisconnectedGraph,
    EmptyGraph,
    GraphFormatError,
    TooLarge,
    UnknownVertex,
)

# Caps every graph's order.  moment, indices and the closed forms keep
# O(n) row sums plus at most two lists of n-bit ints and the bit planes
# of x (about 27 MB at n = 10,000) while they run; each Graph then keeps
# only its int adjacency, O(n + m), and its O(n) row sums.  The block
# route of _point_moments adds O(n + m) lists and runs the kernel on one
# block at a time; its block search is iterative, so D*x on a path or
# tree of this order takes tens of milliseconds.  The verify oracle keeps
# n-bit ints per vertex (reach, frontier, grown): tracemalloc peaks at
# 4.7 MB for random_connected_graph(Random(1), 3000), growing as n^2
# (CPython 3.11).  theta keeps one BFS dict at a time; no command builds
# the O(n^2) distance matrix (about 800 MB of tuples at n = 10,000).
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
        _check_order(len(vertex_list))
        neighbor_sets: dict[int, set[int]] = {v: set() for v in vertex_list}
        if len(neighbor_sets) != len(vertex_list):
            raise GraphFormatError("duplicate vertex ids")
        for edge in edges:
            # two characters, bytes or keys unpack like a pair; lists and tuples skip isinstance
            if type(edge) is not list and type(edge) is not tuple:
                if isinstance(edge, (str, bytes, bytearray, dict)):
                    raise GraphFormatError(f"edge {edge!r} is not a pair")
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


def _full_row(g: Graph, i: int) -> list[int]:
    """The _distances row from position i; DisconnectedGraph if it leaves a vertex unreached."""
    row = _distances(_int_adjacency(g), i)
    if -1 in row:
        n = len(row)
        raise DisconnectedGraph(
            f"only {n - row.count(-1)} of {n} vertices reachable from {g._vertices[i]!r}"
        )
    return row


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    """Exact distances from source to every vertex of a connected graph, keys in vertex order."""
    if source not in g:
        raise UnknownVertex(f"vertex {source!r} is not in the graph")
    return dict(zip(g._vertices, _full_row(g, g._vertices.index(source))))


def is_connected(g: Graph) -> bool:
    """Whether g is connected; one BFS per Graph object, whatever it equals."""
    if g.order == 0:
        raise EmptyGraph("connectivity is undefined for the empty graph")
    if g._connected is None:
        g._connected = -1 not in _distances(_int_adjacency(g), 0)
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
    return DistanceMatrix(g.vertices, tuple(tuple(_full_row(g, i)) for i in range(g.order)))


# -- row sums and D*x without the matrix -----------------------------------


def distance_row_sums(g: Graph) -> tuple[int, ...]:
    """Distance row sums s(v) in vertex order, keeping no n x n matrix.

    A probe BFS from the first vertex checks connectivity (_full_row, as
    in distance_matrix) and records it; the sums are D*1 from
    _point_moments, which takes the probe as row 0, once per Graph
    object, kept on it.
    """
    sums = g._sums
    if sums is None:
        n = g.order
        if n == 0:
            raise EmptyGraph("distance matrix of the empty graph")
        probe = _full_row(g, 0)
        g._connected = True
        sums = g._sums = tuple(_point_moments(_int_adjacency(g), [1] * n, probe))
    return sums


def _point_moments(
    adjacency: _Adjacency, y: list[int], probe: list[int] | None = None
) -> list[int]:
    """D*y by position: sum_v y[v] * dist(u, v) at every u, y a list of ints by position.

    The one dispatcher for D*y on a connected graph, row sums (y = 1)
    included; probe, if given, is the _distances row from 0; y is only
    read.  Routes, in order: at most one nonzero entry takes one BFS, or
    none; a cycle slides (_slide); if the probe's eccentricity e0 (the
    diameter lies in [e0, 2*e0]) exceeds n.bit_length(), _blocks splits the
    graph and two or more blocks go by them; otherwise the whole graph is
    _one_block.  A small e0 means few bit-parallel passes, a large one
    usually long tree-like parts with small blocks.  Measured for y = 1 with
    CPython 3.11 (whole kernel -> this rule): 64 graft products of order 150
    to 1,852 (e0 = 9 to 61) 0.37 -> 0.13 s in all; path-3000 2.4 s -> 6 ms;
    a random tree of order 3,000 83 -> 8 ms; random graphs of order 150 to
    560 (e0 = 4 to 6) and 3,900 of order 2 to 40 keep their times.

    The blocks: the graph is their graft product, glued at cut vertices; a
    shortest path between two vertices of a block, and every edge between
    them, stays in it.  Up pass, blocks from the leaves: mass(v) sums y
    over the vertices hanging below v, v included, so mass(0) is the total
    Y.  Down pass from (D*y)(0), the probe's dot product with y: each
    vertex hangs on one vertex a of a block B, with mass M_a (at the head,
    Y minus the others' masses), so D*y on B is D_B*M plus (D*y)(head) -
    (D_B*M)(head), D_B*M by a slide on a cycle block and by _one_block on
    any other.  A bridge (head p, other vertex w) is one step, (D*y)(w) =
    (D*y)(p) + Y - 2 * mass(w), so a tree takes the probe alone.
    """
    n = len(adjacency)
    if y.count(0) >= n - 1:  # one plain BFS, or none
        k = max(y) or min(y)
        if not k:
            return [0] * n
        row = _distances(adjacency, y.index(k))
        return row if k == 1 else [k * d for d in row]
    ring = _ring(adjacency)
    if ring is not None:
        return _slide(ring, y)
    probe = probe or _distances(adjacency, 0)
    blocks = _blocks(adjacency) if max(probe) > n.bit_length() else []
    if len(blocks) < 2:
        return _one_block(adjacency, y, probe)

    mass = y[:]
    moments = [0] * n
    moments[0] = sum(map(mul, probe, mass))
    for block in blocks:
        mass[block[0]] = sum(map(mass.__getitem__, block))
    total = mass[0]
    for block in reversed(blocks):
        head = block[0]
        if len(block) == 2:
            moments[block[1]] = moments[head] + total - 2 * mass[block[1]]
            continue
        slot = {v: i for i, v in enumerate(block)}
        local = [[slot[w] for w in adjacency[v] if w in slot] for v in block]
        y = [0, *map(mass.__getitem__, block[1:])]
        y[0] = total - sum(y)
        ring = _ring(local)
        row = _slide(ring, y) if ring else _one_block(local, y, _distances(local, 0))
        constant = moments[head] - row[0]
        for v, s in zip(block[1:], row[1:]):
            moments[v] = s + constant
    return moments


def _one_block(adjacency: _Adjacency, y: list[int], row0: list[int]) -> list[int]:
    """D*y by position on a connected graph that is no cycle, row0 the _distances row from 0.

    One _ball_sums pass if y >= 0 and either e0 * (S + 1200) * (3 +
    planes) <= 2400 * S, with e0 = max(row0), S the nonzero entries of y
    and planes = max(y).bit_length(), or y is nonzero on all n <= 64
    vertices.  Otherwise one BFS per nonzero entry, row0 standing in for
    the one at 0; a constant y takes y[0] times each source's own row
    sum, 20% faster than that loop on a 2 x 1000 ladder.  Measured with
    CPython 3.11 on random graphs (m = 1.05n to 3.5n), cycles with chords
    and grids of order 20 to 3,000, for y of 1 to 40 bits nonzero on 2%
    to 100% of the vertices: the pass takes about (D/S) * (1 + S/1200) *
    (3 + planes)/4 times as long as the BFS route for D passes, and the
    bound is where that reaches 1 for D = 2*e0.  The rule's time was
    within 2% of always taking the faster route, and at most 2.2 times
    it.  Small graphs break the model (the pass takes 0.4 to 0.7 of the
    BFS time on grids of order 30 to 120), hence n <= 64.  Theorem 1's
    host term on the rooted product of random_connected_graph(Random(2000),
    2000) with K2 and P3 on alternate vertices takes 0.05 s by the pass,
    not 0.9 s by BFS (CPython 3.11, 2 shared cores).
    """
    n = len(adjacency)
    support = n - y.count(0)
    if min(y) >= 0 and (
        support == n <= 64
        or max(row0) * (support + 1200) * (3 + max(y).bit_length()) <= 2400 * support
    ):
        return _ball_sums(adjacency, y)
    if support == n and y.count(y[0]) == n:
        return [y[0] * sum(_distances(adjacency, s)) for s in range(n)]
    moments = [0] * n
    for v, k in enumerate(y):
        if k:
            row = row0 if v == 0 else _distances(adjacency, v)
            moments = [m + k * d for m, d in zip(moments, row)]
    return moments


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


def _ring(adjacency: _Adjacency) -> list[int] | None:
    """A cycle's positions in cyclic order from 0, else None; the graph must be connected."""
    if len(adjacency) < 3 or any(len(nbrs) != 2 for nbrs in adjacency):
        return None
    ring = [0, adjacency[0][0]]
    while len(ring) < len(adjacency):
        a, b = adjacency[ring[-1]]
        ring.append(b if a == ring[-2] else a)
    return ring


def _slide(ring: list[int], y: Sequence[int]) -> list[int]:
    """D*y by position on a cycle in O(n), ring its positions in cyclic order from 0 (_ring).

    From ring[i] to ring[i + 1], the vertex k steps ahead comes one step
    nearer for 1 <= k <= n // 2 and one step farther for k = 0 and k >
    (n + 1) // 2: window sums of prefix sums of y in ring order, twice round.
    """
    n = len(ring)
    v = [y[p] for p in ring]
    prefix = list(accumulate(v + v, initial=0))
    near, far = n // 2, (n + 1) // 2 + 1
    slid = sum(min(k, n - k) * c for k, c in enumerate(v))
    moments = [0] * n
    for i, p in enumerate(ring):
        moments[p] = slid
        slid += v[i] - prefix[i + near + 1] + prefix[i + 1] + prefix[i + n] - prefix[i + far]
    return moments


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


def _ball_sums(adjacency: _Adjacency, x: Sequence[int]) -> list[int]:
    """D*x by position on a connected graph, x a list of ints >= 0, in one ball-growing pass.

    B_d(i) is the set of vertices within distance d of i.  Each j counts
    x[j] once for every d < dist(i, j), so with X = sum(x), (D*x)(i) is
    the sum over d >= 0 of X - x(B_d(i)).  The balls grow for all
    vertices at once, as ints with one bit per vertex of the support S of
    x (Akiba, Iwata and Yoshida, SIGMOD 2013, as ball growth): B_1(i) is
    i and its neighbours, and for d >= 1, B_d+1(i) is the union of the
    neighbours' B_d(j), since i lies in each of them and every other
    vertex of B_d+1(i) lies in one.  Intersection with S distributes over
    the unions, so balls that keep only S's bits grow exactly.  If x is
    0 or 1 everywhere, x(B) is B's popcount; otherwise x(B) is the sum
    over k of 2**k * popcount(B & plane_k), plane_k the vertices of S
    whose x has bit k set.  A vertex leaves the pass once its ball covers
    S, and its ball then stays S, which it is.  Two lists of |S|-bit ints
    plus the planes; as many passes as the largest distance from a
    vertex to S.
    """
    n = len(adjacency)
    total = sum(x)
    support = [i for i, v in enumerate(x) if v]
    bits = [0] * n
    for r, i in enumerate(support):
        bits[i] = 1 << r
    full = (1 << len(support)) - 1
    if max(x) == 1:
        weigh = int.bit_count
    else:
        planes = []
        for k in range(max(x).bit_length()):
            plane = sum([bit for bit, v in zip(bits, x) if v >> k & 1])
            if plane:
                planes.append((k, plane))

        def weigh(ball: int) -> int:
            return sum([(ball & plane).bit_count() << k for k, plane in planes])

    balls = []
    for i, nbrs in enumerate(adjacency):  # B_1
        ball = bits[i]
        for j in nbrs:
            ball |= bits[j]
        balls.append(ball)
    sums = [2 * total - v - weigh(ball) for v, ball in zip(x, balls)]  # d = 0 and d = 1
    active = [i for i, ball in enumerate(balls) if ball != full]
    while active:
        grown = balls[:]
        still = []
        for i in active:
            ball = 0
            for j in adjacency[i]:
                ball |= balls[j]
            grown[i] = ball
            if ball != full:
                sums[i] += total - weigh(ball)
                still.append(i)
        balls = grown
        active = still
    return sums


def _level_signatures(adjacency: _Adjacency) -> tuple[list[int], list[int]]:
    """Each vertex's isomorphism signature and row sum, from one BFS per vertex.

    The signature of i packs the number of vertices at each distance d
    from i into one int, in a field of width = n.bit_length() bits from
    bit low + width * d, above the row sum in the low = (n * n).bit_length()
    bits: level d weighs d + 2**(low + width * d).  A count is at most n
    and a row sum below n * n, so no field carries into the next.  So in graphs
    of one order (the only ones that share an isomorphism bucket), two
    vertices have equal signatures exactly when their level sizes are
    equal, and a signature's low bits are its row sum.  Vertices that i
    does not reach weigh nothing, so the graph need not be connected.
    The rows are _distances rows: O(n * m) steps, which isomorphism_classes'
    default cap of order 16 keeps small; a raised cap pays one BFS per
    vertex of every graph.
    """
    n = len(adjacency)
    width, low = n.bit_length(), (n * n).bit_length()
    signatures = [
        sum(d + (1 << (low + width * d)) for d in _distances(adjacency, i) if d >= 0)
        for i in range(n)
    ]
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
    member.  Each graph is filed by its _level_signatures ints, one BFS
    per vertex (see _Classes), so it need not be connected.
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


class _FileError(GraphFormatError):
    """An input error read_json worded "path: why"; an outer read_json passes it on."""


def read_json(path: str, parse: Callable[[object], object]) -> object:
    """The JSON value in a UTF-8 file, as parse makes it: a graph, a graft spec or a weight file.

    Bad JSON or UTF-8, nesting too deep, an int past CPython's digit
    limit, a key repeated in any object and every GraphFormatError from
    parse raise GraphFormatError "path: why"; one from a file that parse
    reads in turn (a spec's weight file) names that file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise _FileError(f"{path}: {exc}") from None
    try:
        return parse(obj)
    except _FileError:
        raise
    except GraphFormatError as exc:
        raise _FileError(f"{path}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object as a dict; a repeated key would silently keep its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ValueError(f"repeated key {key!r}")
    return obj


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
    return Graph(vertices, edges)


def graph_to_json_dict(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in sorted(g.edges())],
    }
