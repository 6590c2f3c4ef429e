"""Core graph representation and BFS machinery.

Graphs are simple, undirected and connected (connectivity is enforced at the
boundary of every index computation, not here).  Edge identity is positional:
edge ``k`` is ``edges[k]``, and everything downstream (Theta classes, cuts,
quotients) refers to edges by that index, never by endpoint pair.

The all-pairs distance matrix, which recognition and the brute evaluators
stand on, is one bit-parallel BFS from all sources at once: 64 sources per
uint64 word, one gather and one reduceat per level over a CSR neighbour
array.  Graphs of fewer than _ARRAY_MIN_VERTICES vertices take one Python
BFS per source instead.  The matrix is int32 and at most
DISTANCE_MATRIX_MAX_BYTES; larger requests fail before anything that size
is allocated.

Connected components (of g minus some edges: quotient vertices, class
sides, the connectivity check) come from one hook-and-shortcut kernel over
an edge array, _components: each round hooks every live edge's larger root
to the smaller with np.minimum.at and jumps pointers until every vertex
points at a root; the tests hold the round count to ceil(log2 n) + 1 on
adversarial vertex orders as well as random ones.  Components end rooted
at their smallest vertex, so labels come in smallest-vertex-first order
without a sort.

The components kernel runs on graphs of every size and reads only ends;
components_after_removal, a Python BFS over adjacency, shares no code with
it and is its oracle in the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import index

import numpy as np


class GraphError(ValueError):
    """Invalid graph input: bad edge, disconnected graph, bad index."""


class IndexOverflowError(OverflowError):
    """An index accumulator left the unsigned 64-bit range."""


#: Index accumulators are specified as unsigned 64-bit; exceeding this is an
#: error, never a silent wrap (Python ints cannot wrap, so we check).
U64_MAX = 2**64 - 1


def check_u64(value, what="index value"):
    """Reject integer index values outside [0, 2^64 - 1]."""
    if isinstance(value, int) and not 0 <= value <= U64_MAX:
        raise IndexOverflowError(f"{what} {value} exceeds unsigned 64-bit range")
    return value


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with positional edge identity.

    ends, the store, holds edge k as row k of a read-only (m, 2) int64
    array.  edges (the same pairs as a tuple of int tuples) and adjacency
    (adjacency[v] lists (neighbor, edge_index) pairs in edge-input order)
    are derived on first use, so a pass that reads only the array never
    builds a per-edge tuple.  Graphs compare equal when their vertex counts
    and ends are.  Instances are built through build_graph, which validates
    the edge list.
    """

    vertex_count: int
    ends: np.ndarray

    # cached_property stores a value only once it is built whole, so a
    # concurrent first use may build it twice but never sees it half built.
    # Both walk the two columns: ends.tolist() would make one GC-tracked
    # list per edge, enough churn to move full collections into a call.

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.ends.T.tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for k, (u, v) in enumerate(zip(*self.ends.T.tolist())):
            adjacency[u].append((v, k))
            adjacency[v].append((u, k))
        return tuple(map(tuple, adjacency))

    @property
    def edge_count(self) -> int:
        return len(self.ends)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and np.array_equal(self.ends, other.ends)

    def __hash__(self):
        return hash((self.vertex_count, self.ends.tobytes()))


#: Edge lists at least this long are screened with NumPy before any
#: per-edge Python work; shorter ones (quotient graphs have a handful of
#: edges) go straight to the per-edge loop.  The two cost the same between
#: 70 and 100 edges on random trees.
_SCREEN_MIN_EDGES = 100


def _check_each_edge(vertex_count: int, edges) -> None:
    """Raise GraphError naming the first malformed, out-of-range, self-loop or duplicate edge."""
    seen: set[tuple[int, int]] = set()
    for k, pair in enumerate(edges):
        if len(pair) != 2:
            raise GraphError(f"edge {k} = {tuple(pair)}: not a pair of endpoints")
        u, v = pair
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"edge {k} = ({u},{v}): endpoint out of range [0,{vertex_count})")
        if u == v:
            raise GraphError(f"edge {k} = ({u},{v}): self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"edge {k} = ({u},{v}): duplicate edge")
        seen.add(key)
        index(u), index(v)  # endpoints are list indices: no floats


def _screened_ends(vertex_count: int, edges):
    """The (m, 2) int64 array of edges if NumPy proves them all valid, else None.

    None also covers input NumPy cannot judge exactly (non-integer or
    beyond-int64 endpoints, packed keys that could overflow); the per-edge
    loop decides those.
    """
    try:
        ends = np.array(edges)
    except ValueError:  # ragged pairs
        return None
    if ends.dtype.kind != "i" or ends.shape != (len(edges), 2) or vertex_count >= 2**31:
        return None
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    if lo.min() < 0 or hi.max() >= vertex_count or (lo == hi).any():
        return None
    keys = np.sort(lo.astype(np.int64) * vertex_count + hi)
    if (keys[1:] == keys[:-1]).any():
        return None
    return ends.astype(np.int64, copy=False)


def build_graph(vertex_count: int, edges) -> Graph:
    """Validate an edge list and build a Graph.

    edges is an iterable of (u, v) pairs or an (m, 2) integer array; an
    array long enough to screen with NumPy becomes the graph's ends without
    any per-edge tuple.  Rejects edges that are not pairs, self-loops,
    duplicate edges (in either orientation) and endpoints outside
    [0, vertex_count); the first offending edge is named in the error.
    """
    if vertex_count < 0:
        raise GraphError(f"vertex_count must be nonnegative, got {vertex_count}")
    is_array = isinstance(edges, np.ndarray)
    if not is_array:
        edges = tuple(map(tuple, edges))
    ends = _screened_ends(vertex_count, edges) if len(edges) >= _SCREEN_MIN_EDGES else None
    if ends is None:
        pairs = edges.tolist() if is_array else edges
        _check_each_edge(vertex_count, pairs)
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    ends.flags.writeable = False
    graph = Graph(vertex_count=vertex_count, ends=ends)
    if not is_array:
        graph.__dict__["edges"] = edges  # seeds the cached edges property
    return graph


#: Marker used by bfs_distances for vertices unreachable from the source.
UNREACHABLE = -1


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from source; unreachable vertices get UNREACHABLE (-1)."""
    if not 0 <= source < g.vertex_count:
        raise GraphError(f"source {source} out of range [0,{g.vertex_count})")
    dist = [UNREACHABLE] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    adjacency = g.adjacency
    while queue:
        x = queue.popleft()
        dx1 = dist[x] + 1
        for y, _ in adjacency[x]:
            if dist[y] == UNREACHABLE:
                dist[y] = dx1
                queue.append(y)
    return dist


def _disconnected(v: int) -> GraphError:
    return GraphError(f"graph is disconnected: no path between vertices 0 and {v}")


def require_connected(g: Graph) -> None:
    """Raise GraphError naming the first vertex not joined to vertex 0, if any."""
    comp, count = component_labels(g, ())
    if count > 1:
        raise _disconnected(int(np.flatnonzero(comp)[0]))


#: The distance matrix takes 4 n^2 bytes; larger requests fail before any
#: O(n^2) allocation (n <= 16384 fits).
DISTANCE_MATRIX_MAX_BYTES = 1 << 30

#: Row-blocked passes (distance sweeps and fills, brute evaluator rows, Theta*
#: batches, the Hamming scan) keep each block's largest array near this size.
_BLOCK_BYTES = 1 << 18

#: Graphs of fewer vertices take one scalar BFS per source: there the
#: kernel's fixed cost (a handful of NumPy calls per level, and the
#: components kernel for connectivity) exceeds n Python BFS runs.  A
#: 5-vertex tree took 14 us against 108 us, a 16-vertex tree 77 us against
#: 199 us; the two met near 24 vertices.  The traffic is small quotient
#: trees: with the kernel on every graph, c01's evaluation of four trees of
#: 3-5 vertices, gated at 1 ms, took 0.5-1.2 ms against 0.2-0.4 ms
#: (2-core x86-64 Linux host).
_ARRAY_MIN_VERTICES = 17


def _neighbour_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Neighbours of every vertex, grouped by vertex: (neighbours, group starts)."""
    ends = g.ends
    tails = np.concatenate((ends[:, 0], ends[:, 1]))
    order = np.argsort(tails, kind="stable")
    starts = np.zeros(g.vertex_count, dtype=np.intp)
    np.cumsum(np.bincount(tails, minlength=g.vertex_count)[:-1], out=starts[1:])
    return np.concatenate((ends[:, 1], ends[:, 0]))[order], starts


def _distance_planes(nbr: np.ndarray, starts: np.ndarray, first: int, count: int) -> list[np.ndarray]:
    """Level-synchronous BFS from sources first .. first + count - 1, as bit planes.

    Bit i of row v of the frontier and unseen words stands for source
    first + i; planes[b] holds bit b of every distance d(first + i, v) the
    same way.  Each level ORs the frontier words of every vertex's
    neighbours and keeps the unseen bits.
    """
    n = len(starts)
    frontier = np.zeros((n, (count + 63) // 64), dtype=np.uint64)
    i = np.arange(count)
    frontier[first + i, i >> 6] = np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))
    unseen = ~frontier
    planes: list[np.ndarray] = []
    level = 0
    while True:
        level += 1
        # the graph is connected, so no vertex has an empty neighbour group
        new = np.bitwise_or.reduceat(frontier.take(nbr, axis=0), starts, axis=0)
        new &= unseen
        if not np.count_nonzero(new):
            return planes
        unseen ^= new
        if level >> len(planes):
            planes.append(np.zeros_like(new))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= new
        frontier = new


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances as an n x n int32 array.

    One level-synchronous BFS runs from all sources at once, in sweeps of as
    many 64-source words as keep its working set small (_distance_planes);
    each sweep's bit planes are unpacked into its columns of the result one
    row block at a time.  Graphs of fewer than _ARRAY_MIN_VERTICES vertices
    take one scalar BFS per source, whose first row checks connectivity.

    Distances fit 32 bits by contract; the result must fit
    DISTANCE_MATRIX_MAX_BYTES (checked first), and the graph must be connected.
    """
    n = g.vertex_count
    size = 4 * n * n
    if size > DISTANCE_MATRIX_MAX_BYTES:
        raise GraphError(
            f"distance matrix of {n} vertices needs {size} bytes,"
            f" over the limit of {DISTANCE_MATRIX_MAX_BYTES} bytes"
        )
    if n < _ARRAY_MIN_VERTICES:
        rows = [bfs_distances(g, s) for s in range(n)]
        if rows and UNREACHABLE in rows[0]:
            raise _disconnected(rows[0].index(UNREACHABLE))
        return np.array(rows, dtype=np.int32).reshape(n, n)
    require_connected(g)
    nbr, starts = _neighbour_csr(g)
    d = np.zeros((n, n), dtype=np.int32)
    sweep = 64 * max(1, _BLOCK_BYTES // (8 * len(nbr)))
    for s0 in range(0, n, sweep):
        count = min(n, s0 + sweep) - s0
        planes = _distance_planes(nbr, starts, s0, count)
        rows = max(1, _BLOCK_BYTES // (4 * count))
        for r0 in range(0, n, rows):
            out = d[r0 : r0 + rows, s0 : s0 + count]
            for b, plane in enumerate(planes):
                as_bytes = plane[r0 : r0 + rows].astype("<u8", copy=False).view(np.uint8)
                bits = np.unpackbits(as_bytes, axis=1, count=count, bitorder="little")
                out |= np.left_shift(bits, b, dtype=np.int32)
    return d


def is_bipartite(g: Graph):
    """Two-color g if possible.

    Returns (coloring, None) on success, where coloring[v] is 0 or 1, or
    (None, cycle) where cycle is a list of vertices forming an odd cycle
    (consecutive entries adjacent, last adjacent to first).  Disconnected
    graphs are colored component by component.
    """
    n = g.vertex_count
    color = [-1] * n
    parent = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y, _ in g.adjacency[x]:
                if color[y] == -1:
                    color[y] = color[x] ^ 1
                    parent[y] = x
                    queue.append(y)
                elif color[y] == color[x]:
                    return None, _odd_cycle(parent, x, y)
    return color, None


def _odd_cycle(parent: list[int], x: int, y: int) -> list[int]:
    # Walk both BFS-tree paths up to the lowest common ancestor; the two
    # branches plus the offending edge x-y form an odd cycle.
    px = [x]
    while parent[px[-1]] != -1:
        px.append(parent[px[-1]])
    py = [y]
    ancestors = {v: i for i, v in enumerate(px)}
    while py[-1] not in ancestors:
        py.append(parent[py[-1]])
    lca_at = ancestors[py[-1]]
    cycle = px[: lca_at + 1] + py[-2::-1]
    return cycle


def components_after_removal(g: Graph, removed) -> list[list[int]]:
    """Connected components of g minus the given edge indices.

    Components are sorted-vertex lists, ordered by smallest contained vertex.
    """
    removed = set(removed)
    for k in removed:
        if not 0 <= k < g.edge_count:
            raise GraphError(f"edge index {k} out of range [0,{g.edge_count})")
    n = g.vertex_count
    comp = [-1] * n
    components: list[list[int]] = []
    for start in range(n):
        if comp[start] != -1:
            continue
        label = len(components)
        comp[start] = label
        members = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y, k in g.adjacency[x]:
                if k not in removed and comp[y] == -1:
                    comp[y] = label
                    members.append(y)
                    queue.append(y)
        components.append(sorted(members))
    return components


def _components(n: int, ends: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Components of the graph on n vertices with the given (k, 2) edges.

    Returns (labels, count, rounds): an int64 label per vertex, numbering
    components by smallest contained vertex, the component count, and the
    number of hooking rounds taken.  Each round hooks the larger root of
    every live edge to the smallest root it meets (np.minimum.at), then
    jumps pointers until every vertex points at a root; edges whose ends
    share a root are dropped.  A root only hooks to a smaller one, so no
    cycle forms and each component ends rooted at its smallest vertex, whose
    rank among the roots is the label (Shiloach and Vishkin, J. Algorithms 3
    (1982) 57-67, for hook and shortcut).
    """
    parent = np.arange(n, dtype=np.int64)
    a, b = ends[:, 0], ends[:, 1]
    rounds = 0
    while True:
        a, b = parent[a], parent[b]
        live = a != b
        if not live.any():
            break
        a, b = a[live], b[live]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
        rounds += 1
    rank = np.cumsum(parent == np.arange(n)) - 1
    return rank[parent], int(rank[-1]) + 1 if n else 0, rounds


def component_labels(g: Graph, removed) -> tuple[np.ndarray, int]:
    """Per-vertex component label for g minus the given edges, plus the count.

    removed holds edge indices of g, as an integer array or any iterable.
    Labels are an int64 array in the same smallest-vertex-first order as
    components_after_removal.
    """
    keep = np.ones(g.edge_count, dtype=bool)
    keep[removed if isinstance(removed, np.ndarray) else np.fromiter(removed, dtype=np.intp)] = False
    comp, count, _ = _components(g.vertex_count, g.ends[keep])
    return comp, count
