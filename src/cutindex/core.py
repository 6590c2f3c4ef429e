"""Core graph representation and BFS machinery.

Graphs are simple, undirected and connected (connectivity is enforced at the
boundary of every index computation, not here).  Edge identity is positional:
edge ``k`` is ``edges[k]``, and everything downstream (Theta classes, cuts,
quotients) refers to edges by that index, never by endpoint pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with positional edge identity.

    adjacency[v] lists (neighbor, edge_index) pairs in edge-input order.
    Instances are built through build_graph, which validates the edge list.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def build_graph(vertex_count: int, edges) -> Graph:
    """Validate an edge list and build a Graph.

    Rejects self-loops, duplicate edges (in either orientation) and endpoints
    outside [0, vertex_count); the offending edge is named in the error.
    """
    if vertex_count < 0:
        raise GraphError(f"vertex_count must be nonnegative, got {vertex_count}")
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    seen: set[tuple[int, int]] = set()
    edge_list: list[tuple[int, int]] = []
    for k, (u, v) in enumerate(edges):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"edge {k} = ({u},{v}): endpoint out of range [0,{vertex_count})")
        if u == v:
            raise GraphError(f"edge {k} = ({u},{v}): self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"edge {k} = ({u},{v}): duplicate edge")
        seen.add(key)
        edge_list.append((u, v))
        adjacency[u].append((v, k))
        adjacency[v].append((u, k))
    return Graph(
        vertex_count=vertex_count,
        edges=tuple(edge_list),
        adjacency=tuple(tuple(a) for a in adjacency),
    )


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


def require_connected(g: Graph) -> None:
    """Raise GraphError naming two disconnected vertices if g is not connected."""
    if g.vertex_count == 0:
        return
    dist = bfs_distances(g, 0)
    for v, d in enumerate(dist):
        if d == UNREACHABLE:
            raise GraphError(f"graph is disconnected: no path between vertices 0 and {v}")


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances as an n x n int32 array (one BFS per vertex).

    Distances fit 32 bits by contract; the graph must be connected.
    """
    require_connected(g)
    n = g.vertex_count
    d = np.empty((n, n), dtype=np.int32)
    for s in range(n):
        d[s, :] = bfs_distances(g, s)
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


def component_labels(g: Graph, removed) -> tuple[list[int], int]:
    """Per-vertex component label for g minus the given edges, plus the count.

    Labels follow the same smallest-vertex-first order as
    components_after_removal.
    """
    removed = set(removed)
    n = g.vertex_count
    comp = [-1] * n
    count = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = count
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y, k in g.adjacency[x]:
                if k not in removed and comp[y] == -1:
                    comp[y] = count
                    queue.append(y)
        count += 1
    return comp, count
