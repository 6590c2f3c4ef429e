"""Linear-time weighted Wiener and Szeged indices of trees.

Removing an edge of a tree leaves exactly two components, so a tree is the
simplest row producer of the cut method: each edge e is a cut with one row
(e, w_e, n1, n2), where n1 and n2 are the weight sums of the two sides, and
indices_from_rows sums those rows into both indices.

One rooted BFS from vertex 0 both validates the tree and orders it; a
bottom-up pass in reverse BFS order (every vertex after everything in its
subtree) then keeps a running weight that ends up holding each vertex's
subtree weight, which is one side of the cut along its parent edge; the
other side is the total minus it.  The evaluators stream these rows as plain
tuples; tree_cut_rows returns them as CutRows in edge order.  The quadratic
weighted evaluators in indices are the oracle they are checked against.
"""

from __future__ import annotations

from .core import Graph, GraphError
from .indices import CutRow, VertexEdgeWeightedGraph, VertexWeightedGraph, indices_from_rows


def _tree_cuts(g: Graph, weights, edge_weights):
    """Yield (edge, w_e, subtree side, rest) for every edge of the tree g.

    Raises GraphError, before the first row, unless g is a tree.
    edge_weights of None gives every edge weight 1.
    """
    n = g.vertex_count
    if n == 0:
        raise GraphError("not a tree: empty graph")
    if g.edge_count != n - 1:
        raise GraphError(f"not a tree: {n} vertices but {g.edge_count} edges")
    adjacency = g.adjacency
    parent = [-1] * n
    parent_edge = [-1] * n
    parent[0] = 0  # the root counts as seen
    order = [0]
    for x in order:  # order grows while it is walked
        for y, k in adjacency[x]:
            if parent[y] == -1:
                parent[y] = x
                parent_edge[y] = k
                order.append(y)
    if len(order) != n:
        raise GraphError("not a tree: graph is disconnected")

    w = list(weights)
    total = sum(w)
    for i in range(n - 1, 0, -1):
        y = order[i]
        e = parent_edge[y]
        side = w[y]
        yield e, 1 if edge_weights is None else edge_weights[e], side, total - side
        w[parent[y]] += side


def wiener_tree_linear(t: VertexWeightedGraph):
    """Weighted Wiener index of a tree as the sum of per-edge side products.

    One O(n) pass; equals the quadratic weighted definition.
    """
    return indices_from_rows(_tree_cuts(t.graph, t.w, None), weighted=True)[0]


def szeged_tree_linear(t: VertexEdgeWeightedGraph):
    """Weighted Szeged index of a tree in one O(n) pass.

    Both sums of the pass are range-checked, so a weighted Wiener index past
    2^64 - 1 raises here too.
    """
    return indices_from_rows(_tree_cuts(t.graph, t.w, t.w_edge), weighted=True)[1]


def tree_cut_rows(t: VertexEdgeWeightedGraph) -> list[CutRow]:
    """The tree route's rows: CutRow(edge, w_e, subtree side, rest) per edge.

    The same pass as the evaluators, ordered by edge index.
    """
    rows = [None] * t.graph.edge_count
    for e, size, n1, n2 in _tree_cuts(t.graph, t.w, t.w_edge):
        rows[e] = CutRow(e, size, n1, n2)
    return rows
