"""Linear-time weighted Wiener and Szeged indices of trees.

Removing an edge of a tree leaves exactly two components, so a tree is the
simplest row producer of the cut method: each edge e is a cut with one row
(e, w_e, n1, n2), where n1 and n2 are the weight sums of the two sides, and
indices_from_rows sums those rows into both indices.

The rows come from peeling leaves.  NumPy computes, from the edge array,
each vertex's degree and the XOR of its neighbours' ids and of its incident
edges' ids; a leaf's only neighbour and edge are then its two XORs, and
peeling it XORs it out of its neighbour's.  One flat loop pops leaves other
than vertex 0, emits the row of each leaf's edge with the leaf's running
weight as n1, and folds that weight into the neighbour, which becomes a leaf
when its degree drops to one.  A peeled leaf's running weight is the weight
of everything peeled into it, which is the side of its edge without vertex
0; the other side is the total minus it.  A tree peels down to vertex 0 in
exactly n - 1 steps; fewer means the graph is disconnected.  The evaluators
stream these rows as plain tuples; tree_cut_rows returns them as CutRows in
edge order.  The quadratic weighted evaluators in indices are the oracle
they are checked against.
"""

from __future__ import annotations

import numpy as np

from .core import Graph, GraphError
from .indices import CutRow, VertexEdgeWeightedGraph, VertexWeightedGraph, indices_from_rows


def require_tree_counts(g: Graph) -> None:
    """Raise GraphError unless g is nonempty with exactly n - 1 edges.

    The O(1) half of the tree check, which callers can make before they
    build anything per vertex.
    """
    n = g.vertex_count
    if n == 0:
        raise GraphError("not a tree: empty graph")
    if g.edge_count != n - 1:
        raise GraphError(f"not a tree: {n} vertices but {g.edge_count} edges")


def _tree_cuts(g: Graph, weights, edge_weights):
    """Yield (edge, w_e, side without vertex 0, rest) for every edge of the tree g.

    Raises GraphError unless g is a tree: before the first row for an empty
    graph or a wrong edge count, after the rows of the peelable part for a
    disconnected one.  edge_weights of None gives every edge weight 1.
    """
    require_tree_counts(g)
    n = g.vertex_count
    ends = g.ends
    degree = np.bincount(ends.ravel(), minlength=n)
    neighbours = np.zeros(n, dtype=np.int64)
    np.bitwise_xor.at(neighbours, ends, ends[:, ::-1])
    incident = np.zeros(n, dtype=np.int64)
    np.bitwise_xor.at(incident, ends, np.arange(n - 1)[:, None])
    leaves = np.flatnonzero(degree[1:] == 1) + 1
    degree, neighbours, incident, leaves = (
        degree.tolist(), neighbours.tolist(), incident.tolist(), leaves.tolist())

    w = list(weights)
    total = sum(w)
    peeled = 0
    while leaves:
        y = leaves.pop()
        if not degree[y]:
            break  # y's last neighbour was peeled: a component without vertex 0
        x, e = neighbours[y], incident[y]
        side = w[y]
        yield e, 1 if edge_weights is None else edge_weights[e], side, total - side
        w[x] += side
        neighbours[x] ^= y
        incident[x] ^= e
        degree[x] -= 1
        if degree[x] == 1 and x:
            leaves.append(x)
        peeled += 1
    if peeled != n - 1:
        raise GraphError("not a tree: graph is disconnected")


def tree_indices(t: VertexEdgeWeightedGraph):
    """(weighted Wiener, weighted Szeged) of a tree from one O(n) pass."""
    return indices_from_rows(_tree_cuts(t.graph, t.w, t.w_edge), weighted=True)


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
    return tree_indices(t)[1]


def tree_cut_rows(t: VertexEdgeWeightedGraph) -> list[CutRow]:
    """The tree route's rows: CutRow(edge, w_e, side without vertex 0, rest) per edge.

    The same pass as the evaluators, ordered by edge index.
    """
    rows = [None] * t.graph.edge_count
    for e, size, n1, n2 in _tree_cuts(t.graph, t.w, t.w_edge):
        rows[e] = CutRow(e, size, n1, n2)
    return rows
