"""Weighted Wiener and Szeged indices of trees from one array pass.

Each edge e of a tree is a cut with one row (e, w_e, n1, n2), n1 and n2 the
weights of its two sides.  Edge k gives the arcs 2k and 2k + 1, each the
other's reverse.  The Euler tour (Tarjan and Vishkin, SIAM J. Comput. 14
(1985) 862-874) leaves a's target by the arc after rev(a) in source order,
and pointer jumping (Wyllie, 1979) ranks its L arcs in ceil(log2 L) rounds,
whatever the tree's shape.  The earlier arc of an edge points to its child,
and the side without vertex 0 is a difference of prefix sums of the weights
in tour order.  Weights come as vectors, int64 or object arrays of Python
numbers (tree-index reads them so from its file), and every total is exact.
The quadratic evaluators in indices are the oracle.
"""

from __future__ import annotations

import numpy as np

from .core import Graph, GraphError, check_u64
from .indices import _INT64_SAFE, CutRow, VertexEdgeWeightedGraph, VertexWeightedGraph

_LOW = 2**32 - 1  # a tour link is (distance << 32) | arc


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


def _vector(values) -> np.ndarray:
    """A weight tuple as int64 if its entries are ints below 2**63, else as Python numbers."""
    if isinstance(sum(values), int) and max(values, default=0) < 2**63:  # ints alone sum to an int
        return np.array(values, np.int64)
    return np.array(values, object)


def _exact_sum(v: np.ndarray):
    """The sum of a weight vector, in int64 where len(v) * max(v) rules out a wrap."""
    if v.dtype == np.int64 and len(v) * int(v.max(initial=0)) < 2**63:
        return int(v.sum())
    return sum(v.tolist())


def _tree_sides(g: Graph, w: np.ndarray, w_edge: np.ndarray | None):
    """(side without vertex 0, other side, end farther from vertex 0) per edge of the tree g.

    Arrays in edge order; w_edge of None is unit weight.  The sides are int64
    if total**2 / 4 * max(m, sum(w_edge)), a bound on every sum the evaluators
    form, is below _INT64_SAFE, else Python numbers.  Raises unless g is a tree.
    """
    require_tree_counts(g)
    n, m = g.vertex_count, g.edge_count
    total = _exact_sum(w)
    load = m if w_edge is None else _exact_sum(w_edge)
    fits = isinstance(total + load, int) and total * total // 4 * max(m, load) < _INT64_SAFE
    dtype = np.int64 if fits else object
    if not m:
        return np.zeros(0, dtype), np.zeros(0, dtype), np.zeros(0, np.int64)
    ends = g.ends
    source = ends.ravel()  # arc 2k runs from ends[k, 0] to ends[k, 1], arc 2k + 1 back
    degree = np.bincount(source, minlength=n)
    if not degree.all():
        raise GraphError("not a tree: graph is disconnected")
    order = np.argsort(source)
    around = np.empty_like(order)  # around[a]: the arc after a, cyclically, out of a's source
    around[order[:-1]] = order[1:]
    stop = np.cumsum(degree)
    around[order[stop - 1]] = order[stop - degree]
    last = order[degree[0] - 1] ^ 1  # its successor is order[0], where the tour starts
    link = (around.reshape(-1, 2)[:, ::-1] | 1 << 32).ravel()  # a's successor follows a ^ 1
    link[last] = last
    del order, around, stop, degree
    for _ in range((2 * m - 1).bit_length()):
        reached = link[link & _LOW]
        link &= ~_LOW
        link += reached
    if ((link & _LOW) != last).any():
        raise GraphError("not a tree: graph is disconnected")
    forth, back = (link[0::2] >> 32) & _LOW, (link[1::2] >> 32) & _LOW  # distances to the end
    del link, reached
    child = np.where(forth > back, ends[:, 1], ends[:, 0])  # the earlier arc points down
    enter, leave = np.maximum(forth, back), np.minimum(forth, back)
    entered = np.zeros(2 * m, dtype)
    entered[enter] = w.astype(dtype, copy=False)[child]
    entered = np.cumsum(entered)
    side = entered[enter] - entered[leave]
    return side, total - side, child


def _tree_totals(g: Graph, w: np.ndarray, w_edge: np.ndarray | None):
    """(weighted Wiener, weighted Szeged) of the tree g as Python numbers, unchecked."""
    side, rest, _ = _tree_sides(g, w, w_edge)
    term = side * rest  # if int64, load is an int, so an object w_edge holds ints
    sums = term.sum(), (term if w_edge is None else w_edge * term).sum()
    return sums if term.dtype == object else tuple(map(int, sums))


def _tree_sums(g: Graph, w: np.ndarray, w_edge: np.ndarray | None):
    """(weighted Wiener, weighted Szeged) of the tree g, both range-checked."""
    wiener, szeged = _tree_totals(g, w, w_edge)
    return check_u64(wiener, "weighted Wiener index"), check_u64(szeged, "weighted Szeged index")


def tree_indices(t: VertexEdgeWeightedGraph):
    """(weighted Wiener, weighted Szeged) of a tree from one array pass."""
    return _tree_sums(t.graph, _vector(t.w), _vector(t.w_edge))


def wiener_tree_linear(t: VertexWeightedGraph):
    """Weighted Wiener index of a tree as the sum of per-edge side products.

    One array pass; equals the quadratic weighted definition.
    """
    return _tree_sums(t.graph, _vector(t.w), None)[0]


def szeged_tree_linear(t: VertexEdgeWeightedGraph):
    """Weighted Szeged index of a tree in one array pass.

    Both sums of the pass are range-checked, so a weighted Wiener index past
    2^64 - 1 raises here too.
    """
    return tree_indices(t)[1]


def tree_cut_rows(t: VertexEdgeWeightedGraph) -> list[CutRow]:
    """The tree route's rows: CutRow(edge, w_e, side without vertex 0, rest) per edge.

    The same pass as the evaluators, ordered by edge index.
    """
    side, rest, _ = _tree_sides(t.graph, _vector(t.w), _vector(t.w_edge))
    return list(map(CutRow, range(t.graph.edge_count), t.w_edge, side.tolist(), rest.tolist()))
