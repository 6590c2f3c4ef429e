"""Wiener and Szeged index evaluators.

The cut method makes both indices sums over cuts: a row
CutRow(class_index, size, n1, n2) per cut contributes n1 * n2 to the Wiener
index and size * n1 * n2 to the Szeged index (CutRow lives in quotient).
Every fast route is a producer of such rows, summed by indices_from_rows
(the tree pass sums its own as arrays):

  * the cut route, one row per Theta class of a recognized partial cube
    (cut_class_summaries);
  * the partition route, the same rows read off the cuts of the weighted
    quotients of a partition coarser than the Theta partition
    (partition_rows);
  * the tree route, one row per edge of a weighted tree (treedp), which
    partition_rows runs on tree quotients, as the cell systems of chem give.

The brute evaluators work straight from the definitions (distance sums,
per-edge strict-side sums) and share nothing with the routes; they are the
oracle that checks them: one body per index, at unit weight for the
unweighted ones.  Equidistant vertices count on neither side of an edge, so
they hold on any connected input.  Both read the distance matrix in row
blocks against one weight vector whose dtype is the arithmetic: int64 where a
bound rules out overflow, else the exact Python numbers (float64 for
non-integer Wiener weights), so integer weights give exact integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import _FILL_BLOCK_CELLS, Graph, GraphError, check_u64
from .core import component_labels, distance_matrix
from .core import require_connected
from .quotient import CoarserPartition, CutRow, quotient_by_edge_classes
from .theta import PartialCube, ThetaPartition, class_sides

_INT64_SAFE = 2**62


def _weights(values, count: int, what: str) -> tuple:
    """values as a tuple of count Python numbers, none of them negative.

    NumPy integers wrap where Python ints grow, so an array becomes its
    tolist() and NumPy scalars in a sequence are converted.  A NaN can hide a
    negative from min, but then min is NaN and fails ">= 0".
    """
    if isinstance(values, np.ndarray):
        values = tuple(values.tolist())
    else:
        values = tuple(values)
        if any(issubclass(t, np.generic) for t in set(map(type, values))):
            values = tuple(x.item() if isinstance(x, np.generic) else x for x in values)
    if len(values) != count:
        raise GraphError(f"{what} weight count does not match {what} count")
    if not min(values, default=0) >= 0:
        for i, x in enumerate(values):
            if x < 0:
                raise GraphError(f"{what} {i}: negative weight {x}")
    return values


@dataclass(frozen=True)
class VertexWeightedGraph:
    """A graph with a nonnegative weight per vertex."""

    graph: Graph
    w: tuple

    def __post_init__(self):
        object.__setattr__(self, "w", _weights(self.w, self.graph.vertex_count, "vertex"))


@dataclass(frozen=True)
class VertexEdgeWeightedGraph(VertexWeightedGraph):
    """A graph with nonnegative vertex weights and edge weights."""

    w_edge: tuple

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "w_edge", _weights(self.w_edge, self.graph.edge_count, "edge"))


def _weight_vector(w, reach: int, exact: bool) -> np.ndarray:
    """w as int64 if integers with len(w) * max(w) * reach below _INT64_SAFE.

    Else the Python numbers themselves, or float64 for non-integers unless exact.
    """
    if isinstance(sum(w), int):  # a sum of Python ints alone stays an int
        if len(w) * max(w, default=0) * reach < _INT64_SAFE:
            return np.array(w, dtype=np.int64)
        return np.array(w, dtype=object)
    return np.array(w, dtype=object if exact else np.float64)


def _wiener(g: Graph, w, what: str, d: np.ndarray | None = None):
    """Sum over ordered pairs of w(u) w(v) d(u,v) / 2; w of None is unit weight.

    d, if given, is g's distance matrix.
    """
    d = distance_matrix(g) if d is None else d
    n = g.vertex_count
    w = (1,) * n if w is None else w
    vec = _weight_vector(w, n, exact=False)  # row sums are below n * max(w) * n
    rows = max(1, _FILL_BLOCK_CELLS // max(n, 1))
    double = 0
    for r0 in range(0, n, rows):
        sums = (d[r0 : r0 + rows] @ vec).tolist()
        double = sum(map(operator.mul, w[r0 : r0 + rows], sums), double)
    return check_u64(double // 2 if isinstance(double, int) else double / 2, what)


def _szeged(g: Graph, w, w_edge, what: str, d: np.ndarray | None = None):
    """Sum over edges uv of w'(uv) times the weights strictly closer to u, and to v.

    w or w_edge of None is unit weight; d, if given, is g's distance matrix.
    Each block of edges takes the masks d[u] < d[v] and d[v] < d[u] of its
    rows.  An int64 side is mask @ w; otherwise each side sums only its own
    weights, so a NaN or inf weight spoils no other side, nor (edges of
    weight 0 are skipped) the total.
    """
    d = distance_matrix(g) if d is None else d
    n, m = g.vertex_count, g.edge_count
    w_edge = (1,) * m if w_edge is None else w_edge
    vec = _weight_vector((1,) * n if w is None else w, 1, exact=True)
    u, v = g.ends.T
    block = max(1, _FILL_BLOCK_CELLS // max(n, 1))
    total = 0
    for k0 in range(0, m, block):
        du, dv = d[u[k0 : k0 + block]], d[v[k0 : k0 + block]]
        masks = du < dv, dv < du
        if vec.dtype == np.int64:
            sides = [(mask @ vec).tolist() for mask in masks]
        else:
            sides = [list(map(sum, np.where(mask, vec, 0))) for mask in masks]
        for we, n1, n2 in zip(w_edge[k0 : k0 + block], *sides):
            if we != 0:
                total += we * n1 * n2
    return check_u64(total, what)


def wiener_brute(g: Graph, d: np.ndarray | None = None) -> int:
    """Sum of distances over unordered vertex pairs, from the distance matrix.

    d, if given, is g's distance matrix, so callers can share one.
    """
    return _wiener(g, None, "Wiener index", d)


def szeged_brute(g: Graph, d: np.ndarray | None = None) -> int:
    """Sum over edges of the product of strict-side vertex counts.

    d, if given, is g's distance matrix, so callers can share one.
    """
    return _szeged(g, None, None, "Szeged index", d)


def wiener_weighted(gw: VertexWeightedGraph):
    """Half the double sum of w(u) w(v) d(u,v) over ordered vertex pairs."""
    return _wiener(gw.graph, gw.w, "weighted Wiener index")


def szeged_weighted(gww: VertexEdgeWeightedGraph):
    """Sum over edges of w'(e) times the product of strict-side weight sums."""
    return _szeged(gww.graph, gww.w, gww.w_edge, "weighted Szeged index")


def indices_from_rows(rows):
    """(Wiener, Szeged): the sums of n1 * n2 and size * n1 * n2 over cut rows.

    Rows are CutRows or plain (class_index, size, n1, n2) tuples.  Both sums
    are checked against the unsigned 64-bit range, the Wiener index first.
    """
    wiener = szeged = 0
    for _, size, n1, n2 in rows:
        term = n1 * n2
        wiener += term
        szeged += size * term
    return check_u64(wiener, "Wiener index"), check_u64(szeged, "Szeged index")


def cut_class_summaries(pc: PartialCube) -> list[CutRow]:
    """The cut route's rows: one per Theta class, in class order."""
    rows = []
    for j in range(pc.theta.class_count):
        n1, n2, size = class_sides(pc, j)
        rows.append(CutRow(j, size, len(n1), len(n2)))
    return rows


def _quotient_cuts(g: Graph, theta: ThetaPartition, cp: CoarserPartition):
    """Yield (class, size, side without quotient vertex 0, rest, anchor on that side).

    One tree pass reads a tree quotient: a class of k edges leaves k + 1 parts
    there, and its anchor is on the side without vertex 0 iff it is the end of
    its edge farther from 0.  Other quotients take a components call per class.

    A quotient is connected iff g is, so a disconnected g raises core's
    GraphError.  A quotient with n_q - 1 edges shows it in its tree pass;
    otherwise the first group's quotient pays one components call.
    """
    from .treedp import _tree_sides, _vector  # at call time: treedp imports this module

    for i, group in enumerate(cp.groups):
        wq = quotient_by_edge_classes(g, theta, group)
        q, weights, anchors = wq.quotient, wq.vertex_weight, wq.class_anchors
        edges_of: dict[int, list[int]] = {}
        for f, j in enumerate(wq.edge_class):
            edges_of.setdefault(j, []).append(f)
        tree = q.edge_count == q.vertex_count - 1
        if tree:
            try:
                sides = _tree_sides(q, _vector(weights), _vector(wq.edge_weight))
            except GraphError:
                require_connected(g)  # raises: g is disconnected as q is
                raise
        elif i == 0 and component_labels(q, ())[1] != 1:
            require_connected(g)
        for j, cut in edges_of.items():
            comp, count = (None, len(cut) + 1) if tree else component_labels(q, cut)
            if count != 2:
                raise GraphError(
                    f"class {j} splits its quotient into {count} parts, expected 2;"
                    " not a cut class"
                )
            if not tree:
                comp = comp.tolist()
                n1 = sum(w for w, c in zip(weights, comp) if c)
                size = sum(wq.edge_weight[f] for f in cut)
                yield j, size, n1, sum(weights) - n1, comp[anchors[j]] == 1
        if tree:
            n1, n2, child = (column.tolist() for column in sides)
            for f, j in enumerate(wq.edge_class):
                yield j, wq.edge_weight[f], n1[f], n2[f], anchors[j] == child[f]


def partition_rows(g: Graph, theta: ThetaPartition, cp: CoarserPartition) -> list[CutRow]:
    """The partition route's rows, read off one weighted quotient per group.

    theta must be the Theta partition of g: a recognized partial cube's, or
    the geometric classes of a cell system.  That is a precondition, not a
    check; only the two-part cuts below are checked, and classes that pass
    them without being the Theta partition give rows of wrong indices.  In
    the quotient by a group, the quotient edges of one class j are a cut
    with exactly two components, whose vertex weights are the sides of
    class j in g; the side holding the class anchor comes first, so the rows
    equal the cut route's.  Tree quotients take the linear tree pass.  A
    disconnected g, a quotient edge standing for two classes, or a cut
    leaving other than two components raises GraphError.  Sorted by class
    index.
    """
    return sorted(
        CutRow(j, size, *((n1, n2) if anchored else (n2, n1)))
        for j, size, n1, n2, anchored in _quotient_cuts(g, theta, cp)
    )


def wiener_cut(pc: PartialCube) -> int:
    """Wiener index as the sum of n1 * n2 over the Theta classes."""
    return indices_from_rows(cut_class_summaries(pc))[0]


def szeged_cut(pc: PartialCube) -> int:
    """Szeged index as the sum of |E_j| * n1 * n2 over the Theta classes."""
    return indices_from_rows(cut_class_summaries(pc))[1]


def wiener_via_partition(pc: PartialCube, cp: CoarserPartition) -> int:
    """Wiener index summed over the classes of the quotients of a coarser partition."""
    return indices_from_rows(partition_rows(pc.graph, pc.theta, cp))[0]


def szeged_via_partition(pc: PartialCube, cp: CoarserPartition) -> int:
    """Szeged index summed over the classes of the quotients of a coarser partition."""
    return indices_from_rows(partition_rows(pc.graph, pc.theta, cp))[1]
