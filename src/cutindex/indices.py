"""Wiener and Szeged index evaluators.

The cut method makes both indices sums over cuts: a row
CutRow(class_index, size, n1, n2) per cut contributes n1 * n2 to the Wiener
index and size * n1 * n2 to the Szeged index (CutRow lives in quotient).
Every fast route is a producer of such rows, and indices_from_rows is the one
place they are summed:

  * the cut route, one row per Theta class of a recognized partial cube
    (cut_class_summaries);
  * the partition route, the same rows read off the cuts of the weighted
    quotients of a partition coarser than the Theta partition
    (partition_rows);
  * the tree route, one row per edge of a weighted tree (treedp), which the
    cell-system pipeline in chem maps back to the classes of its quotient trees.

The brute evaluators work straight from the definitions (distance sums,
per-edge strict-side counts) and share nothing with the routes; they are the
oracle that checks them.  Equidistant vertices count on neither side of an
edge (strict inequalities); bipartite graphs have none, but the weighted
evaluators implement the strict rule so they are correct on any connected
input.  Integer-weighted inputs produce exact integers: side classification
uses integer distance comparisons, and accumulation happens in Python
integers (with a numpy int64 fast path only when a proven bound rules out
overflow).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Graph, GraphError, check_u64, component_labels, distance_matrix
from .quotient import CoarserPartition, CutRow, quotient_by_edge_classes
from .theta import PartialCube, ThetaPartition, class_sides

_INT64_SAFE = 2**62


def _reject_negative(weights, what: str) -> None:
    """Raise GraphError naming the first negative weight.

    min screens in C and the scan only names the culprit.  A NaN can hide a
    negative from min, but then the minimum is NaN, which fails ">= 0", so
    the scan still runs.
    """
    if min(weights, default=0) >= 0:
        return
    for i, x in enumerate(weights):
        if x < 0:
            raise GraphError(f"{what} {i}: negative weight {x}")


@dataclass(frozen=True)
class VertexWeightedGraph:
    """A graph with a nonnegative weight per vertex."""

    graph: Graph
    w: tuple

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        if len(self.w) != self.graph.vertex_count:
            raise GraphError("vertex weight count does not match vertex count")
        _reject_negative(self.w, "vertex")


@dataclass(frozen=True)
class VertexEdgeWeightedGraph:
    """A graph with nonnegative vertex weights and edge weights."""

    graph: Graph
    w: tuple
    w_edge: tuple

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        object.__setattr__(self, "w_edge", tuple(self.w_edge))
        if len(self.w) != self.graph.vertex_count:
            raise GraphError("vertex weight count does not match vertex count")
        if len(self.w_edge) != self.graph.edge_count:
            raise GraphError("edge weight count does not match edge count")
        _reject_negative(self.w, "vertex")
        _reject_negative(self.w_edge, "edge")


def _all_int(values) -> bool:
    return all(isinstance(x, (int, np.integer)) for x in values)


def wiener_brute(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs, from the distance matrix."""
    d = distance_matrix(g)
    n = g.vertex_count
    if n and n * n * int(d.max(initial=0)) < _INT64_SAFE:
        total = int(d.sum(dtype=np.int64)) // 2
    else:
        total = sum(int(x) for row in d for x in row) // 2
    return check_u64(total, "Wiener index")


def szeged_brute(g: Graph) -> int:
    """Sum over edges of the product of strict-side vertex counts."""
    d = distance_matrix(g)
    total = 0
    for u, v in g.edges:
        cu, cv = d[:, u], d[:, v]
        n1 = int(np.count_nonzero(cu < cv))
        n2 = int(np.count_nonzero(cv < cu))
        total += n1 * n2
    return check_u64(total, "Szeged index")


def _weighted_row_sums(d: np.ndarray, w) -> list:
    """Per-vertex sums of w(v) * d(u,v), exact for integers and floats alike."""
    n = len(w)
    if _all_int(w):
        w_max = max((int(x) for x in w), default=0)
        if n * w_max * int(d.max(initial=0)) < _INT64_SAFE:
            vec = d.astype(np.int64) @ np.asarray([int(x) for x in w], dtype=np.int64)
            return [int(x) for x in vec]
        return [sum(int(x) * int(d[u, v]) for v, x in enumerate(w)) for u in range(n)]
    return [float(np.dot(d[u].astype(np.float64), np.asarray(w, dtype=np.float64))) for u in range(n)]


def wiener_weighted(gw: VertexWeightedGraph):
    """Half the double sum of w(u) w(v) d(u,v) over ordered vertex pairs."""
    d = distance_matrix(gw.graph)
    rows = _weighted_row_sums(d, gw.w)
    double = sum(wu * ru for wu, ru in zip(gw.w, rows))
    total = double // 2 if isinstance(double, int) else double / 2
    return check_u64(total, "weighted Wiener index")


def szeged_weighted(gww: VertexEdgeWeightedGraph):
    """Sum over edges of w'(e) times the product of strict-side weight sums."""
    g = gww.graph
    d = distance_matrix(g)
    w = gww.w
    int_fast = (
        _all_int(w)
        and len(w) * max((int(x) for x in w), default=0) < _INT64_SAFE
    )
    w_arr = np.asarray([int(x) for x in w], dtype=np.int64) if int_fast else None
    total = 0
    for k, (u, v) in enumerate(g.edges):
        we = gww.w_edge[k]
        if we == 0:
            continue
        cu, cv = d[:, u], d[:, v]
        if int_fast:
            n1 = int(w_arr[cu < cv].sum())
            n2 = int(w_arr[cv < cu].sum())
        else:
            n1 = sum(w[x] for x in np.flatnonzero(cu < cv))
            n2 = sum(w[x] for x in np.flatnonzero(cv < cu))
        total += we * n1 * n2
    return check_u64(total, "weighted Szeged index")


def indices_from_rows(rows, weighted: bool = False):
    """(Wiener, Szeged): the sums of n1 * n2 and size * n1 * n2 over cut rows.

    Rows are CutRows or plain (class_index, size, n1, n2) tuples.  Both sums
    are checked against the unsigned 64-bit range, the Wiener index first;
    weighted only changes the wording of those errors.
    """
    wiener = szeged = 0
    for _, size, n1, n2 in rows:
        term = n1 * n2
        wiener += term
        szeged += size * term
    what = "weighted " if weighted else ""
    return (
        check_u64(wiener, what + "Wiener index"),
        check_u64(szeged, what + "Szeged index"),
    )


def cut_class_summaries(pc: PartialCube) -> list[CutRow]:
    """The cut route's rows: one per Theta class, in class order."""
    rows = []
    for j in range(pc.theta.class_count):
        n1, n2, size = class_sides(pc, j)
        rows.append(CutRow(j, size, len(n1), len(n2)))
    return rows


def partition_rows(g: Graph, theta: ThetaPartition, cp: CoarserPartition) -> list[CutRow]:
    """The partition route's rows, read off one weighted quotient per group.

    theta must be the Theta partition of g: a recognized partial cube's, or
    the geometric classes of a cell system.  That is a precondition, not a
    check; only the two-part cuts below are checked, and classes that pass
    them without being the Theta partition give rows of wrong indices.
    In the quotient by a group, the
    quotient edges of one class j are a cut with exactly two components,
    whose vertex weights are the sides of class j in g; the side holding
    the class anchor comes first, so the rows equal the cut route's.  A
    quotient edge standing for two classes, or a cut leaving other than two
    components, raises GraphError.  Sorted by class index.
    """
    rows = []
    for group in cp.groups:
        wq = quotient_by_edge_classes(g, theta, group)
        edges_of: dict[int, list[int]] = {}
        for f, j in enumerate(wq.edge_class):
            edges_of.setdefault(j, []).append(f)
        total = sum(wq.vertex_weight)
        for j, cut in edges_of.items():
            comp, count = component_labels(wq.quotient, cut)
            if count != 2:
                raise GraphError(
                    f"class {j} splits its quotient into {count} parts, expected 2;"
                    " not a cut class"
                )
            side = int(comp[wq.class_anchors[j]])
            n1 = sum(w for w, c in zip(wq.vertex_weight, comp.tolist()) if c == side)
            rows.append(CutRow(j, sum(wq.edge_weight[f] for f in cut), n1, total - n1))
    rows.sort()
    return rows


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
