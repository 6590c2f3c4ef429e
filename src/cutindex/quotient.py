"""Coarser edge partitions and weighted quotient graphs.

A partition of the edge set is *coarser* than the Theta partition when each of
its groups is a union of Theta classes.  Contracting the components of
G minus one group F yields the quotient G/F; vertex weights carry component
sizes, edge weights carry the number of F-edges joining two components.
Edges fold by component pair; in a genuine quotient each quotient edge stands
for exactly one class, so one standing for two is a GraphError.  Every
quotient reader returns CutRows, the row type defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import index
from typing import NamedTuple

import numpy as np

from .core import Graph, GraphError, build_graph, component_labels
from .theta import PartialCube, ThetaPartition, recognize_partial_cube


@dataclass(frozen=True)
class CoarserPartition:
    """Groups of Theta-class indices forming a partition of all classes."""

    groups: tuple[tuple[int, ...], ...]


def _class_indices(group) -> tuple[int, ...]:
    """group as a tuple of Python ints; GraphError names the first non-integer."""
    ints = []
    for j in group:
        try:
            ints.append(index(j))
        except TypeError:
            raise GraphError(f"class index {j!r} is not an integer") from None
    return tuple(ints)


def validate_coarser(theta: ThetaPartition, grouping) -> CoarserPartition:
    """Accept a grouping iff it partitions the class indices {0..r-1}.

    Group order is preserved and indices become Python ints; non-integer,
    missing or duplicated classes are rejected with the offending class
    index named.
    """
    r = theta.class_count
    seen: set[int] = set()
    groups: list[tuple[int, ...]] = []
    for gi, group in enumerate(grouping):
        group = _class_indices(group)
        members = sorted(set(group))
        if len(members) != len(group):
            dup = next(j for j in group if group.count(j) > 1)
            raise GraphError(f"class {dup} duplicated within group {gi}")
        if not members:
            raise GraphError(f"group {gi} is empty")
        for j in members:
            if not 0 <= j < r:
                raise GraphError(f"class index {j} out of range [0,{r})")
            if j in seen:
                raise GraphError(f"class {j} duplicated across groups")
            seen.add(j)
        groups.append(tuple(members))
    if len(seen) < r:
        raise GraphError(f"class {min(set(range(r)) - seen)} missing from the grouping")
    return CoarserPartition(tuple(groups))


def finest_partition(theta: ThetaPartition) -> CoarserPartition:
    """Each class in its own group (the Theta partition itself)."""
    return validate_coarser(theta, [{j} for j in range(theta.class_count)])


def coarsest_partition(theta: ThetaPartition) -> CoarserPartition:
    """All classes in a single group."""
    return validate_coarser(theta, [set(range(theta.class_count))])


@dataclass(frozen=True)
class WeightedQuotient:
    """Quotient graph G/F with vertex and edge weights.

    Quotient vertices are the components of G minus the group's edges, ordered
    by smallest contained original vertex.  vertex_weight counts the vertices
    of each component; edge_weight counts the original edges folded into each
    quotient edge; edge_class names, per quotient edge, the one original class
    it stands for; class_anchors maps each original class in the group to the
    quotient vertex holding the lower-numbered endpoint of its smallest-index
    edge, which fixes side orientation downstream.
    """

    quotient: Graph
    vertex_weight: tuple
    edge_weight: tuple
    edge_class: tuple[int, ...] = field(repr=False)
    class_anchors: dict[int, int] = field(repr=False)


def quotient_by_edge_classes(g: Graph, theta: ThetaPartition, class_indices) -> WeightedQuotient:
    """Build the weighted quotient of g by the union of the given classes.

    It needs only the graph and an edge partition, not a verified partial
    cube.  A class index that is no integer or out of range, a class listed
    twice, or a quotient edge whose original edges come from two classes,
    raises GraphError.
    """
    class_indices = _class_indices(class_indices)
    if len(set(class_indices)) != len(class_indices):
        repeated = next(j for j in class_indices if class_indices.count(j) > 1)
        raise GraphError(f"class {repeated} listed twice in the group")
    for j in class_indices:
        if not 0 <= j < theta.class_count:
            raise GraphError(f"class index {j} out of range [0,{theta.class_count})")

    # The group's edges, class by class: each class's run of theta.order.
    runs = [theta.order[theta.bounds[j] : theta.bounds[j + 1]] for j in class_indices]
    f_edges = np.concatenate(runs) if runs else theta.order[:0]
    sizes = np.array(list(map(len, runs)), dtype=np.int64)
    comp, count = component_labels(g, f_edges)

    a, b = comp[g.ends[f_edges]].T
    inside = a == b
    if inside.any():
        k = f_edges[inside.argmax()]
        raise GraphError(
            f"edge {k} joins vertices of one component of the cut;"
            " the given classes are not cut classes"
        )
    # Fold the group's edges by component pair.  f_edges lists the classes in
    # order, so a stable sort keeps each pair's run in class order, and a run
    # stands for two classes iff its first and last entries differ in class.
    # The pair key stays below count² < 2⁶².
    pair = np.minimum(a, b) * count + np.maximum(a, b)
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    cls = np.repeat(np.arange(len(class_indices)), sizes)[order]
    new = np.ones(len(pair), dtype=bool)
    new[1:] = pair[1:] != pair[:-1]
    first = np.flatnonzero(new)
    multiplicity = np.diff(first, append=len(pair))
    last = first + multiplicity - 1
    split = np.flatnonzero(cls[first] != cls[last])
    if len(split):
        f = int(split[0])
        run = cls[first[f] : last[f] + 1].tolist()
        raise GraphError(
            f"quotient edge {f} represents original classes"
            f" {sorted({class_indices[x] for x in run})}; expected exactly one"
        )

    weights = np.bincount(comp, minlength=count).tolist()
    quotient = build_graph(count, np.stack(np.divmod(pair[first], count), axis=1))
    heads = f_edges[np.cumsum(sizes) - sizes]  # each class's smallest edge
    anchors = comp[g.ends[heads].min(axis=1)].tolist()
    return WeightedQuotient(
        quotient=quotient,
        vertex_weight=tuple(weights),
        edge_weight=tuple(multiplicity.tolist()),
        edge_class=tuple(np.array(class_indices, dtype=np.int64)[cls[first]].tolist()),
        class_anchors=dict(zip(class_indices, anchors)),
    )


class CutRow(NamedTuple):
    """One cut of the cut method: class index, class size and side sizes.

    On weighted inputs (tree edges, quotient classes) size and sides are
    weight sums.  The cut adds n1 * n2 to the Wiener index and
    size * n1 * n2 to the Szeged index.
    """

    class_index: int
    size: int
    n1: int
    n2: int


def quotient_theta_classes(wq: WeightedQuotient) -> list[CutRow]:
    """The rows of the group's classes, read off the quotient's Theta classes.

    The quotient of a partial cube by a coarser group is itself a partial
    cube whose Theta classes stand one each for the group's classes; a
    quotient that fails this was not built from genuine cut classes and is
    reported as an error.  Each row holds the original class, its size (the
    class's edge weight) and its weighted sides, the side holding the class
    anchor first; rows are sorted by class index.
    """
    qpc = recognize_partial_cube(wq.quotient)
    if not isinstance(qpc, PartialCube):
        raise GraphError(
            f"quotient failed partial-cube recognition ({qpc.kind});"
            " not built from cut classes of a partial cube"
        )
    expected = len(wq.class_anchors)
    if qpc.theta.class_count != expected:
        raise GraphError(
            f"quotient has {qpc.theta.class_count} classes, expected {expected};"
            " not built from cut classes of a partial cube"
        )

    rows: list[CutRow] = []
    seen: set[int] = set()
    total = sum(wq.vertex_weight)
    for t, cls in enumerate(qpc.theta.classes):
        represented = {wq.edge_class[f] for f in cls}
        if len(represented) != 1:
            raise GraphError(
                f"quotient class {t} stands for original classes {sorted(represented)};"
                " not built from cut classes of a partial cube"
            )
        (j,) = represented
        if j in seen:
            raise GraphError(f"original class {j} represented by two quotient classes")
        seen.add(j)

        bit = qpc.labels[:, t >> 6] & np.uint64(1 << (t & 63)) != 0
        n2 = sum(compress(wq.vertex_weight, (bit != bit[wq.class_anchors[j]]).tolist()))
        rows.append(CutRow(j, sum(wq.edge_weight[f] for f in cls), total - n2, n2))
    rows.sort()
    return rows
