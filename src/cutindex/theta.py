"""Djokovic-Winkler relation, its transitive closure, and partial-cube recognition.

Two edges e1 = u1v1, e2 = u2v2 are related when

    d(u1,u2) + d(v1,v2) != d(u1,v2) + d(v1,u2).

The relation is reflexive and symmetric; its transitive closure partitions the
edge set into classes E_1, ..., E_r.  A connected graph is a partial cube
exactly when it is bipartite and the relation is already transitive; we
recognize that directly.  Each class grows as a search over the relation, one
vectorised relation row (one edge against all edges) per distinct cut vector
d(u1,.) - d(v1,.) among its members, as edges with equal cuts have equal
rows, and the search stops once every edge is assigned; a partial cube thus
takes one row per class.  Then cut along each class, read off a binary
coordinate per class into one read-only (n, ceil(r/64)) uint64 label matrix
(bit j % 64 of word j // 64 of row v is v's coordinate for class j), and
verify exhaustively, by row-blocked XOR and popcount, that Hamming distance
of the rows equals graph distance for every vertex pair.  Acceptance
therefore comes with a fully checked hypercube embedding, which the cut and
quotient rows read by bit column, and rejection with a machine-checkable
witness.

Classes come back as a ThetaPartition: a label array and one stable-argsort
grouping of it, which quotients and the direction partition read as
arrays; its classes tuple is derived only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _BLOCK_BYTES, Graph, GraphError, component_labels
from .core import components_after_removal, distance_matrix, is_bipartite


@dataclass(frozen=True, eq=False, repr=False)
class ThetaPartition:
    """Edge partition into transitive-closure classes.

    Classes are numbered in order of their smallest edge index.  The store
    is three read-only int64 arrays: labels[k] is edge k's class, order
    lists the edges class by class (a stable argsort of labels, so each
    class's edges ascend), and class j is order[bounds[j]:bounds[j + 1]].
    classes (sorted edge-index tuples) is derived on first use, so a pass
    that reads only the arrays builds no per-edge tuple.  The numbering is
    canonical, so == and hash go by the labels alone; repr shows classes.
    """

    labels: np.ndarray
    order: np.ndarray
    bounds: np.ndarray

    @property
    def class_count(self) -> int:
        return len(self.bounds) - 1

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        order, bounds = self.order.tolist(), self.bounds.tolist()
        return tuple(tuple(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash(self.labels.tobytes())

    def __repr__(self):
        return f"ThetaPartition(classes={self.classes!r})"

    @staticmethod
    def _from_labels(labels: np.ndarray, count: int) -> "ThetaPartition":
        """The partition of edges labelled 0..count-1 in order of their smallest edge."""
        labels = labels.astype(np.int64, copy=False)
        order = np.argsort(labels, kind="stable")
        bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(labels, minlength=count), out=bounds[1:])
        for array in (labels, order, bounds):
            array.flags.writeable = False
        return ThetaPartition(labels, order, bounds)


def theta_star_classes(g: Graph, d: np.ndarray | None = None) -> ThetaPartition:
    """Transitive-closure classes, grown one distinct relation row at a time.

    The relation row of an edge a = (ua, va) against every edge (u, v) is
    s[u] != s[v], where s = d[ua] - d[va] is a's cut vector, with entries -1,
    0 and 1: it is the module's four-distance test, and edges whose
    cut vectors agree up to sign have the same row.  Each class starts at the
    smallest unassigned edge and grows breadth-first, every unassigned edge
    that a member's row hits joining it, but a member whose cut vector the
    class has met before adds no row (_distinct_rows).  A class stops growing
    once no edge is left unassigned.

    The result is exact on any connected graph.  The edges of a partial
    cube's class share one cut, so there a class costs one row of O(m) array
    operations plus the cut vectors of its members; in general, one row per
    distinct cut vector.

    Class order is deterministic: by smallest contained edge index.
    """
    if d is None:
        d = distance_matrix(g)  # raises on disconnected input
    n, m = g.vertex_count, g.edge_count
    u, v = g.ends[:, 0], g.ends[:, 1]
    # Each distance's low byte as int8, a view of the int32 matrix that
    # distance_matrix returns.  From any vertex the ends of an edge are at
    # distances at most 1 apart, so the wrapping int8 difference of their low
    # bytes is the cut vector exactly.
    low = np.ascontiguousarray(d, dtype="<i4").view(np.int8)[:, ::4]
    block = max(1, _BLOCK_BYTES // max(n, m, 1))  # int8 cuts, bool rows
    label = np.full(m, -1, dtype=np.intp)
    left, count = m, 0
    for start in range(m):
        if not left:
            break
        if label[start] != -1:
            continue
        label[start] = count
        left -= 1
        members = [start]
        for hit in _distinct_rows(low, u, v, members, block):
            joined = np.flatnonzero(hit & (label == -1))
            label[joined] = count
            left -= len(joined)
            members.extend(joined.tolist())
            if not left:
                break
        count += 1
    return ThetaPartition._from_labels(label, count)


def _distinct_rows(low: np.ndarray, u: np.ndarray, v: np.ndarray, members: list, block: int):
    """Relation rows of a growing member list, one per distinct cut vector.

    low holds the distances' low bytes as int8.  Yields the first member's
    row, then, for each block of later members (the caller appends members
    between yields), the OR of the rows of the cut vectors not met before,
    if any.  A cut vector and its negative share a row and a key.
    """
    first = low[u[members[0]]] - low[v[members[0]]]
    yield first[u] != first[v]
    if len(members) == 1:
        return  # the first row hit nothing, so the class is complete
    seen, done = set(), 0
    while done < len(members):
        batch = members[done : done + block]
        cuts = low[u[batch]] - low[v[batch]]
        # Key each cut exactly, signed so that its first nonzero entry is
        # positive, by the packed bits of its positive and negative entries.
        signed = cuts * cuts[np.arange(len(batch)), (cuts != 0).argmax(axis=1), None]
        keys = np.hstack([np.packbits(signed > 0, axis=1), np.packbits(signed < 0, axis=1)])
        fresh = []
        for i, key in enumerate(map(bytes, keys)):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if done == 0:
            fresh.pop(0)  # the first member: its row came first
        done += len(batch)
        if fresh:
            rows = cuts[fresh]
            yield (rows[:, u] != rows[:, v]).any(axis=0)


@dataclass(frozen=True, eq=False)
class PartialCube:
    """A recognized partial cube: graph, classes, and verified cut labeling.

    labels, the embedding, is a read-only (n, ceil(r/64)) uint64 array: bit
    j % 64 of word j // 64 of row v is v's coordinate for class j, and 0
    marks the component of the cut along class j that contains the
    lower-numbered endpoint of the class's smallest-index edge, so that bit
    column alone gives the two sides of that cut.  == and hash go by the
    graph, the classes and the label bytes.
    """

    graph: Graph
    theta: ThetaPartition
    labels: np.ndarray

    @property
    def dimension(self) -> int:
        return self.theta.class_count

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = (self.graph, self.theta) == (other.graph, other.theta)
        return same and np.array_equal(self.labels, other.labels)

    def __hash__(self):
        return hash((self.graph, self.theta, self.labels.tobytes()))


@dataclass(frozen=True)
class RecognitionWitness:
    """Evidence that a graph is not a partial cube.

    kind is one of:
      - "odd_cycle": odd_cycle closes an odd cycle, so the graph is not bipartite;
      - "bad_class_cut": removing class_edges leaves component_count != 2 components;
      - "hamming_violation": the canonical cut labeling gives the pair a Hamming
        distance different from its graph distance.
    """

    kind: str
    odd_cycle: tuple[int, ...] | None = None
    class_edges: tuple[int, ...] | None = None
    component_count: int | None = None
    pair: tuple[int, int] | None = None

    def verify(self, g: Graph) -> bool:
        """Re-check the witness against g from definitions."""
        if self.kind == "odd_cycle":
            cycle = self.odd_cycle
            if cycle is None or len(cycle) % 2 == 0 or len(cycle) < 3:
                return False
            pairs = {(min(u, v), max(u, v)) for u, v in g.edges}
            closed = list(cycle) + [cycle[0]]
            return all(
                (min(a, b), max(a, b)) in pairs for a, b in zip(closed, closed[1:])
            )
        if self.kind == "bad_class_cut":
            if self.class_edges is None:
                return False
            theta = theta_star_classes(g)
            if tuple(sorted(self.class_edges)) not in theta.classes:
                return False
            count = len(components_after_removal(g, self.class_edges))
            return count == self.component_count and count != 2
        if self.kind == "hamming_violation":
            pair = self.pair
            if pair is None or len(pair) != 2:
                return False
            if not all(isinstance(x, int) and 0 <= x < g.vertex_count for x in pair):
                return False
            d = distance_matrix(g)
            labels = _cut_labelling(g, theta_star_classes(g, d))
            if isinstance(labels, RecognitionWitness):
                return False
            u, v = pair
            return int(np.bitwise_count(labels[u] ^ labels[v]).sum()) != int(d[u, v])
        return False


def _cut_labelling(g: Graph, theta: ThetaPartition):
    """Canonical per-vertex coordinates from the class cuts, as PartialCube.labels.

    Class j's bit is set on the side of its cut away from the lower endpoint
    of the class's smallest edge.  When some class cut does not leave exactly
    two components, no labelling is defined and the first such class comes
    back as a "bad_class_cut" RecognitionWitness instead.
    """
    labels = np.zeros((g.vertex_count, -(-theta.class_count // 64)), dtype=np.uint64)
    bounds = theta.bounds.tolist()
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        cls = theta.order[lo:hi]
        comp, count = component_labels(g, cls)
        if count != 2:
            return RecognitionWitness(
                kind="bad_class_cut", class_edges=tuple(cls.tolist()), component_count=count
            )
        labels[comp != comp[g.ends[cls[0]].min()], j >> 6] |= np.uint64(1 << (j & 63))
    labels.flags.writeable = False
    return labels


def recognize_partial_cube(g: Graph, d: np.ndarray | None = None):
    """Recognize g as a partial cube, or reject with a witness.

    Returns a PartialCube whose labeling has been verified exhaustively
    (every class cut two-sided, every vertex pair's Hamming distance equal to
    its graph distance), or a RecognitionWitness.  Disconnected or empty
    input is an error, not a rejection.  d, if given, is g's distance matrix.

    Once every class cut is two-sided, the Hamming check cannot fail.  In a
    connected bipartite graph an edge xy splits V into W_xy and W_yx (the
    vertices closer to x, and to y), and the edges Theta-related to xy are
    F_xy, those between the two.  Let class C leave two components.  Each xy
    in C has F_xy within C, so each component lies in W_xy or in W_yx, both
    nonempty: the components are W_xy and W_yx.  So all of C gives one split,
    C = F_xy, Theta is transitive, g is a partial cube (Winkler, Discrete
    Appl. Math. 7 (1984) 221-225) and the cut labels embed it isometrically.
    The check stays: acceptance rests on what it checks, not on this proof.
    """
    if g.vertex_count == 0:
        raise GraphError("empty graph")
    if d is None:
        d = distance_matrix(g)  # raises on disconnected input

    _, odd = is_bipartite(g)
    if odd is not None:
        return RecognitionWitness(kind="odd_cycle", odd_cycle=tuple(odd))

    theta = theta_star_classes(g, d)
    labels = _cut_labelling(g, theta)
    if isinstance(labels, RecognitionWitness):
        return labels

    bad = _hamming_mismatch(labels, d)
    if bad is not None:
        return RecognitionWitness(kind="hamming_violation", pair=bad)

    return PartialCube(graph=g, theta=theta, labels=labels)


def _hamming_mismatch(labels: np.ndarray, d: np.ndarray):
    """First vertex pair whose label Hamming distance differs from d, if any.

    labels is an (n, words) uint64 label matrix.  Pairs are scanned in
    row-major order, and each block of rows is compared against the same
    rows of d, so no n x n temporary is built.
    """
    n, words = labels.shape
    rows = max(1, _BLOCK_BYTES // (8 * max(1, n * words)))
    for lo in range(0, n, rows):
        block = labels[lo : lo + rows, None, :] ^ labels[None, :, :]
        ham = np.bitwise_count(block).sum(axis=2, dtype=np.int64)
        bad = np.flatnonzero(ham != d[lo : lo + rows])
        if len(bad):
            u, v = divmod(int(bad[0]), n)
            return lo + u, v
    return None
