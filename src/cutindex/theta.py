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
coordinate per class, and verify exhaustively with a row-blocked array
comparison that Hamming distance of the coordinates equals graph distance
for every vertex pair.  Acceptance therefore comes with a fully checked
hypercube embedding, and rejection with a machine-checkable witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Graph,
    GraphError,
    component_labels,
    components_after_removal,
    distance_matrix,
    is_bipartite,
)

#: The isometry check compares label Hamming distances with the distance
#: matrix in row blocks of at most this many (vertex pair, label word) cells.
_HAMMING_BLOCK_CELLS = 1 << 16

#: Theta* closure takes its members' cut vectors, and evaluates their relation
#: rows, in blocks of at most this many (member, vertex or edge) cells.
_THETA_BLOCK_CELLS = 1 << 18


def theta_related(d: np.ndarray, e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """Test the relation for two edges given the distance matrix of their graph."""
    u1, v1 = e1
    u2, v2 = e2
    return int(d[u1, u2]) + int(d[v1, v2]) != int(d[u1, v2]) + int(d[v1, u2])


@dataclass(frozen=True)
class ThetaPartition:
    """Edge partition into transitive-closure classes.

    classes are sorted edge-index tuples, ordered by smallest contained edge
    index; class_of maps edge index -> class index.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @staticmethod
    def from_classes(classes, edge_count: int) -> "ThetaPartition":
        """Canonicalize and validate a list of edge-index sets as a partition."""
        normalized = [tuple(sorted(c)) for c in classes]
        if not all(normalized):
            raise GraphError("empty edge class")
        normalized.sort(key=lambda c: c[0])
        class_of = [-1] * edge_count
        for j, cls in enumerate(normalized):
            for k in cls:
                if not 0 <= k < edge_count:
                    raise GraphError(f"edge index {k} out of range [0,{edge_count})")
                if class_of[k] != -1:
                    raise GraphError(f"edge {k} appears in two classes")
                class_of[k] = j
        missing = [k for k, j in enumerate(class_of) if j == -1]
        if missing:
            raise GraphError(f"edge {missing[0]} not covered by any class")
        return ThetaPartition(tuple(normalized), tuple(class_of))

    @staticmethod
    def _from_labels(class_of: np.ndarray, count: int) -> "ThetaPartition":
        """The partition of edges labelled 0..count-1 in order of their smallest edge."""
        order = np.argsort(class_of, kind="stable").tolist()
        bounds = np.cumsum(np.bincount(class_of, minlength=count)).tolist()
        classes = tuple(tuple(order[lo:hi]) for lo, hi in zip([0] + bounds, bounds))
        return ThetaPartition(classes, tuple(class_of.tolist()))


def theta_star_classes(g: Graph, d: np.ndarray | None = None) -> ThetaPartition:
    """Transitive-closure classes, grown one distinct relation row at a time.

    The relation row of an edge a = (ua, va) against every edge (u, v) is
    s[u] != s[v], where s = d[ua] - d[va] is a's cut vector, with entries -1,
    0 and 1: it is the four-distance test of theta_related, and edges whose
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
    block = max(1, _THETA_BLOCK_CELLS // max(n, m, 1))
    class_of = np.full(m, -1, dtype=np.intp)
    left, count = m, 0
    for start in range(m):
        if not left:
            break
        if class_of[start] != -1:
            continue
        class_of[start] = count
        left -= 1
        members = [start]
        for hit in _distinct_rows(low, u, v, members, block):
            joined = np.flatnonzero(hit & (class_of == -1))
            class_of[joined] = count
            left -= len(joined)
            members.extend(joined.tolist())
            if not left:
                break
        count += 1
    return ThetaPartition._from_labels(class_of, count)


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


@dataclass(frozen=True)
class PartialCube:
    """A recognized partial cube: graph, classes, and verified cut labeling.

    labels[v] is an r-bit integer; bit j is v's coordinate for class j, and 0
    marks the component of the cut along class j that contains the
    lower-numbered endpoint of the class's smallest-index edge, so bit j
    alone gives the two sides of that cut (see class_sides).
    """

    graph: Graph
    theta: ThetaPartition
    labels: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.theta.class_count


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
            if self.pair is None:
                return False
            d = distance_matrix(g)
            labels = _cut_labelling(g, theta_star_classes(g, d))
            if isinstance(labels, RecognitionWitness):
                return False
            u, v = self.pair
            return (labels[u] ^ labels[v]).bit_count() != int(d[u, v])
        return False


def _cut_labelling(g: Graph, theta: ThetaPartition):
    """Canonical per-vertex coordinates from the class cuts.

    labels[v] carries bit j for class j, set on the side of the cut away
    from the lower endpoint of the class's smallest edge.  When some class
    cut does not leave exactly two components, no labelling is defined and
    the first such class comes back as a "bad_class_cut" RecognitionWitness
    instead.
    """
    n = g.vertex_count
    labels = [0] * n
    for j, cls in enumerate(theta.classes):
        comp, count = component_labels(g, cls)
        if count != 2:
            return RecognitionWitness(
                kind="bad_class_cut", class_edges=cls, component_count=count
            )
        bit = 1 << j
        for x in np.flatnonzero(comp != comp[g.ends[cls[0]].min()]).tolist():
            labels[x] |= bit
    return labels


def recognize_partial_cube(g: Graph, d: np.ndarray | None = None):
    """Recognize g as a partial cube, or reject with a witness.

    Returns a PartialCube whose labeling has been verified exhaustively
    (every class cut two-sided, every vertex pair's Hamming distance equal to
    its graph distance), or a RecognitionWitness.  Disconnected or empty
    input is an error, not a rejection.  d, if given, is g's distance matrix.
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

    bad = _hamming_mismatch(labels, theta.class_count, d)
    if bad is not None:
        return RecognitionWitness(kind="hamming_violation", pair=bad)

    return PartialCube(graph=g, theta=theta, labels=tuple(labels))


def _hamming_mismatch(labels: list[int], r: int, d: np.ndarray):
    """First vertex pair whose label Hamming distance differs from d, if any.

    Pairs are scanned in row-major order.  Labels are split into ceil(r/64)
    uint64 words, and each block of rows is compared against the same rows
    of d, so no n x n temporary is built.
    """
    n = len(labels)
    words = max(1, -(-r // 64))
    packed = np.frombuffer(
        b"".join(x.to_bytes(8 * words, "little") for x in labels), dtype="<u8"
    ).reshape(n, words)
    rows = max(1, _HAMMING_BLOCK_CELLS // max(1, n * words))
    for lo in range(0, n, rows):
        block = packed[lo : lo + rows, None, :] ^ packed[None, :, :]
        ham = np.bitwise_count(block).sum(axis=2, dtype=np.int64)
        bad = np.flatnonzero(ham != d[lo : lo + rows])
        if len(bad):
            u, v = divmod(int(bad[0]), n)
            return lo + u, v
    return None


def class_sides(pc: PartialCube, class_index: int):
    """The two sides of the cut along one class, plus the class size.

    N1 is the side containing the lower-numbered endpoint of the class's
    smallest-index edge (bit class_index of the label is 0 there); N1 and N2
    partition the vertex set.
    """
    if not 0 <= class_index < pc.theta.class_count:
        raise GraphError(
            f"class index {class_index} out of range [0,{pc.theta.class_count})"
        )
    n2 = frozenset(v for v, x in enumerate(pc.labels) if x >> class_index & 1)
    n1 = frozenset(range(pc.graph.vertex_count)) - n2
    return n1, n2, len(pc.theta.classes[class_index])
