"""C4C8 and benzenoid system generators with the linear-time index pipeline.

A C4C8 system is modeled by its set of octagon cells on the truncated-square
(4.8.8) net: cell (i,j) is the octagon centered at (4i, 4j) with vertices at
the eight offsets (+-1,+-2), (+-2,+-1).  Side-adjacent octagons share an
axis-parallel edge; the square faces of the net appear automatically between
four mutually adjacent octagons.  Cell sets must be connected under side
adjacency and must not enclose holes: a system is the full interior of its
boundary cycle, so a cell set with an interior gap describes no such system
(and the tree-quotient structure below genuinely fails on it).  A spec is
validated when it is made, by the components kernel on the cell grid.

Benzenoid systems are modeled the same way on the hexagonal net, with cell
(a,b) centered at (2a+b, 3b) in a stretched integer embedding.

Both kinds are assembled by one face join.  Each spec lists its bounded
faces by center and corner offsets: the octagons plus every square all four
of whose octagons exist, or the hexagons.  An elementary cut crosses a bounded
face by entering through one side and leaving through the opposite one
(octagon a~a+4, square a~a+2, hexagon a~a+3), so the pass that numbers the
face sides also links opposite sides, and the chains of those links are the
edge classes: no distance matrix, O(cells) work.

Every edge gets a direction tag from its displacement: H, V, D+ or D- for
C4C8 (three of these for benzenoids).  Grouping the edge classes by tag gives
the direction partition, whose quotients are trees for both kinds (for
benzenoids: Chepoi, J. Chem. Inf. Comput. Sci. 36 (1996) 1169-1172), so
c4c8_report reads every class's row off the linear tree pass, in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Graph, GraphError, _components, bfs_distances, build_graph
from .indices import CutRow, VertexEdgeWeightedGraph, indices_from_rows
from .quotient import CoarserPartition, quotient_by_edge_classes, validate_coarser
from .theta import ThetaPartition
from .treedp import tree_cut_rows

OCTAGON_OFFSETS = ((2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1))
SQUARE_OFFSETS = ((1, 0), (0, 1), (-1, 0), (0, -1))
HEXAGON_OFFSETS = ((0, 2), (1, 1), (1, -1), (0, -2), (-1, -1), (-1, 1))

_SQUARE_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_SQUARE_COMPLEMENT = _SQUARE_NEIGHBORS + ((1, 1), (1, -1), (-1, 1), (-1, -1))
_HEX_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def direction_tag(p: tuple[int, int], q: tuple[int, int]) -> str:
    """Direction of the segment p-q: H, V, D+ (slope +1) or D- (slope -1)."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dy == 0:
        return "H"
    if dx == 0:
        return "V"
    return "D+" if dx * dy > 0 else "D-"


def _cell_components(keys, width: int, offsets) -> np.ndarray:
    """Component labels of sorted cell keys row * width + column joined at symmetric offsets."""
    target = (keys + np.unique([abs(di * width + dj) for di, dj in offsets])[:, None]).ravel()
    at = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
    hit = keys[at] == target
    ends = np.stack([np.flatnonzero(hit) % len(keys), at[hit]], axis=1)
    return _components(len(keys), ends)[0]


def _check_cells(cells, neighbors, complement, kind: str) -> None:
    """Require a nonempty, connected cell set without enclosed holes.

    Keys run in (i, j) order, and the kernel gives the first key label 0.
    Only cells fewer than n rows and columns from the first cell can be
    reached from it, so only they are keyed, as small offsets from it.  A hole
    is an empty cell of the bordered bounding box off the border's component;
    keys wrapping past a row end join border cells only.
    """
    if not cells:
        raise GraphError(f"{kind} system needs at least one cell")
    n, w = len(cells), 2 * len(cells) + 1
    start = si, sj = min(cells)
    keys = np.sort([(i - si) * w + j - sj + n for i, j in cells if i - si < n and abs(j - sj) < n])
    reach = _cell_components(keys, w, neighbors) == 0
    if len(keys) < n or not reach.all():
        seen = {(si + k // w, sj + k % w - n) for k in keys[reach].tolist()}
        raise GraphError(f"disconnected cells: {min(cells - seen)} unreachable from {start}")
    rows, cols = np.divmod(keys, w)
    lo, width = int(cols.min()) - 1, int(cols.max() - cols.min()) + 3
    box = np.arange((int(rows[-1]) + 3) * width)
    free = np.setdiff1d(box, (rows + 1) * width + cols - lo, assume_unique=True)
    outside = _cell_components(free, width, complement) == 0
    if not outside.all():
        r, c = divmod(int(free[outside.argmin()]), width)
        hole = (si + r - 1, sj + lo + c - n)
        raise GraphError(f"cell set encloses a hole at {hole}; not a bounded system")


@dataclass(frozen=True)
class _CellSpec:
    """A validated cell set; subclasses give the net and its bounded faces."""

    cells: frozenset[tuple[int, int]]

    def __init__(self, cells):
        cells = frozenset((int(i), int(j)) for i, j in cells)
        _check_cells(cells, self._NEIGHBORS, self._COMPLEMENT, self._KIND)
        object.__setattr__(self, "cells", cells)


class C4C8Spec(_CellSpec):
    """Octagon cells of a C4C8 system on the truncated-square net."""

    _KIND, _NEIGHBORS, _COMPLEMENT = "C4C8", _SQUARE_NEIGHBORS, _SQUARE_COMPLEMENT

    def faces(self):
        """(centers, corner offsets) of the octagons and of the squares they surround."""
        cells = self.cells
        squares = [
            (i, j) for i, j in cells
            if (i + 1, j) in cells and (i, j + 1) in cells and (i + 1, j + 1) in cells
        ]
        return [
            ([(4 * i, 4 * j) for i, j in cells], OCTAGON_OFFSETS),
            ([(4 * i + 2, 4 * j + 2) for i, j in squares], SQUARE_OFFSETS),
        ]


class BenzenoidSpec(_CellSpec):
    """Hexagon cells (axial coordinates) of a benzenoid system."""

    _KIND, _NEIGHBORS, _COMPLEMENT = "benzenoid", _HEX_NEIGHBORS, _HEX_NEIGHBORS

    def faces(self):
        """(centers, corner offsets) of the hexagons."""
        return [([(2 * a + b, 3 * b) for a, b in self.cells], HEXAGON_OFFSETS)]


def _assemble(spec):
    """Graph, direction tags, side links, origin and corners relative to it."""
    origin, points, edges, links = _face_join(spec.faces())
    x, y = points.T
    u, v = edges.T
    dx, dy = x[v] - x[u], y[v] - y[u]
    span = 2 * int(np.abs(dy).max(initial=0)) + 1
    _, first, step_of = np.unique(dx * span + dy, return_index=True, return_inverse=True)
    steps = zip(dx[first].tolist(), dy[first].tolist())
    names = np.array([direction_tag((0, 0), step) for step in steps])
    tags = tuple(names[step_of].tolist())
    g = build_graph(len(points), edges)
    return g, tags, links, origin, points


def _face_join(groups):
    """Number the corners and sides of the faces and link opposite sides.

    groups holds (centers, corner offsets) per face size.  Returns the first
    center as the origin, the distinct corners relative to it in sorted
    coordinate order, the edges (face sides) as corner-index pairs in sorted
    coordinate-pair order, and the links: side a of a k-gon links to the
    opposite side a + k/2, and links[e] holds the edges edge e links to, one
    per bounded face it lies on, -1 in an unused slot.  Relative points keep
    any cell coordinates within int64.
    """
    ox, oy = groups[0][0][0]
    faces = [
        np.asarray([(x - ox, y - oy) for x, y in centers], dtype=np.int64).reshape(-1, 1, 2)
        + np.asarray(offsets, dtype=np.int64)
        for centers, offsets in groups
    ]
    flat = np.concatenate([f.reshape(-1, 2) for f in faces])
    (x0, y0), y1 = flat.min(axis=0), flat[:, 1].max()
    span = int(y1 - y0) + 1
    keys = [(f[..., 0] - x0) * span + (f[..., 1] - y0) for f in faces]
    point_keys = np.unique(np.concatenate([k.ravel() for k in keys]))
    n = len(point_keys)
    side_keys = []
    for k in keys:
        a = np.searchsorted(point_keys, k)
        b = np.roll(a, -1, axis=1)
        side_keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    edge_keys = np.unique(np.concatenate([s.ravel() for s in side_keys]))
    sides = [np.searchsorted(edge_keys, s) for s in side_keys]

    near = np.concatenate([s[:, : s.shape[1] // 2].ravel() for s in sides])
    far = np.concatenate([s[:, s.shape[1] // 2 :].ravel() for s in sides])
    src, dst = np.concatenate([near, far]), np.concatenate([far, near])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    slot = np.zeros(len(src), dtype=np.intp)
    slot[1:] = src[1:] == src[:-1]
    links = np.full((len(edge_keys), 2), -1, dtype=np.intp)
    links[src, slot] = dst

    points = np.stack([point_keys // span + x0, point_keys % span + y0], axis=1)
    edges = np.stack([edge_keys // n, edge_keys % n], axis=1)
    return (ox, oy), points, edges, links


def _build(spec):
    """Graph, direction tags and vertex coordinates of a cell system."""
    g, tags, _, (ox, oy), points = _assemble(spec)
    return g, tags, tuple((x + ox, y + oy) for x, y in points.tolist())


def build_c4c8(spec: C4C8Spec):
    """Graph, per-edge direction tags and vertex coordinates of a C4C8 system."""
    return _build(spec)


def build_benzenoid(spec: BenzenoidSpec):
    """Graph, per-edge direction tags and vertex coordinates of a benzenoid."""
    return _build(spec)


def c4c8_cut_classes(links) -> tuple[np.ndarray, int]:
    """Edge classes of a C4C8 or benzenoid system: its chains of side links.

    links comes from the face join of either kind of spec.  The classes are
    the components of the graph on the edges whose links join them, found
    by the components kernel; returns (class label per edge, class count).
    A class is labelled by its smallest edge, so the labels number the
    classes in ThetaPartition order.  No distances, O(number of edges) work
    per kernel round.
    """
    src = np.repeat(np.arange(len(links)), 2)
    dst = links.ravel()
    once = dst > src  # each link is listed at both of its edges; unused slots hold -1
    labels, count, _ = _components(len(links), np.stack([src[once], dst[once]], axis=1))
    return labels, count


def c4c8_theta_partition(spec: C4C8Spec | BenzenoidSpec):
    """A C4C8 or benzenoid system with its geometric edge-class partition.

    Returns (graph, tags, theta); theta equals theta_star_classes of the
    graph, found without a distance matrix.  build_c4c8 and build_benzenoid
    give the same graph and tags with vertex coordinates.
    """
    g, tags, links, _, _ = _assemble(spec)
    labels, count = c4c8_cut_classes(links)
    order = np.argsort(labels, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(labels, minlength=count)).tolist()
    classes = tuple(tuple(order[lo:hi]) for lo, hi in zip([0] + bounds, bounds))
    return g, tags, ThetaPartition(classes, tuple(labels.tolist()))


def direction_partition(g: Graph, tags, theta: ThetaPartition) -> CoarserPartition:
    """Group edge classes by direction tag.

    Every class must be direction-pure (all its edges share one tag); a mixed
    class means the input was not generated by this module's constructions.
    Groups are ordered by smallest contained class index.
    """
    if len(tags) != g.edge_count:
        raise GraphError("one direction tag per edge required")
    by_tag: dict[str, list[int]] = {}
    for j, cls in enumerate(theta.classes):
        seen = {tags[k] for k in cls}
        if len(seen) != 1:
            raise GraphError(
                f"class {j} mixes directions {sorted(seen)}; not an elementary cut"
            )
        by_tag.setdefault(seen.pop(), []).append(j)
    groups = sorted(by_tag.values(), key=lambda js: js[0])
    return validate_coarser(theta, groups)


def c4c8_report(spec: C4C8Spec | BenzenoidSpec):
    """Indices of a C4C8 or benzenoid system plus its per-class cut rows, all in O(n).

    Returns (wiener, szeged, rows): rows holds one CutRow per edge class, by
    class index, each the tree pass's row of the quotient-tree edge standing
    for the class.  C4C8 rows keep the pass's side without vertex 0 first;
    benzenoid rows put the class anchor's side first, as partition_rows does.
    A quotient that is no tree, or not one edge per class, raises GraphError.
    """
    g, tags, theta = c4c8_theta_partition(spec)
    cp = direction_partition(g, tags, theta)
    anchor_first = isinstance(spec, BenzenoidSpec)
    rows = []
    for group in cp.groups:
        wq = quotient_by_edge_classes(g, theta, group)
        q = wq.quotient
        if len(wq.edge_class) != len(group):
            stand = list(wq.edge_class)
            raise GraphError(f"quotient edges stand for classes {stand}; expected one per class")
        depth = bfs_distances(q, 0) if anchor_first else None
        tree = VertexEdgeWeightedGraph(q, wq.vertex_weight, wq.edge_weight)
        for f, size, n1, n2 in tree_cut_rows(tree):
            j = wq.edge_class[f]
            # n2 is the side of the end of edge f nearer vertex 0
            if anchor_first and wq.class_anchors[j] == min(q.edges[f], key=depth.__getitem__):
                n1, n2 = n2, n1
            rows.append(CutRow(j, size, n1, n2))
    rows.sort()
    wiener, szeged = indices_from_rows(rows)
    return wiener, szeged, rows


def c4c8_indices(spec: C4C8Spec | BenzenoidSpec) -> tuple[int, int]:
    """Wiener and Szeged index of a C4C8 or benzenoid system in O(n) time."""
    wiener, szeged, _ = c4c8_report(spec)
    return wiener, szeged
