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

Both kinds are assembled by one face join.  Each spec keeps the cell grid
its validation built and reads its bounded faces off it, by center and
corner offsets: the octagons plus a square at each full 2 x 2 block that the
Euler count found, or the hexagons.  The join numbers the corners and
the sides by the inverses of two sorts.  An elementary cut crosses a bounded
face by entering through one side and leaving through the opposite one
(octagon a~a+4, square a~a+2, hexagon a~a+3), so the join also pairs
opposite sides, and the components of those pairs, found by the components
kernel, are the edge classes: no distance matrix, and nothing above O(cells)
but the two sorts.

Every edge gets a direction tag from its displacement: H, V, D+ or D- for
C4C8 (three of these for benzenoids).  Grouping the edge classes by tag gives
the direction partition, whose quotients are trees for both kinds (for
benzenoids: Chepoi, J. Chem. Inf. Comput. Sci. 36 (1996) 1169-1172), and
c4c8_report reads it with partition_rows' reader: one tree pass each, O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .core import Graph, GraphError, _components, build_graph
from .indices import CutRow, _quotient_cuts, indices_from_rows, partition_rows
from .quotient import CoarserPartition, validate_coarser
from .theta import ThetaPartition

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


def _find(keys, target) -> np.ndarray:
    """Position of each target among the sorted nonempty keys, -1 where it is absent."""
    at = np.minimum(np.searchsorted(keys, target), len(keys) - 1)
    return np.where(keys[at] == target, at, -1)


def _cell_components(keys, width: int, offsets) -> np.ndarray:
    """Component labels of sorted cell keys row * width + column joined at symmetric offsets."""
    target = (keys + np.unique([abs(di * width + dj) for di, dj in offsets])[:, None]).ravel()
    at = _find(keys, target)
    hit = at >= 0
    ends = np.stack([np.flatnonzero(hit) % len(keys), at[hit]], axis=1)
    return _components(len(keys), ends)[0]


def _check_cells(cells, neighbors, complement, faces, kind: str):
    """Require a nonempty, connected cell set without enclosed holes.

    Keys run in (i, j) order, and the kernel gives the first key label 0.
    Only cells fewer than n rows and columns from the first cell can be
    reached from it, so only they are keyed, as small offsets from it.  A
    connected set has no hole iff its Euler characteristic, cells minus
    adjacent pairs plus faces (cells with every offset of a face present),
    is 1; that takes O(n log n) work whatever the set's extent.  Only a set
    with a hole pays for naming it: a hole is an empty cell of the bordered
    bounding box off the border's component; keys wrapping past a row end
    join border cells only.  Returns the cell grid: the first cell, every
    cell relative to it as an (n, 2) int64 array in key order, and each
    face's mask over them (for C4C8 the full 2 x 2 blocks, one per square).
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

    def present(di, dj):
        return _find(keys, keys + di * w + dj) >= 0

    pairs = sum(np.count_nonzero(present(*o)) for o in neighbors if o > (0, 0))  # each once
    masks = [np.all([present(*o) for o in face], axis=0) for face in faces]
    rows, cols = np.divmod(keys, w)
    if n - pairs + sum(np.count_nonzero(m) for m in masks) == 1:
        return start, np.stack([rows, cols - n], axis=1), masks
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
        cells = frozenset((index(i), index(j)) for i, j in cells)
        grid = _check_cells(cells, self._NEIGHBORS, self._COMPLEMENT, self._FACES, self._KIND)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_grid", grid)  # no field: ==, hash and repr go by cells


class C4C8Spec(_CellSpec):
    """Octagon cells of a C4C8 system on the truncated-square net."""

    _KIND, _NEIGHBORS, _COMPLEMENT = "C4C8", _SQUARE_NEIGHBORS, _SQUARE_COMPLEMENT
    _FACES = (((0, 1), (1, 0), (1, 1)),)  # 2 x 2 blocks

    def faces(self):
        """Origin (first cell's center); octagon and 2 x 2 block square centers off it."""
        (i, j), rel, (square,) = self._grid
        return (4 * i, 4 * j), [(4 * rel, OCTAGON_OFFSETS), (4 * rel[square] + 2, SQUARE_OFFSETS)]


class BenzenoidSpec(_CellSpec):
    """Hexagon cells (axial coordinates) of a benzenoid system."""

    _KIND, _NEIGHBORS, _COMPLEMENT = "benzenoid", _HEX_NEIGHBORS, _HEX_NEIGHBORS
    _FACES = (((1, 0), (0, 1)), ((1, 0), (1, -1)))  # triangles of mutual neighbours

    def faces(self):
        """Origin (first cell's center) and hexagon centers off it, with corner offsets."""
        (a, b), rel, _ = self._grid
        return (2 * a + b, 3 * b), [(rel @ ((2, 0), (1, 3)), HEXAGON_OFFSETS)]  # (2a + b, 3b)


def _assemble(spec):
    """Graph, direction tags, opposite-side pairs, origin and corners relative to it."""
    origin, groups = spec.faces()
    points, edges, pairs = _face_join(groups)
    x, y = points.T
    u, v = edges.T
    dx, dy = x[v] - x[u], y[v] - y[u]
    span = 2 * int(np.abs(dy).max(initial=0)) + 1
    _, first, step_of = np.unique(dx * span + dy, return_index=True, return_inverse=True)
    steps = zip(dx[first].tolist(), dy[first].tolist())
    names = np.array([direction_tag((0, 0), step) for step in steps])
    tags = tuple(names[step_of].tolist())
    g = build_graph(len(points), edges)
    return g, tags, pairs, origin, points


def _face_join(groups):
    """Number the corners and sides of the faces and pair opposite sides.

    groups holds (centers, corner offsets) per face size, the centers as
    an int64 array relative to the spec's origin, so any cell coordinates
    stay within int64.  All face corners go in one array, in face order;
    the corners are numbered by the inverse of one sort of their coordinate
    keys, and the sides (each corner with the next of its face) by the
    inverse of one sort of their corner-number pairs.  Returns the distinct
    corners in sorted coordinate order, the edges (face sides) as
    corner-index pairs in sorted order, and the (s, 2) opposite-side pairs:
    side c of each k-gon with side c + k/2.
    """
    corners, after, opposite, base = [], [], [], 0
    for centers, offsets in groups:
        at = base + np.arange(len(centers) * len(offsets)).reshape(len(centers), len(offsets))
        corners.append((centers[:, None] + offsets).reshape(-1, 2))
        after.append(np.roll(at, -1, axis=1).ravel())
        half = len(offsets) // 2
        opposite.append(np.stack([at[:, :half].ravel(), at[:, half:].ravel()], axis=1))
        base += at.size
    flat = np.concatenate(corners)
    (x0, y0), y1 = flat.min(axis=0), flat[:, 1].max()
    span = int(y1 - y0) + 1
    point_keys, corner = np.unique((flat[:, 0] - x0) * span + flat[:, 1] - y0, return_inverse=True)
    n = len(point_keys)
    a, b = corner, corner[np.concatenate(after)]
    edge_keys, side = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    points = np.stack([point_keys // span + x0, point_keys % span + y0], axis=1)
    edges = np.stack([edge_keys // n, edge_keys % n], axis=1)
    return points, edges, side[np.concatenate(opposite)]


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


def c4c8_cut_classes(edge_count: int, pairs) -> tuple[np.ndarray, int]:
    """Edge classes of a C4C8 or benzenoid system: its chains of opposite sides.

    pairs comes from the face join of either kind of spec.  The classes are
    the components of the graph on the edges whose pairs join them, found
    by the components kernel; returns (class label per edge, class count).
    A class is labelled by its smallest edge, so the labels number the
    classes in ThetaPartition order.  No distances, O(number of edges) work
    per kernel round.
    """
    return _components(edge_count, pairs)[:2]


def c4c8_theta_partition(spec: C4C8Spec | BenzenoidSpec):
    """A C4C8 or benzenoid system with its geometric edge-class partition.

    Returns (graph, tags, theta); theta equals theta_star_classes of the
    graph, found without a distance matrix.  build_c4c8 and build_benzenoid
    give the same graph and tags with vertex coordinates.
    """
    g, tags, pairs, _, _ = _assemble(spec)
    return g, tags, ThetaPartition._from_labels(*c4c8_cut_classes(g.edge_count, pairs))


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

    Returns (wiener, szeged, rows), one CutRow per edge class by class index,
    read off the direction partition by partition_rows' reader: the tree pass
    on each quotient tree, components on a quotient that is no tree.
    Benzenoid rows put the class anchor's side first, as partition_rows does;
    C4C8 rows keep the pass's side without quotient vertex 0 first.
    """
    g, tags, theta = c4c8_theta_partition(spec)
    cp = direction_partition(g, tags, theta)
    if isinstance(spec, BenzenoidSpec):
        rows = partition_rows(g, theta, cp)
    else:
        rows = sorted(CutRow(j, s, n1, n2) for j, s, n1, n2, _ in _quotient_cuts(g, theta, cp))
    return (*indices_from_rows(rows), rows)


def c4c8_indices(spec: C4C8Spec | BenzenoidSpec) -> tuple[int, int]:
    """Wiener and Szeged index of a C4C8 or benzenoid system in O(n) time."""
    return c4c8_report(spec)[:2]
