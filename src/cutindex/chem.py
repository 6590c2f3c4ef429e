"""C4C8 and benzenoid system generators with the direction-partition index pipeline.

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

Every edge gets a direction tag from the signs of its displacement: H, V,
D+ or D- for C4C8 (three of these for benzenoids).  The constructions hand
the tags out as an int8 array of codes, DIRECTIONS naming each code, so no
per-edge string is made.  Grouping the edge classes by tag gives the
direction partition, whose quotients are trees for both kinds (for
benzenoids: Chepoi, J. Chem. Inf. Comput. Sci. 36 (1996) 1169-1172), and
c4c8_report reads it with partition_rows' reader, one tree pass each, for
its per-class rows.

The indices alone need no face join (Crepnjak and Tratnik,
arXiv:1609.03856, for C4C8; Chepoi and Klavzar, J. Chem. Inf. Comput. Sci.
37 (1997) 752-755, for benzenoids).  c4c8_indices reads each direction's
quotient tree off the cell grid: the classes are maximal runs of cells,
and the parts left without the direction's edges are segments of the bands
between rows, found by merging the runs' intervals on each band.  The
paper's bound is linear; sorts of the cells and the tree pass's pointer
jumping (ceil(log2 2(r-1)) rounds for r runs) make it O(n log n) here.

Every input reaches a spec by one reader, _read_cells, and the spec keeps
only the cell grid its validation built; spec.cells is derived from it.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property
from operator import index

import numpy as np

from .core import Graph, GraphError, _components, build_graph, check_u64
from .indices import CutRow, _quotient_cuts, indices_from_rows, partition_rows
from .quotient import CoarserPartition
from .theta import ThetaPartition
from .treedp import _tree_totals

OCTAGON_OFFSETS = ((2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1))
SQUARE_OFFSETS = ((1, 0), (0, 1), (-1, 0), (0, -1))
HEXAGON_OFFSETS = ((0, 2), (1, 1), (1, -1), (0, -2), (-1, -1), (-1, 1))

_SQUARE_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_SQUARE_COMPLEMENT = _SQUARE_NEIGHBORS + ((1, 1), (1, -1), (-1, 1), (-1, -1))
_HEX_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

#: The name of each direction code: tags[k] is edge k's code, DIRECTIONS[tags[k]] its name.
DIRECTIONS = ("H", "V", "D+", "D-")


def _direction_codes(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The DIRECTIONS code of each displacement: H, V, D+ (slope +1) or D- (slope -1)."""
    code = np.full(len(dx), DIRECTIONS.index("D-"), dtype=np.int8)
    code[(dx > 0) == (dy > 0)] = DIRECTIONS.index("D+")
    code[dx == 0] = DIRECTIONS.index("V")
    code[dy == 0] = DIRECTIONS.index("H")
    return code


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


def _runs(major, minor, link=None):
    """(major, first minor, length) of each maximal run of the cells sorted by (major, minor).

    A run goes on from a cell to the next cell on its major at minor + 1,
    if link, when given, holds at the cell.  Coordinates are offsets within
    a cell set, far below 2**31.
    """
    order = np.argsort((major << 32) + minor, kind="stable")
    a, b = major[order], minor[order]
    go = (a[1:] == a[:-1]) & (b[1:] == b[:-1] + 1)
    if link is not None:
        go &= link[order[:-1]]
    start = np.flatnonzero(np.concatenate([[True], ~go]))
    return a[start], b[start], np.diff(start, append=len(a))


def _read_cells(cells) -> np.ndarray:
    """cells as an (n, 2) array: int64, or Python ints when a coordinate is past int64.

    An (n, 2) integer array whose dtype casts safely to int64 is read as
    int64 (a uint64 cast would wrap at 2**63); anything else is read pair by
    pair with operator.index, so a float or a string coordinate is a TypeError.
    """
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "iu" and cells.shape[1:] == (2,):
        if np.can_cast(cells.dtype, np.int64):
            return cells.astype(np.int64, copy=False)
    pairs = [(index(i), index(j)) for i, j in cells]
    try:
        return np.array(pairs, dtype=np.int64)
    except OverflowError:
        return np.array(pairs, dtype=object)


def _near_offsets(cells: np.ndarray, n: int):
    """The first cell, and the int64 offsets from it of the cells fewer than n rows and columns off.

    Only those cells are subtracted from the first, so no int64 difference wraps.
    """
    rows, cols = cells.T
    si = int(rows.min())
    sj = int(cols[rows == si].min())
    near = (rows < si + n) & (sj - n < cols) & (cols < sj + n)
    return (si, sj), (rows[near] - si).astype(np.int64), (cols[near] - sj).astype(np.int64)


def _check_cells(cells, neighbors, complement, faces, kind: str):
    """Require a nonempty, connected cell set without enclosed holes.

    cells is an (n, 2) array from _read_cells; a cell listed twice counts
    once.  Keys run in (i, j) order, and the kernel gives the first key
    label 0.  Only cells fewer than n rows and columns from the first cell
    can be reached from it, so only they are keyed, as small offsets from
    it.  A connected set has no hole iff its Euler characteristic, cells
    minus adjacent pairs plus faces (cells with every offset of a face
    present), is 1; that takes O(n log n) work whatever the set's extent.
    Only a set with a hole pays for naming it: a hole is an empty cell of
    the bordered bounding box off the border's component; keys wrapping
    past a row end join border cells only.  Returns the cell grid, a spec's
    only store: the first cell as Python ints, every cell relative to it as
    an (n, 2) int64 array in key order, and each face's mask over them (for
    C4C8 the full 2 x 2 blocks, one per square).
    """
    if not len(cells):
        raise GraphError(f"{kind} system needs at least one cell")
    n, w = len(cells), 2 * len(cells) + 1
    start, di, dj = _near_offsets(cells, n)
    keys = np.unique(di * w + dj + n)
    reach = _cell_components(keys, w, neighbors) == 0
    if len(di) < n or not reach.all():
        si, sj = start
        seen = {(si + k // w, sj + k % w - n) for k in keys[reach].tolist()}
        every = set(zip(*cells.T.tolist()))
        raise GraphError(f"disconnected cells: {min(every - seen)} unreachable from {start}")

    def present(di, dj):
        return _find(keys, keys + di * w + dj) >= 0

    pairs = sum(np.count_nonzero(present(*o)) for o in neighbors if o > (0, 0))  # each once
    masks = [np.all([present(*o) for o in face], axis=0) for face in faces]
    rows, cols = np.divmod(keys, w)
    if len(keys) - pairs + sum(np.count_nonzero(m) for m in masks) == 1:
        return start, np.stack([rows, cols - n], axis=1), masks
    lo, width = int(cols.min()) - 1, int(cols.max() - cols.min()) + 3
    box = np.arange((int(rows[-1]) + 3) * width)
    free = np.setdiff1d(box, (rows + 1) * width + cols - lo, assume_unique=True)
    outside = _cell_components(free, width, complement) == 0
    if not outside.all():
        r, c = divmod(int(free[outside.argmin()]), width)
        si, sj = start
        hole = (si + r - 1, sj + lo + c - n)
        raise GraphError(f"cell set encloses a hole at {hole}; not a bounded system")


class _CellSpec:
    """A validated cell set; subclasses give the net and its bounded faces.

    Cells are anything _read_cells reads, a cell listed twice counting once,
    and the spec keeps only the grid _check_cells returns.  cells, a
    frozenset of Python-int pairs, is derived from the grid on first use and
    filled in key order, so equal specs print equal reprs; ==, hash and repr
    go by it.  Instances are immutable.
    """

    def __init__(self, cells):
        net = self._NEIGHBORS, self._COMPLEMENT, self._FACES, self._KIND
        self.__dict__["_grid"] = _check_cells(_read_cells(cells), *net)

    @cached_property
    def cells(self) -> frozenset[tuple[int, int]]:
        (si, sj), rel, _ = self._grid
        return frozenset((si + i, sj + j) for i, j in rel.tolist())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self):
        return hash((self.cells,))

    def __repr__(self):
        return f"{type(self).__qualname__}(cells={self.cells!r})"


class C4C8Spec(_CellSpec):
    """Octagon cells of a C4C8 system on the truncated-square net."""

    _KIND, _NEIGHBORS, _COMPLEMENT = "C4C8", _SQUARE_NEIGHBORS, _SQUARE_COMPLEMENT
    _FACES = (((0, 1), (1, 0), (1, 1)),)  # 2 x 2 blocks

    def faces(self):
        """Origin (first cell's center); octagon and 2 x 2 block square centers off it."""
        (i, j), rel, (square,) = self._grid
        return (4 * i, 4 * j), [(4 * rel, OCTAGON_OFFSETS), (4 * rel[square] + 2, SQUARE_OFFSETS)]

    def _direction_runs(self):
        """The runs of H, V, D- and D+, each as _run_sums takes them.

        H and V: a run of k cells along a column or a row is a class of
        k + 1 edges.  Without them each octagon splits into two halves of
        four vertices; along a run neighbouring halves share a vertex, and
        across a band facing halves share an edge.  A band segment so holds
        k + 1 vertices per run in it plus two per column it covers (the
        intervals count each column twice).  D- and D+: a run of k cells
        along a diagonal over full 2 x 2 blocks is a class of 2k edges.  The
        halves alternate along a band, four vertices each and two shared
        with the next.  D+ is D- on (-i, j), where the block at (i, j)
        links (i + 1, j) to (i, j + 1).
        """
        _, rel, (square,) = self._grid
        i, j = rel.T
        width = 2 * len(i) + 1  # keys in (i, j) order, as |j| < n
        keys = i * width + j
        turned = np.zeros(len(i), bool)
        turned[np.searchsorted(keys, keys[square] + width)] = True
        out = []
        for a, b in ((i, j), (j, i)):
            band, b0, k = _runs(a, b)
            out.append((band, 2 * b0, 2 * b0 + 2 * k - 1, 0, k + 1, k + 1))
        for a, b, link in ((j - i, i, square), (j + i, -i, turned)):
            band, b0, k = _runs(a, b, link)
            out.append((band, 4 * b0, 4 * b0 + 4 * k - 1, 2, 2 * k, None))
        return out


class BenzenoidSpec(_CellSpec):
    """Hexagon cells (axial coordinates) of a benzenoid system."""

    _KIND, _NEIGHBORS, _COMPLEMENT = "benzenoid", _HEX_NEIGHBORS, _HEX_NEIGHBORS
    _FACES = (((1, 0), (0, 1)), ((1, 0), (1, -1)))  # triangles of mutual neighbours

    def faces(self):
        """Origin (first cell's center) and hexagon centers off it, with corner offsets."""
        (a, b), rel, _ = self._grid
        return (2 * a + b, 3 * b), [(rel @ ((2, 0), (1, 3)), HEXAGON_OFFSETS)]  # (2a + b, 3b)

    def _direction_runs(self):
        """The runs of the three directions, each as _run_sums takes them.

        A run of k cells along a in row b is a class of k + 1 vertical
        edges.  Without them the band between rows b and b + 1 is a zigzag
        path per segment, one vertex per x, and cell (a, b) covers x in
        [2a + b - 1, 2a + b + 1] on both of its bands.  The other directions
        are this one on (a, b) -> (-b, a + b), turned once and twice.
        """
        _, rel, _ = self._grid
        a, b = rel.T
        out = []
        for p, q in ((a, b), (-b, a + b), (-a - b, a)):
            band, p0, k = _runs(q, p)
            out.append((band, 2 * p0 + band - 1, 2 * p0 + band + 2 * k - 1, 0, k + 1, None))
        return out


def _assemble(spec):
    """Graph, direction codes, opposite-side pairs, origin and corners relative to it."""
    origin, groups = spec.faces()
    points, edges, pairs = _face_join(groups)
    x, y = points.T
    u, v = edges.T
    tags = _direction_codes(x[v] - x[u], y[v] - y[u])
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
    """Graph, direction codes and vertex coordinates of a cell system."""
    g, tags, _, (ox, oy), points = _assemble(spec)
    return g, tags, tuple((x + ox, y + oy) for x, y in points.tolist())


def build_c4c8(spec: C4C8Spec):
    """Graph, per-edge direction codes (see DIRECTIONS) and vertex coordinates of a C4C8 system."""
    return _build(spec)


def build_benzenoid(spec: BenzenoidSpec):
    """Graph, per-edge direction codes (see DIRECTIONS) and vertex coordinates of a benzenoid."""
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

    Returns (graph, tags, theta): tags holds each edge's DIRECTIONS code as
    an int8 array, and theta equals theta_star_classes of the graph, found
    without a distance matrix.  build_c4c8 and build_benzenoid give the same
    graph and tags with vertex coordinates.
    """
    g, tags, pairs, _, _ = _assemble(spec)
    return g, tags, ThetaPartition._from_labels(*c4c8_cut_classes(g.edge_count, pairs))


def direction_partition(g: Graph, tags, theta: ThetaPartition) -> CoarserPartition:
    """Group edge classes by direction code.

    tags holds each edge's DIRECTIONS code, as the constructions give them;
    anything else is a GraphError.  Every class must be direction-pure (all
    its edges share one code); a mixed class means the input was not
    generated by this module's constructions.  A class is pure when its
    smallest and largest codes agree, read off theta's grouping.  Groups are
    ordered by smallest contained class index.
    """
    if len(tags) != g.edge_count:
        raise GraphError("one direction tag per edge required")
    codes = np.asarray(tags)
    ints = codes.dtype.kind in "iu"
    bad = np.flatnonzero((codes < 0) | (codes >= len(DIRECTIONS))) if ints else range(len(codes))
    if len(bad):
        k = int(bad[0])
        raise GraphError(f"edge {k}: direction tag {codes[k].item()!r} is not a DIRECTIONS code")
    if not theta.class_count:
        return CoarserPartition(())
    by_class = codes[theta.order]
    starts = theta.bounds[:-1]
    code = np.minimum.reduceat(by_class, starts)
    mixed = np.flatnonzero(code != np.maximum.reduceat(by_class, starts))
    if len(mixed):
        j = int(mixed[0])
        seen = sorted({DIRECTIONS[c] for c in by_class[theta.bounds[j] : theta.bounds[j + 1]].tolist()})
        raise GraphError(f"class {j} mixes directions {seen}; not an elementary cut")
    classes = np.argsort(code, kind="stable")
    groups = np.split(classes, np.flatnonzero(np.diff(code[classes])) + 1)
    return CoarserPartition(tuple(sorted(tuple(js.tolist()) for js in groups)))


def c4c8_report(spec: C4C8Spec | BenzenoidSpec):
    """Indices of a C4C8 or benzenoid system plus its per-class cut rows, in O(n log n).

    Returns (wiener, szeged, rows), one CutRow per edge class by class index,
    read off the direction partition of the face join's system by
    partition_rows' reader: the tree pass on each quotient tree, components
    on a quotient that is no tree.  c4c8_indices gives the same indices
    from runs of cells, without building the system.
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


def _run_sums(band, lo, hi, shift, size, extra):
    """(Wiener, Szeged) parts of one direction from its quotient tree, as Python ints.

    Run r is one edge class of size[r] edges.  Its two sides lie on bands
    band[r] and band[r] - 1, as the intervals [lo, hi] and [lo + shift,
    hi + shift].  The intervals of one band that share a point join into a
    segment, a quotient node holding e - s + 1 vertices for the segment
    [s, e], plus the extra of each interval when extra is given.  Run r is
    the tree edge between the nodes of its two sides.
    """
    r = len(band)
    lo, hi = np.concatenate([lo, lo + shift]), np.concatenate([hi, hi + shift])
    base = np.concatenate([band, band - 1]) * (int(hi.max() - lo.min()) + 2) - lo.min()
    start, end = base + lo, base + hi  # a band's keys end below the next band's
    order = np.argsort(start, kind="stable")
    start, end = start[order], np.maximum.accumulate(end[order])
    new = np.concatenate([[True], start[1:] > end[:-1]])
    first = np.flatnonzero(new)
    weight = end[np.append(first[1:], 2 * r) - 1] - start[first] + 1
    if extra is not None:
        weight += np.add.reduceat(np.concatenate([extra, extra])[order], first)
    node = np.empty(2 * r, np.int64)
    node[order] = np.cumsum(new) - 1
    tree = build_graph(len(first), np.stack([node[:r], node[r:]], axis=1))
    return _tree_totals(tree, weight, size)


def c4c8_indices(spec: C4C8Spec | BenzenoidSpec) -> tuple[int, int]:
    """Wiener and Szeged index of a C4C8 or benzenoid system, from runs of its cells.

    No graph of the system is built.  Each direction's edge classes are
    maximal runs of cells, read off the spec's cell grid, and the components
    left without that direction's edges are segments of bands between rows
    of cells; segments and runs are the nodes and edges of the direction's
    quotient tree, which one tree pass reads.  Both totals are checked as
    indices_from_rows checks them, the Wiener index first.  Sorts and the
    tree pass's pointer jumping make it O(n log n) for n cells; the
    paper's bound is linear.
    """
    wiener = szeged = 0
    for runs in spec._direction_runs():
        w, s = _run_sums(*runs)
        wiener, szeged = wiener + w, szeged + s
    return check_u64(wiener, "Wiener index"), check_u64(szeged, "Szeged index")
