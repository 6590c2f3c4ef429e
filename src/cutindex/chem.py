"""C4C8 and benzenoid system generators with the linear-time index pipeline.

A C4C8 system is modeled by its set of octagon cells on the truncated-square
(4.8.8) net: cell (i,j) is the octagon centered at (4i, 4j) with vertices at
the eight offsets (+-1,+-2), (+-2,+-1).  Side-adjacent octagons share an
axis-parallel edge; the square faces of the net appear automatically between
four mutually adjacent octagons.  Cell sets must be connected under side
adjacency and must not enclose holes: a system is the full interior of its
boundary cycle, so a cell set with an interior gap describes no such system
(and the tree-quotient structure below genuinely fails on it).

Benzenoid systems are modeled the same way on the hexagonal net, with cell
(a,b) centered at (2a+b, 3b) in a stretched integer embedding.

Every edge gets a direction tag from its displacement: H, V, D+ or D- for
C4C8 (three of these for benzenoids).  Grouping the edge classes by tag gives
the direction partition, whose quotients for C4C8 systems are trees; the
index pipeline builds those weighted trees straight from the cell geometry
(edge classes come from walking elementary cuts, never from a distance
matrix) and evaluates them with the linear tree pass, so the whole run is
O(n).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Graph, GraphError, build_graph
from .indices import VertexEdgeWeightedGraph, indices_from_rows
from .quotient import CoarserPartition, quotient_by_edge_classes, validate_coarser
from .theta import ThetaPartition
from .treedp import tree_cut_rows

OCTAGON_OFFSETS = ((2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1))
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


def _normalize_cells(cells) -> frozenset[tuple[int, int]]:
    out = set()
    for c in cells:
        i, j = c
        out.add((int(i), int(j)))
    return frozenset(out)


def _check_cells(cells, neighbors, complement, kind: str) -> None:
    """Require a nonempty, connected cell set without enclosed holes."""
    if not cells:
        raise GraphError(f"{kind} system needs at least one cell")
    start = min(cells)
    seen = {start}
    queue = deque([start])
    while queue:
        i, j = queue.popleft()
        for di, dj in neighbors:
            nb = (i + di, j + dj)
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if seen != cells:
        missing = min(cells - seen)
        raise GraphError(f"disconnected cells: {missing} unreachable from {start}")

    # Flood the complement inward from outside the bounding box; an absent
    # cell the flood cannot reach is enclosed by the system.
    lo_i = min(i for i, _ in cells) - 1
    hi_i = max(i for i, _ in cells) + 1
    lo_j = min(j for _, j in cells) - 1
    hi_j = max(j for _, j in cells) + 1
    outside = {(lo_i, lo_j)}
    queue = deque(outside)
    while queue:
        i, j = queue.popleft()
        for di, dj in complement:
            nb = (i + di, j + dj)
            ni, nj = nb
            if lo_i <= ni <= hi_i and lo_j <= nj <= hi_j and nb not in cells and nb not in outside:
                outside.add(nb)
                queue.append(nb)
    for i in range(lo_i, hi_i + 1):
        for j in range(lo_j, hi_j + 1):
            if (i, j) not in cells and (i, j) not in outside:
                raise GraphError(f"cell set encloses a hole at {(i, j)}; not a bounded system")


@dataclass(frozen=True)
class C4C8Spec:
    """Octagon cells of a C4C8 system on the truncated-square net."""

    cells: frozenset[tuple[int, int]]

    def __init__(self, cells):
        object.__setattr__(self, "cells", _normalize_cells(cells))

    def validate(self) -> None:
        _check_cells(self.cells, _SQUARE_NEIGHBORS, _SQUARE_COMPLEMENT, "C4C8")


@dataclass(frozen=True)
class BenzenoidSpec:
    """Hexagon cells (axial coordinates) of a benzenoid system."""

    cells: frozenset[tuple[int, int]]

    def __init__(self, cells):
        object.__setattr__(self, "cells", _normalize_cells(cells))

    def validate(self) -> None:
        _check_cells(self.cells, _HEX_NEIGHBORS, _HEX_NEIGHBORS, "benzenoid")


def _assemble(cells, center_of, offsets):
    """Deduplicate cell boundary vertices/edges into a Graph plus geometry."""
    edge_pairs: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for cell in cells:
        cx, cy = center_of(cell)
        pts = [(cx + ox, cy + oy) for ox, oy in offsets]
        for a in range(len(pts)):
            p, q = pts[a], pts[(a + 1) % len(pts)]
            edge_pairs.add((p, q) if p < q else (q, p))
    coords = sorted({p for pair in edge_pairs for p in pair})
    vid = {p: ix for ix, p in enumerate(coords)}
    pairs = sorted(edge_pairs)
    g = build_graph(len(coords), [(vid[p], vid[q]) for p, q in pairs])
    tags = tuple(direction_tag(p, q) for p, q in pairs)
    edge_index = {pair: k for k, pair in enumerate(pairs)}
    return g, tags, tuple(coords), edge_index


def _octagon_center(cell):
    return 4 * cell[0], 4 * cell[1]


def _hexagon_center(cell):
    a, b = cell
    return 2 * a + b, 3 * b


def build_c4c8(spec: C4C8Spec):
    """Graph, per-edge direction tags and vertex coordinates of a C4C8 system."""
    spec.validate()
    g, tags, coords, _ = _assemble(spec.cells, _octagon_center, OCTAGON_OFFSETS)
    return g, tags, coords


def build_benzenoid(spec: BenzenoidSpec):
    """Graph, per-edge direction tags and vertex coordinates of a benzenoid."""
    spec.validate()
    g, tags, coords, _ = _assemble(spec.cells, _hexagon_center, HEXAGON_OFFSETS)
    return g, tags, coords


# Edges of octagon (i,j) by role, as canonical coordinate pairs.


def _h_bottom(i, j):
    return ((4 * i - 1, 4 * j - 2), (4 * i + 1, 4 * j - 2))


def _h_top(i, j):
    return ((4 * i - 1, 4 * j + 2), (4 * i + 1, 4 * j + 2))


def _v_left(i, j):
    return ((4 * i - 2, 4 * j - 1), (4 * i - 2, 4 * j + 1))


def _v_right(i, j):
    return ((4 * i + 2, 4 * j - 1), (4 * i + 2, 4 * j + 1))


def _d_sw(i, j):
    return ((4 * i - 2, 4 * j - 1), (4 * i - 1, 4 * j - 2))


def _d_ne(i, j):
    return ((4 * i + 1, 4 * j + 2), (4 * i + 2, 4 * j + 1))


def _d_nw(i, j):
    return ((4 * i - 2, 4 * j + 1), (4 * i - 1, 4 * j + 2))


def _d_se(i, j):
    return ((4 * i + 1, 4 * j - 2), (4 * i + 2, 4 * j - 1))


def _runs(values):
    """Maximal runs of consecutive integers in a sorted sequence."""
    runs = []
    start = prev = values[0]
    for x in values[1:]:
        if x != prev + 1:
            runs.append((start, prev))
            start = x
        prev = x
    runs.append((start, prev))
    return runs


def c4c8_cut_classes(spec: C4C8Spec, edge_index) -> list[list[int]]:
    """Edge classes of a C4C8 system by walking its elementary cuts.

    Each cut is a straight segment entering at one peripheral edge and
    leaving at the next: vertical segments cross the H edges of a maximal
    column run of cells, horizontal ones the V edges of a row run, and
    diagonal ones both parallel diagonal edges of every octagon along a
    diagonal chain, passing between consecutive chain octagons only through a
    fully surrounded (internal) square face.  Works purely on the cell set:
    no distances, O(number of cells).
    """
    cells = spec.cells
    classes: list[list[tuple]] = []

    by_col: dict[int, list[int]] = {}
    by_row: dict[int, list[int]] = {}
    for i, j in cells:
        by_col.setdefault(i, []).append(j)
        by_row.setdefault(j, []).append(i)

    for i, js in by_col.items():
        for j0, j1 in _runs(sorted(js)):
            cut = [_h_bottom(i, j0)] + [_h_top(i, j) for j in range(j0, j1 + 1)]
            classes.append(cut)
    for j, is_ in by_row.items():
        for i0, i1 in _runs(sorted(is_)):
            cut = [_v_left(i0, j)] + [_v_right(i, j) for i in range(i0, i1 + 1)]
            classes.append(cut)

    def linked(cell, step):
        # The cut continues from cell to cell+step only when the square face
        # between them is internal, i.e. all four octagons around it exist.
        i, j = cell
        di, dj = step
        return (
            cell in cells
            and (i + di, j + dj) in cells
            and (i + di, j) in cells
            and (i, j + dj) in cells
        )

    for step, near, far in (((1, 1), _d_sw, _d_ne), ((1, -1), _d_nw, _d_se)):
        back = (-step[0], -step[1])
        for cell in cells:
            if linked((cell[0] + back[0], cell[1] + back[1]), step):
                continue  # not a chain head
            cut = []
            cur = cell
            while True:
                cut.append(near(*cur))
                cut.append(far(*cur))
                if not linked(cur, step):
                    break
                cur = (cur[0] + step[0], cur[1] + step[1])
            classes.append(cut)

    return [[edge_index[pair] for pair in cut] for cut in classes]


def c4c8_theta_partition(spec: C4C8Spec):
    """Generate a C4C8 system together with its geometric edge-class partition."""
    spec.validate()
    g, tags, coords, edge_index = _assemble(spec.cells, _octagon_center, OCTAGON_OFFSETS)
    theta = ThetaPartition.from_classes(
        c4c8_cut_classes(spec, edge_index), g.edge_count
    )
    return g, tags, coords, theta


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


def _direction_quotient_trees(g, theta, cp):
    """Weighted quotient trees per direction group, with per-edge class map."""
    out = []
    for gi in range(cp.group_count):
        wq = quotient_by_edge_classes(g, theta, cp.groups[gi])
        q = wq.quotient
        if q.edge_count != q.vertex_count - 1:
            raise GraphError(
                f"direction quotient {gi} is not a tree"
                f" ({q.vertex_count} vertices, {q.edge_count} edges)"
            )
        out.append(wq)
    return out


def c4c8_report(spec: C4C8Spec):
    """Indices of a C4C8 system plus its per-class cut rows, all in O(n).

    Returns (wiener, szeged, rows): rows holds one CutRow per edge class,
    ordered by class index, each the row of one quotient-tree edge mapped
    back to the class it represents.
    """
    g, tags, _, theta = c4c8_theta_partition(spec)
    cp = direction_partition(g, tags, theta)
    rows = []
    for wq in _direction_quotient_trees(g, theta, cp):
        tree = VertexEdgeWeightedGraph(wq.quotient, wq.vertex_weight, wq.edge_weight)
        for row in tree_cut_rows(tree):
            (j,) = wq.class_map[row.class_index]
            rows.append(row._replace(class_index=j))
    rows.sort()
    wiener, szeged = indices_from_rows(rows)
    return wiener, szeged, rows


def c4c8_indices(spec: C4C8Spec) -> tuple[int, int]:
    """Wiener and Szeged index of a C4C8 system in O(n) time."""
    wiener, szeged, _ = c4c8_report(spec)
    return wiener, szeged


def reference_quotient_trees() -> tuple[VertexEdgeWeightedGraph, ...]:
    """The four weighted direction-quotient trees of a small worked example.

    A 28-vertex, 34-edge C4C8 system contracts along its four edge directions
    to these trees; they serve as exact regression fixtures for the weighted
    evaluators (indices 499/288/467/388 and 1497/960/1561/972, summing to
    1642 and 4990).
    """

    def tree(n, edges, w, w_edge):
        return VertexEdgeWeightedGraph(build_graph(n, edges), tuple(w), tuple(w_edge))

    star_path = tree(5, [(0, 2), (1, 2), (2, 3), (3, 4)], (4, 4, 8, 7, 5), (2, 2, 4, 3))
    path_3 = tree(3, [(0, 1), (1, 2)], (4, 12, 12), (2, 4))
    path_4a = tree(4, [(0, 1), (1, 2), (2, 3)], (8, 8, 7, 5), (4, 3, 3))
    path_4b = tree(4, [(0, 1), (1, 2), (2, 3)], (4, 10, 10, 4), (2, 3, 2))
    return star_path, path_3, path_4a, path_4b
