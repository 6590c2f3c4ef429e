"""Expected CLI output, computed without the code being timed.

* Hypercubes: W(Q_d) = d * 4^(d-1) and Sz(Q_d) = d * 2^(d-1) * 4^(d-1).
* Unit-weight paths: W = Sz = (n^3 - n) / 6.
* Weighted trees: subtree weight sums over the generator's parent array.
* Chemical systems: the graph is rebuilt from the cells with the embedding
  documented in ``cutindex.chem`` (vertices in sorted coordinate order,
  edges in sorted coordinate-pair order).  Edge classes come from joining
  opposite edges of every bounded face (hexagon a ~ a+3, octagon a ~ a+4,
  internal square a ~ a+2), a different algorithm from the program's cut
  walk and pairwise Theta test.  Cut sides come from SciPy all-pairs
  distances on systems of up to ``DISTANCE_LIMIT`` vertices, where W and Sz
  are also summed straight from the definitions and must agree with the cut
  sums; larger systems count each cut's sides with SciPy connected
  components.

Nothing here imports ``cutindex``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

OCTAGON_OFFSETS = ((2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1))
HEXAGON_OFFSETS = ((0, 2), (1, 1), (1, -1), (0, -2), (-1, -1), (-1, 1))
DISTANCE_LIMIT = 3000


class OracleError(AssertionError):
    """The oracle's own cross-checks disagree; the expected value is unknown."""


def hypercube_indices(d: int) -> tuple[int, int]:
    return d * 4 ** (d - 1), d * 2 ** (d - 1) * 4 ** (d - 1)


def path_indices(n: int) -> tuple[int, int]:
    w = (n**3 - n) // 6
    return w, w


def tree_indices(tree) -> tuple[int, int]:
    """Weighted W and Sz as sums of side products over the tree's edges."""
    side = list(tree.vertex_weight)
    total = sum(side)
    wiener = szeged = 0
    for v in range(len(side) - 1, 0, -1):
        product = side[v] * (total - side[v])
        wiener += product
        szeged += tree.edge_weight[v - 1] * product
        side[tree.parent[v]] += side[v]
    return wiener, szeged


def index_stdout(wiener: int, szeged: int, rows=None) -> str:
    """Text of ``cutindex index`` / ``tree-index`` for the given values."""
    lines = [f"wiener={wiener}", f"szeged={szeged}"]
    for j, size, n1, n2 in rows or ():
        lines.append(
            f"class={j} size={size} n1={n1} n2={n2}"
            f" wiener_term={n1 * n2} szeged_term={size * n1 * n2}"
        )
    return "\n".join(lines) + "\n"


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class ChemSystem:
    """Graph of a cell set with its edge classes and cut sides."""

    def __init__(self, kind: str, cells):
        cells = {(int(i), int(j)) for i, j in cells}
        if kind == "c4c8":
            offsets = OCTAGON_OFFSETS
            centers = {c: (4 * c[0], 4 * c[1]) for c in cells}
        elif kind == "benzenoid":
            offsets = HEXAGON_OFFSETS
            centers = {c: (2 * c[0] + c[1], 3 * c[1]) for c in cells}
        else:
            raise ValueError(f"unknown cell kind {kind!r}")
        faces = []
        for cx, cy in centers.values():
            pts = [(cx + ox, cy + oy) for ox, oy in offsets]
            faces.append([(pts[a], pts[(a + 1) % len(pts)]) for a in range(len(pts))])
        pairs = {(p, q) if p < q else (q, p) for face in faces for p, q in face}
        if kind == "c4c8":
            # The square at the north-east corner of an octagon is a bounded
            # face exactly when all four of its sides are edges.
            for cx, cy in centers.values():
                pts = [(cx + 1, cy + 2), (cx + 2, cy + 1), (cx + 3, cy + 2), (cx + 2, cy + 3)]
                square = [(pts[a], pts[(a + 1) % 4]) for a in range(4)]
                if all((min(p, q), max(p, q)) in pairs for p, q in square):
                    faces.append(square)
        coords = sorted({p for pair in pairs for p in pair})
        vid = {p: ix for ix, p in enumerate(coords)}
        ordered = sorted(pairs)
        eid = {pair: k for k, pair in enumerate(ordered)}
        self.n = len(coords)
        self.edges = np.array([(vid[p], vid[q]) for p, q in ordered], dtype=np.int64)

        uf = _UnionFind(len(ordered))
        for face in faces:
            ids = [eid[(min(p, q), max(p, q))] for p, q in face]
            half = len(ids) // 2
            for a in range(half):
                uf.union(ids[a], ids[a + half])
        groups: dict[int, list[int]] = {}
        for k in range(len(ordered)):
            groups.setdefault(uf.find(k), []).append(k)
        self.classes = sorted(groups.values(), key=lambda c: c[0])
        self._sides()

    def _adjacency(self, entry_data):
        """Symmetric adjacency; both entries of edge k hold entry_data[k] (nonzero)."""
        u, v = self.edges[:, 0], self.edges[:, 1]
        data = np.r_[entry_data, entry_data]
        return csr_matrix((data, (np.r_[u, v], np.r_[v, u])), shape=(self.n, self.n))

    def _sides(self) -> None:
        """Per class: (size, side of the anchor vertex, other side, side of vertex 0).

        The anchor is the lower-numbered endpoint of the class's
        smallest-index edge.
        """
        n = self.n
        self.sides = []
        if n <= DISTANCE_LIMIT:
            dist = shortest_path(self._adjacency(np.ones(len(self.edges))), unweighted=True)
            dist = dist.astype(np.int64)
            for cls in self.classes:
                a, b = self.edges[cls[0]]
                near_a = dist[:, a] < dist[:, b]
                n_a = int(near_a.sum())
                self.sides.append((len(cls), n_a, n - n_a, n_a if near_a[0] else n - n_a))
            self._check_against_distances(dist)
            return
        class_of = np.empty(len(self.edges), dtype=np.int64)
        for j, cls in enumerate(self.classes):
            class_of[cls] = j + 1
        adj = self._adjacency(class_of)
        for j, cls in enumerate(self.classes):
            keep = adj.data != j + 1
            kept_before = np.r_[0, np.cumsum(keep)]
            cut = csr_matrix(
                (adj.data[keep], adj.indices[keep], kept_before[adj.indptr]), shape=adj.shape)
            count, label = connected_components(cut, directed=False)
            if count != 2:
                raise OracleError(f"class {cls[0]} cut leaves {count} components")
            a = self.edges[cls[0], 0]
            n_a = int((label == label[a]).sum())
            self.sides.append((len(cls), n_a, n - n_a, n_a if label[0] == label[a] else n - n_a))

    def _check_against_distances(self, dist) -> None:
        wiener = int(dist.sum()) // 2
        szeged = 0
        for lo in range(0, len(self.edges), 256):
            u, v = self.edges[lo:lo + 256, 0], self.edges[lo:lo + 256, 1]
            du, dv = dist[:, u], dist[:, v]
            szeged += int(((du < dv).sum(axis=0) * (dv < du).sum(axis=0)).sum())
        if (wiener, szeged) != self.indices():
            raise OracleError(
                f"distance sums {(wiener, szeged)} differ from cut sums {self.indices()}"
            )

    def indices(self) -> tuple[int, int]:
        wiener = sum(n1 * n2 for _, n1, n2, _ in self.sides)
        szeged = sum(size * n1 * n2 for size, n1, n2, _ in self.sides)
        return wiener, szeged

    def anchor_rows(self):
        """(class, size, anchor side, other side): the partition route's table."""
        return [(j, size, n1, n2) for j, (size, n1, n2, _) in enumerate(self.sides)]

    def vertex0_rows(self):
        """(class, size, side without vertex 0, side with it): the C4C8 tree route's table."""
        return [
            (j, size, n1 + n2 - with0, with0)
            for j, (size, n1, n2, with0) in enumerate(self.sides)
        ]
