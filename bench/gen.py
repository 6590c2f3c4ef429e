"""Seeded instance generators.

Each generator takes a ``random.Random`` and returns input in the formats of
``cutindex.files``, with the facts the oracle needs kept beside it (cells,
tree parents and weights).  Vertex ids and edge order are shuffled, so no
run sees a graph in the order it was built.  The same seed gives
byte-identical files: only ``random.Random`` seeded with a string is used,
and nothing depends on hash order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def rng_for(seed: int, *tags) -> random.Random:
    """Independent stream per (seed, instance tag), stable across Python versions."""
    return random.Random(":".join(map(str, (seed,) + tags)))


def graph_text(n: int, edges, vertex_weights=None, edge_weights=None) -> str:
    lines = [f"p {n} {len(edges)}"]
    lines += [f"e {u} {v}" for u, v in edges]
    if vertex_weights is not None:
        lines += [f"wv {v} {w}" for v, w in enumerate(vertex_weights) if w != 1]
    if edge_weights is not None:
        lines += [f"we {k} {w}" for k, w in enumerate(edge_weights) if w != 1]
    return "\n".join(lines) + "\n"


def cell_text(kind: str, cells) -> str:
    return f"t {kind}\n" + "".join(f"c {i} {j}\n" for i, j in cells)


def _relabel(n: int, edges, rng: random.Random):
    """Random vertex permutation, edge orientation and edge order.

    Returns (new edges, perm, order): vertex v becomes perm[v], and new edge
    k is input edge order[k].
    """
    perm = list(range(n))
    rng.shuffle(perm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    out = []
    for k in order:
        u, v = perm[edges[k][0]], perm[edges[k][1]]
        out.append((u, v) if rng.random() < 0.5 else (v, u))
    return out, perm, order


def hypercube_edges(d: int):
    return [(u, u | 1 << b) for u in range(1 << d) for b in range(d) if not u >> b & 1]


def hypercube(d: int, rng: random.Random) -> str:
    """Q_d with relabelled vertices and shuffled edges."""
    edges, _, _ = _relabel(1 << d, hypercube_edges(d), rng)
    return graph_text(1 << d, edges)


def hypercube_near_miss(d: int, rng: random.Random) -> str:
    """Q_d plus one edge between two vertices at odd Hamming distance >= 3.

    The result stays bipartite but is never a partial cube: Q_d already has
    the largest edge count, (n/2)*log2(n), that a partial cube on n vertices
    can have.
    """
    u = rng.randrange(1 << d)
    flips = rng.sample(range(d), rng.choice(range(3, d + 1, 2)))
    v = u ^ sum(1 << b for b in flips)
    edges, _, _ = _relabel(1 << d, hypercube_edges(d) + [(u, v)], rng)
    return graph_text(1 << d, edges)


def block(width: int, height: int):
    """Full block of cells: a square for C4C8, a parallelogram for benzenoids."""
    return [(i, j) for j in range(height) for i in range(width)]


def row_convex(rows: int, length: int, shifts, rng: random.Random):
    """Rows of ``length`` consecutive cells, each row shifted by a random step.

    Every row is one contiguous run that overlaps the previous row, so the
    cell set is connected and encloses no hole.  With shifts (0, -1) on the
    hexagonal net and (-1, 1) on the octagonal net, consecutive rows share the
    same number of edges whatever the steps, so vertex and edge counts depend
    only on ``rows`` and ``length``; the seed changes the shape, not the size.
    """
    cells = []
    start = 0
    for j in range(rows):
        if j:
            start += rng.choice(shifts)
        cells.extend((start + i, j) for i in range(length))
    rng.shuffle(cells)
    return cells


@dataclass(frozen=True)
class Tree:
    """A tree with parent[v] < v for every v > 0, and integer weights.

    edge_weight[v - 1] belongs to the edge from v to parent[v].
    """

    parent: tuple[int, ...]
    vertex_weight: tuple[int, ...]
    edge_weight: tuple[int, ...]

    def text(self, rng: random.Random) -> str:
        n = len(self.parent)
        edges, perm, order = _relabel(n, [(v, self.parent[v]) for v in range(1, n)], rng)
        vw = [0] * n
        for v, w in enumerate(self.vertex_weight):
            vw[perm[v]] = w
        ew = [self.edge_weight[k] for k in order]
        return graph_text(n, edges, vw, ew)


def random_tree(n: int, rng: random.Random, max_weight: int = 9) -> Tree:
    """Random recursive tree with vertex and edge weights in [1, max_weight]."""
    return Tree(
        parent=(-1,) + tuple(rng.randrange(v) for v in range(1, n)),
        vertex_weight=tuple(rng.randint(1, max_weight) for _ in range(n)),
        edge_weight=tuple(rng.randint(1, max_weight) for _ in range(n - 1)),
    )


def path(n: int) -> Tree:
    """Unit-weight path; Tree.text relabels it."""
    return Tree(tuple(range(-1, n - 1)), (1,) * n, (1,) * (n - 1))
