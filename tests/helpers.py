"""Shared instance builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np

import cutindex as ci
from cutindex.chem import HEXAGON_OFFSETS, OCTAGON_OFFSETS, SQUARE_OFFSETS


def run_under_1gib(*args):
    """Run the Python interpreter on args in a child limited to 1 GiB of address space."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
    )


def hypercube(n: int) -> ci.Graph:
    edges = []
    for v in range(2**n):
        for b in range(n):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    return ci.build_graph(2**n, edges)


def cycle(n: int) -> ci.Graph:
    return ci.build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> ci.Graph:
    return ci.build_graph(n, [(i, i + 1) for i in range(n - 1)])


def random_tree(rng, n: int) -> ci.Graph:
    """Random recursive tree with shuffled labels."""
    relabel = list(range(n))
    rng.shuffle(relabel)
    edges = []
    for v in range(1, n):
        p = rng.randrange(v)
        edges.append((relabel[p], relabel[v]))
    return ci.build_graph(n, edges)


def complete(n: int) -> ci.Graph:
    return ci.build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen() -> ci.Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return ci.build_graph(10, outer + spokes + inner)


def hypercube_near_miss(n: int, u: int, v: int) -> ci.Graph:
    """Q_n plus the edge u-v.

    With u, v at odd Hamming distance >= 3 the graph stays bipartite but is
    never a partial cube.
    """
    g = hypercube(n)
    return ci.build_graph(2**n, list(g.edges) + [(u, v)])


def relabelled(g: ci.Graph, rng) -> ci.Graph:
    """g with a random vertex permutation, edge order and edge orientation.

    The same shuffle as bench/gen.py gives its instances, so edges of one
    class point both ways and their cut vectors differ in sign.
    """
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = list(g.edges)
    rng.shuffle(edges)
    edges = [(perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a])
             for a, b in edges]
    return ci.build_graph(g.vertex_count, edges)


def theta_related(d: np.ndarray, e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """Test the relation for two edges given the distance matrix of their graph."""
    u1, v1 = e1
    u2, v2 = e2
    return int(d[u1, u2]) + int(d[v1, v2]) != int(d[u1, v2]) + int(d[v1, u2])


def direction_tag(p: tuple[int, int], q: tuple[int, int]) -> str:
    """Direction of the segment p-q: H, V, D+ (slope +1) or D- (slope -1)."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dy == 0:
        return "H"
    if dx == 0:
        return "V"
    return "D+" if dx * dy > 0 else "D-"


def pack_labels(labels, r: int) -> np.ndarray:
    """r-bit Python ints as an (n, ceil(r/64)) uint64 label matrix, bit j in word j // 64."""
    words = -(-r // 64)
    rows = [[x >> 64 * w & (1 << 64) - 1 for w in range(words)] for x in labels]
    return np.array(rows, dtype=np.uint64).reshape(len(labels), words)


def label_ints(pc: ci.PartialCube) -> list[int]:
    """pc.labels unpacked to one Python int per vertex, class j in bit j."""
    return [sum(int(x) << 64 * w for w, x in enumerate(row)) for row in pc.labels]


def class_sides(pc: ci.PartialCube, class_index: int):
    """The two sides of the cut along one class, plus the class size.

    N1 is the side containing the lower-numbered endpoint of the class's
    smallest-index edge (bit class_index of the label is 0 there); N1 and N2
    partition the vertex set.
    """
    if not 0 <= class_index < pc.theta.class_count:
        raise ci.GraphError(
            f"class index {class_index} out of range [0,{pc.theta.class_count})"
        )
    word, bit = divmod(class_index, 64)
    n2 = frozenset(np.flatnonzero(pc.labels[:, word] >> np.uint64(bit) & np.uint64(1)).tolist())
    n1 = frozenset(range(pc.graph.vertex_count)) - n2
    return n1, n2, len(pc.theta.classes[class_index])


def theta_closure_by_pairs(g: ci.Graph) -> tuple[tuple, tuple]:
    """Transitive closure of theta_related as (classes, class_of).

    Built from a scalar test of every edge pair and a plain union-find, so it
    shares no code with theta_star_classes.  Canonical form as in
    ThetaPartition: sorted classes ordered by smallest edge index.
    """
    d = ci.distance_matrix(g)
    m = g.edge_count
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a in range(m):
        for b in range(a + 1, m):
            if theta_related(d, g.edges[a], g.edges[b]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for k in range(m):
        groups.setdefault(find(k), []).append(k)
    classes = tuple(sorted((tuple(c) for c in groups.values()), key=lambda c: c[0]))
    class_of = [0] * m
    for j, cls in enumerate(classes):
        for k in cls:
            class_of[k] = j
    return classes, tuple(class_of)


def first_bad_edge_message(n: int, edges) -> str | None:
    """The GraphError text build_graph must give for edges, by a scalar loop.

    The first edge, in input order, that is out of range, a self-loop or a
    duplicate in either orientation is named; None when every edge is valid.
    """
    seen = set()
    for k, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {k} = ({u},{v}): endpoint out of range [0,{n})"
        if u == v:
            return f"edge {k} = ({u},{v}): self-loop"
        if frozenset((u, v)) in seen:
            return f"edge {k} = ({u},{v}): duplicate edge"
        seen.add(frozenset((u, v)))
    return None


def indices_by_definition(g: ci.Graph, w=None, w_edge=None):
    """(weighted Wiener, weighted Szeged) of a connected graph, by plain Python.

    Distances come from one BFS per vertex over neighbour lists built here;
    the Wiener index sums w(u) w(v) d(u,v) over unordered pairs, and the
    Szeged index sums, over edges uv, w'(uv) times the weight of the
    vertices strictly closer to u times that of those strictly closer to v.
    w and w_edge of None are unit weights.  Shares no code with indices.
    """
    n = g.vertex_count
    w = [1] * n if w is None else list(w)
    w_edge = [1] * g.edge_count if w_edge is None else list(w_edge)
    nbrs = [[] for _ in range(n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    dist = []
    for s in range(n):
        d = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if y not in d:
                    d[y] = d[x] + 1
                    queue.append(y)
        assert len(d) == n, "graph is disconnected"
        dist.append([d[x] for x in range(n)])
    wiener = sum(w[u] * w[v] * dist[u][v] for u in range(n) for v in range(u + 1, n))
    szeged = 0
    for (u, v), we in zip(g.edges, w_edge):
        n1 = sum(w[x] for x in range(n) if dist[x][u] < dist[x][v])
        n2 = sum(w[x] for x in range(n) if dist[x][v] < dist[x][u])
        szeged += we * n1 * n2
    return wiener, szeged


def tree_rows_by_bfs(t: ci.VertexEdgeWeightedGraph) -> list[ci.CutRow]:
    """Tree cut rows from a BFS rooted at vertex 0, in edge order.

    n1 is the weight of the subtree below the edge, the side without vertex
    0.  Shares no code with treedp.
    """
    g = t.graph
    parent, parent_edge = {0: None}, {}
    order = [0]
    for x in order:
        for y, k in g.adjacency[x]:
            if y not in parent:
                parent[y], parent_edge[y] = x, k
                order.append(y)
    subtree = list(t.w)
    for y in reversed(order[1:]):
        subtree[parent[y]] += subtree[y]
    total = sum(t.w)
    rows = [None] * g.edge_count
    for y in order[1:]:
        k = parent_edge[y]
        rows[k] = ci.CutRow(k, t.w_edge[k], subtree[y], total - subtree[y])
    return rows


def reference_quotient_trees() -> tuple[ci.VertexEdgeWeightedGraph, ...]:
    """The four weighted direction-quotient trees of a small worked example.

    A 28-vertex, 34-edge C4C8 system contracts along its four edge directions
    to these trees; they serve as exact regression fixtures for the weighted
    evaluators (indices 499/288/467/388 and 1497/960/1561/972, summing to
    1642 and 4990).
    """

    def tree(n, edges, w, w_edge):
        return ci.VertexEdgeWeightedGraph(ci.build_graph(n, edges), tuple(w), tuple(w_edge))

    star_path = tree(5, [(0, 2), (1, 2), (2, 3), (3, 4)], (4, 4, 8, 7, 5), (2, 2, 4, 3))
    path_3 = tree(3, [(0, 1), (1, 2)], (4, 12, 12), (2, 4))
    path_4a = tree(4, [(0, 1), (1, 2), (2, 3)], (8, 8, 7, 5), (4, 3, 3))
    path_4b = tree(4, [(0, 1), (1, 2), (2, 3)], (4, 10, 10, 4), (2, 3, 2))
    return star_path, path_3, path_4a, path_4b


def random_weights(rng, count: int, hi: int = 100) -> tuple[int, ...]:
    return tuple(rng.randint(1, hi) for _ in range(count))


def random_coarser(rng, theta: ci.ThetaPartition) -> ci.CoarserPartition:
    r = theta.class_count
    order = list(range(r))
    rng.shuffle(order)
    k = rng.randint(1, r)
    cuts = sorted(rng.sample(range(1, r), k - 1)) if r > 1 else []
    groups = []
    prev = 0
    for cut in cuts + [r]:
        groups.append(order[prev:cut])
        prev = cut
    return ci.validate_coarser(theta, groups)


_SQ_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_HEX_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def _normalize(cells) -> tuple:
    mi = min(i for i, _ in cells)
    mj = min(j for _, j in cells)
    return tuple(sorted((i - mi, j - mj) for i, j in cells))


def _all_cellsets(max_cells: int, neighbors) -> list[frozenset]:
    level = {_normalize({(0, 0)})}
    result = [set(level)]
    for _ in range(max_cells - 1):
        nxt = set()
        for cells in level:
            cellset = set(cells)
            for i, j in cellset:
                for di, dj in neighbors:
                    nb = (i + di, j + dj)
                    if nb not in cellset:
                        nxt.add(_normalize(cellset | {nb}))
        result.append(nxt)
        level = nxt
    return [frozenset(cells) for group in result for cells in group]


def all_c4c8_cellsets(max_cells: int) -> list[frozenset]:
    """All connected octagon cell sets up to translation, by size."""
    return _all_cellsets(max_cells, _SQ_NEIGHBORS)


def all_benzenoid_cellsets(max_cells: int) -> list[frozenset]:
    """All connected hexagon cell sets up to translation, by size."""
    return _all_cellsets(max_cells, _HEX_NEIGHBORS)


def _grow_cellset(rng, max_cells: int, neighbors, spec_type):
    cells = {(0, 0)}
    target = rng.randint(1, max_cells)
    stalls = 0
    while len(cells) < target and stalls < 50:
        frontier = sorted(
            {(i + di, j + dj) for i, j in cells for di, dj in neighbors} - cells
        )
        cand = frontier[rng.randrange(len(frontier))]
        cells.add(cand)
        try:
            spec_type(cells)
        except ci.GraphError:
            cells.discard(cand)
            stalls += 1
    return spec_type(cells)


def random_c4c8(rng, max_cells: int) -> ci.C4C8Spec:
    return _grow_cellset(rng, max_cells, _SQ_NEIGHBORS, ci.C4C8Spec)


def random_benzenoid(rng, max_cells: int) -> ci.BenzenoidSpec:
    return _grow_cellset(rng, max_cells, _HEX_NEIGHBORS, ci.BenzenoidSpec)


def cell_set_error(cells, neighbors, complement, kind: str) -> str | None:
    """The GraphError text a cell spec must raise, by Python set floods, or None.

    The first unreachable cell is the smallest one the flood from the
    smallest cell misses; the first hole is the first absent cell, in
    (i, j) order over the bounding box, that a flood of the complement from
    outside the box cannot reach.
    """
    cells = set(cells)
    if not cells:
        return f"{kind} system needs at least one cell"
    start = min(cells)
    seen, queue = {start}, deque([start])
    while queue:
        i, j = queue.popleft()
        for di, dj in neighbors:
            nb = (i + di, j + dj)
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if seen != cells:
        return f"disconnected cells: {min(cells - seen)} unreachable from {start}"
    lo_i, hi_i = min(i for i, _ in cells) - 1, max(i for i, _ in cells) + 1
    lo_j, hi_j = min(j for _, j in cells) - 1, max(j for _, j in cells) + 1
    outside, queue = {(lo_i, lo_j)}, deque([(lo_i, lo_j)])
    while queue:
        i, j = queue.popleft()
        for di, dj in complement:
            nb = (i + di, j + dj)
            inside = lo_i <= nb[0] <= hi_i and lo_j <= nb[1] <= hi_j
            if inside and nb not in cells and nb not in outside:
                outside.add(nb)
                queue.append(nb)
    for i in range(lo_i, hi_i + 1):
        for j in range(lo_j, hi_j + 1):
            if (i, j) not in cells and (i, j) not in outside:
                return f"cell set encloses a hole at {(i, j)}; not a bounded system"
    return None


def _flood(start, inside, steps) -> set:
    seen, queue = {start}, deque([start])
    while queue:
        i, j = queue.popleft()
        for di, dj in steps:
            nb = (i + di, j + dj)
            if nb not in seen and inside(nb):
                seen.add(nb)
                queue.append(nb)
    return seen


def bounded_cells(cells, neighbors, complement) -> set:
    """The component of the smallest cell, with every hole it encloses filled."""
    kept = _flood(min(cells), set(cells).__contains__, neighbors)
    lo_i, hi_i = min(i for i, _ in kept) - 1, max(i for i, _ in kept) + 1
    lo_j, hi_j = min(j for _, j in kept) - 1, max(j for _, j in kept) + 1

    def free(c):
        return lo_i <= c[0] <= hi_i and lo_j <= c[1] <= hi_j and c not in kept

    outside = _flood((lo_i, lo_j), free, complement)
    return {(i, j) for i in range(lo_i, hi_i + 1) for j in range(lo_j, hi_j + 1)} - outside


def labels_by_removal(g: ci.Graph, removed) -> tuple[list[int], int]:
    """(component label per vertex, count) of g minus the removed edges.

    Read off components_after_removal, the Python BFS kept as the oracle:
    components are numbered by smallest vertex.
    """
    comps = ci.components_after_removal(g, removed)
    labels = [0] * g.vertex_count
    for c, members in enumerate(comps):
        for v in members:
            labels[v] = c
    return labels, len(comps)


def chain_walk_classes(edge_count: int, pairs) -> list[list[int]]:
    """Edge classes of a cell system by walking its chains of opposite sides.

    Each edge's partners are the edges it faces across a bounded face, one
    per face it lies on.  Each chain runs between two boundary edges (edges
    with one partner) and is walked from its lower-numbered end; shares no
    code with the components kernel that chem uses.
    """
    partners = [[] for _ in range(edge_count)]
    for a, b in pairs.tolist():
        partners[a].append(b)
        partners[b].append(a)
    far_ends = set()
    classes = []
    for start, near in enumerate(partners):
        if len(near) != 1 or start in far_ends:
            continue
        chain = [start, near[0]]
        while len(partners[chain[-1]]) == 2:
            chain.append(sum(partners[chain[-1]]) - chain[-2])
        far_ends.add(chain[-1])
        classes.append(chain)
    return classes


def partition_from_classes(classes, edge_count: int) -> ci.ThetaPartition:
    """Canonicalize and validate a list of edge-index sets as a ThetaPartition.

    The builder of fake partitions for tests: nothing checks that the
    classes are the Theta classes of any graph.
    """
    normalized = [tuple(sorted(c)) for c in classes]
    if not all(normalized):
        raise ci.GraphError("empty edge class")
    normalized.sort(key=lambda c: c[0])
    class_of = [-1] * edge_count
    for j, cls in enumerate(normalized):
        for k in cls:
            if not 0 <= k < edge_count:
                raise ci.GraphError(f"edge index {k} out of range [0,{edge_count})")
            if class_of[k] != -1:
                raise ci.GraphError(f"edge {k} appears in two classes")
            class_of[k] = j
    missing = [k for k, j in enumerate(class_of) if j == -1]
    if missing:
        raise ci.GraphError(f"edge {missing[0]} not covered by any class")
    return ci.ThetaPartition._from_labels(np.array(class_of, dtype=np.int64), len(normalized))


def check_partition_store(tp, classes, class_of):
    """tp's arrays, derived classes, ==, hash and repr against the tuples it stands for."""
    m, r = len(class_of), len(classes)
    assert tp.class_count == r
    for array in (tp.labels, tp.order, tp.bounds):
        assert array.dtype == np.int64 and not array.flags.writeable
    assert tp.labels.tolist() == list(class_of)
    assert tp.order.tolist() == [k for cls in classes for k in cls]
    assert tp.bounds.tolist() == [sum(map(len, classes[:j])) for j in range(r + 1)]
    same = partition_from_classes(classes, m)
    assert tp == same and not tp != same
    assert hash(tp) == hash(same) == hash(tp.labels.tobytes())
    assert "classes" not in tp.__dict__  # neither == nor hash builds the tuples
    assert repr(tp) == f"ThetaPartition(classes={classes!r})"
    assert tp.classes == classes
    if r > 1:  # the last two classes merged: a different partition
        other = partition_from_classes(classes[:-2] + (classes[-2] + classes[-1],), m)
        assert tp != other and other != tp


def face_join_reference(spec):
    """(points, edges, opposite-side pairs) of a spec's face join in plain Python.

    The faces come from spec.cells alone: C4C8 octagons centered at
    (4i, 4j), plus a square at (4i + 2, 4j + 2) wherever (i+1, j), (i, j+1)
    and (i+1, j+1) are cells too; or benzenoid hexagons centered at
    (2a + b, 3b).  Corners are numbered by sorted absolute coordinate
    tuples, and sides by sorted corner-index pairs; each k-gon pairs its
    side c with side c + k/2.  Pairs come sorted, each as (smaller edge,
    larger edge).
    """
    cells = spec.cells
    if isinstance(spec, ci.BenzenoidSpec):
        centers = [((2 * a + b, 3 * b), HEXAGON_OFFSETS) for a, b in cells]
    else:
        centers = [((4 * i, 4 * j), OCTAGON_OFFSETS) for i, j in cells]
        centers += [
            ((4 * i + 2, 4 * j + 2), SQUARE_OFFSETS)
            for i, j in cells
            if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells
        ]
    faces = [[(x + dx, y + dy) for dx, dy in offsets] for (x, y), offsets in centers]
    points = sorted({p for face in faces for p in face})
    corner = {p: i for i, p in enumerate(points)}
    sides = [
        [tuple(sorted((corner[p], corner[face[(c + 1) % len(face)]]))) for c, p in enumerate(face)]
        for face in faces
    ]
    edges = sorted({s for face in sides for s in face})
    edge = {s: e for e, s in enumerate(edges)}
    pairs = sorted(
        tuple(sorted((edge[face[c]], edge[face[c + len(face) // 2]])))
        for face in sides
        for c in range(len(face) // 2)
    )
    return points, edges, pairs


def folded_quotient(g: ci.Graph, theta: ci.ThetaPartition, class_indices):
    """The weighted quotient's data by a per-edge Python fold.

    Returns (vertex_weight, quotient edges, edge_weight, edge_class) as
    quotient_by_edge_classes must give them, or the text of
    the GraphError it must raise: first the edge (groups in the given order,
    edges ascending) whose ends stay in one component, else the first
    quotient edge that stands for two classes.
    """
    f_edges = [k for j in class_indices for k in theta.classes[j]]
    comp, count = labels_by_removal(g, f_edges)
    weights = [0] * count
    for c in comp:
        weights[c] += 1
    folded: dict[tuple[int, int], list] = {}
    for j in class_indices:
        for k in theta.classes[j]:
            a, b = (comp[x] for x in g.edges[k])
            if a == b:
                return (
                    f"edge {k} joins vertices of one component of the cut;"
                    " the given classes are not cut classes"
                )
            entry = folded.setdefault((min(a, b), max(a, b)), [0, set()])
            entry[0] += 1
            entry[1].add(j)
    keys = sorted(folded)
    for f, k in enumerate(keys):
        if len(folded[k][1]) != 1:
            return (
                f"quotient edge {f} represents original classes {sorted(folded[k][1])};"
                " expected exactly one"
            )
    return (
        tuple(weights),
        tuple(keys),
        tuple(folded[k][0] for k in keys),
        tuple(min(folded[k][1]) for k in keys),
    )
