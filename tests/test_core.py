import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import cutindex as ci
from cutindex import core
from cutindex.cli import main
from cutindex.core import _SCREEN_MIN_EDGES, _components
from helpers import (
    cycle,
    first_bad_edge_message,
    hypercube,
    hypercube_near_miss,
    labels_by_removal,
    path,
    random_benzenoid,
    random_c4c8,
    random_tree,
)


def test_build_k2():
    g = ci.build_graph(2, [(0, 1)])
    assert g.vertex_count == 2 and g.edge_count == 1
    assert g.adjacency[0] == ((1, 0),) and g.adjacency[1] == ((0, 0),)


def test_build_c4_edge_indices_follow_input_order():
    g = ci.build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert len(g.adjacency[0]) == 2


def test_build_rejects_self_loop():
    with pytest.raises(ci.GraphError, match="self-loop"):
        ci.build_graph(5, [(0, 1), (0, 0)])


def test_build_rejects_duplicate_even_reversed():
    with pytest.raises(ci.GraphError, match="duplicate"):
        ci.build_graph(3, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ci.GraphError, match="out of range"):
        ci.build_graph(2, [(0, 2)])


def test_build_rejects_a_negative_vertex_count():
    with pytest.raises(ci.GraphError) as err:
        ci.build_graph(-1, [])
    assert str(err.value) == "vertex_count must be nonnegative, got -1"


@pytest.mark.parametrize("m", [1, _SCREEN_MIN_EDGES])
def test_build_names_the_first_edge_that_is_no_pair(m):
    # Below and above the NumPy screen's size limit, as tuples, lists and an
    # array: once a bare ValueError from unpacking.
    edges = [(v, v + 1) for v in range(m - 1)]
    for bad in [(0, 1, 2), (0,), [m - 1], ()]:
        with pytest.raises(ci.GraphError) as err:
            ci.build_graph(m + 1, edges + [bad])
        assert str(err.value) == f"edge {m - 1} = {tuple(bad)}: not a pair of endpoints"
    with pytest.raises(ci.GraphError) as err:
        ci.build_graph(3, np.array([[0, 1, 2]] * m))
    assert str(err.value) == "edge 0 = (0, 1, 2): not a pair of endpoints"
    with pytest.raises(ci.GraphError) as err:  # an earlier fault is named first
        ci.build_graph(m + 1, [(0, m + 1)] + edges + [(0, 1, 2)])
    assert str(err.value) == f"edge 0 = (0,{m + 1}): endpoint out of range [0,{m + 1})"


@pytest.mark.parametrize("m", [3, 300])
def test_build_rejects_float_endpoints(m):
    # Endpoints index per-vertex arrays, so a float is a TypeError even when
    # it is in range, on both sides of the NumPy screen.
    edges = [(v, v + 1) for v in range(m)]
    edges[m // 2] = (float(m // 2), m // 2 + 1)
    with pytest.raises(TypeError):
        ci.build_graph(m + 1, edges)


def _plant_fault(rng, edges, k, n):
    """Replace edges[k] with an out-of-range edge, a self-loop or a duplicate."""
    u, v = edges[k]
    kind = rng.choice(("range", "loop", "dup") if k else ("range", "loop"))
    if kind == "range":
        bad = rng.choice((-1, n, n + 7, 2**70, -(2**70)))
        edges[k] = (u, bad) if rng.random() < 0.5 else (bad, v)
    elif kind == "loop":
        edges[k] = (u, u)
    else:
        a, b = edges[rng.randrange(k)]
        edges[k] = (a, b) if rng.random() < 0.5 else (b, a)


@pytest.mark.parametrize("m", [1, 7, _SCREEN_MIN_EDGES - 1, _SCREEN_MIN_EDGES, 1500])
def test_build_graph_names_the_first_bad_edge(m):
    # Both sides of the NumPy screen's size limit must name the same edge
    # with the same text as a plain scalar loop, for pairs and for an int64
    # array alike.
    rng = random.Random(m)
    n = m + 1
    for trial in range(40):
        labels = list(range(n))
        rng.shuffle(labels)
        edges = []
        for v in range(1, n):
            a, b = labels[rng.randrange(v)], labels[v]
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
        if trial == 0:
            g = ci.build_graph(n, edges)
            assert g.edges == tuple(edges)
            assert g.ends.dtype == np.int64 and g.ends.tolist() == [list(e) for e in edges]
            assert not g.ends.flags.writeable
            array = np.array(edges, dtype=np.int64).reshape(-1, 2)
            h = ci.build_graph(n, array)
            assert "edges" not in h.__dict__ and not np.shares_memory(h.ends, array)
            assert h == g and hash(h) == hash(g) and h.edges == g.edges
            assert h != ci.build_graph(n + 1, array) and h != ci.build_graph(n, array[:, ::-1])
            continue
        for k in sorted(rng.sample(range(m), min(m, rng.choice((1, 2)))), reverse=True):
            _plant_fault(rng, edges, k, n)
        expected = first_bad_edge_message(n, edges)
        assert expected is not None
        with pytest.raises(ci.GraphError) as err:
            ci.build_graph(n, edges)
        assert str(err.value) == expected
        if all(-(2**63) <= x < 2**63 for e in edges for x in e):
            with pytest.raises(ci.GraphError) as err:
                ci.build_graph(n, np.array(edges, dtype=np.int64))
            assert str(err.value) == expected


def test_adjacency_first_use_from_many_threads():
    expected = hypercube(7).adjacency
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = hypercube(7)
            assert "adjacency" not in g.__dict__
            barrier = threading.Barrier(8)
            seen = []

            def read():
                barrier.wait(timeout=10)
                seen.append(g.adjacency)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
            assert len(seen) == 8 and all(a == expected for a in seen)
            assert g.adjacency is g.adjacency
    finally:
        sys.setswitchinterval(switch)


def test_adjacency_consistent_with_edges():
    g = hypercube(3)
    seen = [0] * g.edge_count
    for v in range(g.vertex_count):
        for u, k in g.adjacency[v]:
            assert g.edges[k] in ((v, u), (u, v))
            seen[k] += 1
    assert all(c == 2 for c in seen)


def test_bfs_distances_basics():
    assert ci.bfs_distances(ci.build_graph(2, [(0, 1)]), 0) == [0, 1]
    assert ci.bfs_distances(cycle(4), 0) == [0, 1, 2, 1]
    assert ci.bfs_distances(path(4), 0) == [0, 1, 2, 3]


def test_bfs_unreachable_marker():
    g = ci.build_graph(3, [(0, 1)])
    assert ci.bfs_distances(g, 0) == [0, 1, ci.UNREACHABLE]


def test_bfs_source_out_of_range():
    with pytest.raises(ci.GraphError):
        ci.bfs_distances(path(3), 3)


def test_distance_matrix_c4():
    d = ci.distance_matrix(cycle(4))
    assert int(d.max()) == 2
    far = [(u, v) for u in range(4) for v in range(u + 1, 4) if d[u, v] == 2]
    assert far == [(0, 2), (1, 3)]


def test_distance_matrix_q3():
    g = hypercube(3)
    d = ci.distance_matrix(g)
    assert int(d.max()) == 3
    antipodal = [(u, v) for u in range(8) for v in range(u + 1, 8) if d[u, v] == 3]
    assert len(antipodal) == 4
    # distances in a hypercube are Hamming distances of the vertex ids
    for u in range(8):
        for v in range(8):
            assert d[u, v] == bin(u ^ v).count("1")


def test_distance_matrix_k2():
    d = ci.distance_matrix(ci.build_graph(2, [(0, 1)]))
    assert d.tolist() == [[0, 1], [1, 0]]


def test_distance_matrix_rejects_disconnected(monkeypatch):
    # two edges apart, and isolated vertices first, last and inside; both paths
    cases = [((4, [(0, 1), (2, 3)]), 2), ((2, []), 1), ((3, [(1, 2)]), 1)]
    cases += [((3, [(0, 1)]), 2), ((4, [(0, 1), (1, 3)]), 2)]
    for minimum in (2, 1 << 30):
        monkeypatch.setattr(core, "_ARRAY_MIN_VERTICES", minimum)
        for (n, edges), first in cases:
            with pytest.raises(ci.GraphError) as err:
                ci.distance_matrix(ci.build_graph(n, edges))
            assert str(err.value) == f"graph is disconnected: no path between vertices 0 and {first}"


def test_distance_matrix_invariants():
    g = hypercube(3)
    d = ci.distance_matrix(g)
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    ones = {(u, v) for u in range(8) for v in range(8) if d[u, v] == 1}
    assert ones == {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    # matches bfs rows and adjacent entries differ by exactly 1
    for s in range(g.vertex_count):
        row = ci.bfs_distances(g, s)
        assert d[s].tolist() == row
        for u, v in g.edges:
            assert abs(row[u] - row[v]) == 1


def _distance_families():
    rng = random.Random(29)
    graphs = [path(n) for n in (0, 1, 2, 63, 64, 65, 127, 128, 129, 300)]
    graphs += [cycle(n) for n in (4, 6, 62, 64, 66, 128, 130, 200, 300)]
    graphs += [random_tree(rng, rng.randint(2, 300)) for _ in range(12)]
    graphs += [hypercube(k) for k in range(1, 9)]
    graphs += [hypercube_near_miss(8, 0, v) for v in (7, 0b1011, 0b1111111)]
    graphs += [ci.build_c4c8(random_c4c8(rng, 8))[0] for _ in range(4)]
    graphs += [ci.build_benzenoid(random_benzenoid(rng, 8))[0] for _ in range(4)]
    return graphs


# As shipped; the array kernel on every graph of two or more vertices, in
# sweeps as shipped or of one 64-source word each; one scalar BFS per source.
_KERNEL_SETTINGS = {
    "default": {},
    "array": {"_ARRAY_MIN_VERTICES": 2},
    "one_word_sweeps": {"_ARRAY_MIN_VERTICES": 2, "_BLOCK_BYTES": 1},
    "scalar": {"_ARRAY_MIN_VERTICES": 1 << 30},
}


@pytest.mark.parametrize("setting", sorted(_KERNEL_SETTINGS))
def test_distance_matrix_matches_networkx(monkeypatch, setting):
    nx = pytest.importorskip("networkx")
    for name, value in _KERNEL_SETTINGS[setting].items():
        monkeypatch.setattr(core, name, value)
    for g in _distance_families():
        n = g.vertex_count
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges)
        expected = np.zeros((n, n), dtype=np.int64)
        for s, lengths in nx.all_pairs_shortest_path_length(ref):
            expected[s, list(lengths)] = list(lengths.values())
        d = ci.distance_matrix(g)
        assert d.dtype == np.int32 and d.shape == (n, n)
        assert np.array_equal(d, expected), (n, g.edge_count)


def test_kernels_never_build_adjacency():
    # component_labels at every size, distance_matrix from _ARRAY_MIN_VERTICES up
    for g in (path(0), path(1), path(2), cycle(4), hypercube(3), ci.build_graph(3, [(0, 1)])):
        core.component_labels(g, ())
        core.component_labels(g, range(g.edge_count))
        assert "adjacency" not in g.__dict__, g.vertex_count
    for g in (path(core._ARRAY_MIN_VERTICES), hypercube(5)):
        ci.distance_matrix(g)
        assert "adjacency" not in g.__dict__, g.vertex_count


_BIG_PATH = 16385
_BUDGET_MESSAGE = (
    "distance matrix of 16385 vertices needs 1073872900 bytes,"
    " over the limit of 1073741824 bytes"
)


def test_distance_matrix_budget_fails_before_allocating(tmp_path, capsys):
    assert 4 * (_BIG_PATH - 1) ** 2 <= core.DISTANCE_MATRIX_MAX_BYTES
    g = path(_BIG_PATH)
    # NumPy reports its buffers to tracemalloc, and commits zeroed pages
    # lazily, so the traced peak is what shows an n x n buffer (1 GiB here).
    tracemalloc.start()
    try:
        with pytest.raises(ci.GraphError) as err:
            ci.distance_matrix(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == _BUDGET_MESSAGE
    assert peak < 16 << 20
    text = f"p {_BIG_PATH} {_BIG_PATH - 1}\n"
    text += "".join(f"e {v} {v + 1}\n" for v in range(_BIG_PATH - 1))
    file = tmp_path / "long.graph"
    file.write_text(text)
    assert main(["index", str(file)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_BUDGET_MESSAGE}\n"


def test_bipartite_c4_and_trees():
    coloring, odd = ci.is_bipartite(cycle(4))
    assert odd is None
    for u, v in cycle(4).edges:
        assert coloring[u] != coloring[v]
    coloring, odd = ci.is_bipartite(path(7))
    assert odd is None and coloring is not None


def test_bipartite_c5_witness():
    g = cycle(5)
    coloring, odd = ci.is_bipartite(g)
    assert coloring is None
    assert len(odd) == 5
    pairs = {(min(u, v), max(u, v)) for u, v in g.edges}
    ring = list(odd) + [odd[0]]
    assert all((min(a, b), max(a, b)) in pairs for a, b in zip(ring, ring[1:]))


def test_components_after_removal_c4_class():
    g = cycle(4)
    comps = ci.components_after_removal(g, {0, 2})  # edges (0,1) and (2,3)
    assert comps == [[0, 3], [1, 2]]


def test_components_after_removal_tree_edge():
    assert len(ci.components_after_removal(path(6), {2})) == 2


def test_components_after_removal_empty():
    assert ci.components_after_removal(cycle(4), set()) == [[0, 1, 2, 3]]


def test_components_after_removal_bad_index():
    with pytest.raises(ci.GraphError):
        ci.components_after_removal(cycle(4), {9})


def test_u64_guard():
    from cutindex.core import check_u64

    assert check_u64(2**64 - 1) == 2**64 - 1
    with pytest.raises(ci.IndexOverflowError):
        check_u64(2**64)


def _component_families():
    """Graphs from 0 to 1000 vertices, connected or not."""
    rng = random.Random(41)
    graphs = [ci.build_graph(n, []) for n in (0, 1, 2, 5, 256, 300)]
    graphs += [path(n) for n in (1, 2, 255, 256, 257)]
    graphs += [cycle(n) for n in (4, 10, 254, 256, 258, 514)]
    graphs += [random_tree(rng, n) for n in (3, 60, 255, 256, 257, 513, 1000)]
    graphs += [hypercube(d) for d in range(1, 10)]
    graphs += [ci.build_c4c8(random_c4c8(rng, 8))[0] for _ in range(3)]
    graphs += [ci.build_benzenoid(random_benzenoid(rng, 8))[0] for _ in range(3)]
    # blocks of 288 and 258 vertices
    graphs.append(ci.build_c4c8(ci.C4C8Spec([(i, j) for i in range(8) for j in range(8)]))[0])
    hexagons = [(i, j) for i in range(12) for j in range(9)]
    graphs.append(ci.build_benzenoid(ci.BenzenoidSpec(hexagons))[0])
    for n in (20, 100, 255, 256, 257, 700):
        # random graphs on a random subset of the vertices; the rest stay isolated
        used = rng.sample(range(n), rng.randint(2, n))
        pairs = {tuple(sorted(rng.sample(used, 2))) for _ in range(len(used))}
        graphs.append(ci.build_graph(n, sorted(pairs)))
    return graphs


def _union_find_labels(g, removed):
    """(label per vertex, count) from a union-find that shares no code with src."""
    parent = list(range(g.vertex_count))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    removed = set(removed)
    for k, (u, v) in enumerate(g.ends.tolist()):
        if k not in removed:
            ru, rv = root(u), root(v)
            parent[max(ru, rv)] = min(ru, rv)
    # each root is its component's smallest vertex
    roots = [root(v) for v in range(g.vertex_count)]
    rank = {r: i for i, r in enumerate(sorted(set(roots)))}
    return [rank[r] for r in roots], len(rank)


def _route_labels(route, g, removed, rng):
    if route == "shipped":
        comp, count = core.component_labels(g, removed)
        return comp.tolist(), count
    if route == "kernel":
        # the kernel alone, on the kept edge rows shuffled and each flipped at random
        removed = set(removed)
        rows = [e[::-1] if rng.random() < 0.5 else e for k, e in enumerate(g.ends.tolist()) if k not in removed]
        rng.shuffle(rows)
        comp, count, _ = _components(g.vertex_count, np.array(rows, dtype=np.int64).reshape(-1, 2))
        return comp.tolist(), count
    return labels_by_removal(g, removed)


@pytest.mark.parametrize("route", ["shipped", "kernel", "scalar"])
def test_component_labels_match_bfs_oracle(route):
    # shipped: component_labels; kernel: _components, blind to edge order and
    # orientation; scalar: the Python BFS oracle itself, against a union-find
    rng, order_rng = random.Random(43), random.Random(44)
    for g in _component_families():
        m = g.edge_count
        one = [rng.randrange(m)] if m else []
        for removed in ((), tuple(range(m)), set(rng.sample(range(m), m // 2)), one):
            oracle = _union_find_labels if route == "scalar" else labels_by_removal
            expected = oracle(g, removed)
            got = _route_labels(route, g, removed, order_rng)
            assert got == expected, (route, g.vertex_count, m, len(removed))


def test_components_kernel_small_and_empty():
    no_edges = np.empty((0, 2), dtype=np.int64)
    labels, count, rounds = _components(0, no_edges)
    assert labels.tolist() == [] and (count, rounds) == (0, 0)
    labels, count, rounds = _components(1, no_edges)
    assert labels.tolist() == [0] and (count, rounds) == (1, 0)
    labels, count, rounds = _components(4, no_edges)
    assert labels.tolist() == [0, 1, 2, 3] and (count, rounds) == (4, 0)


def _adversarial_orders(n):
    """Reversed path, zig-zag paths and a star centred on the largest id."""
    zig = [v for pair in zip(range(n // 2), range(n - 1, n // 2 - 1, -1)) for v in pair]
    zig += [n // 2] if n % 2 else []
    outward = list(range(0, n, 2)) + list(range(1, n, 2))[::-1]
    return {
        "reversed path": [(v, v - 1) for v in range(n - 1, 0, -1)],
        "zig-zag path": list(zip(zig, zig[1:])),
        "out and back path": list(zip(outward, outward[1:])),
        "star on largest": [(n - 1, v) for v in range(n - 1)],
    }


@pytest.mark.parametrize("n", [2, 3, 7, 64, 257, 1000, 4097])
def test_components_kernel_rounds_stay_logarithmic(n):
    bound = math.ceil(math.log2(n)) + 1
    rng = random.Random(n)
    for name, edges in _adversarial_orders(n).items():
        g = ci.build_graph(n, edges)
        labels, count, rounds = _components(n, g.ends)
        assert (labels.tolist(), count) == labels_by_removal(g, ()), name
        assert rounds <= bound, (name, rounds)
    for _ in range(3):
        g = random_tree(rng, n)
        assert _components(n, g.ends)[2] <= bound


def test_require_connected_names_first_vertex_above_kernel_constant():
    n = 768
    rng = random.Random(47)
    order = list(range(n))
    rng.shuffle(order)
    half = n // 2
    edges = [(order[i], order[i + 1]) for i in range(n - 1) if i != half - 1]
    g = ci.build_graph(n, edges)
    first = ci.bfs_distances(g, 0).index(ci.UNREACHABLE)
    with pytest.raises(ci.GraphError) as err:
        core.require_connected(g)
    assert str(err.value) == f"graph is disconnected: no path between vertices 0 and {first}"
    core.require_connected(path(n))
