import random

import pytest

import cutindex as ci
from helpers import (
    cycle,
    path,
    random_tree,
    random_weights,
    reference_quotient_trees,
    tree_rows_by_bfs,
)


def test_fixture_paths():
    t2 = ci.VertexEdgeWeightedGraph(path(3), (4, 12, 12), (2, 4))
    assert ci.wiener_tree_linear(ci.VertexWeightedGraph(t2.graph, t2.w)) == 288
    assert ci.szeged_tree_linear(t2) == 960

    t4 = ci.VertexEdgeWeightedGraph(path(4), (4, 10, 10, 4), (2, 3, 2))
    assert ci.wiener_tree_linear(ci.VertexWeightedGraph(t4.graph, t4.w)) == 388
    assert ci.szeged_tree_linear(t4) == 972

    star = reference_quotient_trees()[0]
    assert ci.szeged_tree_linear(star) == 1497
    assert ci.wiener_tree_linear(ci.VertexWeightedGraph(star.graph, star.w)) == 499


def test_single_vertex():
    g = ci.build_graph(1, [])
    assert ci.wiener_tree_linear(ci.VertexWeightedGraph(g, (7,))) == 0
    assert ci.szeged_tree_linear(ci.VertexEdgeWeightedGraph(g, (7,), ())) == 0


def test_zero_edge_weights_annihilate():
    g = random_tree(random.Random(1), 12)
    t = ci.VertexEdgeWeightedGraph(g, random_weights(random.Random(2), 12), [0] * 11)
    assert ci.szeged_tree_linear(t) == 0


def test_matches_quadratic_definitions():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 120)
        g = random_tree(rng, n)
        w = random_weights(rng, n)
        we = random_weights(rng, n - 1)
        gw = ci.VertexWeightedGraph(g, w)
        gww = ci.VertexEdgeWeightedGraph(g, w, we)
        assert ci.wiener_tree_linear(gw) == ci.wiener_weighted(gw)
        assert ci.szeged_tree_linear(gww) == ci.szeged_weighted(gww)


def test_unit_weights_match_brute():
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(2, 60)
        g = random_tree(rng, n)
        gw = ci.VertexWeightedGraph(g, [1] * n)
        gww = ci.VertexEdgeWeightedGraph(g, [1] * n, [1] * (n - 1))
        assert ci.wiener_tree_linear(gw) == ci.wiener_brute(g)
        assert ci.szeged_tree_linear(gww) == ci.szeged_brute(g)


def test_root_independence():
    # The pass roots the tree at vertex 0; swapping labels 0 and r roots it at r.
    rng = random.Random(41)
    n = 25
    g = random_tree(rng, n)
    w = random_weights(rng, n)
    we = random_weights(rng, n - 1)
    reference = (
        ci.wiener_tree_linear(ci.VertexWeightedGraph(g, w)),
        ci.szeged_tree_linear(ci.VertexEdgeWeightedGraph(g, w, we)),
    )
    for root in range(1, n):
        perm = list(range(n))
        perm[0], perm[root] = root, 0
        g2 = ci.build_graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        w2 = [w[perm[v]] for v in range(n)]
        assert (
            ci.wiener_tree_linear(ci.VertexWeightedGraph(g2, w2)),
            ci.szeged_tree_linear(ci.VertexEdgeWeightedGraph(g2, w2, we)),
        ) == reference


def test_relabeling_invariance():
    rng = random.Random(43)
    n = 30
    g = random_tree(rng, n)
    w = random_weights(rng, n)
    we = random_weights(rng, n - 1)
    perm = list(range(n))
    rng.shuffle(perm)
    g2 = ci.build_graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    w2 = [0] * n
    for v in range(n):
        w2[perm[v]] = w[v]
    t1 = ci.VertexEdgeWeightedGraph(g, w, we)
    t2 = ci.VertexEdgeWeightedGraph(g2, w2, we)  # edge order preserved
    assert ci.szeged_tree_linear(t1) == ci.szeged_tree_linear(t2)


def test_not_a_tree_errors():
    c4 = cycle(4)
    with pytest.raises(ci.GraphError, match="not a tree"):
        ci.wiener_tree_linear(ci.VertexWeightedGraph(c4, [1] * 4))
    with pytest.raises(ci.GraphError, match="not a tree"):
        ci.szeged_tree_linear(ci.VertexEdgeWeightedGraph(c4, [1] * 4, [1] * 4))
    forest = ci.build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ci.GraphError, match="not a tree"):
        ci.szeged_tree_linear(ci.VertexEdgeWeightedGraph(forest, [1] * 4, [1] * 2))
    # forest with the right edge count but disconnected
    bad = ci.build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(ci.GraphError, match="disconnected"):
        ci.szeged_tree_linear(ci.VertexEdgeWeightedGraph(bad, [1] * 5, [1] * 4))


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, [], "not a tree: empty graph"),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], "not a tree: 4 vertices but 4 edges"),
        (5, [(0, 1), (1, 2), (0, 2), (3, 4)], "not a tree: graph is disconnected"),
    ],
)
def test_not_a_tree_messages_pinned(n, edges, message):
    g = ci.build_graph(n, edges)
    gww = ci.VertexEdgeWeightedGraph(g, [1] * n, [1] * len(edges))
    for evaluate in (
        lambda: ci.wiener_tree_linear(ci.VertexWeightedGraph(g, [1] * n)),
        lambda: ci.szeged_tree_linear(gww),
        lambda: ci.tree_cut_rows(gww),
    ):
        with pytest.raises(ci.GraphError) as err:
            evaluate()
        assert str(err.value) == message


def test_tree_cut_rows():
    # Rooted at vertex 0: n1 is the side away from the root, size the edge weight.
    t = ci.VertexEdgeWeightedGraph(path(4), (4, 10, 10, 4), (2, 3, 2))
    rows = ci.tree_cut_rows(t)
    assert rows == [
        ci.CutRow(class_index=0, size=2, n1=24, n2=4),
        ci.CutRow(class_index=1, size=3, n1=14, n2=14),
        ci.CutRow(class_index=2, size=2, n1=4, n2=24),
    ]
    assert ci.indices_from_rows(rows) == (388, 972)


def test_tree_cut_rows_ordered_by_edge_index():
    rng = random.Random(47)
    g = random_tree(rng, 40)
    t = ci.VertexEdgeWeightedGraph(g, random_weights(rng, 40), random_weights(rng, 39))
    rows = ci.tree_cut_rows(t)
    assert [r.class_index for r in rows] == list(range(39))
    assert [r.size for r in rows] == list(t.w_edge)
    assert all(r.n1 + r.n2 == sum(t.w) for r in rows)
    assert ci.indices_from_rows(rows) == (
        ci.wiener_tree_linear(ci.VertexWeightedGraph(g, t.w)),
        ci.szeged_tree_linear(t),
    )


def test_tree_cut_rows_match_rooted_bfs():
    # n1 is always the side without vertex 0, wherever vertex 0 sits.
    rng = random.Random(53)
    single = ci.VertexEdgeWeightedGraph(ci.build_graph(1, []), (7,), ())
    assert ci.tree_cut_rows(single) == tree_rows_by_bfs(single) == []
    for _ in range(30):
        n = rng.randint(2, 150)
        g = random_tree(rng, n)
        degrees = [len(g.adjacency[v]) for v in range(n)]
        leaf = degrees.index(1)
        hub = degrees.index(max(degrees))
        for root in (0, leaf, hub):
            perm = list(range(n))
            perm[0], perm[root] = root, 0
            g2 = ci.build_graph(n, [(perm[u], perm[v]) for u, v in g.edges])
            assert len(g2.adjacency[0]) == degrees[root]
            t = ci.VertexEdgeWeightedGraph(g2, random_weights(rng, n), random_weights(rng, n - 1))
            assert ci.tree_cut_rows(t) == tree_rows_by_bfs(t)
