import random
from collections import Counter

import numpy as np
import pytest

import cutindex as ci
import cutindex.indices
import cutindex.treedp
from cutindex.chem import c4c8_theta_partition
from cutindex.core import U64_MAX
from helpers import (
    complete,
    cycle,
    hypercube,
    indices_by_definition,
    path,
    petersen,
    random_benzenoid,
    random_c4c8,
    random_coarser,
    random_tree,
    random_weights,
    reference_quotient_trees,
)


def test_wiener_brute_values():
    assert ci.wiener_brute(ci.build_graph(2, [(0, 1)])) == 1
    assert ci.wiener_brute(path(4)) == 10
    assert ci.wiener_brute(cycle(4)) == 8
    assert ci.wiener_brute(cycle(5)) == 15
    assert ci.wiener_brute(cycle(8)) == 64


def test_szeged_brute_values():
    assert ci.szeged_brute(ci.build_graph(2, [(0, 1)])) == 1
    assert ci.szeged_brute(path(4)) == 10  # tree identity: 3+4+3
    assert ci.szeged_brute(cycle(4)) == 16
    assert ci.szeged_brute(cycle(8)) == 128
    # odd cycle: one equidistant vertex per edge, strict sides of size 2
    assert ci.szeged_brute(cycle(5)) == 20


def test_brute_rejects_disconnected():
    g = ci.build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ci.GraphError):
        ci.wiener_brute(g)
    with pytest.raises(ci.GraphError):
        ci.szeged_brute(g)


def _connected_gnp(rng, n, p):
    while True:
        g = ci.build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        if len(ci.components_after_removal(g, ())) == 1:
            return g


_RNG = random.Random(41)
_ORACLE_GRAPHS = {
    "n0": ci.build_graph(0, []),
    "n1": ci.build_graph(1, []),
    "n2": path(2),
    "C5": cycle(5),
    "K4": complete(4),
    "petersen": petersen(),
    "Q3": hypercube(3),
    **{f"gnp{i}": _connected_gnp(_RNG, _RNG.randint(3, 30), 0.25) for i in range(4)},
}


def _oracle_weights(kind, g, rng):
    n, m = g.vertex_count, g.edge_count
    if kind == "unit":
        return [1] * n, [1] * m
    if kind == "int":
        return [rng.randint(0, 9) for _ in range(n)], [rng.randint(0, 9) for _ in range(m)]
    if kind == "2**70":  # past int64: exact Python ints
        return [rng.choice((1, 2**70)) for _ in range(n)], [2**70] * m
    if kind == "float":
        return [rng.random() * 4 for _ in range(n)], [rng.random() for _ in range(m)]
    return [rng.randint(1, 9) for _ in range(n)], [0] * m  # zero edge weights


@pytest.mark.parametrize("rows_per_block", [None, 1, 3], ids=["shipped-blocks", "1-row", "3-rows"])
@pytest.mark.parametrize("kind", ["unit", "int", "2**70", "float", "zero-edge"])
@pytest.mark.parametrize("name", list(_ORACLE_GRAPHS))
def test_evaluators_match_the_definition(monkeypatch, name, kind, rows_per_block):
    # Non-bipartite graphs too, where equidistant vertices count on neither
    # side; patching the block size splits the matrix into many row blocks.
    g = _ORACLE_GRAPHS[name]
    if rows_per_block is not None:
        monkeypatch.setattr(cutindex.indices, "_FILL_BLOCK_CELLS", rows_per_block * max(g.vertex_count, 1))
    w, w_edge = _oracle_weights(kind, g, random.Random(f"{name}/{kind}"))
    got = (
        _outcome(ci.wiener_weighted, ci.VertexWeightedGraph(g, w)),
        _outcome(ci.szeged_weighted, ci.VertexEdgeWeightedGraph(g, w, w_edge)),
    )
    wiener, szeged = indices_by_definition(g, w, w_edge)
    if kind == "float":
        assert got == pytest.approx((wiener, szeged), rel=1e-12)
        return
    # Past 2**64 - 1 the error names the exact value.
    expected = (_checked(wiener, "weighted Wiener index"), _checked(szeged, "weighted Szeged index"))
    assert got == expected
    assert all(type(x) in (int, str) for x in got)
    if kind == "unit":
        assert (ci.wiener_brute(g), ci.szeged_brute(g)) == expected


def _outcome(evaluator, graph):
    try:
        return evaluator(graph)
    except ci.IndexOverflowError as exc:
        return str(exc)


def _checked(value, what):
    return value if value <= U64_MAX else f"{what} {value} exceeds unsigned 64-bit range"


def test_szeged_nan_weight_stays_on_its_side():
    # Edge (0, 1) of a triangle: vertex 2 is equidistant, so its NaN weight
    # is on neither side; the edges it is a side of have weight 0.
    g = complete(3)
    assert ci.szeged_weighted(ci.VertexEdgeWeightedGraph(g, (1, 1, float("nan")), (1, 0, 0))) == 1


@pytest.mark.parametrize("form", ["array", "scalars"])
def test_numpy_integer_weights_do_not_wrap(form):
    g = path(2)

    def weights(values):
        return np.array(values, dtype=np.int64) if form == "array" else [np.int64(x) for x in values]

    gw = ci.VertexWeightedGraph(g, weights([2**31, 2**31]))
    assert all(type(x) is int for x in gw.w)
    assert ci.wiener_weighted(gw) == 2**62
    tree = ci.VertexEdgeWeightedGraph(g, weights([2**31, 2**31]), weights([2]))
    assert ci.tree_indices(tree) == (2**62, 2**63)
    with pytest.raises(ci.IndexOverflowError, match="^weighted Wiener index 1208925819614629174706176 "):
        ci.wiener_weighted(ci.VertexWeightedGraph(g, weights([2**40, 2**40])))


def test_weighted_collapse_to_unweighted():
    for g in (cycle(6), path(5), hypercube(3)):
        gw = ci.VertexWeightedGraph(g, [1] * g.vertex_count)
        gww = ci.VertexEdgeWeightedGraph(g, [1] * g.vertex_count, [1] * g.edge_count)
        assert ci.wiener_weighted(gw) == ci.wiener_brute(g)
        assert ci.szeged_weighted(gww) == ci.szeged_brute(g)


def test_weighted_fixture_trees():
    t1, t2, t3, t4 = reference_quotient_trees()
    assert ci.wiener_weighted(ci.VertexWeightedGraph(t1.graph, t1.w)) == 499
    assert ci.wiener_weighted(ci.VertexWeightedGraph(t2.graph, t2.w)) == 288
    assert ci.wiener_weighted(ci.VertexWeightedGraph(t3.graph, t3.w)) == 467
    assert ci.wiener_weighted(ci.VertexWeightedGraph(t4.graph, t4.w)) == 388
    assert ci.szeged_weighted(t1) == 1497
    assert ci.szeged_weighted(t2) == 960
    assert ci.szeged_weighted(t3) == 1561
    assert ci.szeged_weighted(t4) == 972


def test_strict_sides_on_non_bipartite_weighted():
    g = cycle(5)
    gww = ci.VertexEdgeWeightedGraph(g, (1, 2, 3, 4, 5), (1, 1, 1, 1, 1))
    # edge (0,1): strictly closer to 0 are {0,4}, to 1 are {1,2}; 3 equidistant
    total = (1 + 5) * (2 + 3) + (2 + 1) * (3 + 4) + (3 + 2) * (4 + 5) + (4 + 3) * (5 + 1) + (5 + 4) * (1 + 2)
    assert ci.szeged_weighted(gww) == total


def test_cut_method_values():
    assert ci.wiener_cut(ci.recognize_partial_cube(cycle(4))) == 8
    assert ci.szeged_cut(ci.recognize_partial_cube(cycle(4))) == 16
    q3 = ci.recognize_partial_cube(hypercube(3))
    assert ci.wiener_cut(q3) == 48
    assert ci.szeged_cut(q3) == 192
    k2 = ci.recognize_partial_cube(ci.build_graph(2, [(0, 1)]))
    assert ci.wiener_cut(k2) == 1
    assert ci.szeged_cut(k2) == 1


def test_cut_class_summaries():
    q3 = ci.recognize_partial_cube(hypercube(3))
    rows = ci.cut_class_summaries(q3)
    assert [(s.size, s.n1, s.n2) for s in rows] == [(4, 4, 4)] * 3


def test_partition_method_examples():
    c4 = ci.recognize_partial_cube(cycle(4))
    finest = ci.finest_partition(c4.theta)
    assert ci.wiener_via_partition(c4, finest) == ci.wiener_cut(c4) == 8
    assert ci.szeged_via_partition(c4, finest) == ci.szeged_cut(c4) == 16
    single = ci.coarsest_partition(c4.theta)
    assert ci.wiener_via_partition(c4, single) == 8
    assert ci.szeged_via_partition(c4, single) == 16

    q3 = ci.recognize_partial_cube(hypercube(3))
    cp = ci.validate_coarser(q3.theta, [{0}, {1, 2}])
    assert ci.wiener_via_partition(q3, cp) == 48
    assert ci.szeged_via_partition(q3, cp) == 192


def test_partition_independence_random():
    rng = random.Random(3)
    for g in (hypercube(4), cycle(12), random_tree(rng, 20)):
        pc = ci.recognize_partial_cube(g)
        w0, s0 = ci.wiener_brute(g), ci.szeged_brute(g)
        assert ci.wiener_cut(pc) == w0 and ci.szeged_cut(pc) == s0
        for _ in range(3):
            cp = random_coarser(rng, pc.theta)
            assert ci.wiener_via_partition(pc, cp) == w0
            assert ci.szeged_via_partition(pc, cp) == s0


def test_tree_identity():
    rng = random.Random(23)
    for _ in range(25):
        g = random_tree(rng, rng.randint(2, 40))
        assert ci.szeged_brute(g) == ci.wiener_brute(g)


def test_weight_scaling():
    rng = random.Random(9)
    g = random_tree(rng, 12)
    w = random_weights(rng, 12, hi=9)
    we = random_weights(rng, 11, hi=9)
    c = 7
    base_w = ci.wiener_weighted(ci.VertexWeightedGraph(g, w))
    scaled_w = ci.wiener_weighted(ci.VertexWeightedGraph(g, [c * x for x in w]))
    assert scaled_w == c * c * base_w
    base_s = ci.szeged_weighted(ci.VertexEdgeWeightedGraph(g, w, we))
    assert ci.szeged_weighted(
        ci.VertexEdgeWeightedGraph(g, [c * x for x in w], we)
    ) == c * c * base_s
    assert ci.szeged_weighted(
        ci.VertexEdgeWeightedGraph(g, w, [c * x for x in we])
    ) == c * base_s


def test_hypercube_closed_forms_small():
    for n in range(1, 5):
        g = hypercube(n)
        assert ci.wiener_brute(g) == n * 4 ** (n - 1)
        assert ci.szeged_brute(g) == n * 2 ** (n - 1) * 4 ** (n - 1)


def test_overflow_detection():
    g = path(3)
    big = 2**33
    with pytest.raises(ci.IndexOverflowError):
        ci.wiener_weighted(ci.VertexWeightedGraph(g, [big, big, big]))
    with pytest.raises(ci.IndexOverflowError):
        ci.szeged_weighted(ci.VertexEdgeWeightedGraph(g, [big, big, big], [1, 1]))


def test_huge_weights_below_limit_are_exact():
    # the pure-python path must stay exact where int64 would have wrapped
    g = path(3)
    w = [2**31, 1, 2**31]
    got = ci.wiener_weighted(ci.VertexWeightedGraph(g, w))
    assert got == 2**31 * 1 * 1 + 2**31 * 2**31 * 2 + 1 * 2**31 * 1


def test_negative_weight_rejected():
    with pytest.raises(ci.GraphError, match="^vertex 1: negative weight -1$"):
        ci.VertexWeightedGraph(path(2), [1, -1])
    with pytest.raises(ci.GraphError, match="^edge 0: negative weight -2$"):
        ci.VertexEdgeWeightedGraph(path(2), [1, 1], [-2])
    # the first negative is named; a NaN ahead of it must not hide it
    with pytest.raises(ci.GraphError, match="^vertex 2: negative weight -3$"):
        ci.VertexEdgeWeightedGraph(path(4), [1, float("nan"), -3, -4], [1, 1, 1])
    with pytest.raises(ci.GraphError, match="^edge 1: negative weight -0.5$"):
        ci.VertexEdgeWeightedGraph(path(4), [1, 1, 1, 1], [float("nan"), -0.5, -7])
    ci.VertexEdgeWeightedGraph(path(3), [0, float("nan"), 2], [0, 0])


def test_weight_counts_and_iterables():
    with pytest.raises(ci.GraphError, match="^vertex weight count does not match vertex count$"):
        ci.VertexWeightedGraph(path(3), [1, 1])
    with pytest.raises(ci.GraphError, match="^edge weight count does not match edge count$"):
        ci.VertexEdgeWeightedGraph(path(3), [1, 1, 1], [1])
    # any iterable is taken, and the types keep tuples of Python numbers
    t = ci.VertexEdgeWeightedGraph(path(3), (x for x in (1, 2.5, 3)), iter([4, 5]))
    assert (t.w, t.w_edge) == ((1, 2.5, 3), (4, 5))
    assert isinstance(t, ci.VertexWeightedGraph)


def test_zero_edge_weights_annihilate():
    t = ci.VertexEdgeWeightedGraph(path(4), [1, 2, 3, 4], [0, 0, 0])
    assert ci.szeged_weighted(t) == 0


def test_float_weights_supported():
    g = path(3)
    got = ci.wiener_weighted(ci.VertexWeightedGraph(g, [0.5, 1.0, 0.5]))
    assert got == pytest.approx(0.5 * 1 + 0.5 * 0.5 * 2 + 1 * 0.5)


def test_indices_from_rows_empty():
    assert ci.indices_from_rows([]) == (0, 0)
    assert ci.indices_from_rows(iter(())) == (0, 0)


def test_indices_from_rows_overflow():
    # n1 * n2 = 2^64 leaves the range; the Wiener sum is checked first.
    with pytest.raises(ci.IndexOverflowError, match="^Wiener index 18446744073709551616 "):
        ci.indices_from_rows([ci.CutRow(0, 1, 2**32, 2**32)])
    # The Wiener sum 2^63 fits, the Szeged sum 2^64 does not.
    with pytest.raises(ci.IndexOverflowError, match="^Szeged index 18446744073709551616 "):
        ci.indices_from_rows([(0, 2, 2**32, 2**31)])
    # The largest representable value is accepted.
    assert ci.indices_from_rows([(0, 1, 2**64 - 1, 1)]) == (2**64 - 1, 2**64 - 1)


def _row_sums(rows):
    return sum(r.n1 * r.n2 for r in rows), sum(r.size * r.n1 * r.n2 for r in rows)


def test_indices_from_rows_equals_each_route_sum():
    rng = random.Random(13)
    for g in (hypercube(4), cycle(12), random_tree(rng, 30)):
        pc = ci.recognize_partial_cube(g)
        expected = (ci.wiener_brute(g), ci.szeged_brute(g))
        cut = ci.cut_class_summaries(pc)
        assert all(isinstance(r, ci.CutRow) for r in cut)
        assert ci.indices_from_rows(cut) == _row_sums(cut) == expected
        for cp in (ci.finest_partition(pc.theta), ci.coarsest_partition(pc.theta),
                   random_coarser(rng, pc.theta)):
            rows = ci.partition_rows(pc.graph, pc.theta, cp)
            assert rows == cut
            assert ci.indices_from_rows(rows) == expected

    g = random_tree(rng, 40)
    t = ci.VertexEdgeWeightedGraph(g, random_weights(rng, 40), random_weights(rng, 39))
    rows = ci.tree_cut_rows(t)
    assert ci.indices_from_rows(rows) == _row_sums(rows) == (
        ci.wiener_weighted(ci.VertexWeightedGraph(g, t.w)),
        ci.szeged_weighted(t),
    )

    spec = ci.C4C8Spec([(0, 0), (1, 0), (1, 1), (2, 1)])
    wiener, szeged, rows = ci.c4c8_report(spec)
    assert [r.class_index for r in rows] == list(range(len(rows)))
    assert ci.indices_from_rows(rows) == _row_sums(rows) == (wiener, szeged)
    g, _, _ = ci.build_c4c8(spec)
    assert (wiener, szeged) == (ci.wiener_brute(g), ci.szeged_brute(g))


def _weighted_quotient_sums(pc, cp):
    wiener = szeged = 0
    for i in range(len(cp.groups)):
        wq = ci.quotient_by_edge_classes(pc.graph, pc.theta, cp.groups[i])
        wiener += ci.wiener_weighted(ci.VertexWeightedGraph(wq.quotient, wq.vertex_weight))
        szeged += ci.szeged_weighted(
            ci.VertexEdgeWeightedGraph(wq.quotient, wq.vertex_weight, wq.edge_weight)
        )
    return wiener, szeged


def test_weighted_quotient_indices_sum_to_graph_indices():
    # The partition theorem itself, checked with the brute weighted evaluators
    # (the partition route reads rows off the quotients instead).
    rng = random.Random(17)
    graphs = [hypercube(4), cycle(12)]
    graphs += [random_tree(rng, rng.randint(2, 25)) for _ in range(4)]
    graphs += [ci.build_c4c8(random_c4c8(rng, 6))[0] for _ in range(3)]
    graphs += [ci.build_benzenoid(random_benzenoid(rng, 5))[0] for _ in range(3)]
    for g in graphs:
        pc = ci.recognize_partial_cube(g)
        expected = (ci.wiener_brute(g), ci.szeged_brute(g))
        partitions = [ci.finest_partition(pc.theta), ci.coarsest_partition(pc.theta)]
        partitions += [random_coarser(rng, pc.theta) for _ in range(3)]
        for cp in partitions:
            assert _weighted_quotient_sums(pc, cp) == expected


def _rows_via_quotient_theta(g, theta, cp):
    """The partition rows as recognizing every quotient reads them off."""
    rows = []
    for group in cp.groups:
        rows += ci.quotient_theta_classes(ci.quotient_by_edge_classes(g, theta, group))
    return sorted(rows)


def _rooted_at(rng, g, v):
    """g with its vertices shuffled, v becoming vertex 0."""
    rest = [x for x in range(g.vertex_count) if x != v]
    rng.shuffle(rest)
    new = {x: i for i, x in enumerate([v] + rest)}
    return ci.build_graph(g.vertex_count, [(new[a], new[b]) for a, b in g.edges])


def test_partition_rows_equal_quotient_theta_classes(monkeypatch):
    # Tree quotients take the tree pass, others one components call per class.
    ran = Counter()

    def spy(name, fn):
        def counted(*args):
            ran[name] += 1
            return fn(*args)

        monkeypatch.setattr(name, counted)

    spy("cutindex.treedp._tree_sides", cutindex.treedp._tree_sides)
    spy("cutindex.indices.component_labels", cutindex.indices.component_labels)

    # Vertex 0 at a leaf, in the middle of a path and at a tree's hub: a class
    # anchor (its edge's lower end) is then the end of its edge nearer vertex 0
    # on some edges and the farther end on others.
    tree_rng = random.Random(37)
    trees = [path(n) for n in (2, 3, 9)]
    trees += [_rooted_at(tree_rng, path(n), n // 2) for n in (3, 8, 9)]
    for n in (7, 25):
        t = random_tree(tree_rng, n)
        degree = Counter(v for e in t.edges for v in e)
        for v in (max(degree, key=degree.get), min(degree, key=degree.get), 0):
            trees.append(_rooted_at(tree_rng, t, v))
    anchor_farther = set()
    for t in trees:
        depth = ci.bfs_distances(t, 0)
        anchor_farther |= {depth[min(e)] > depth[max(e)] for e in t.edges}
    assert anchor_farther == {False, True}

    rng = random.Random(31)
    graphs = [hypercube(k) for k in range(1, 6)] + [cycle(2 * k) for k in range(2, 9)]
    graphs += [random_tree(rng, rng.randint(2, 40)) for _ in range(8)]
    graphs += [ci.build_c4c8(random_c4c8(rng, 8))[0] for _ in range(4)]
    graphs += [ci.build_benzenoid(random_benzenoid(rng, 8))[0] for _ in range(4)]
    for g, r in [(g, rng) for g in graphs] + [(t, tree_rng) for t in trees]:
        pc = ci.recognize_partial_cube(g)
        partitions = [ci.finest_partition(pc.theta), ci.coarsest_partition(pc.theta)]
        partitions += [random_coarser(r, pc.theta) for _ in range(4)]
        for cp in partitions:
            rows = ci.partition_rows(g, pc.theta, cp)
            assert rows == _rows_via_quotient_theta(g, pc.theta, cp)
            assert rows == ci.cut_class_summaries(pc)

    # Geometric classes and their direction partitions, as the cell-file route uses them.
    for spec in [random_c4c8(rng, 8) for _ in range(3)] + [random_benzenoid(rng, 8) for _ in range(3)]:
        g, tags, theta = c4c8_theta_partition(spec)
        cp = ci.direction_partition(g, tags, theta)
        assert ci.partition_rows(g, theta, cp) == _rows_via_quotient_theta(g, theta, cp)
    assert ran["cutindex.treedp._tree_sides"] and ran["cutindex.indices.component_labels"]


@pytest.mark.parametrize(
    "g, classes, groups, message",
    [
        # C4 with opposite edges in separate classes: both fold into one quotient edge.
        (cycle(4), [[0], [2], [1, 3]], [[0, 2], [1]],
         "quotient edge 0 represents original classes [0, 2]; expected exactly one"),
        # C4 with every edge its own class: one edge of a 4-cycle is no cut.
        (cycle(4), [[0], [1], [2], [3]], [[0, 1, 2, 3]],
         "class 0 splits its quotient into 1 parts, expected 2; not a cut class"),
        # Both edges of a path in one class: removing them leaves three parts.
        (path(3), [[0, 1]], [[0]],
         "class 0 splits its quotient into 3 parts, expected 2; not a cut class"),
    ],
    ids=["shared-quotient-edge", "one-part", "three-parts"],
)
def test_partition_rows_rejects_non_cut_classes(g, classes, groups, message):
    theta = ci.ThetaPartition.from_classes(classes, g.edge_count)
    cp = ci.validate_coarser(theta, groups)
    with pytest.raises(ci.GraphError) as err:
        ci.partition_rows(g, theta, cp)
    assert str(err.value) == message


def test_partition_rows_trusts_theta_to_be_the_theta_partition():
    # K2,3 (a=0, b=1, x=2, y=3, z=4) is no partial cube, yet the classes
    # {ay, az, bx} and {ax, by, bz} are each one two-part cut.  partition_rows
    # checks only that, so it returns rows whose W is 12, not K2,3's 14.
    g = ci.build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert isinstance(ci.recognize_partial_cube(g), ci.RecognitionWitness)
    theta = ci.ThetaPartition.from_classes([[1, 2, 3], [0, 4, 5]], g.edge_count)
    rows = ci.partition_rows(g, theta, ci.coarsest_partition(theta))
    assert rows == [ci.CutRow(0, 3, 3, 2), ci.CutRow(1, 3, 2, 3)]
    assert ci.indices_from_rows(rows)[0] == 12
    assert ci.wiener_brute(g) == 14
    # C4 plus an isolated vertex, every edge its own class: the quotient has
    # n_q - 1 edges yet is no tree, and each class cut leaves two parts, but a
    # graph with no Wiener index has no rows: core's disconnected error.
    g = ci.build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    theta = ci.ThetaPartition.from_classes([[k] for k in range(4)], g.edge_count)
    with pytest.raises(ci.GraphError) as err:
        ci.partition_rows(g, theta, ci.coarsest_partition(theta))
    assert str(err.value) == "graph is disconnected: no path between vertices 0 and 4"


@pytest.mark.parametrize("grouping", [[[0], [1], [2]], [[0, 1], [2]], [[2], [0, 1]]])
def test_partition_rows_rejects_a_disconnected_graph(grouping):
    # C4 on 0, 1, 3, 4 plus the edge 2-5: vertex 2 is the first one vertex 0
    # cannot reach.  Groups {0} and {2} give quotients that are no tree by
    # edge count (components check); {0, 1} gives one with n_q - 1 edges (BFS).
    g = ci.build_graph(6, [(0, 1), (1, 3), (3, 4), (4, 0), (2, 5)])
    theta = ci.ThetaPartition.from_classes([[0, 2], [1, 3], [4]], g.edge_count)
    with pytest.raises(ci.GraphError) as err:
        ci.partition_rows(g, theta, ci.validate_coarser(theta, grouping))
    assert str(err.value) == "graph is disconnected: no path between vertices 0 and 2"
    with pytest.raises(ci.GraphError) as core_err:
        ci.distance_matrix(g)
    assert str(core_err.value) == str(err.value)
