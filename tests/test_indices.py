import random

import pytest

import cutindex as ci
from cutindex.chem import c4c8_theta_partition
from helpers import (
    cycle,
    hypercube,
    path,
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
    with pytest.raises(ci.IndexOverflowError, match="^weighted Szeged index "):
        ci.indices_from_rows([(0, 2, 2**32, 2**31)], weighted=True)
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


def test_partition_rows_equal_quotient_theta_classes():
    rng = random.Random(31)
    graphs = [hypercube(k) for k in range(1, 6)] + [cycle(2 * k) for k in range(2, 9)]
    graphs += [random_tree(rng, rng.randint(2, 40)) for _ in range(8)]
    graphs += [ci.build_c4c8(random_c4c8(rng, 8))[0] for _ in range(4)]
    graphs += [ci.build_benzenoid(random_benzenoid(rng, 8))[0] for _ in range(4)]
    for g in graphs:
        pc = ci.recognize_partial_cube(g)
        partitions = [ci.finest_partition(pc.theta), ci.coarsest_partition(pc.theta)]
        partitions += [random_coarser(rng, pc.theta) for _ in range(4)]
        for cp in partitions:
            rows = ci.partition_rows(g, pc.theta, cp)
            assert rows == _rows_via_quotient_theta(g, pc.theta, cp)
            assert rows == ci.cut_class_summaries(pc)

    # Geometric classes and their direction partitions, as the cell-file route uses them.
    for spec in [random_c4c8(rng, 8) for _ in range(3)] + [random_benzenoid(rng, 8) for _ in range(3)]:
        g, tags, theta = c4c8_theta_partition(spec)
        cp = ci.direction_partition(g, tags, theta)
        assert ci.partition_rows(g, theta, cp) == _rows_via_quotient_theta(g, theta, cp)


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
