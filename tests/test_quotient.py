import random

import numpy as np
import pytest

import cutindex as ci
from helpers import (
    class_sides,
    cycle,
    folded_quotient,
    hypercube,
    partition_from_classes,
    path,
    random_coarser,
    random_tree,
)


def _theta(g):
    return ci.theta_star_classes(g)


def test_validate_coarser_finest_and_coarsest():
    theta = _theta(hypercube(3))
    cp = ci.validate_coarser(theta, [{0}, {1}, {2}])
    assert cp.groups == ((0,), (1,), (2,))
    cp = ci.validate_coarser(theta, [{0, 1, 2}])
    assert cp.groups == ((0, 1, 2),)


def test_validate_coarser_rejects_duplicate_and_missing():
    theta = _theta(hypercube(3))
    with pytest.raises(ci.GraphError, match="class 0"):
        ci.validate_coarser(theta, [{0}, {0, 1, 2}])
    with pytest.raises(ci.GraphError, match="class 2 missing"):
        ci.validate_coarser(theta, [{0}, {1}])
    with pytest.raises(ci.GraphError, match="out of range"):
        ci.validate_coarser(theta, [{0, 1, 2, 3}])


def test_validate_coarser_rejects_an_empty_group():
    theta = _theta(path(4))
    with pytest.raises(ci.GraphError) as err:
        ci.validate_coarser(theta, [[0, 1, 2], []])
    assert str(err.value) == "group 1 is empty"


def test_class_indices_that_are_no_integers_are_refused():
    # On P4's three classes a float once took class 0's place in the count,
    # and reached partition_rows as an IndexError.
    g = path(4)
    theta = _theta(g)
    for grouping, bad in [([[0.5], [1, 2]], 0.5), ([[0], ["1"], [2]], "1"), ([[0, None], [1, 2]], None)]:
        with pytest.raises(ci.GraphError) as err:
            ci.validate_coarser(theta, grouping)
        assert str(err.value) == f"class index {bad!r} is not an integer"
    for group in [(0.0,), (1, np.float64(2))]:
        with pytest.raises(ci.GraphError) as err:
            ci.quotient_by_edge_classes(g, theta, group)
        assert str(err.value) == f"class index {group[-1]!r} is not an integer"


def test_integer_class_indices_become_python_ints():
    # True once indexed the class arrays as a mask, a TypeError in partition_rows.
    g = path(4)
    theta = _theta(g)
    cp = ci.validate_coarser(theta, [[True], [np.int64(0), np.uint8(2)]])
    assert cp.groups == ((1,), (0, 2))
    assert all(type(j) is int for group in cp.groups for j in group)
    plain = ci.validate_coarser(theta, [[1], [0, 2]])
    assert ci.partition_rows(g, theta, cp) == ci.partition_rows(g, theta, plain)
    wq = ci.quotient_by_edge_classes(g, theta, (np.int8(2), True))
    assert wq == ci.quotient_by_edge_classes(g, theta, (2, 1))
    assert all(type(j) is int for j in (*wq.edge_class, *wq.class_anchors))


def test_fold_rejects_a_class_index_out_of_range():
    g = path(4)
    theta = _theta(g)
    for j in (3, -1):
        with pytest.raises(ci.GraphError) as err:
            ci.quotient_by_edge_classes(g, theta, (0, j))
        assert str(err.value) == f"class index {j} out of range [0,3)"


def test_validate_coarser_takes_one_shot_groups():
    theta = _theta(cycle(4))
    cp = ci.validate_coarser(theta, [(j for j in [1, 0])])
    assert cp.groups == ((0, 1),)
    with pytest.raises(ci.GraphError) as err:
        ci.validate_coarser(theta, [(j for j in [0, 1, 0])])
    assert str(err.value) == "class 0 duplicated within group 0"


def test_c4_single_class_quotient_is_k2():
    pc = ci.recognize_partial_cube(cycle(4))
    cp = ci.finest_partition(pc.theta)
    wq = ci.quotient_by_edge_classes(pc.graph, pc.theta, cp.groups[0])
    assert wq.quotient.vertex_count == 2
    assert wq.quotient.edges == ((0, 1),)
    assert wq.vertex_weight == (2, 2)
    assert wq.edge_weight == (2,)


def test_c4_coarsest_quotient_is_c4_with_unit_weights():
    pc = ci.recognize_partial_cube(cycle(4))
    (group,) = ci.coarsest_partition(pc.theta).groups
    wq = ci.quotient_by_edge_classes(pc.graph, pc.theta, group)
    q = wq.quotient
    assert q.vertex_count == 4 and q.edge_count == 4
    assert wq.vertex_weight == (1, 1, 1, 1)
    assert wq.edge_weight == (1, 1, 1, 1)
    # its two Theta classes are the U-classes, one per original class
    rows = ci.quotient_theta_classes(wq)
    assert rows == [ci.CutRow(0, 2, 2, 2), ci.CutRow(1, 2, 2, 2)]
    assert all(isinstance(row, ci.CutRow) for row in rows)


def test_q3_single_class_quotient():
    pc = ci.recognize_partial_cube(hypercube(3))
    cp = ci.finest_partition(pc.theta)
    wq = ci.quotient_by_edge_classes(pc.graph, pc.theta, cp.groups[1])
    assert wq.quotient.vertex_count == 2
    assert wq.vertex_weight == (4, 4)
    assert wq.edge_weight == (4,)
    assert ci.quotient_theta_classes(wq) == [ci.CutRow(1, 4, 4, 4)]


def test_weight_conservation_and_edge_weight_sum():
    rng = random.Random(5)
    pc = ci.recognize_partial_cube(hypercube(4))
    for _ in range(5):
        cp = random_coarser(rng, pc.theta)
        for i in range(len(cp.groups)):
            wq = ci.quotient_by_edge_classes(pc.graph, pc.theta, cp.groups[i])
            assert sum(wq.vertex_weight) == 16
            group_size = sum(len(pc.theta.classes[j]) for j in cp.groups[i])
            assert sum(wq.edge_weight) == group_size


def test_finest_grouping_matches_class_sides():
    pc = ci.recognize_partial_cube(hypercube(3))
    cp = ci.finest_partition(pc.theta)
    for j in range(pc.dimension):
        wq = ci.quotient_by_edge_classes(pc.graph, pc.theta, cp.groups[j])
        n1, n2, size = class_sides(pc, j)
        assert ci.quotient_theta_classes(wq) == [ci.CutRow(j, size, len(n1), len(n2))]


def test_quotients_are_partial_cubes_and_transfer_is_exact():
    rng = random.Random(17)
    for g in (hypercube(4), cycle(10), random_tree(rng, 16)):
        pc = ci.recognize_partial_cube(g)
        for _ in range(4):
            cp = random_coarser(rng, pc.theta)
            seen_classes = set()
            for i in range(len(cp.groups)):
                wq = ci.quotient_by_edge_classes(pc.graph, pc.theta, cp.groups[i])
                assert isinstance(
                    ci.recognize_partial_cube(wq.quotient), ci.PartialCube
                )
                rows = ci.quotient_theta_classes(wq)
                assert [row.class_index for row in rows] == list(cp.groups[i])
                for j, size, n1, n2 in rows:
                    side1, side2, class_size = class_sides(pc, j)
                    assert (size, n1, n2) == (class_size, len(side1), len(side2))
                    seen_classes.add(j)
            assert seen_classes == set(range(pc.dimension))


def test_non_cut_classes_rejected():
    # a fake partition whose "class" does not disconnect the graph
    g = cycle(4)
    fake = partition_from_classes([{0}, {1, 2, 3}], 4)
    with pytest.raises(ci.GraphError, match="not cut classes"):
        ci.quotient_by_edge_classes(g, fake, (0,))


def test_fold_rejects_a_quotient_edge_of_two_classes():
    # C4 with opposite edges 0 and 2 in separate classes: both fold into one quotient edge.
    g = cycle(4)
    fake = partition_from_classes([[0], [2], [1, 3]], 4)
    with pytest.raises(ci.GraphError) as err:
        ci.quotient_by_edge_classes(g, fake, (2, 0))
    assert str(err.value) == "quotient edge 0 represents original classes [0, 2]; expected exactly one"


def test_fold_rejects_a_repeated_class():
    theta = _theta(cycle(4))
    for group, repeated in (((0, 0), 0), ((1, 0, 1), 1)):
        with pytest.raises(ci.GraphError) as err:
            ci.quotient_by_edge_classes(cycle(4), theta, group)
        assert str(err.value) == f"class {repeated} listed twice in the group"


def _folded(wq):
    return (wq.vertex_weight, wq.quotient.edges, wq.edge_weight, wq.edge_class)


def test_array_fold_equals_python_fold():
    rng = random.Random(23)
    cases = [ci.recognize_partial_cube(g) for g in (hypercube(5), cycle(12), random_tree(rng, 200))]
    spec = ci.C4C8Spec([(i, j) for i in range(5) for j in range(5)])
    g, tags, theta = ci.c4c8_theta_partition(spec)
    for pc in cases:
        for _ in range(3):
            cp = random_coarser(rng, pc.theta)
            for group in cp.groups:
                wq = ci.quotient_by_edge_classes(pc.graph, pc.theta, group)
                assert _folded(wq) == folded_quotient(pc.graph, pc.theta, group)
    for group in ci.direction_partition(g, tags, theta).groups:
        wq = ci.quotient_by_edge_classes(g, theta, group)
        assert _folded(wq) == folded_quotient(g, theta, group)


def test_non_cut_group_names_the_first_offending_edge():
    rng = random.Random(29)
    g = hypercube(4)
    for _ in range(10):
        # random unions of edges that are no Theta classes; groups listed in shuffled order
        edges = list(range(g.edge_count))
        rng.shuffle(edges)
        cuts = sorted(rng.sample(range(1, g.edge_count), 5))
        fake = partition_from_classes(
            [edges[a:b] for a, b in zip([0] + cuts, cuts + [g.edge_count])], g.edge_count
        )
        group = rng.sample(range(fake.class_count), 3)
        expected = folded_quotient(g, fake, group)
        if isinstance(expected, str):
            with pytest.raises(ci.GraphError) as err:
                ci.quotient_by_edge_classes(g, fake, group)
            assert str(err.value) == expected
        else:
            assert _folded(ci.quotient_by_edge_classes(g, fake, group)) == expected


def _fake_quotient(g, edge_class, classes):
    """g as a unit-weight WeightedQuotient standing for original classes 0..classes-1."""
    return ci.WeightedQuotient(
        quotient=g,
        vertex_weight=(1,) * g.vertex_count,
        edge_weight=(1,) * g.edge_count,
        edge_class=edge_class,
        class_anchors={j: 0 for j in range(classes)},
    )


@pytest.mark.parametrize(
    "g, edge_class, classes, message",
    [
        (cycle(3), (0, 1, 2), 3,
         "quotient failed partial-cube recognition (odd_cycle);"
         " not built from cut classes of a partial cube"),
        (path(3), (0, 1), 3,
         "quotient has 2 classes, expected 3; not built from cut classes of a partial cube"),
        (cycle(4), (0, 1, 1, 0), 2,
         "quotient class 0 stands for original classes [0, 1];"
         " not built from cut classes of a partial cube"),
        (path(3), (0, 0), 2, "original class 0 represented by two quotient classes"),
    ],
    ids=["not-a-partial-cube", "class-count", "two-originals", "one-original-twice"],
)
def test_quotient_theta_classes_rejects_quotients_of_no_cut_classes(g, edge_class, classes, message):
    with pytest.raises(ci.GraphError) as err:
        ci.quotient_theta_classes(_fake_quotient(g, edge_class, classes))
    assert str(err.value) == message
