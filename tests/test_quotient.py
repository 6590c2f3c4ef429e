import random

import pytest

import cutindex as ci
from helpers import cycle, folded_quotient, hypercube, random_coarser, random_tree


def _theta(g):
    return ci.theta_star_classes(g)


def test_validate_coarser_finest_and_coarsest():
    theta = _theta(hypercube(3))
    cp = ci.validate_coarser(theta, [{0}, {1}, {2}])
    assert cp.groups == ((0,), (1,), (2,))
    cp = ci.validate_coarser(theta, [{0, 1, 2}])
    assert cp.groups == ((0, 1, 2),)
    assert cp.group_of == (0, 0, 0)


def test_validate_coarser_rejects_duplicate_and_missing():
    theta = _theta(hypercube(3))
    with pytest.raises(ci.GraphError, match="class 0"):
        ci.validate_coarser(theta, [{0}, {0, 1, 2}])
    with pytest.raises(ci.GraphError, match="class 2 missing"):
        ci.validate_coarser(theta, [{0}, {1}])
    with pytest.raises(ci.GraphError, match="out of range"):
        ci.validate_coarser(theta, [{0, 1, 2, 3}])


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
    wq = ci.build_quotient(pc, cp, 0)
    assert wq.quotient.vertex_count == 2
    assert wq.quotient.edges == ((0, 1),)
    assert wq.vertex_weight == (2, 2)
    assert wq.edge_weight == (2,)


def test_c4_coarsest_quotient_is_c4_with_unit_weights():
    pc = ci.recognize_partial_cube(cycle(4))
    wq = ci.build_quotient(pc, ci.coarsest_partition(pc.theta), 0)
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
    wq = ci.build_quotient(pc, cp, 1)
    assert wq.quotient.vertex_count == 2
    assert wq.vertex_weight == (4, 4)
    assert wq.edge_weight == (4,)
    assert ci.quotient_theta_classes(wq) == [ci.CutRow(1, 4, 4, 4)]


def test_membership_maps_vertices_to_their_component():
    pc = ci.recognize_partial_cube(hypercube(3))
    cp = ci.validate_coarser(pc.theta, [{0, 1}, {2}])
    wq = ci.build_quotient(pc, cp, 0)
    f_edges = set(pc.theta.classes[0]) | set(pc.theta.classes[1])
    comps = ci.components_after_removal(pc.graph, f_edges)
    for v in range(8):
        assert v in comps[wq.membership[v]]


def test_weight_conservation_and_edge_weight_sum():
    rng = random.Random(5)
    pc = ci.recognize_partial_cube(hypercube(4))
    for _ in range(5):
        cp = random_coarser(rng, pc.theta)
        for i in range(cp.group_count):
            wq = ci.build_quotient(pc, cp, i)
            assert sum(wq.vertex_weight) == 16
            group_size = sum(len(pc.theta.classes[j]) for j in cp.groups[i])
            assert sum(wq.edge_weight) == group_size


def test_base_weights_propagate():
    pc = ci.recognize_partial_cube(cycle(4))
    cp = ci.finest_partition(pc.theta)
    wq = ci.build_quotient(pc, cp, 0, base_vertex_weights=[10, 1, 2, 3])
    assert sum(wq.vertex_weight) == 16
    assert wq.vertex_weight == (13, 3)  # components {0,3} and {1,2}
    with pytest.raises(ci.GraphError):
        ci.build_quotient(pc, cp, 0, base_vertex_weights=[1, 1])


def test_finest_grouping_matches_class_sides():
    pc = ci.recognize_partial_cube(hypercube(3))
    cp = ci.finest_partition(pc.theta)
    for j in range(pc.dimension):
        wq = ci.build_quotient(pc, cp, j)
        n1, n2, size = ci.class_sides(pc, j)
        assert ci.quotient_theta_classes(wq) == [ci.CutRow(j, size, len(n1), len(n2))]


def test_quotients_are_partial_cubes_and_transfer_is_exact():
    rng = random.Random(17)
    for g in (hypercube(4), cycle(10), random_tree(rng, 16)):
        pc = ci.recognize_partial_cube(g)
        for _ in range(4):
            cp = random_coarser(rng, pc.theta)
            seen_classes = set()
            for i in range(cp.group_count):
                wq = ci.build_quotient(pc, cp, i)
                assert isinstance(
                    ci.recognize_partial_cube(wq.quotient), ci.PartialCube
                )
                rows = ci.quotient_theta_classes(wq)
                assert [row.class_index for row in rows] == list(cp.groups[i])
                for j, size, n1, n2 in rows:
                    side1, side2, class_size = ci.class_sides(pc, j)
                    assert (size, n1, n2) == (class_size, len(side1), len(side2))
                    seen_classes.add(j)
            assert seen_classes == set(range(pc.dimension))


def test_group_index_out_of_range():
    pc = ci.recognize_partial_cube(cycle(4))
    cp = ci.finest_partition(pc.theta)
    with pytest.raises(ci.GraphError):
        ci.build_quotient(pc, cp, 2)


def test_non_cut_classes_rejected():
    # a fake partition whose "class" does not disconnect the graph
    g = cycle(4)
    fake = ci.ThetaPartition.from_classes([{0}, {1, 2, 3}], 4)
    with pytest.raises(ci.GraphError, match="not cut classes"):
        ci.quotient_by_edge_classes(g, fake, (0,))


def test_fold_rejects_a_quotient_edge_of_two_classes():
    # C4 with opposite edges 0 and 2 in separate classes: both fold into one quotient edge.
    g = cycle(4)
    fake = ci.ThetaPartition.from_classes([[0], [2], [1, 3]], 4)
    with pytest.raises(ci.GraphError) as err:
        ci.quotient_by_edge_classes(g, fake, (2, 0))
    assert str(err.value) == "quotient edge 0 represents original classes [0, 2]; expected exactly one"


def _folded(wq):
    return (wq.vertex_weight, wq.quotient.edges, wq.edge_weight, wq.edge_class, wq.membership)


def test_array_fold_equals_python_fold():
    rng = random.Random(23)
    cases = [ci.recognize_partial_cube(g) for g in (hypercube(5), cycle(12), random_tree(rng, 200))]
    spec = ci.C4C8Spec([(i, j) for i in range(5) for j in range(5)])
    g, tags, theta = ci.c4c8_theta_partition(spec)
    for pc in cases:
        for _ in range(3):
            cp = random_coarser(rng, pc.theta)
            for group in cp.groups:
                n = pc.graph.vertex_count
                floats = [rng.random() * 10 for _ in range(n)]
                huge = [2**63 + rng.randrange(2**70) for _ in range(n)]
                for base in (None, floats, huge):
                    wq = ci.quotient_by_edge_classes(pc.graph, pc.theta, group, base)
                    assert _folded(wq) == folded_quotient(pc.graph, pc.theta, group, base)
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
        fake = ci.ThetaPartition.from_classes(
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
