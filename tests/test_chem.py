import random
import sys
from collections import Counter

import numpy as np
import pytest

import cutindex as ci
from cutindex.chem import _assemble, c4c8_theta_partition
from cutindex.cli import main
from helpers import (
    all_benzenoid_cellsets,
    all_c4c8_cellsets,
    cell_set_error,
    chain_walk_classes,
    face_join_reference,
    random_benzenoid,
    random_c4c8,
    reference_quotient_trees,
    run_under_1gib,
)


def test_single_octagon():
    g, tags, coords = ci.build_c4c8(ci.C4C8Spec([(0, 0)]))
    assert g.vertex_count == 8 and g.edge_count == 8
    assert Counter(tags) == {"H": 2, "V": 2, "D+": 2, "D-": 2}
    assert len(set(coords)) == 8
    assert ci.wiener_brute(g) == 64
    assert ci.szeged_brute(g) == 128


def test_two_horizontal_cells_share_one_v_edge():
    g, tags, _ = ci.build_c4c8(ci.C4C8Spec([(0, 0), (1, 0)]))
    assert g.vertex_count == 14 and g.edge_count == 15
    assert Counter(tags)["V"] == 3


def test_2x2_block_and_central_diamond():
    spec = ci.C4C8Spec([(0, 0), (1, 0), (0, 1), (1, 1)])
    g, tags, coords = ci.build_c4c8(spec)
    assert g.vertex_count == 24 and g.edge_count == 28
    # the four edges around the central square are all present
    vid = {p: i for i, p in enumerate(coords)}
    corners = [(1, 2), (2, 1), (3, 2), (2, 3)]
    ring = [(vid[corners[i]], vid[corners[(i + 1) % 4]]) for i in range(4)]
    present = {(min(u, v), max(u, v)) for u, v in g.edges}
    for u, v in ring:
        assert (min(u, v), max(u, v)) in present


def test_c4c8_rejects_disconnected_and_holes():
    with pytest.raises(ci.GraphError, match="disconnected"):
        ci.build_c4c8(ci.C4C8Spec([(0, 0), (1, 1)]))
    with pytest.raises(ci.GraphError, match="at least one cell"):
        ci.build_c4c8(ci.C4C8Spec([]))
    ring = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    with pytest.raises(ci.GraphError, match="hole"):
        ci.build_c4c8(ci.C4C8Spec(ring))


def _spec_error(spec_type, cells):
    try:
        spec_type(cells)
    except ci.GraphError as exc:
        return str(exc)
    return None


def test_cell_check_texts_equal_set_floods():
    # Random cell sets, connected, disconnected or holed, some shifted past
    # int64.  Some get one cell off to the side: a few set sizes along a row,
    # or up to 2**80 rows away, which must not make the check build the box.
    rng = random.Random(61)
    outcomes = set()
    for trial in range(600):
        spec_type = (ci.C4C8Spec, ci.BenzenoidSpec)[trial % 2]
        a, b, p = rng.randint(1, 6), rng.randint(1, 6), rng.random()
        cells = {(i, j) for i in range(a) for j in range(b) if rng.random() < p}
        if trial % 5 == 0:
            cells.add((rng.choice((-1, 1)) * 2 ** rng.randint(2, 80), rng.randint(-3, 3)))
        elif trial % 5 == 1:
            cells.add((rng.randint(0, 6), rng.choice((-1, 1)) * rng.randint(1, 3 * len(cells) + 9)))
        shift = rng.choice((0, 2**70, -(2**70)))
        cells = [(i + shift, j - shift) for i, j in cells]
        expected = cell_set_error(cells, spec_type._NEIGHBORS, spec_type._COMPLEMENT, spec_type._KIND)
        assert _spec_error(spec_type, cells) == expected, cells
        outcomes.add(next((w for w in ("needs", "disconnected", "hole") if w in (expected or "")), None))
    assert outcomes == {None, "needs", "disconnected", "hole"}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize(
    "spec_type, cells",
    [
        ("C4C8Spec", "[(k // 2 + k % 2, k // 2) for k in range(20000)]"),
        ("BenzenoidSpec", "[(k, -k) for k in range(20000)]"),
    ],
    ids=["c4c8-staircase", "benzenoid-diagonal"],
)
def test_sparse_cell_sets_validate_in_bounded_memory(spec_type, cells):
    # Valid sets whose bounding box holds 10^8 cells or more: the hole check
    # must not flood the box.
    code = f"import cutindex as ci; print(len(ci.{spec_type}({cells}).cells))"
    proc = run_under_1gib("-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "20000\n", "")


def test_far_translated_cells_build_the_same_system():
    cells = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
    far = 2**70  # past int64: the face join must not overflow
    for spec_type, build, shift in (
        (ci.C4C8Spec, ci.build_c4c8, 4 * far),
        (ci.BenzenoidSpec, ci.build_benzenoid, 3 * far),
    ):
        spec, spec2 = spec_type(cells), spec_type([(i + far, j + far) for i, j in cells])
        g, tags, theta = c4c8_theta_partition(spec)
        g2, tags2, theta2 = c4c8_theta_partition(spec2)
        assert (g2.vertex_count, g2.edges, tags2, theta2) == (g.vertex_count, g.edges, tags, theta)
        coords, coords2 = build(spec)[2], build(spec2)[2]
        assert coords2 == tuple((x + shift, y + shift) for x, y in coords)


def test_benzenoid_counts():
    g, tags, _ = ci.build_benzenoid(ci.BenzenoidSpec([(0, 0)]))
    assert g.vertex_count == 6 and g.edge_count == 6
    assert len(set(tags)) == 3
    assert ci.wiener_brute(g) == 27
    assert ci.szeged_brute(g) == 54
    g2, _, _ = ci.build_benzenoid(ci.BenzenoidSpec([(0, 0), (1, 0)]))
    assert g2.vertex_count == 10 and g2.edge_count == 11
    g3, _, _ = ci.build_benzenoid(ci.BenzenoidSpec([(0, 0), (1, 0), (2, 0)]))
    assert g3.vertex_count == 14 and g3.edge_count == 16


def test_benzenoid_rejects_hole():
    ring = [(1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2)]  # coronene-style ring
    with pytest.raises(ci.GraphError, match="hole"):
        ci.build_benzenoid(ci.BenzenoidSpec(ring))


def test_direction_partition_single_octagon():
    g, tags, theta = c4c8_theta_partition(ci.C4C8Spec([(0, 0)]))
    assert theta.class_count == 4
    cp = ci.direction_partition(g, tags, theta)
    assert len(cp.groups) == 4
    assert all(len(group) == 1 for group in cp.groups)
    assert all(len(theta.classes[g0]) == 2 for (g0,) in cp.groups)


def test_direction_partition_2x2():
    g, tags, theta = c4c8_theta_partition(
        ci.C4C8Spec([(0, 0), (1, 0), (0, 1), (1, 1)])
    )
    cp = ci.direction_partition(g, tags, theta)
    assert len(cp.groups) == 4


def test_direction_partition_single_hexagon():
    g, tags, _ = ci.build_benzenoid(ci.BenzenoidSpec([(0, 0)]))
    theta = ci.theta_star_classes(g)
    cp = ci.direction_partition(g, tags, theta)
    assert len(cp.groups) == 3
    assert all(len(group) == 1 for group in cp.groups)


def test_direction_partition_rejects_mixed_class():
    g, tags, theta = c4c8_theta_partition(ci.C4C8Spec([(0, 0)]))
    bad_tags = ["H"] * g.edge_count
    bad_tags[theta.classes[0][0]] = "V"
    with pytest.raises(ci.GraphError, match="mixes directions"):
        ci.direction_partition(g, tuple(bad_tags), theta)
    with pytest.raises(ci.GraphError, match="per edge"):
        ci.direction_partition(g, ("H",), theta)


def test_geometric_cuts_match_theta_for_all_small_systems():
    for cells in all_c4c8_cellsets(3):
        spec = ci.C4C8Spec(cells)
        g, _, theta_geo = c4c8_theta_partition(spec)
        theta_bf = ci.theta_star_classes(g)
        assert set(theta_geo.classes) == set(theta_bf.classes)


def test_geometric_benzenoid_classes_match_theta():
    cellsets = all_benzenoid_cellsets(4)
    assert Counter(len(c) for c in cellsets) == {1: 1, 2: 3, 3: 11, 4: 44}
    specs = [ci.BenzenoidSpec(cells) for cells in cellsets]
    rng = random.Random(61)
    specs += [random_benzenoid(rng, 10) for _ in range(20)]
    for spec in specs:
        g, _, theta_geo = c4c8_theta_partition(spec)
        assert set(theta_geo.classes) == set(ci.theta_star_classes(g).classes)


def test_kernel_classes_equal_the_chain_walk():
    rng = random.Random(67)
    block = [(i, j) for i in range(30) for j in range(30)]
    specs = [ci.C4C8Spec(c) for c in all_c4c8_cellsets(4)]
    specs += [ci.BenzenoidSpec(c) for c in all_benzenoid_cellsets(4)]
    specs += [random_c4c8(rng, 12) for _ in range(20)]
    specs += [random_benzenoid(rng, 12) for _ in range(20)]
    specs += [ci.C4C8Spec(block), ci.BenzenoidSpec(block)]
    for spec in specs:
        g, tags, theta = c4c8_theta_partition(spec)
        walk = chain_walk_classes(g.edge_count, _assemble(spec)[2])
        assert theta == ci.ThetaPartition.from_classes(walk, g.edge_count)
        build = ci.build_c4c8 if isinstance(spec, ci.C4C8Spec) else ci.build_benzenoid
        assert build(spec)[:2] == (g, tags)


def test_face_join_equals_a_plain_python_numbering():
    rng = random.Random(71)
    block = [(i, j) for i in range(30) for j in range(30)]
    far = [(i + 2**70, j - 2**70) for i, j in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]]
    specs = [ci.C4C8Spec(c) for c in all_c4c8_cellsets(4)]
    specs += [ci.BenzenoidSpec(c) for c in all_benzenoid_cellsets(4)]
    specs += [random_c4c8(rng, 12) for _ in range(20)]
    specs += [random_benzenoid(rng, 12) for _ in range(20)]
    specs += [ci.C4C8Spec(block), ci.BenzenoidSpec(block), ci.C4C8Spec(far), ci.BenzenoidSpec(far)]
    for spec in specs:
        points, edges, pairs = face_join_reference(spec)
        g, _, got_pairs, (ox, oy), got_points = _assemble(spec)
        assert [(x + ox, y + oy) for x, y in got_points.tolist()] == points
        assert g.edges == tuple(edges)
        assert sorted(tuple(sorted(p)) for p in got_pairs.tolist()) == pairs


@pytest.mark.parametrize("spec_type", [ci.C4C8Spec, ci.BenzenoidSpec])
def test_cell_coordinates_must_be_integers(spec_type):
    for bad in ([(0.5, 0), (1.9, 0)], [("0", "0"), ("1", "0")], [(np.float64(0), 0)]):
        with pytest.raises(TypeError):
            spec_type(bad)
    spec = spec_type([(np.int64(0), np.int32(0)), (np.int32(1), np.int64(0))])
    assert spec == spec_type([(0, 0), (1, 0)])
    assert all(type(k) is int for cell in spec.cells for k in cell)


def test_all_cellset_enumeration_counts():
    sets = all_c4c8_cellsets(4)
    sizes = Counter(len(c) for c in sets)
    assert sizes == {1: 1, 2: 2, 3: 6, 4: 19}


def test_pipeline_matches_brute_on_small_systems():
    for cells in all_c4c8_cellsets(3):
        spec = ci.C4C8Spec(cells)
        g, _, _ = ci.build_c4c8(spec)
        assert ci.c4c8_indices(spec) == (ci.wiener_brute(g), ci.szeged_brute(g))


def test_generated_systems_are_partial_cubes():
    rng = random.Random(51)
    for _ in range(5):
        spec = random_c4c8(rng, 8)
        g, _, _ = ci.build_c4c8(spec)
        assert isinstance(ci.recognize_partial_cube(g), ci.PartialCube)
    for _ in range(5):
        bspec = random_benzenoid(rng, 6)
        g, _, _ = ci.build_benzenoid(bspec)
        assert isinstance(ci.recognize_partial_cube(g), ci.PartialCube)


def test_direction_quotients_are_trees():
    rng = random.Random(53)
    for _ in range(5):
        spec = random_c4c8(rng, 8)
        g, tags, theta = c4c8_theta_partition(spec)
        cp = ci.direction_partition(g, tags, theta)
        for i in range(len(cp.groups)):
            wq = ci.quotient_by_edge_classes(g, theta, cp.groups[i])
            q = wq.quotient
            assert q.edge_count == q.vertex_count - 1


def test_benzenoid_direction_partition_reproduces_brute():
    rng = random.Random(59)
    for _ in range(20):
        bspec = random_benzenoid(rng, 10)
        g, tags, _ = ci.build_benzenoid(bspec)
        pc = ci.recognize_partial_cube(g)
        cp = ci.direction_partition(g, tags, pc.theta)
        assert len(cp.groups) <= 3
        assert ci.wiener_via_partition(pc, cp) == ci.wiener_brute(g)
        assert ci.szeged_via_partition(pc, cp) == ci.szeged_brute(g)
        # benzenoid direction quotients are trees as well
        for i in range(len(cp.groups)):
            q = ci.quotient_by_edge_classes(pc.graph, pc.theta, cp.groups[i]).quotient
            assert q.edge_count == q.vertex_count - 1


def test_c4c8_report_rows_match_cut_summaries():
    # C4C8 rows keep the tree pass's side without vertex 0 first.  The oracle
    # takes that orientation from recognition: bit j of vertex 0's label is 0
    # where vertex 0 lies on the anchor's side, whose count the cut route puts first.
    rng = random.Random(67)
    specs = [ci.C4C8Spec([(0, 0), (1, 0), (1, 1)])] + [random_c4c8(rng, 9) for _ in range(4)]
    for spec in specs:
        g, _, _ = ci.build_c4c8(spec)
        wiener, szeged, rows = ci.c4c8_report(spec)
        pc = ci.recognize_partial_cube(g)
        ref = [
            row._replace(n1=row.n2, n2=row.n1) if not pc.labels[0] >> j & 1 else row
            for j, row in enumerate(ci.cut_class_summaries(pc))
        ]
        assert rows == ref
        assert wiener == sum(a * b for _, _, a, b in rows)
        assert szeged == sum(size * a * b for _, size, a, b in rows)


@pytest.mark.parametrize("max_cells", [1, 5, 15, 40])
def test_benzenoid_report_rows_equal_partition_rows(max_cells):
    # The tree pass, turned to put the class anchor's side first, gives the
    # partition route's table row for row.
    rng = random.Random(61 + max_cells)
    for _ in range(12):
        bspec = random_benzenoid(rng, max_cells)
        g, tags, theta = c4c8_theta_partition(bspec)
        expected = ci.partition_rows(g, theta, ci.direction_partition(g, tags, theta))
        wiener, szeged, rows = ci.c4c8_report(bspec)
        assert rows == expected
        assert ci.c4c8_indices(bspec) == (wiener, szeged)
        assert (wiener, szeged) == (ci.wiener_brute(g), ci.szeged_brute(g))


@pytest.mark.parametrize("fault", ["split", "merge"])
def test_report_rejects_classes_not_one_per_quotient_edge(monkeypatch, tmp_path, capsys, fault):
    # A split class puts two classes on one quotient edge; two merged classes
    # of one direction put one class on two quotient edges.
    spec = ci.BenzenoidSpec([(0, 0), (1, 0), (0, 1)])
    g, tags, theta = c4c8_theta_partition(spec)
    classes = [list(c) for c in theta.classes]
    if fault == "split":
        j = next(j for j, c in enumerate(classes) if len(c) > 1)
        classes += [classes[j][1:]]
        classes[j] = classes[j][:1]
    else:
        j, k = next((j, k) for j in range(len(classes)) for k in range(j)
                    if tags[classes[j][0]] == tags[classes[k][0]])
        classes[k] += classes.pop(j)
    bad = ci.ThetaPartition.from_classes(classes, g.edge_count)
    monkeypatch.setattr("cutindex.chem.c4c8_theta_partition", lambda s: (g, tags, bad))
    # The fold refuses the split class; the reader refuses the merged one,
    # whose two edges of the tree quotient leave three parts.
    expected = "expected exactly one" if fault == "split" else "splits its quotient into 3 parts"
    with pytest.raises(ci.GraphError, match=expected):
        ci.c4c8_report(spec)
    path = tmp_path / "s.cells"
    path.write_text("t benzenoid\nc 0 0\nc 1 0\nc 0 1\n")
    argv = ["index", str(path), "--method", "partition", "--partition", "direction"]
    assert main(argv) == 3
    assert expected in capsys.readouterr().err


def test_fixture_trees_shape():
    trees = reference_quotient_trees()
    assert [t.graph.vertex_count for t in trees] == [5, 3, 4, 4]
    assert [sum(t.w) for t in trees] == [28, 28, 28, 28]
    assert [sum(t.w_edge) for t in trees] == [11, 6, 10, 7]


def test_direction_tag():
    assert ci.direction_tag((0, 0), (2, 0)) == "H"
    assert ci.direction_tag((0, 0), (0, 2)) == "V"
    assert ci.direction_tag((0, 0), (1, 1)) == "D+"
    assert ci.direction_tag((1, 1), (0, 0)) == "D+"
    assert ci.direction_tag((0, 1), (1, 0)) == "D-"
