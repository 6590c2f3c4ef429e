import random
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutindex as ci
from cutindex.chem import _assemble, c4c8_theta_partition
from cutindex.cli import main
from helpers import (
    all_benzenoid_cellsets,
    all_c4c8_cellsets,
    bounded_cells,
    cell_set_error,
    chain_walk_classes,
    check_partition_store,
    face_join_reference,
    random_benzenoid,
    random_c4c8,
    reference_quotient_trees,
    run_under_1gib,
)


def _names(tags):
    return [ci.DIRECTIONS[code] for code in tags.tolist()]


def test_single_octagon():
    g, tags, coords = ci.build_c4c8(ci.C4C8Spec([(0, 0)]))
    assert g.vertex_count == 8 and g.edge_count == 8
    assert tags.dtype == np.int8 and tags.shape == (8,)
    assert Counter(_names(tags)) == {"H": 2, "V": 2, "D+": 2, "D-": 2}
    assert len(set(coords)) == 8
    assert ci.wiener_brute(g) == 64
    assert ci.szeged_brute(g) == 128


def test_two_horizontal_cells_share_one_v_edge():
    g, tags, _ = ci.build_c4c8(ci.C4C8Spec([(0, 0), (1, 0)]))
    assert g.vertex_count == 14 and g.edge_count == 15
    assert Counter(_names(tags))["V"] == 3


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
        assert (g2.vertex_count, g2.edges, theta2) == (g.vertex_count, g.edges, theta)
        assert tags2.tolist() == tags.tolist()
        coords, coords2 = build(spec)[2], build(spec2)[2]
        assert coords2 == tuple((x + shift, y + shift) for x, y in coords)


def test_benzenoid_counts():
    g, tags, _ = ci.build_benzenoid(ci.BenzenoidSpec([(0, 0)]))
    assert g.vertex_count == 6 and g.edge_count == 6
    assert len(set(_names(tags))) == 3
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
    codes = np.zeros(g.edge_count, dtype=np.int8)
    codes[theta.classes[0][0]] = ci.DIRECTIONS.index("V")
    # the tags of class 2's smallest edge, and of no other, turned to the next direction
    turned = tags.copy()
    turned[theta.classes[2][0]] = (turned[theta.classes[2][0]] + 1) % 4
    mixed2 = sorted({ci.DIRECTIONS[tags[theta.classes[2][0]]], ci.DIRECTIONS[turned[theta.classes[2][0]]]})
    for bad, message in [
        (tuple(bad_tags), "class 0 mixes directions ['H', 'V']; not an elementary cut"),
        (bad_tags, "class 0 mixes directions ['H', 'V']; not an elementary cut"),
        (codes, "class 0 mixes directions ['H', 'V']; not an elementary cut"),
        (turned, f"class 2 mixes directions {mixed2}; not an elementary cut"),
        (tuple(_names(turned)), f"class 2 mixes directions {mixed2}; not an elementary cut"),
    ]:
        with pytest.raises(ci.GraphError) as err:
            ci.direction_partition(g, bad, theta)
        assert str(err.value) == message
    for short in [("H",), np.zeros(1, dtype=np.int8), tags[:-1], tuple(_names(tags)) + ("H",)]:
        with pytest.raises(ci.GraphError) as err:
            ci.direction_partition(g, short, theta)
        assert str(err.value) == "one direction tag per edge required"


def test_direction_partition_of_codes_equals_that_of_names():
    rng = random.Random(73)
    specs = [random_c4c8(rng, 12) for _ in range(10)] + [random_benzenoid(rng, 12) for _ in range(10)]
    for spec in specs:
        g, tags, theta = c4c8_theta_partition(spec)
        cp = ci.direction_partition(g, tags, theta)
        assert cp == ci.direction_partition(g, tuple(_names(tags)), theta)
        assert cp == ci.direction_partition(g, np.array(_names(tags)), theta)
        # groups by smallest class, each a tag's classes in order, every class once
        by_tag = {}
        for j, cls in enumerate(theta.classes):
            by_tag.setdefault(tags[cls[0]], []).append(j)
        assert cp.groups == tuple(sorted(map(tuple, by_tag.values())))
        assert all(type(j) is int for group in cp.groups for j in group)


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
        g2, tags2, _ = build(spec)
        assert g2 == g and tags2.tolist() == tags.tolist()


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
    for bad in ([(0.5, 0), (1.9, 0)], [("0", "0"), ("1", "0")], [(np.float64(0), 0)],
                np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([["0", "0"], ["1", "0"]])):
        with pytest.raises(TypeError):
            spec_type(bad)
    spec = spec_type([(np.int64(0), np.int32(0)), (np.int32(1), np.int64(0))])
    assert spec == spec_type([(0, 0), (1, 0)])
    assert all(type(k) is int for cell in spec.cells for k in cell)


@pytest.mark.parametrize("spec_type", [ci.C4C8Spec, ci.BenzenoidSpec])
def test_array_cells_keep_the_spec_contract(spec_type):
    cells = [(0, 0), (1, 0), (0, 1), (1, -1)]
    spec = spec_type(cells)
    g, tags, theta = c4c8_theta_partition(spec)
    # unsigned arrays hold the cells moved into their range; uint64 past 2**63
    # does not cast safely to int64 and keeps its exact coordinates
    shifts = {np.uint8: (1, 1), np.uint64: (2**63, 2**64 - 2)}
    for dtype in (np.int64, np.int32, np.uint8, np.int8, np.uint64):
        di, dj = shifts.get(dtype, (0, 0))
        moved = [(i + di, j + dj) for i, j in cells]
        twin = spec_type(moved)
        source = np.array(moved, dtype)
        array_spec = spec_type(source)
        source[0] = (50, 50)  # the spec keeps nothing of its input
        assert list(array_spec.__dict__) == ["_grid"]
        assert array_spec == twin and not array_spec != twin and hash(array_spec) == hash(twin)
        assert repr(array_spec) == repr(twin) == f"{spec_type.__name__}(cells={twin.cells!r})"
        assert array_spec.cells == twin.cells == frozenset(moved)
        assert all(type(k) is int for cell in array_spec.cells for k in cell)
        g2, tags2, theta2 = c4c8_theta_partition(array_spec)
        assert (g2, tags2.tolist(), theta2) == (g, tags.tolist(), theta)
        assert c4c8_theta_partition(twin)[::2] == (g2, theta2)
    # equal specs print equal reprs, whatever order their cells came in
    for again in (spec_type(cells[::-1]), spec_type(np.array(cells[::-1])), spec_type(set(cells))):
        assert again == spec and repr(again) == repr(spec)
    # duplicates collapse, in arrays and in lists, whatever their order
    for twice in (cells + cells[::-1], np.array(cells * 3), np.array(cells[:1] * 2 + cells)):
        again = spec_type(twice)
        assert again == spec and again.faces()[0] == spec.faces()[0]
        assert [a.tolist() for a in again.faces()[1][0][:1]] == [a.tolist() for a in spec.faces()[1][0][:1]]
        assert ci.c4c8_indices(again) == ci.c4c8_indices(spec)
    assert spec != ci.C4C8Spec(cells) if spec_type is ci.BenzenoidSpec else spec != ci.BenzenoidSpec(cells)
    with pytest.raises(AttributeError):
        spec.cells = frozenset()
    # arrays near the int64 ends build the same system
    for shift in (10**18 - 2, -(10**18), 2**62 - 2, 2**62, -(2**62) + 2, 2**63 - 2, -(2**63) + 1):
        far = np.array([(i + shift, j + shift) for i, j in cells], dtype=np.int64)
        far_spec = spec_type(far)
        assert list(far_spec.__dict__) == ["_grid"]
        g2, tags2, theta2 = c4c8_theta_partition(far_spec)
        assert (g2, tags2.tolist(), theta2) == (g, tags.tolist(), theta)
        assert far_spec.cells == {tuple(cell) for cell in far.tolist()}
    with pytest.raises(ci.GraphError, match="at least one cell"):
        spec_type(np.zeros((0, 2), dtype=np.int64))


@pytest.mark.parametrize("spec_type", [ci.C4C8Spec, ci.BenzenoidSpec])
def test_array_cell_errors_equal_tuple_cell_errors(spec_type):
    # One text per cell set, whatever the input type: int64 arrays, lists,
    # frozensets, and the same sets moved past int64 (Python-int arrays),
    # whose texts name the moved cells.  Sets spanning all of int64 must not
    # wrap their offsets into near cells.
    top, far = 2**63 - 1, (2**70, -(2**70))
    for cells in ([(0, 0), (2, 0)], [(0, 0), (0, 5), (0, 0)], [(0, 0), (10**18, 0)],
                  [(-top, 0), (top - 1, 0)], [(0, -top - 1), (0, top)],
                  [(0, top), (1, top), (0, -top - 1)],
                  [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]):
        with pytest.raises(ci.GraphError) as by_tuples:
            spec_type(cells)
        text = str(by_tuples.value)
        moved = [(i + far[0], j + far[1]) for i, j in cells]
        moved_text = re.sub(r"\((-?\d+), (-?\d+)\)",
                            lambda m: str((int(m[1]) + far[0], int(m[2]) + far[1])), text)
        for same, expected in ((np.array(cells, dtype=np.int64), text), (frozenset(cells), text),
                               (moved, moved_text), (frozenset(moved), moved_text)):
            with pytest.raises(ci.GraphError) as other:
                spec_type(same)
            assert str(other.value) == expected


def test_theta_partition_store_on_all_small_cell_sets():
    specs = [ci.C4C8Spec(c) for c in all_c4c8_cellsets(4)]
    specs += [ci.BenzenoidSpec(c) for c in all_benzenoid_cellsets(4)]
    for spec in specs:
        g, _, theta = c4c8_theta_partition(spec)
        classes = tuple(sorted(tuple(sorted(c)) for c in chain_walk_classes(g.edge_count, _assemble(spec)[2])))
        class_of = [0] * g.edge_count
        for j, cls in enumerate(classes):
            for k in cls:
                class_of[k] = j
        check_partition_store(theta, classes, tuple(class_of))


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
    # Only the cut table reads the classes; the indices alone come from runs.
    argv = ["index", str(path), "--method", "partition", "--partition", "direction", "--verbose"]
    assert main(argv) == 3
    assert expected in capsys.readouterr().err


def test_run_indices_equal_the_report_on_all_small_cell_sets():
    # Every valid cell set of up to six cells, of both kinds.
    counts = Counter()
    families = ((ci.C4C8Spec, all_c4c8_cellsets(6)), (ci.BenzenoidSpec, all_benzenoid_cellsets(6)))
    for spec_type, sets in families:
        for cells in sets:
            if cell_set_error(cells, spec_type._NEIGHBORS, spec_type._COMPLEMENT, spec_type._KIND):
                continue
            spec = spec_type(cells)
            assert ci.c4c8_indices(spec) == ci.c4c8_report(spec)[:2], sorted(cells)
            counts[spec_type._KIND] += 1
    assert counts == {"C4C8": 307, "benzenoid": 1058}


# (0, 0) and (1, 1) meet at a corner only, (1, 0) and (0, 1) being absent.
_PINCH = ((0, 0), (-1, 0), (-1, 1), (-1, 2), (0, 2), (1, 2), (1, 1))


@st.composite
def _cell_systems(draw):
    """A spec type and a valid cell set of it, built from ladders, pinches and blobs.

    A ladder of full 2 x 2 blocks along a diagonal makes long diagonal runs;
    dropping a few cells afterwards breaks some of its blocks.
    """
    spec_type = draw(st.sampled_from([ci.C4C8Spec, ci.BenzenoidSpec]))
    pieces = st.tuples(
        st.sampled_from(["ladder", "pinch", "blob"]), st.integers(-4, 4), st.integers(-4, 4),
        st.integers(1, 8), st.sampled_from([1, -1]), st.sampled_from([1, -1]),
    )
    cells = set()
    for shape, x, y, n, si, sj in draw(st.lists(pieces, min_size=1, max_size=5)):
        if shape == "ladder":
            part = {(t + di, t + dj) for t in range(n) for di in (0, 1) for dj in (0, 1)}
        elif shape == "pinch":
            part = set(_PINCH)
        else:
            part = {(t % 3, t // 3) for t in range(n)}
        cells |= {(x + si * i, y + sj * j) for i, j in part}
    for cell in draw(st.lists(st.sampled_from(sorted(cells)), max_size=4)):
        if len(cells) > 1:
            cells.discard(cell)
    return spec_type, sorted(bounded_cells(cells, spec_type._NEIGHBORS, spec_type._COMPLEMENT))


@settings(max_examples=150, deadline=None)
@given(_cell_systems())
def test_run_indices_equal_the_report_on_drawn_cell_sets(system):
    # The same set moved by (+2**70, -2**70) takes the object-array grid path.
    spec_type, cells = system
    spec = spec_type(cells)
    far = spec_type([(i + 2**70, j - 2**70) for i, j in cells])
    assert ci.c4c8_indices(spec) == ci.c4c8_indices(far) == ci.c4c8_report(spec)[:2]


@pytest.mark.parametrize(
    "spec",
    [ci.C4C8Spec([(0, 0), (1, 0), (0, 1), (1, 1)]), ci.BenzenoidSpec([(0, 0), (1, 0), (0, 1)])],
    ids=["c4c8", "benzenoid"],
)
def test_run_indices_overflow_as_the_report_does(monkeypatch, spec):
    # Once with the Wiener index over the limit, once with only the Szeged index over.
    wiener, szeged, _ = ci.c4c8_report(spec)
    for limit, over in ((wiener - 1, f"Wiener index {wiener}"), (wiener, f"Szeged index {szeged}")):
        monkeypatch.setattr("cutindex.core.U64_MAX", limit)
        texts = []
        for route in (ci.c4c8_indices, ci.c4c8_report):
            with pytest.raises(ci.IndexOverflowError) as exc:
                route(spec)
            texts.append(str(exc.value))
        assert texts == [f"{over} exceeds unsigned 64-bit range"] * 2


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


def test_direction_codes_name_each_edge_as_direction_tag_does():
    rng = random.Random(79)
    specs = [ci.C4C8Spec(c) for c in all_c4c8_cellsets(3)]
    specs += [ci.BenzenoidSpec(c) for c in all_benzenoid_cellsets(3)]
    specs += [random_c4c8(rng, 12) for _ in range(5)] + [random_benzenoid(rng, 12) for _ in range(5)]
    for spec in specs:
        g, tags, coords = (ci.build_c4c8 if isinstance(spec, ci.C4C8Spec) else ci.build_benzenoid)(spec)
        assert _names(tags) == [ci.direction_tag(coords[u], coords[v]) for u, v in g.edges]
