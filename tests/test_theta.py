import functools
import itertools
import random

import numpy as np
import pytest

import cutindex as ci
from cutindex import theta as theta_module
from cutindex.cli import main
from cutindex.files import format_graph_file
from helpers import (
    class_sides,
    complete,
    cycle,
    hypercube,
    hypercube_near_miss,
    indices_by_definition,
    label_ints,
    pack_labels,
    partition_from_classes,
    path,
    petersen,
    random_benzenoid,
    random_c4c8,
    random_tree,
    check_partition_store,
    relabelled,
    theta_closure_by_pairs,
    theta_related,
)


def test_from_classes_rejects_an_empty_class():
    with pytest.raises(ci.GraphError) as err:
        partition_from_classes([[0], []], 1)
    assert str(err.value) == "empty edge class"


def test_theta_related_c4():
    d = ci.distance_matrix(cycle(4))
    assert theta_related(d, (0, 1), (2, 3))  # opposite: 2+2 != 1+1
    assert not theta_related(d, (0, 1), (1, 2))  # adjacent: 1+1 == 2+0
    assert theta_related(d, (0, 1), (0, 1))  # reflexive: 0+0 != 1+1


def test_theta_related_symmetric():
    g = hypercube(3)
    d = ci.distance_matrix(g)
    for e, f in itertools.combinations(g.edges, 2):
        assert theta_related(d, e, f) == theta_related(d, f, e)


def test_tree_classes_are_singletons():
    g = path(4)
    d = ci.distance_matrix(g)
    for e, f in itertools.combinations(g.edges, 2):
        assert not theta_related(d, e, f)
    tp = ci.theta_star_classes(g)
    assert tp.classes == ((0,), (1,), (2,))


def test_c4_classes_pair_opposite_edges():
    tp = ci.theta_star_classes(cycle(4))
    assert tp.classes == ((0, 2), (1, 3))
    assert tp.labels.tolist() == [0, 1, 0, 1]


def test_q3_classes_are_parallel_edges():
    g = hypercube(3)
    tp = ci.theta_star_classes(g)
    assert [len(c) for c in tp.classes] == [4, 4, 4]
    # independent oracle: a hypercube edge's class is its flipped bit
    for cls in tp.classes:
        bits = {(g.edges[k][0] ^ g.edges[k][1]) for k in cls}
        assert len(bits) == 1


def test_theta_star_matches_pairwise_union_on_random_graphs():
    # the blocked numpy path must agree with direct scalar tests
    g = hypercube(4)
    d = ci.distance_matrix(g)
    tp = ci.theta_star_classes(g)
    for e, f in itertools.combinations(range(g.edge_count), 2):
        related = theta_related(d, g.edges[e], g.edges[f])
        if related:
            assert tp.labels[e] == tp.labels[f]


def test_theta_star_rejects_disconnected():
    with pytest.raises(ci.GraphError):
        ci.theta_star_classes(ci.build_graph(4, [(0, 1), (2, 3)]))


def test_recognize_q3():
    g = hypercube(3)
    pc = ci.recognize_partial_cube(g)
    assert isinstance(pc, ci.PartialCube)
    assert pc.dimension == 3
    labels = label_ints(pc)
    assert all(0 <= lab < 8 for lab in labels)
    # exhaustive independent Hamming check over all 28 pairs
    d = ci.distance_matrix(g)
    for u, v in itertools.combinations(range(8), 2):
        assert bin(labels[u] ^ labels[v]).count("1") == d[u, v]


def test_recognize_k23_rejected_with_verifiable_witness():
    g = ci.build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    w = ci.recognize_partial_cube(g)
    assert isinstance(w, ci.RecognitionWitness)
    assert w.kind in ("bad_class_cut", "hamming_violation")
    assert w.verify(g)


def test_recognize_c5_odd_cycle():
    g = cycle(5)
    w = ci.recognize_partial_cube(g)
    assert isinstance(w, ci.RecognitionWitness)
    assert w.kind == "odd_cycle"
    assert len(w.odd_cycle) % 2 == 1
    assert w.verify(g)


def test_recognize_k2_and_single_vertex():
    pc = ci.recognize_partial_cube(ci.build_graph(2, [(0, 1)]))
    assert isinstance(pc, ci.PartialCube) and pc.dimension == 1
    pc0 = ci.recognize_partial_cube(ci.build_graph(1, []))
    assert isinstance(pc0, ci.PartialCube) and pc0.dimension == 0


def test_recognize_rejects_disconnected_and_empty():
    with pytest.raises(ci.GraphError):
        ci.recognize_partial_cube(ci.build_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ci.GraphError):
        ci.recognize_partial_cube(ci.build_graph(0, []))


def test_even_cycles_accepted_odd_rejected():
    for k in range(2, 8):
        res = ci.recognize_partial_cube(cycle(2 * k))
        assert isinstance(res, ci.PartialCube) and res.dimension == k
    for n in (5, 7, 9):
        res = ci.recognize_partial_cube(cycle(n))
        assert isinstance(res, ci.RecognitionWitness) and res.kind == "odd_cycle"


def test_random_trees_accepted_with_singleton_classes():
    import random

    rng = random.Random(11)
    for _ in range(10):
        g = random_tree(rng, rng.randint(2, 30))
        pc = ci.recognize_partial_cube(g)
        assert isinstance(pc, ci.PartialCube)
        assert pc.dimension == g.edge_count


def test_cross_class_pairs_unrelated_on_accepted_graphs():
    for g in (hypercube(3), cycle(6)):
        pc = ci.recognize_partial_cube(g)
        d = ci.distance_matrix(g)
        for e, f in itertools.combinations(range(g.edge_count), 2):
            if pc.theta.labels[e] != pc.theta.labels[f]:
                assert not theta_related(d, g.edges[e], g.edges[f])


def test_label_coordinate_matches_cut_component():
    # Q3, then r = 64, 65, 99 and 199: one to four label words
    graphs = [hypercube(3), path(65), path(66), path(100)]
    graphs.append(random_tree(random.Random(200), 200))
    for g in graphs:
        pc = ci.recognize_partial_cube(g)
        r = pc.dimension
        assert pc.labels.shape == (g.vertex_count, -(-r // 64))
        assert pc.labels.dtype == np.uint64
        assert not pc.labels.flags.writeable
        labels = label_ints(pc)
        for j, cls in enumerate(pc.theta.classes):
            comps = ci.components_after_removal(g, cls)
            assert len(comps) == 2
            a, b = g.edges[cls[0]]
            zero_comp = next(c for c in comps if min(a, b) in c)
            for x in range(g.vertex_count):
                bit = labels[x] >> j & 1
                assert (x in zero_comp) == (bit == 0)
        assert all(lab >> r == 0 for lab in labels)
        d = ci.distance_matrix(g)
        for u, v in itertools.combinations(range(g.vertex_count), 2):
            assert bin(labels[u] ^ labels[v]).count("1") == d[u, v]


def test_partial_cube_compares_and_hashes_by_value():
    rng = random.Random(5)
    g = relabelled(hypercube(4), rng)
    pc, again = ci.recognize_partial_cube(g), ci.recognize_partial_cube(g)
    assert pc is not again and pc.labels is not again.labels
    assert pc == again and hash(pc) == hash(again)
    assert "classes" not in pc.theta.__dict__ and "classes" not in again.theta.__dict__
    other = ci.recognize_partial_cube(relabelled(g, rng))
    assert isinstance(other, ci.PartialCube)
    assert pc != other
    assert pc.__eq__(object()) is NotImplemented


def test_cut_route_builds_no_class_tuples():
    pc = ci.recognize_partial_cube(relabelled(hypercube(5), random.Random(9)))
    rows = ci.cut_class_summaries(pc)
    assert [row.size for row in rows] == [16] * 5
    assert "classes" not in pc.theta.__dict__


def test_side_counts_partition_vertices():
    for g in (hypercube(4), cycle(8)):
        pc = ci.recognize_partial_cube(g)
        for j in range(pc.dimension):
            n1, n2, size = class_sides(pc, j)
            assert len(n1) + len(n2) == g.vertex_count
            assert not (n1 & n2)
            assert size == len(pc.theta.classes[j])


def test_class_sides_examples():
    k2 = ci.recognize_partial_cube(ci.build_graph(2, [(0, 1)]))
    assert class_sides(k2, 0) == (frozenset({0}), frozenset({1}), 1)

    c4 = ci.recognize_partial_cube(cycle(4))
    n1, n2, size = class_sides(c4, 0)
    assert (len(n1), len(n2), size) == (2, 2, 2)
    assert 0 in n1  # anchor: lower endpoint of smallest-index class edge

    q3 = ci.recognize_partial_cube(hypercube(3))
    for j in range(3):
        n1, n2, size = class_sides(q3, j)
        assert (len(n1), len(n2), size) == (4, 4, 4)
    with pytest.raises(ci.GraphError):
        class_sides(q3, 3)


def _q3_minus_top():
    vs = [v for v in range(8) if v != 7]
    idx = {v: i for i, v in enumerate(vs)}
    edges = []
    for v in vs:
        for b in range(3):
            u = v ^ (1 << b)
            if u in idx and u > v:
                edges.append((idx[v], idx[u]))
    return edges, idx


def test_q3_minus_vertex_is_partial_cube():
    edges, _ = _q3_minus_top()
    pc = ci.recognize_partial_cube(ci.build_graph(7, edges))
    assert isinstance(pc, ci.PartialCube) and pc.dimension == 3


def test_q3_minus_vertex_perturbations_rejected():
    edges, idx = _q3_minus_top()
    # adding the 011-100 edge keeps the graph bipartite but breaks a class cut
    g1 = ci.build_graph(7, edges + [(idx[3], idx[4])])
    w1 = ci.recognize_partial_cube(g1)
    assert isinstance(w1, ci.RecognitionWitness)
    assert w1.kind in ("bad_class_cut", "hamming_violation")
    assert w1.verify(g1)
    # adding the 000-011 edge closes a triangle with 001
    g2 = ci.build_graph(7, edges + [(idx[0], idx[3])])
    w2 = ci.recognize_partial_cube(g2)
    assert isinstance(w2, ci.RecognitionWitness)
    assert w2.kind == "odd_cycle"
    assert w2.verify(g2)


def test_fabricated_witnesses_fail_verification():
    g = hypercube(3)
    assert not ci.RecognitionWitness(kind="odd_cycle", odd_cycle=(0, 1, 2)).verify(g)
    assert not ci.RecognitionWitness(kind="hamming_violation", pair=(0, 7)).verify(g)
    assert not ci.RecognitionWitness(
        kind="bad_class_cut", class_edges=(0, 1), component_count=3
    ).verify(g)


def test_malformed_witnesses_fail_verification():
    # The even cycle 0-1-2-3 closes in C4; only its length makes it no witness.
    g = cycle(4)
    for cycle_ in [None, (0, 1, 2, 3), (0,)]:
        assert ci.RecognitionWitness(kind="odd_cycle", odd_cycle=cycle_).verify(g) is False
    assert ci.RecognitionWitness(kind="bad_class_cut", component_count=1).verify(g) is False
    assert ci.RecognitionWitness(kind="bad_class_cut", class_edges=(), component_count=1).verify(g) is False
    assert ci.RecognitionWitness(kind="isometry", pair=(0, 2)).verify(g) is False


@pytest.mark.parametrize("pair", [(0, 99), (0,), (0, 1, 2), (0, -1)])
@pytest.mark.parametrize("graph", ["c4", "q4-near-miss"])
def test_malformed_hamming_pair_fails_verification(graph, pair):
    g = cycle(4) if graph == "c4" else hypercube_near_miss(4, 0, 7)
    assert ci.RecognitionWitness(kind="hamming_violation", pair=pair).verify(g) is False


def test_recognition_on_the_graph_atlas():
    """Every connected graph on 1-7 vertices, against Winkler's characterization.

    A connected graph is a partial cube exactly when it is bipartite and its
    relation theta_related is transitive (Winkler, Discrete Appl. Math. 7
    (1984) 221-225).
    """
    nx = pytest.importorskip("networkx")
    kinds = {}
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n == 0 or not nx.is_connected(atlas_graph):
            continue
        g = ci.build_graph(n, list(atlas_graph.edges))
        d = np.zeros((n, n), dtype=np.int64)
        for s, lengths in nx.all_pairs_shortest_path_length(atlas_graph):
            for t, length in lengths.items():
                d[s, t] = length
        related = np.array([[theta_related(d, e, f) for f in g.edges] for e in g.edges], dtype=bool)
        transitive = not ((related.astype(int) @ related.astype(int) > 0) & ~related).any()
        result = ci.recognize_partial_cube(g)
        assert isinstance(result, ci.PartialCube) == (nx.is_bipartite(atlas_graph) and transitive)
        if isinstance(result, ci.PartialCube):
            kinds["partial cube"] = kinds.get("partial cube", 0) + 1
            assert ci.indices_from_rows(ci.cut_class_summaries(result)) == indices_by_definition(g)
        else:
            kinds[result.kind] = kinds.get(result.kind, 0) + 1
            assert result.verify(g)
    assert kinds == {"partial cube": 47, "odd_cycle": 924, "bad_class_cut": 25}


def test_hamming_violation_verify_builds_one_distance_matrix(monkeypatch):
    calls = []
    real = theta_module.distance_matrix

    def counted(g):
        calls.append(g.vertex_count)
        return real(g)

    monkeypatch.setattr(theta_module, "distance_matrix", counted)
    g = hypercube(3)
    assert not ci.RecognitionWitness(kind="hamming_violation", pair=(0, 7)).verify(g)
    assert calls == [8]


def test_hamming_mismatch_helper():
    from cutindex.theta import _hamming_mismatch

    d = ci.distance_matrix(path(3))
    assert _hamming_mismatch(pack_labels([0b00, 0b01, 0b11], 2), d) is None
    assert _hamming_mismatch(pack_labels([0b00, 0b01, 0b00], 2), d) == (0, 2)
    # wide labels: two words per row
    labels = [0, 1 << 70, (1 << 70) | (1 << 71)]
    assert _hamming_mismatch(pack_labels(labels, 72), d) is None
    labels[2] = 0
    assert _hamming_mismatch(pack_labels(labels, 72), d) == (0, 2)


def _closure_cases():
    rng = random.Random(20160912)
    cases = {f"Q{n}": (lambda n=n: hypercube(n)) for n in range(1, 6)}
    cases.update({f"C{n}": (lambda n=n: cycle(n)) for n in range(4, 17, 2)})
    for t in range(8):
        n = rng.randint(2, 40)
        seed = rng.randrange(2**32)
        cases[f"tree{t}-n{n}"] = lambda n=n, seed=seed: random_tree(random.Random(seed), n)
    for t in range(4):
        seed = rng.randrange(2**32)
        cases[f"c4c8-{t}"] = lambda seed=seed: ci.build_c4c8(
            random_c4c8(random.Random(seed), 6))[0]
        cases[f"benzenoid-{t}"] = lambda seed=seed: ci.build_benzenoid(
            random_benzenoid(random.Random(seed), 6))[0]
    cases.update({f"C{n}": (lambda n=n: cycle(n)) for n in range(3, 12, 2)})
    cases["K4"] = lambda: complete(4)
    cases["petersen"] = petersen
    for n in range(3, 6):
        far = [(u, v) for u in range(2**n) for v in range(u + 1, 2**n)
               if bin(u ^ v).count("1") % 2 == 1 and bin(u ^ v).count("1") >= 3]
        for u, v in rng.sample(far, 3):
            cases[f"Q{n}+{u}-{v}"] = lambda n=n, u=u, v=v: hypercube_near_miss(n, u, v)
    # Odd cycles with two chords: cut vectors have zero entries there, and
    # one class holds cuts of equal support but different signs.
    for n, chords in ((5, [(0, 3), (2, 4)]), (5, [(1, 3), (2, 4)]),
                      (7, [(0, 3), (2, 6)]), (7, [(2, 4), (3, 5)])):
        edges = [(i, (i + 1) % n) for i in range(n)] + chords
        name = f"C{n}" + "".join(f"+{a}-{b}" for a, b in chords)
        cases[name] = lambda n=n, edges=edges: ci.build_graph(n, edges)
    # Shuffled as bench/gen.py shuffles: edges of one class point both ways,
    # so equal cuts come with opposite signs.  Near-misses as bench/gen.py
    # draws them: an edge to a vertex 3, 5, ... bit flips away.
    for n in (6, 7):
        for t in range(2):
            u = rng.randrange(2**n)
            v = u ^ sum(1 << b for b in rng.sample(range(n), rng.choice(range(3, n + 1, 2))))
            seed = rng.randrange(2**32)
            cases[f"Q{n}+{u}-{v}~{t}"] = lambda n=n, u=u, v=v, seed=seed: relabelled(
                hypercube_near_miss(n, u, v), random.Random(seed))
    shuffled = ("Q4", "Q5", "C10", "C9", "K4", "petersen", "c4c8-0", "benzenoid-0",
                "C5+0-3+2-4", "C7+2-4+3-5")
    shuffled += (next(name for name in cases if name.startswith("tree0-")),)
    for name in shuffled:
        seed = rng.randrange(2**32)
        cases[f"{name}~"] = lambda make=cases[name], seed=seed: relabelled(
            make(), random.Random(seed))
    return cases


_CLOSURE_CASES = _closure_cases()


@functools.cache
def _closure_case(name):
    """The case's graph and its pairwise closure, built once per name."""
    g = _CLOSURE_CASES[name]()
    return g, theta_closure_by_pairs(g)


@pytest.mark.parametrize("name", sorted(_CLOSURE_CASES))
def test_theta_star_equals_pairwise_closure(name):
    g, (classes, class_of) = _closure_case(name)
    tp = ci.theta_star_classes(g)
    assert tp.classes == classes
    assert tuple(tp.labels.tolist()) == class_of


@pytest.mark.parametrize("name", sorted(_CLOSURE_CASES))
def test_theta_partition_store_gives_the_closure_views(name):
    g, (classes, class_of) = _closure_case(name)
    check_partition_store(ci.theta_star_classes(g), classes, class_of)


def test_theta_partition_is_not_equal_to_other_types():
    tp = ci.theta_star_classes(cycle(4))
    assert tp != ((0, 2), (1, 3)) and tp.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", sorted(_CLOSURE_CASES))
@pytest.mark.parametrize("block_cells", [1, 97])
def test_theta_star_block_budget_keeps_the_closure(monkeypatch, block_cells, name):
    # 1 cell takes one member per block; 97 cells several on graphs of fewer
    # than 49 vertices and edges, and one on larger ones.
    monkeypatch.setattr(theta_module, "_BLOCK_BYTES", block_cells)  # int8 cuts: a byte a cell
    g, (classes, class_of) = _closure_case(name)
    tp = ci.theta_star_classes(g)
    assert tp.classes == classes
    assert tuple(tp.labels.tolist()) == class_of


def _first_mismatch_scalar(labels, d):
    for u in range(len(labels)):
        for v in range(len(labels)):
            if bin(labels[u] ^ labels[v]).count("1") != int(d[u, v]):
                return u, v
    return None


@pytest.mark.parametrize("block_cells", [1, 97, None])
@pytest.mark.parametrize("r", [1, 63, 64, 65, 130])
def test_hamming_mismatch_matches_scalar_scan(monkeypatch, r, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(theta_module, "_BLOCK_BYTES", 8 * block_cells)  # uint64 words
    rng = random.Random(r)
    n = 37
    for _ in range(4):
        labels = [rng.getrandbits(r) for _ in range(n)]
        exact = np.array(
            [[bin(a ^ b).count("1") for b in labels] for a in labels], dtype=np.int32
        )
        assert theta_module._hamming_mismatch(pack_labels(labels, r), exact) is None

        symmetric = exact.copy()
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(n), 2)
            symmetric[u, v] = symmetric[v, u] = exact[u, v] + rng.choice((-1, 1))
        expected = _first_mismatch_scalar(labels, symmetric)
        assert expected is not None
        assert theta_module._hamming_mismatch(pack_labels(labels, r), symmetric) == expected

        lower = exact.copy()
        u, v = sorted(rng.sample(range(n), 2), reverse=True)
        lower[u, v] += 1  # below the diagonal only
        assert theta_module._hamming_mismatch(pack_labels(labels, r), lower) == (u, v)

        flipped = list(labels)
        flipped[rng.randrange(n)] ^= 1 << rng.randrange(r)
        expected = _first_mismatch_scalar(flipped, exact)
        assert expected is not None
        assert theta_module._hamming_mismatch(pack_labels(flipped, r), exact) == expected


def test_a_flipped_label_bit_is_a_hamming_violation(monkeypatch, tmp_path, capsys):
    # Recognition never reaches its Hamming check on real labels (see
    # recognize_partial_cube), so a label bit flipped on Q3 stands in for a
    # broken labelling: the check must name the first mismatching pair.
    g = hypercube(3)
    d = ci.distance_matrix(g)
    real = theta_module._cut_labelling

    def flipped(graph, theta):
        labels = real(graph, theta).copy()
        labels[5, 0] ^= np.uint64(0b10)
        return labels

    codes = [int(x) for x in flipped(g, ci.theta_star_classes(g))[:, 0]]
    pair = next(
        (u, v) for u in range(8) for v in range(8) if bin(codes[u] ^ codes[v]).count("1") != d[u, v]
    )
    assert pair == (0, 5)
    monkeypatch.setattr(theta_module, "_cut_labelling", flipped)
    witness = ci.recognize_partial_cube(g)
    assert witness == ci.RecognitionWitness(kind="hamming_violation", pair=pair)
    q3 = tmp_path / "q3.graph"
    q3.write_text(format_graph_file(g))
    plain = "partial_cube=false\nwitness=hamming_violation\nwitness_pair=0,5\n"
    assert main(["recognize", str(q3)]) == 0
    assert capsys.readouterr().out == plain
    assert main(["recognize", str(q3), "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"partial_cube": false, "witness": {"kind": "hamming_violation", "pair": [0, 5]}}\n'
    )
    assert main(["index", str(q3), "--method", "cut"]) == 3
    assert capsys.readouterr().out == plain
    monkeypatch.undo()
    assert witness.verify(g) is False  # Q3's true labels have no such pair
