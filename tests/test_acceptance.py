"""Acceptance suite: one test per release criterion, exact tolerances.

Criteria 3-5 share one oracle sweep (module-scoped fixture) over hypercubes,
random trees, even cycles and generated C4C8/benzenoid systems; its runtime
budget is asserted along with the equalities.  All index comparisons are
exact integer equality; timing bounds follow the stated budgets.
"""

import gc
import random
import time
from types import SimpleNamespace

import pytest

import cutindex as ci
from cutindex.chem import c4c8_theta_partition
from helpers import (
    all_c4c8_cellsets,
    cycle,
    hypercube,
    path,
    random_benzenoid,
    random_c4c8,
    random_coarser,
    random_tree,
    random_weights,
)

SWEEP_SEED = 20260809


def _fixture_wieners():
    return [
        ci.wiener_weighted(ci.VertexWeightedGraph(t.graph, t.w))
        for t in ci.reference_quotient_trees()
    ]


def _fixture_szegeds():
    return [ci.szeged_weighted(t) for t in ci.reference_quotient_trees()]


def test_c01_worked_example_totals():
    trees = ci.reference_quotient_trees()

    def run():
        w = sum(ci.wiener_weighted(ci.VertexWeightedGraph(t.graph, t.w)) for t in trees)
        s = sum(ci.szeged_weighted(t) for t in trees)
        return w, s

    assert run() == (1642, 4990)  # also warms caches before timing
    elapsed = min(_timed(run) for _ in range(5))
    assert elapsed < 1e-3, f"fixture evaluation took {elapsed * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c02_worked_example_per_tree_values():
    assert _fixture_wieners() == [499, 288, 467, 388]
    assert _fixture_szegeds() == [1497, 960, 1561, 972]


@pytest.fixture(scope="module")
def sweep():
    """Criteria 3-5 in one pass: oracle equivalence over the whole suite,
    every quotient recognized as a partial cube (once, inside
    quotient_theta_classes), and exact class transfer."""
    rng = random.Random(SWEEP_SEED)
    t0 = time.perf_counter()

    c4c8_specs = [ci.C4C8Spec(cells) for cells in all_c4c8_cellsets(4)]
    c4c8_specs += [random_c4c8(rng, 12) for _ in range(50)]
    benzenoid_specs = [random_benzenoid(rng, 10) for _ in range(50)]

    instances = [(f"Q{n}", hypercube(n)) for n in range(1, 7)]
    instances += [
        (f"tree{i}", random_tree(rng, rng.randint(2, 50))) for i in range(200)
    ]
    instances += [(f"C{2 * k}", cycle(2 * k)) for k in range(2, 11)]
    instances += [
        (f"c4c8_{i}", ci.build_c4c8(spec)[0]) for i, spec in enumerate(c4c8_specs)
    ]
    instances += [
        (f"benzenoid_{i}", ci.build_benzenoid(spec)[0])
        for i, spec in enumerate(benzenoid_specs)
    ]

    quotients = 0
    classes_transferred = 0
    for name, g in instances:
        w0, s0 = ci.wiener_brute(g), ci.szeged_brute(g)
        pc = ci.recognize_partial_cube(g)
        assert isinstance(pc, ci.PartialCube), f"{name} not recognized"
        assert ci.wiener_cut(pc) == w0, name
        assert ci.szeged_cut(pc) == s0, name

        partitions = [ci.finest_partition(pc.theta), ci.coarsest_partition(pc.theta)]
        partitions += [random_coarser(rng, pc.theta) for _ in range(3)]
        for cp in partitions:
            assert ci.wiener_via_partition(pc, cp) == w0, name
            assert ci.szeged_via_partition(pc, cp) == s0, name
            for i in range(cp.group_count):
                wq = ci.build_quotient(pc, cp, i)
                # quotient_theta_classes recognizes the quotient and raises
                # GraphError unless it is a partial cube with one class per
                # original class of the group.
                try:
                    rows = ci.quotient_theta_classes(wq)
                except ci.GraphError as exc:
                    pytest.fail(f"{name}: quotient {i} not a partial cube: {exc}")
                quotients += 1
                for j, size, n1, n2 in rows:
                    side1, side2, class_size = ci.class_sides(pc, j)
                    assert size == class_size, name
                    assert (n1, n2) == (len(side1), len(side2)), name
                    classes_transferred += 1

    return SimpleNamespace(
        elapsed=time.perf_counter() - t0,
        instances=len(instances),
        quotients=quotients,
        classes_transferred=classes_transferred,
        c4c8_specs=c4c8_specs,
        benzenoid_specs=benzenoid_specs,
    )


def test_c03_oracle_equivalence_suite(sweep):
    assert sweep.instances == 6 + 200 + 9 + 28 + 50 + 50
    assert sweep.elapsed < 60, f"suite took {sweep.elapsed:.1f} s"


def test_c04_quotients_are_partial_cubes(sweep):
    assert sweep.quotients > 0


def test_c05_class_transfer_exact(sweep):
    assert sweep.classes_transferred > 0


def test_c06_recognition():
    for n in range(1, 7):
        pc = ci.recognize_partial_cube(hypercube(n))
        assert isinstance(pc, ci.PartialCube)
        assert pc.dimension == n
        assert all(len(cls) == 2 ** (n - 1) for cls in pc.theta.classes)

    k23 = ci.build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    w = ci.recognize_partial_cube(k23)
    assert isinstance(w, ci.RecognitionWitness) and w.verify(k23)

    # Q3 minus a vertex is a partial cube; its perturbations are not
    vs = [v for v in range(8) if v != 7]
    idx = {v: i for i, v in enumerate(vs)}
    base = []
    for v in vs:
        for b in range(3):
            u = v ^ (1 << b)
            if u in idx and u > v:
                base.append((idx[v], idx[u]))
    assert isinstance(ci.recognize_partial_cube(ci.build_graph(7, base)), ci.PartialCube)
    bipartite_break = ci.build_graph(7, base + [(idx[3], idx[4])])
    w1 = ci.recognize_partial_cube(bipartite_break)
    assert isinstance(w1, ci.RecognitionWitness) and w1.kind != "odd_cycle"
    assert w1.verify(bipartite_break)
    odd_break = ci.build_graph(7, base + [(idx[0], idx[3])])
    w2 = ci.recognize_partial_cube(odd_break)
    assert isinstance(w2, ci.RecognitionWitness) and w2.kind == "odd_cycle"
    assert w2.verify(odd_break)

    c5 = cycle(5)
    w3 = ci.recognize_partial_cube(c5)
    assert isinstance(w3, ci.RecognitionWitness) and w3.kind == "odd_cycle"
    assert w3.verify(c5)


def test_c07_tree_dp_equivalence_and_linearity():
    rng = random.Random(SWEEP_SEED + 7)
    sizes = [1000, 1000, 1000] + [rng.randint(2, 1000) for _ in range(97)]
    for n in sizes:
        g = random_tree(rng, n)
        w = random_weights(rng, n)
        we = random_weights(rng, n - 1)
        gw = ci.VertexWeightedGraph(g, w)
        gww = ci.VertexEdgeWeightedGraph(g, w, we)
        assert ci.wiener_tree_linear(gw) == ci.wiener_weighted(gw)
        assert ci.szeged_tree_linear(gww) == ci.szeged_weighted(gww)

    def dp_seconds(n, runs=3):
        """The fastest of a few timed tree passes, so host noise does not
        decide the doubling ratio."""
        g = ci.build_graph(n, [(i, i + 1) for i in range(n - 1)])
        gw = ci.VertexWeightedGraph(g, [1] * n)
        gww = ci.VertexEdgeWeightedGraph(g, [1] * n, [1] * (n - 1))
        expected = (n**3 - n) // 6
        best = float("inf")
        for _ in range(runs):
            gc.disable()
            try:
                t0 = time.perf_counter()
                w = ci.wiener_tree_linear(gw)
                s = ci.szeged_tree_linear(gww)
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
            assert w == expected and s == expected
        return best

    t1 = dp_seconds(10**6)
    assert t1 <= 10, f"10^6-vertex path took {t1:.2f} s"
    t2 = dp_seconds(2 * 10**6)
    # linearity: doubling n costs at most ~2.5x (small additive noise floor)
    assert t2 <= 2.5 * t1 + 0.5, f"scaling {t1:.2f}s -> {t2:.2f}s"


def test_c08_hypercube_closed_forms():
    for n in range(1, 5):
        g = hypercube(n)
        assert ci.wiener_brute(g) == n * 4 ** (n - 1)
        assert ci.szeged_brute(g) == n * 2 ** (n - 1) * 4 ** (n - 1)
    for n in range(1, 11):
        pc = ci.recognize_partial_cube(hypercube(n))
        assert ci.wiener_cut(pc) == n * 4 ** (n - 1)
        assert ci.szeged_cut(pc) == n * 2 ** (n - 1) * 4 ** (n - 1)


def test_c09_tree_identity():
    rng = random.Random(SWEEP_SEED + 9)
    for _ in range(200):
        g = random_tree(rng, rng.randint(2, 50))
        assert ci.szeged_brute(g) == ci.wiener_brute(g)


def test_c10_c4c8_structural_claims(sweep):
    for spec in sweep.c4c8_specs:
        assert len(spec.cells) <= 12
        g, tags, theta_geo = c4c8_theta_partition(spec)
        assert isinstance(ci.recognize_partial_cube(g), ci.PartialCube)
        assert set(theta_geo.classes) == set(ci.theta_star_classes(g).classes)
        cp = ci.direction_partition(g, tags, theta_geo)
        for i in range(cp.group_count):
            q = ci.quotient_by_edge_classes(g, theta_geo, cp.groups[i]).quotient
            assert q.edge_count == q.vertex_count - 1
        assert ci.c4c8_indices(spec) == (ci.wiener_brute(g), ci.szeged_brute(g))
