"""Self-tests of the benchmark: generators, oracle, tracer and runner contract.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cutindex as ci  # noqa: E402
import cutindex.cli  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cutindex.files import parse_graph_text  # noqa: E402


def _graph(text):
    return parse_graph_text(text).graph


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cutindex.cli.main(argv)
    return code, out.getvalue()


# --- generators -------------------------------------------------------------


def _small_instances(seed):
    """Every generator at a small size, keyed by a readable label."""
    rng = gen.rng_for
    tree = gen.random_tree(50, rng(seed, "tree"))
    return {
        "cube": gen.hypercube(5, rng(seed, "cube")),
        "near-miss": gen.hypercube_near_miss(5, rng(seed, "nm")),
        "benzenoid": gen.cell_text("benzenoid", gen.row_convex(4, 5, (0, -1), rng(seed, "b"))),
        "c4c8": gen.cell_text("c4c8", gen.row_convex(4, 5, (-1, 1), rng(seed, "c"))),
        "tree": tree.text(rng(seed, "labels")),
        "path": gen.path(30).text(rng(seed, "path")),
    }


def test_generators_are_deterministic_per_seed():
    first, again, other = _small_instances(3), _small_instances(3), _small_instances(4)
    assert first == again
    for label in first:
        assert first[label] != other[label], label


def test_workload_lists_are_deterministic_per_seed():
    for name, build in workloads.WORKLOADS.items():
        if name == "tree":
            continue  # same generators as below at 10^5 vertices; covered by the small test
        texts = [inst.text for inst in build(7)]
        assert texts == [inst.text for inst in build(7)], name
        assert len(set(texts)) == len(texts), name


def test_row_convex_size_depends_only_on_rows_and_length():
    for kind, shifts in (("benzenoid", (0, -1)), ("c4c8", (-1, 1))):
        sizes = set()
        for seed in range(5):
            cells = gen.row_convex(6, 7, shifts, gen.rng_for(seed, kind))
            system = oracle.ChemSystem(kind, cells)
            sizes.add((system.n, len(system.edges)))
        assert len(sizes) == 1, (kind, sizes)


def test_near_miss_is_bipartite_with_one_extra_edge():
    for seed in range(5):
        g = _graph(gen.hypercube_near_miss(4, gen.rng_for(seed, "nm")))
        assert g.edge_count == 4 * 8 + 1
        coloring, _ = ci.is_bipartite(g)
        assert coloring is not None


# --- oracle ------------------------------------------------------------------


def test_hypercube_closed_forms_match_brute():
    for d in range(1, 6):
        g = _graph(gen.hypercube(d, gen.rng_for(0, "q", d)))
        assert oracle.hypercube_indices(d) == (ci.wiener_brute(g), ci.szeged_brute(g))


def test_near_miss_rejection_witness_verifies():
    for seed in range(4):
        g = _graph(gen.hypercube_near_miss(5, gen.rng_for(seed, "nm")))
        result = ci.recognize_partial_cube(g)
        assert isinstance(result, ci.RecognitionWitness)
        assert result.verify(g)


def test_path_closed_form_matches_brute():
    for n in (2, 3, 10, 31):
        g = _graph(gen.path(n).text(gen.rng_for(n, "p")))
        assert oracle.path_indices(n) == (ci.wiener_brute(g), ci.szeged_brute(g))


def test_tree_subtree_sums_match_brute_and_weighted_definitions():
    for seed in range(4):
        unit = gen.random_tree(40, gen.rng_for(seed, "t"), max_weight=1)
        g = _graph(unit.text(gen.rng_for(seed, "l")))
        assert oracle.tree_indices(unit) == (ci.wiener_brute(g), ci.szeged_brute(g))

        tree = gen.random_tree(40, gen.rng_for(seed, "w"))
        data = parse_graph_text(tree.text(gen.rng_for(seed, "l")))
        wiener = ci.wiener_weighted(ci.VertexWeightedGraph(data.graph, data.vertex_weights))
        szeged = ci.szeged_weighted(
            ci.VertexEdgeWeightedGraph(data.graph, data.vertex_weights, data.edge_weights))
        assert oracle.tree_indices(tree) == (wiener, szeged)


def _small_systems():
    rng = random.Random(5)
    for kind, shifts in (("benzenoid", (0, -1)), ("c4c8", (-1, 1))):
        yield kind, gen.block(1, 1)
        yield kind, gen.block(3, 2)
        for _ in range(4):
            yield kind, gen.row_convex(rng.randint(1, 5), rng.randint(1, 5), shifts, rng)


def test_chem_oracle_matches_brute_classes_and_sides():
    for kind, cells in _small_systems():
        system = oracle.ChemSystem(kind, cells)
        spec = (ci.C4C8Spec if kind == "c4c8" else ci.BenzenoidSpec)(cells)
        g, _, _ = (ci.build_c4c8 if kind == "c4c8" else ci.build_benzenoid)(spec)
        assert (system.n, [tuple(e) for e in system.edges.tolist()]) == (
            g.vertex_count, [tuple(e) for e in g.edges])
        assert system.indices() == (ci.wiener_brute(g), ci.szeged_brute(g))
        pc = ci.recognize_partial_cube(g)
        assert [tuple(c) for c in system.classes] == list(pc.theta.classes)
        assert [(j, s.size, s.n1, s.n2) for j, s in enumerate(ci.cut_class_summaries(pc))] == \
            system.anchor_rows()


def test_chem_oracle_component_route_matches_distance_route(monkeypatch):
    for kind, cells in _small_systems():
        by_distance = oracle.ChemSystem(kind, cells).sides
        monkeypatch.setattr(oracle, "DISTANCE_LIMIT", 0)
        assert oracle.ChemSystem(kind, cells).sides == by_distance
        monkeypatch.undo()


def test_chem_expected_output_matches_cli(tmp_path):
    for k, (kind, cells) in enumerate(_small_systems()):
        for verbose in (False, True):
            inst = workloads._chem_instance(f"s{k}", kind, cells, verbose)
            path = tmp_path / f"s{k}.txt"
            path.write_text(inst.text)
            argv = [str(path) if a == "{file}" else a for a in inst.argv]
            assert _cli(argv) == (0, inst.expected())


# --- tracer ------------------------------------------------------------------


def _bindings():
    return {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if name == "cutindex" or name.startswith("cutindex.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_keeps_outputs_and_restores_bindings(tmp_path):
    cube = tmp_path / "q4.txt"
    cube.write_text(gen.hypercube(4, gen.rng_for(0, "q")))
    cells = tmp_path / "c4c8.txt"
    cells.write_text(gen.cell_text("c4c8", gen.block(3, 3)))
    benz = tmp_path / "benz.txt"
    benz.write_text(gen.cell_text("benzenoid", gen.block(3, 2)))
    direction = ["--method", "partition", "--partition", "direction", "--verbose"]
    argvs = [["index", str(cube), "--method", "cut"], ["index", str(cells)] + direction,
             ["index", str(benz)] + direction, ["recognize", str(cube)]]

    before = _bindings()
    untraced = [_cli(a) for a in argvs]
    with tracer.Tracer() as tr:
        assert _bindings() != before
        traced = [_cli(a) for a in argvs]
    assert _bindings() == before
    assert traced == untraced

    per_call = [tracer.layer_metrics(tr.spans, {i}) for i in range(len(argvs))]
    assert per_call[0]["core.distance_matrix_calls"] == 1
    assert per_call[0]["theta.pair_tests"] == 32**2
    assert per_call[1]["chem.assemblies"] == 2
    assert per_call[1]["core.distance_matrix_calls"] == 0
    assert per_call[1]["quotient.count"] == 4
    assert per_call[2]["chem.assemblies"] == 1
    for metrics in per_call:
        assert metrics["cli.self_s"] > 0
        assert all(v >= 0 for v in metrics.values())


def test_self_times_subtract_direct_children_only():
    spans = [("a", 0.0, 10.0, -1, 0, None), ("b", 1.0, 5.0, 0, 0, None),
             ("c", 2.0, 3.0, 1, 0, None), ("d", 6.0, 7.0, 0, 0, None)]
    assert tracer.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


# --- runner ------------------------------------------------------------------


def test_tail_has_ten_values_beyond():
    value, percentile = run.tail(list(range(1, 21)))
    assert value == 10 and percentile == 50.0
    assert sum(v > value for v in range(1, 21)) == run.TAIL_BEYOND


def test_witness_check_counts_every_call_of_a_bad_rejection(tmp_path):
    checker = run.Checker()
    path = tmp_path / "nm.txt"
    path.write_text(gen.hypercube_near_miss(4, gen.rng_for(0, "nm")))
    inst = {"name": "nm", "file": str(path), "expected": None}
    code, out = _cli(["recognize", str(path)])
    checker.check(inst, code, out)
    checker.verify_witnesses([inst])
    assert checker.failed == 0
    forged = "partial_cube=false\nwitness=hamming_violation\nwitness_pair=0,1\n"
    checker = run.Checker()
    checker.check(inst, 0, forged)
    checker.check(inst, 0, forged)
    checker.verify_witnesses([inst])
    assert checker.failed == 2


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cube", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
