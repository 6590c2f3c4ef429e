"""The public surface: the package exports, the names the bench tracer wraps,
and the README's library example."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import cutindex as ci
from cutindex import chem, core, files, quotient, theta

ROOT = Path(__file__).resolve().parents[1]


def _tracer_layers():
    """LAYERS of bench/tracer.py, run from its source without importing or caching it."""
    path = ROOT / "bench" / "tracer.py"
    module = types.ModuleType("bench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module.LAYERS


def test_every_traced_name_exists():
    # bench/run.py --trace rebinds these names in each cutindex module.
    layers = _tracer_layers()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"cutindex.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"cutindex.{layer}.{name}"


def test_all_names_resolve_and_removed_names_are_gone():
    assert len(set(ci.__all__)) == len(ci.__all__)
    for name in ci.__all__:
        assert hasattr(ci, name), name
    for name in (
        "build_quotient",
        "reference_quotient_trees",
        "class_sides",
        "theta_related",
        "direction_tag",
    ):
        assert name not in ci.__all__ and not hasattr(ci, name)
    for owner, name in [
        (quotient, "build_quotient"),
        (chem, "reference_quotient_trees"),
        (chem, "direction_tag"),
        (files, "parse_graph_file"),
        (files, "parse_cell_file"),
        (theta.PartialCube, "label_string"),
        (theta, "class_sides"),
        (theta, "theta_related"),
        (theta.ThetaPartition, "from_classes"),
        (theta.ThetaPartition, "class_of"),
        (theta, "_HAMMING_BLOCK_CELLS"),
        (theta, "_THETA_BLOCK_CELLS"),
        (core, "_FILL_BLOCK_CELLS"),
        (core, "_GATHER_MAX_BYTES"),
        (core.Graph, "degree"),
        (quotient.CoarserPartition, "group_count"),
    ]:
        assert not hasattr(owner, name), name
    fields = quotient.WeightedQuotient.__dataclass_fields__
    assert "membership" not in fields
    assert list(quotient.CoarserPartition.__dataclass_fields__) == ["groups"]
    params = inspect.signature(ci.quotient_by_edge_classes).parameters
    assert list(params) == ["g", "theta", "class_indices"]


def _readme_library_block():
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


_NO_LITERAL = object()


def _literal_prefix(comment):
    """The longest prefix of a comment, cut at ',', ';' or ':', that is a Python literal."""
    cuts = {i for i, ch in enumerate(comment) if ch in ",;:"} | {len(comment)}
    for end in sorted(cuts, reverse=True):
        try:
            return ast.literal_eval(comment[:end].strip())
        except (ValueError, SyntaxError):
            continue
    return _NO_LITERAL


def test_readme_library_example_runs_as_commented():
    source = _readme_library_block()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        expected = _literal_prefix(lines[stmt.lineno - 1].partition("#")[2])
        if expected is not _NO_LITERAL:
            assert value == expected, code
            checked += 1
    assert checked == 12
    assert namespace["wq"].edge_class == (0, 1, 1, 0)
    assert namespace["rows"][0] == ci.CutRow(class_index=0, size=2, n1=2, n2=2)
    assert isinstance(namespace["pc"], ci.PartialCube)
