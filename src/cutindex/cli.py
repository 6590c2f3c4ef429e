"""Command line front end.

Commands operate on graph files or cell files (formats in files.py) and emit
line-oriented ``key=value`` reports with stable key order, or one JSON object
with ``--json``.  Exit codes: 0 success, 2 unreadable/malformed input or
usage error, 3 semantic failure (not a partial cube, not a tree), 4 index
overflow.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .chem import (
    DIRECTIONS,
    BenzenoidSpec,
    C4C8Spec,
    build_benzenoid,
    build_c4c8,
    c4c8_indices,
    c4c8_report,
)
from .core import GraphError, IndexOverflowError, distance_matrix
from .files import (
    ParseError,
    format_coords_sidecar,
    format_graph_file,
    parse_cell_text,
    parse_graph_text,
    sniff_kind,
)
from .indices import (
    cut_class_summaries,
    indices_from_rows,
    partition_rows,
    szeged_brute,
    wiener_brute,
)
from .quotient import coarsest_partition, finest_partition, validate_coarser
from .theta import PartialCube, recognize_partial_cube
from .treedp import _tree_sums, require_tree_counts


class _UsageError(Exception):
    pass


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _read(path: str) -> str:
    """The text of a file; a byte that is not UTF-8 is a ParseError on its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.object holds every
        # byte; lines are counted as the parsers count them, by splitlines.
        line = len((exc.object[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line, "file is not UTF-8 text") from None


def _cell_spec(text: str):
    """The validated spec of a cell file's text; GraphError for a bad cell set."""
    kind, cells = parse_cell_text(text)
    return C4C8Spec(cells) if kind == "c4c8" else BenzenoidSpec(cells)


def _build(spec):
    """(graph, tags, coords) of a cell spec."""
    return (build_c4c8 if isinstance(spec, C4C8Spec) else build_benzenoid)(spec)


def _load_input(path: str):
    """Parse a graph file into (data, None) or a cell file into (None, spec).

    A cell spec is validated when it is made but not assembled; the routes
    that need the graph build it.
    """
    text = _read(path)
    if sniff_kind(text) == "cells":
        try:
            return None, _cell_spec(text)
        except GraphError as exc:
            # Invalid cell sets are input errors, like any other bad file.
            raise ParseError(1, str(exc)) from None
    return parse_graph_text(text), None


def _graph_of(data, spec):
    """The graph of a loaded input."""
    return data.graph if spec is None else _build(spec)[0]


def _witness_payload(witness):
    payload = {"kind": witness.kind}
    if witness.odd_cycle is not None:
        payload["odd_cycle"] = list(witness.odd_cycle)
    if witness.class_edges is not None:
        payload["class_edges"] = list(witness.class_edges)
        payload["component_count"] = witness.component_count
    if witness.pair is not None:
        payload["pair"] = list(witness.pair)
    return payload


def _print_witness(witness, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"partial_cube": False, "witness": _witness_payload(witness)}))
        return
    print("partial_cube=false")
    print(f"witness={witness.kind}")
    if witness.odd_cycle is not None:
        print("witness_cycle=" + ",".join(map(str, witness.odd_cycle)))
    if witness.class_edges is not None:
        print("witness_class_edges=" + ",".join(map(str, witness.class_edges)))
        print(f"witness_components={witness.component_count}")
    if witness.pair is not None:
        print("witness_pair=" + ",".join(map(str, witness.pair)))


def _parse_explicit_groups(spec: str):
    try:
        groups = [[int(x) for x in part.split(",")] for part in spec.split(";")]
    except ValueError:
        raise _UsageError(
            f"bad --partition value {spec!r}; expected finest, direction,"
            " or groups like '0,1;2'"
        ) from None
    return groups


def _emit_index_report(args, method, partition, wiener, szeged, rows) -> None:
    if args.json:
        payload = {"command": "index", "method": method}
        if method == "partition":
            payload["partition"] = partition
        payload["wiener"] = wiener
        payload["szeged"] = szeged
        if rows is not None:
            payload["classes"] = [
                {"class": j, "size": size, "n1": n1, "n2": n2,
                 "wiener_term": n1 * n2, "szeged_term": size * n1 * n2}
                for j, size, n1, n2 in rows
            ]
        print(json.dumps(payload))
        return
    print(f"wiener={wiener}")
    print(f"szeged={szeged}")
    if rows is not None:
        for j, size, n1, n2 in rows:
            print(
                f"class={j} size={size} n1={n1} n2={n2}"
                f" wiener_term={n1 * n2} szeged_term={size * n1 * n2}"
            )


def cmd_index(args) -> int:
    data, spec = _load_input(args.file)
    if data is not None and data.has_nondefault_weights:
        raise _UsageError(
            "index computes unweighted graph indices; wv/we weights apply to tree-index"
        )
    method = args.method
    partition = args.partition
    rows = None

    if method == "partition" and partition == "direction":
        # Cell files take geometric classes; no distance matrix of the system.
        # The indices come from runs of cells; only the cut table needs the graph.
        if spec is None:
            raise _UsageError("--partition direction requires a cell file")
        if args.verbose:
            wiener, szeged, rows = c4c8_report(spec)
        else:
            wiener, szeged = c4c8_indices(spec)
    elif method == "brute":
        g = _graph_of(data, spec)
        d = distance_matrix(g)  # one matrix for both indices and the cut table
        wiener, szeged = wiener_brute(g, d), szeged_brute(g, d)
        if args.verbose:
            result = recognize_partial_cube(g, d)
            if isinstance(result, PartialCube):
                rows = cut_class_summaries(result)
    else:
        result = recognize_partial_cube(_graph_of(data, spec))
        if not isinstance(result, PartialCube):
            _print_witness(result, args.json)
            return 3
        pc = result
        if method == "cut":
            rows = cut_class_summaries(pc)
        else:
            if partition == "finest":
                cp = finest_partition(pc.theta)
            elif partition == "coarsest":
                cp = coarsest_partition(pc.theta)
            else:
                cp = validate_coarser(pc.theta, _parse_explicit_groups(partition))
            rows = partition_rows(pc.graph, pc.theta, cp)
        wiener, szeged = indices_from_rows(rows)

    _emit_index_report(args, method, partition, wiener, szeged, rows if args.verbose else None)
    return 0


def cmd_recognize(args) -> int:
    g = _graph_of(*_load_input(args.file))
    result = recognize_partial_cube(g)
    if isinstance(result, PartialCube):
        sizes = np.diff(result.theta.bounds).tolist()
        if args.json:
            print(json.dumps({
                "partial_cube": True,
                "classes": result.theta.class_count,
                "class_sizes": sizes,
            }))
        else:
            print("partial_cube=true")
            print(f"classes={result.theta.class_count}")
            print("class_sizes=" + ",".join(map(str, sizes)))
    else:
        _print_witness(result, args.json)
    return 0


def cmd_generate(args) -> int:
    try:
        g, tags, coords = _build(_cell_spec(_read(args.cellfile)))
    except GraphError as exc:
        _fail(str(exc))
        return 2
    sidecar = args.out + ".coords"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_graph_file(g))
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(format_coords_sidecar(coords, [DIRECTIONS[code] for code in tags.tolist()]))
    print(f"graph_file={args.out}")
    print(f"sidecar={sidecar}")
    return 0


def cmd_tree_index(args) -> int:
    data = parse_graph_text(_read(args.file))
    require_tree_counts(data.graph)  # before any per-vertex weight vector
    wiener, szeged = _tree_sums(data.graph, *data.weight_vectors())
    if args.json:
        print(json.dumps({"command": "tree-index", "wiener": wiener, "szeged": szeged}))
    else:
        print(f"wiener={wiener}")
        print(f"szeged={szeged}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutindex",
        description="Wiener and Szeged indices of partial cubes via the cut method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="compute both indices of a graph or cell file")
    p_index.add_argument("file")
    p_index.add_argument("--method", choices=("brute", "cut", "partition"), default="brute")
    p_index.add_argument(
        "--partition",
        default="finest",
        help="with --method partition: finest, coarsest, direction (cell files"
        " only), or explicit class groups like '0,1;2'",
    )
    p_index.add_argument("--verbose", action="store_true", help="per-class cut table")
    p_index.add_argument("--json", action="store_true")
    p_index.set_defaults(func=cmd_index)

    p_rec = sub.add_parser("recognize", help="partial-cube recognition report")
    p_rec.add_argument("file")
    p_rec.add_argument("--json", action="store_true")
    p_rec.set_defaults(func=cmd_recognize)

    p_gen = sub.add_parser("generate", help="expand a cell file into a graph file")
    p_gen.add_argument("cellfile")
    p_gen.add_argument("out")
    p_gen.set_defaults(func=cmd_generate)

    p_tree = sub.add_parser("tree-index", help="weighted tree indices, linear time")
    p_tree.add_argument("file")
    p_tree.add_argument("--json", action="store_true")
    p_tree.set_defaults(func=cmd_tree_index)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, _UsageError, OSError) as exc:
        _fail(str(exc))
        return 2
    except IndexOverflowError as exc:
        _fail(str(exc))
        return 4
    except GraphError as exc:
        _fail(str(exc))
        return 3


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
