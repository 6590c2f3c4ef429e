"""Text file formats for graphs and cell sets.

Graph files (vertex ids are 0-based):

    p <n> <m>          header: vertex and edge count
    e <u> <v>          one per edge; position defines the edge index
    wv <v> <weight>    optional vertex weight (default 1)
    we <k> <weight>    optional weight for edge index k (default 1)
    # ...              comment, ignored

Cell files:

    t c4c8 | t benzenoid
    c <i> <j>          one cell per line
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, build_graph


#: Vertex ids and distances are int32 by contract, so header counts are too.
MAX_COUNT = 2**31 - 1


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _int(fields, idx, lineno, what):
    try:
        return int(fields[idx])
    except (IndexError, ValueError):
        raise ParseError(lineno, f"expected integer {what}") from None


@dataclass(frozen=True)
class GraphFileData:
    graph: Graph
    vertex_weights: tuple[int, ...]
    edge_weights: tuple[int, ...]

    @property
    def has_nondefault_weights(self) -> bool:
        return any(w != 1 for w in self.vertex_weights) or any(
            w != 1 for w in self.edge_weights
        )


def parse_graph_text(text: str) -> GraphFileData:
    n = m = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    weights: dict[str, dict[int, int]] = {"wv": {}, "we": {}}
    out_of_range = None  # first weight line with a bad index, raised after the graph checks

    # Well-formed e/wv/we lines take the first two branches.  A line of the
    # wrong shape, or before the header, falls through to the branch that
    # names its fault, so every bad line gets the error it always had.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        kind = fields[0]
        if kind == "e" and len(fields) == 3 and n is not None:
            try:
                edges.append((int(fields[1]), int(fields[2])))
            except ValueError:
                raise ParseError(lineno, "expected integer endpoint") from None
            if len(edges) > m:
                raise ParseError(lineno, f"more than {m} edge lines")
        elif kind in weights and len(fields) == 3 and n is not None:
            try:
                idx, w = int(fields[1]), int(fields[2])
            except ValueError:
                _int(fields, 1, lineno, "index")
                raise ParseError(lineno, "expected integer weight") from None
            if w < 0:
                raise ParseError(lineno, "weights must be nonnegative")
            values = weights[kind]
            if idx in values:
                raise ParseError(lineno, f"duplicate {kind} line for index {idx}")
            values[idx] = w
            limit = n if kind == "wv" else m
            if out_of_range is None and not 0 <= idx < limit:
                out_of_range = ParseError(lineno, f"{kind} index {idx} out of range [0,{limit})")
        elif kind == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(fields) != 3:
                raise ParseError(lineno, "header must be 'p <n> <m>'")
            n = _int(fields, 1, lineno, "vertex count")
            m = _int(fields, 2, lineno, "edge count")
            if n < 0 or m < 0:
                raise ParseError(lineno, "counts must be nonnegative")
            if n > MAX_COUNT or m > MAX_COUNT:
                raise ParseError(lineno, f"counts must be at most {MAX_COUNT}")
            header_line = lineno
        elif kind == "e":
            if n is None:
                raise ParseError(lineno, "edge before header")
            raise ParseError(lineno, "edge line must be 'e <u> <v>'")
        elif kind in weights:
            if n is None:
                raise ParseError(lineno, "weight before header")
            raise ParseError(lineno, f"weight line must be '{kind} <index> <weight>'")
        else:
            raise ParseError(lineno, f"unknown record '{kind}'")

    if n is None:
        raise ParseError(1, "missing 'p <n> <m>' header")
    if len(edges) != m:
        raise ParseError(header_line, f"header declares {m} edges, found {len(edges)}")
    try:
        graph = build_graph(n, edges)
    except ValueError as exc:
        raise ParseError(header_line, str(exc)) from None
    if out_of_range is not None:
        raise out_of_range
    vw, ew = [1] * n, [1] * m
    for idx, w in weights["wv"].items():
        vw[idx] = w
    for idx, w in weights["we"].items():
        ew[idx] = w
    return GraphFileData(graph=graph, vertex_weights=tuple(vw), edge_weights=tuple(ew))


def parse_graph_file(path) -> GraphFileData:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def format_graph_file(graph: Graph, vertex_weights=None, edge_weights=None) -> str:
    """Deterministic text form; only non-default weights are written."""
    lines = [f"p {graph.vertex_count} {graph.edge_count}"]
    lines += [f"e {u} {v}" for u, v in graph.edges]
    if vertex_weights is not None:
        lines += [f"wv {v} {w}" for v, w in enumerate(vertex_weights) if w != 1]
    if edge_weights is not None:
        lines += [f"we {k} {w}" for k, w in enumerate(edge_weights) if w != 1]
    return "\n".join(lines) + "\n"


def parse_cell_text(text: str) -> tuple[str, list[tuple[int, int]]]:
    kind = None
    cells: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, fields in _significant_lines(text):
        rec = fields[0]
        if rec == "t":
            if kind is not None:
                raise ParseError(lineno, "duplicate type line")
            if len(fields) != 2 or fields[1] not in ("c4c8", "benzenoid"):
                raise ParseError(lineno, "type must be 't c4c8' or 't benzenoid'")
            kind = fields[1]
        elif rec == "c":
            if kind is None:
                raise ParseError(lineno, "cell before type line")
            if len(fields) != 3:
                raise ParseError(lineno, "cell line must be 'c <i> <j>'")
            cell = (_int(fields, 1, lineno, "coordinate"), _int(fields, 2, lineno, "coordinate"))
            if cell in seen:
                raise ParseError(lineno, f"duplicate cell {cell}")
            seen.add(cell)
            cells.append(cell)
        else:
            raise ParseError(lineno, f"unknown record '{rec}'")
    if kind is None:
        raise ParseError(1, "missing 't c4c8' or 't benzenoid' line")
    if not cells:
        raise ParseError(1, "at least one cell required")
    return kind, cells


def parse_cell_file(path) -> tuple[str, list[tuple[int, int]]]:
    with open(path, encoding="utf-8") as fh:
        return parse_cell_text(fh.read())


def format_coords_sidecar(coords, tags) -> str:
    """Embedding sidecar: vertex coordinates and per-edge direction tags."""
    lines = [f"v {ix} {x} {y}" for ix, (x, y) in enumerate(coords)]
    lines += [f"d {k} {tag}" for k, tag in enumerate(tags)]
    return "\n".join(lines) + "\n"


def sniff_kind(text: str) -> str:
    """'graph' or 'cells' by the first significant record."""
    for _, fields in _significant_lines(text):
        if fields[0] == "p":
            return "graph"
        if fields[0] == "t":
            return "cells"
        break
    return "graph"
