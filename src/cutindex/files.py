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

A plain graph file (ASCII, header first, then only e/wv/we records, single
spaces, LF line ends, numbers of at most 18 digits) is read by one NumPy
pass over its bytes, which hands build_graph an (m, 2) int64 edge array and
builds no per-edge tuple (_parse_graph_arrays).  A plain cell file (its type
line first, then only 'c <i> <j>' lines, single spaces, LF line ends,
coordinates of at most 18 digits, a '-' allowed before each, no cell twice)
is read the same way into an (n, 2) int64 cell array (_parse_cell_arrays).
Anything else, and any plain file with a fault, goes to the line-by-line
parser of its kind, which owns every ParseError: its texts and line numbers
are the same whichever path a file would have taken.  Both graph parsers
keep the weight lines as arrays, and GraphFileData scatters them into one
int64 vector per kind (Python ints only for a kind with a weight past
int64), so tree-index builds no per-vertex object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Graph, GraphError, build_graph


#: Vertex ids and distances are int32 by contract, so header counts are too.
MAX_COUNT = 2**31 - 1


class ParseError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _int(fields, idx, lineno, what):
    try:
        return int(fields[idx])
    except (IndexError, ValueError):
        raise ParseError(lineno, f"expected integer {what}") from None


def _dense(count: int, lines) -> np.ndarray:
    """The weight of each of count indices, 1 where no line gives one."""
    idx, values = lines
    weights = np.ones(count, values.dtype)  # object: Python ints, as the values
    weights[idx] = values
    return weights


def _nondefault(lines) -> frozenset[tuple[int, int]]:
    idx, values = lines
    return frozenset(zip(idx[values != 1].tolist(), values[values != 1].tolist()))


def _line_arrays(values: dict[int, int]):
    """(indices, weights) of a kind's lines; the weights are object if one passes int64."""
    dtype = np.int64 if max(values.values(), default=0) < 2**63 else object
    return np.array(list(values), np.int64), np.array(list(values.values()), dtype)


@dataclass(frozen=True, eq=False)
class GraphFileData:
    """A parsed graph file.

    The weight lines are kept as read, an int64 (indices, weights) array
    pair per kind; weights are Python ints in an object array if one passes
    int64.  The dense vectors (weight 1 where no line gives one) and their
    tuple views are built on request: a header may declare far more vertices
    than the file has lines.  Equality and hash go by the graph and the
    dense weights, so the order of the lines and lines that give weight 1
    do not count; they are computed from the lines alone.
    """

    graph: Graph
    vertex_lines: tuple[np.ndarray, np.ndarray]
    edge_lines: tuple[np.ndarray, np.ndarray]

    def weight_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(vertex weights, edge weights) as vectors of the lines' dtypes."""
        g = self.graph
        return _dense(g.vertex_count, self.vertex_lines), _dense(g.edge_count, self.edge_lines)

    @cached_property
    def vertex_weights(self) -> tuple[int, ...]:
        return tuple(_dense(self.graph.vertex_count, self.vertex_lines).tolist())

    @cached_property
    def edge_weights(self) -> tuple[int, ...]:
        return tuple(_dense(self.graph.edge_count, self.edge_lines).tolist())

    @property
    def has_nondefault_weights(self) -> bool:
        return bool((self.vertex_lines[1] != 1).any() or (self.edge_lines[1] != 1).any())

    def _key(self):
        return (self.graph, _nondefault(self.vertex_lines), _nondefault(self.edge_lines))

    def __eq__(self, other):
        if not isinstance(other, GraphFileData):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


#: Longest digit run the array path reads; 18 digits always fit int64.
_ARRAY_MAX_DIGITS = 18

_E, _W, _V, _SPACE, _NEWLINE = b"ewv \n"

#: Record codes of the array path.
_HEADER, _EDGE, _VERTEX_WEIGHT, _EDGE_WEIGHT = range(4)


def _plain_records(text: str):
    """(first field, second field, record code) per line, as arrays, or None.

    A plain file is ASCII; its first line is 'p <n> <m>' and every later
    line 'e|wv|we <int> <int>', with single spaces, an LF at the end of
    every line and at most _ARRAY_MAX_DIGITS digits per number.  The text
    is read as one byte array: digit runs come from the flips of the digit
    mask, the layout from run and newline positions, and the values one
    digit column at a time, so no array is larger than the text or the run
    count.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    if not (raw.startswith(b"p") and raw.endswith(b"\n")):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)

    # Both ends of the text are non-digits, so the flips alternate run
    # start, run stop.  A plain line holds two runs, the second ending at
    # its newline and the first one space before the second; before the
    # first come a one- or two-letter tag and a space.
    flips = np.flatnonzero(np.diff(b - np.uint8(48) < 10))
    flips += 1
    newlines = np.flatnonzero(b == _NEWLINE)
    if len(flips) != 4 * len(newlines):
        return None
    starts, stops = flips[0::2], flips[1::2]
    width = stops - starts
    s0, e0, s1, e1 = starts[0::2], stops[0::2], starts[1::2], stops[1::2]
    if not (
        np.array_equal(e1, newlines)
        and np.array_equal(s1, e0 + 1)
        and (b[e0] == _SPACE).all()
        and (b[s0 - 1] == _SPACE).all()
        and width.max() <= _ARRAY_MAX_DIGITS
    ):
        return None
    line_starts = np.concatenate(([0], newlines[:-1] + 1))
    tag = s0 - 1 - line_starts
    first, second = b[line_starts], b[line_starts + 1]
    weight = (tag == 2) & (first == _W)
    code = np.full(len(tag), -1, dtype=np.int8)
    code[(tag == 1) & (first == _E)] = _EDGE
    code[weight & (second == _V)] = _VERTEX_WEIGHT
    code[weight & (second == _E)] = _EDGE_WEIGHT
    code[0] = _HEADER if tag[0] == 1 else -1  # the text starts with 'p'
    if (code < 0).any():
        return None

    values = _run_values(b, stops, width)
    return values[0::2], values[1::2], code


def _run_values(b: np.ndarray, stops: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The int64 value of each digit run of b, given its stop and its width.

    Column c holds each run's digit c places from the right, or 0 where the
    run is shorter; its place value is one scalar.
    """
    values = np.zeros(len(stops), dtype=np.int64)
    term = np.empty_like(values)
    at = stops - 1
    for column in range(int(width.max())):
        digits = b.take(at, mode="clip")  # clip: short runs near the start read b[0]
        digits -= np.uint8(48)
        digits *= width > column
        values += np.multiply(digits, np.int64(10**column), out=term)
        at -= 1
    return values


def _parse_graph_arrays(text: str) -> GraphFileData | None:
    """The parse of a plain graph file (see _plain_records), or None.

    None also covers every plain file the line parser would reject or must
    judge: counts over MAX_COUNT, a wrong e-line count, a weight index out
    of range or repeated, any edge build_graph refuses.  So the line parser
    owns every error.
    """
    records = _plain_records(text)
    if records is None:
        return None
    heads, tails, code = records
    n, m = int(heads[0]), int(tails[0])
    if n > MAX_COUNT or m > MAX_COUNT or np.count_nonzero(code == _EDGE) != m:
        return None
    weight_lines = []
    for kind, limit in ((_VERTEX_WEIGHT, n), (_EDGE_WEIGHT, m)):
        idx = heads[code == kind]
        # a sort, not a bincount: no table as long as the largest index
        ordered = np.sort(idx)
        if idx.size and (ordered[-1] >= limit or (ordered[1:] == ordered[:-1]).any()):
            return None
        weight_lines.append((idx, tails[code == kind]))
    edges = code == _EDGE
    try:
        graph = build_graph(n, np.stack((heads[edges], tails[edges]), axis=1))
    except GraphError:
        return None
    return GraphFileData(graph, *weight_lines)


def parse_graph_text(text: str) -> GraphFileData:
    """Parse a graph file: plain files in arrays, anything else line by line."""
    data = _parse_graph_arrays(text)
    return data if data is not None else _parse_graph_lines(text)


def _parse_graph_lines(text: str) -> GraphFileData:
    """The line-by-line parse: any graph file, and the one source of ParseErrors."""
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
    return GraphFileData(graph, _line_arrays(weights["wv"]), _line_arrays(weights["we"]))


def format_graph_file(graph: Graph, vertex_weights=None, edge_weights=None) -> str:
    """Deterministic text form; only non-default weights are written."""
    lines = [f"p {graph.vertex_count} {graph.edge_count}"]
    lines += [f"e {u} {v}" for u, v in zip(*graph.ends.T.tolist())]
    if vertex_weights is not None:
        lines += [f"wv {v} {w}" for v, w in enumerate(vertex_weights) if w != 1]
    if edge_weights is not None:
        lines += [f"we {k} {w}" for k, w in enumerate(edge_weights) if w != 1]
    return "\n".join(lines) + "\n"


def parse_cell_text(text: str) -> tuple[str, np.ndarray | list[tuple[int, int]]]:
    """Parse a cell file into (kind, cells).

    A plain file (see _parse_cell_arrays) gives a read-only (n, 2) int64
    array in file order, any other file the line parser's list of (i, j) int
    tuples (that parser owns every ParseError); a spec reads both alike.
    """
    parsed = _parse_cell_arrays(text)
    return parsed if parsed is not None else _parse_cell_lines(text)


_CELL_KINDS = {b"t c4c8": "c4c8", b"t benzenoid": "benzenoid"}
_C, _MINUS = b"c-"


def _parse_cell_arrays(text: str) -> tuple[str, np.ndarray] | None:
    """(kind, cells) of a plain cell file, or None.

    A plain cell file is ASCII; its first line is 't c4c8' or 't benzenoid'
    and every later line 'c <i> <j>', with single spaces, an optional '-'
    before each coordinate, an LF at the end of every line, at most
    _ARRAY_MAX_DIGITS digits per coordinate and at least one cell.  The
    body is read as one byte array, as _plain_records reads a graph file;
    a file that repeats a cell is left to the line parser, which names it.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    head, _, body = raw.partition(b"\n")
    kind = _CELL_KINDS.get(head)
    if kind is None or not (body.startswith(b"c") and body.endswith(b"\n")):
        return None
    b = np.frombuffer(body, dtype=np.uint8)

    # As in _plain_records, the flips alternate run start, run stop, and a
    # plain line holds two runs, the second ending at its newline.  Before
    # the first come 'c', a space and maybe '-'; between the two, a space
    # and maybe '-'.
    flips = np.flatnonzero(np.diff(b - np.uint8(48) < 10))
    flips += 1
    newlines = np.flatnonzero(b == _NEWLINE)
    if len(flips) != 4 * len(newlines):
        return None
    starts, stops = flips[0::2], flips[1::2]
    width = stops - starts
    s0, e0, s1, e1 = starts[0::2], stops[0::2], starts[1::2], stops[1::2]
    line_starts = np.concatenate(([0], newlines[:-1] + 1))
    minus0 = s0 - line_starts == 3
    minus1 = s1 - e0 == 2
    if not (
        np.array_equal(e1, newlines)
        and (b[line_starts] == _C).all()
        and (b[line_starts + 1] == _SPACE).all()
        and (minus0 | (s0 - line_starts == 2)).all()
        and (b[s0[minus0] - 1] == _MINUS).all()
        and (minus1 | (s1 - e0 == 1)).all()
        and (b[e0] == _SPACE).all()
        and (b[s1[minus1] - 1] == _MINUS).all()
        and width.max() <= _ARRAY_MAX_DIGITS
    ):
        return None
    values = _run_values(b, stops, width).reshape(-1, 2)
    values[minus0, 0] *= -1
    values[minus1, 1] *= -1
    ordered = values[np.lexsort(values.T)]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        return None
    values.flags.writeable = False
    return kind, values


def _parse_cell_lines(text: str) -> tuple[str, list[tuple[int, int]]]:
    """The line-by-line parse: any cell file, and the one source of its ParseErrors."""
    kind = None
    cells: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
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


def format_coords_sidecar(coords, tags) -> str:
    """Embedding sidecar: vertex coordinates and per-edge direction tags."""
    lines = [f"v {ix} {x} {y}" for ix, (x, y) in enumerate(coords)]
    lines += [f"d {k} {tag}" for k, tag in enumerate(tags)]
    return "\n".join(lines) + "\n"


#: Blank and comment lines (up to a str.splitlines break), then the first field.
_FIRST_FIELD = re.compile(r"(?:\s*#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)*\s*(\S*)")


def sniff_kind(text: str) -> str:
    """'cells' if the first significant record is 't', else 'graph'; reads no further."""
    return "cells" if _FIRST_FIELD.match(text)[1] == "t" else "graph"
