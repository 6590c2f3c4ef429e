"""The array paths of parse_graph_text and parse_cell_text against the line parsers.

Graph files of every generated family, as format_graph_file writes them,
and seeded edits of them (line ends, whitespace, comments, number forms,
weight and edge faults, misplaced records) must parse to the same graph
and weights, or fail with the same ParseError text and line, whichever
path reads them; unedited files must take the array path.  Cell files,
plain and edited the same way, must give the same kind and cells, or the
same ParseError.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutindex as ci
from cutindex import files
from cutindex.files import ParseError, format_graph_file, parse_cell_text, parse_graph_text
from helpers import (
    complete,
    cycle,
    hypercube,
    path,
    petersen,
    random_benzenoid,
    random_c4c8,
    random_tree,
    random_weights,
)


def _family_graph(rng, family):
    if family == "tree":
        return random_tree(rng, rng.randint(1, 300))
    if family == "path":
        return path(rng.randint(1, 150))
    if family == "cycle":
        return cycle(rng.randint(3, 150))
    if family == "hypercube":
        return hypercube(rng.randint(0, 6))
    if family == "complete":
        return complete(rng.randint(1, 16))
    if family == "petersen":
        return petersen()
    if family == "c4c8":
        return ci.build_c4c8(random_c4c8(rng, 12))[0]
    return ci.build_benzenoid(random_benzenoid(rng, 12))[0]


def _family_text(rng, family):
    g = _family_graph(rng, family)
    if rng.random() < 0.5:
        return format_graph_file(g)
    return format_graph_file(
        g, random_weights(rng, g.vertex_count, 3), random_weights(rng, g.edge_count, 3)
    )


def _edit(rng, text, kind, n, m):
    """One seeded edit of a graph file with header 'p n m'; most leave the array path."""
    lines = text.splitlines(keepends=True)
    body = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
    numbers = [(i, j) for i, line in enumerate(lines) for j in (1, 2)
               if len(line.split()) == 3]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "tab":
        lines[body] = lines[body].replace(" ", "\t", 1)
    elif kind == "letter for space":
        fields = lines[body].split(" ")
        at = rng.randrange(1, len(fields)) if len(fields) > 1 else 0
        lines[body] = " ".join(fields[:at]) + rng.choice("pewv") + " ".join(fields[at:])
    elif kind == "extra field":
        lines[body] = lines[body].rstrip("\n") + rng.choice([" 5", " e", "v", " "]) + "\n"
    elif kind == "record kind":
        i = rng.choice([0, rng.randrange(len(lines))])  # the header half the time
        tag = rng.choice(["p", "e", "wv", "we", "pe", "ev", "ww", "v", "w", "ep"])
        lines[i] = tag + lines[i][lines[i].find(" "):]
    elif kind == "trailing space":
        lines[body] = lines[body].replace("\n", " \n")
    elif kind == "no final newline":
        return text.rstrip("\n")
    elif kind == "comment":
        lines.insert(rng.randrange(len(lines) + 1), "# note\n")
    elif kind == "blank":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["\n", "  \n"]))
    elif kind in ("leading zeros", "19 digits", "sign"):
        i, j = rng.choice(numbers)
        fields = lines[i].split()
        if kind == "leading zeros":
            fields[j] = "00" + fields[j]
        elif kind == "19 digits":
            fields[j] = rng.choice([fields[j].zfill(19), "1" + "0" * 18])
        else:
            fields[j] = rng.choice("-+") + fields[j]
        lines[i] = " ".join(fields) + "\n"
    elif kind == "duplicate weight":
        lines.append(rng.choice(["wv 0 2\n", "wv 0 2\nwv 0 3\n", "we 0 4\nwe 0 5\n"]))
    elif kind == "weight out of range":
        lines.append(rng.choice([f"wv {n} 2\n", f"we {m} 2\n", f"wv {n + 7} 1\n"]))
    elif kind == "extra edge":
        lines.append(f"e {rng.randrange(n + 2)} {rng.randrange(n + 2)}\n")
    elif kind == "missing edge":
        edges = [i for i, line in enumerate(lines) if line.startswith("e ")]
        if edges:
            del lines[rng.choice(edges)]
    elif kind == "count over limit":
        lines[0] = rng.choice([f"p 2147483648 {m}\n", f"p {n} 2147483648\n"])
    elif kind == "record before header":
        lines.insert(0, rng.choice(["e 0 1\n", "wv 0 1\n", "we 0 1\n", "p 1 0\n"]))
    elif kind in ("self-loop", "duplicate edge"):
        edges = [i for i, line in enumerate(lines) if line.startswith("e ")]
        if edges:
            i = rng.choice(edges)
            _, u, v = lines[i].split()
            if kind == "self-loop":
                lines[i] = f"e {u} {u}\n"
            else:
                lines.insert(i + 1, f"e {v} {u}\n")
    return "".join(lines)


_EDITS = (
    "crlf", "tab", "letter for space", "extra field", "record kind", "trailing space",
    "no final newline", "comment", "blank", "leading zeros", "19 digits", "sign",
    "duplicate weight", "weight out of range", "extra edge", "missing edge",
    "count over limit", "record before header", "self-loop", "duplicate edge",
)
_FAMILIES = ("tree", "path", "cycle", "hypercube", "complete", "petersen", "c4c8", "benzenoid")


def _outcome(parse, text):
    try:
        data = parse(text)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return _result(data)


def _result(data):
    g = data.graph
    assert g.ends.dtype == np.int64 and not g.ends.flags.writeable
    weights = [(w.dtype.str, w.tolist()) for w in data.weight_vectors()]
    return "ok", g.vertex_count, g.edges, weights


def _check_array_path(text, edited):
    lines = _outcome(files._parse_graph_lines, text)
    arrays = files._parse_graph_arrays(text)
    if arrays is not None:
        assert _result(arrays) == lines
    elif not edited:
        pytest.fail("a formatted family file left the array path")
    assert _outcome(parse_graph_text, text) == lines


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.sampled_from(_FAMILIES),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(_EDITS), max_size=3),
)
def test_array_path_equals_line_parser(family, seed, edits):
    rng = random.Random(seed)
    text = _family_text(rng, family)
    n, m = map(int, text.split()[1:3])
    for kind in edits:
        text = _edit(rng, text, kind, n, m)
    _check_array_path(text, bool(edits))


@pytest.mark.parametrize("kind", _EDITS)
def test_array_path_equals_line_parser_after_each_edit(kind):
    rng = random.Random(kind)
    for family in _FAMILIES * 8:
        text = _family_text(rng, family)
        n, m = map(int, text.split()[1:3])
        _check_array_path(_edit(rng, text, kind, n, m), True)


@pytest.mark.parametrize(
    "text", ["", "p", "p\n", "p 1 0", "p 1 0\n", "\n", "p 0 0\n", "p 1 0\ne 0 0\n", "p 2 1\ne 0 1\n"]
)
def test_degenerate_files_parse_as_the_line_parser_says(text):
    assert _outcome(parse_graph_text, text) == _outcome(files._parse_graph_lines, text)




# --- cell files ---------------------------------------------------------------

#: Coordinates the array path reads (at most 18 digits) and ones it leaves to the line parser.
_COORDINATES = st.one_of(
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(-(10**18 - 1), 10**18 - 1),
    st.sampled_from([10**18 - 1, -(10**18 - 1), 10**18, -(10**18), 2**63, -(2**63), 2**70]),
    st.integers(-(10**19), 10**19),
)


def _cell_file(kind, cells):
    return f"t {kind}\n" + "".join(f"c {i} {j}\n" for i, j in cells)


def _cell_edit(rng, text, kind):
    """One seeded edit of a cell file; most leave the array path, some make it invalid."""
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    at = rng.randrange(len(lines) + 1)
    body = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
    fields = lines[body].split()
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "no final newline":
        return text.rstrip("\n")
    if kind == "comment":
        lines.insert(at, rng.choice(["# note\n", "#\n", "  # c 0 0\n"]))
    elif kind == "blank":
        lines.insert(at, rng.choice(["\n", "  \n", "\t\n"]))
    elif kind == "tab":
        lines[body] = lines[body].replace(" ", "\t", 1)
    elif kind == "double space":
        lines[body] = lines[body].replace(" ", "  ", 1)
    elif kind == "trailing space":
        lines[body] = lines[body].replace("\n", " \n")
    elif kind in ("number form", "duplicate") and len(fields) == 3 and fields[0] == "c":
        if kind == "duplicate":
            lines.insert(at if at > body else body + 1, lines[body])
        else:
            j = rng.choice([1, 2])
            value = fields[j].lstrip("-")
            sign = "-" if fields[j].startswith("-") else ""
            fields[j] = rng.choice([
                "-0", "+" + value, "+0", sign + "00" + value, sign + value + "_0",
                sign + value.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
                sign + value.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
                sign + value.zfill(19), "--" + value, "-", "x",
            ])
            lines[body] = " ".join(fields) + "\n"
    elif kind == "field count":
        lines[body] = rng.choice(["c 0\n", "c 0 0 0\n", "c\n", "c0 0\n"])
    elif kind == "record":
        lines.insert(at, rng.choice(["x 0 0\n", "C 0 0\n", "t c4c8\n", "t benzenoid\n", "t\n"]))
    elif kind == "type line":
        lines[0] = rng.choice(["t nope\n", "t c4c8 x\n", "t  c4c8\n", "t\tbenzenoid\n", "T c4c8\n"])
    elif kind == "cell before type":
        lines.insert(0, "c 0 0\n")
    elif kind == "no cells":
        del lines[1:]
    elif kind == "empty":
        return rng.choice(["", "\n", "# only a comment\n"])
    return "".join(lines)


_CELL_EDITS = (
    "crlf", "no final newline", "comment", "blank", "tab", "double space", "trailing space",
    "number form", "duplicate", "field count", "record", "type line", "cell before type",
    "no cells", "empty",
)


def _cell_outcome(parse, text):
    try:
        kind, cells = parse(text)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    if isinstance(cells, np.ndarray):
        assert cells.dtype == np.int64 and cells.shape == (len(cells), 2)
        assert not cells.flags.writeable
        cells = list(zip(*cells.T.tolist()))
    assert all(type(k) is int for cell in cells for k in cell)
    return "ok", kind, cells


def _check_cell_paths(text, plain):
    lines = _cell_outcome(files._parse_cell_lines, text)
    arrays = files._parse_cell_arrays(text)
    if arrays is not None:
        assert _cell_outcome(lambda _: arrays, text) == lines
    elif plain:
        pytest.fail("a plain cell file left the array path")
    assert _cell_outcome(parse_cell_text, text) == lines
    return lines


@settings(derandomize=True, max_examples=600, deadline=None)
@given(
    st.sampled_from(["c4c8", "benzenoid"]),
    st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(_CELL_EDITS), max_size=2),
)
def test_cell_array_path_equals_line_parser(kind, cells, seed, edits):
    rng = random.Random(seed)
    text = _cell_file(kind, cells)
    for edit in edits:
        text = _cell_edit(rng, text, edit)
    plain = not edits and len(set(cells)) == len(cells) and all(
        len(str(abs(k))) <= 18 for cell in cells for k in cell)
    _check_cell_paths(text, plain)


@pytest.mark.parametrize("edit", _CELL_EDITS)
def test_cell_array_path_equals_line_parser_after_each_edit(edit):
    rng = random.Random(edit)
    for _ in range(40):
        cells = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 8))]
        _check_cell_paths(_cell_edit(rng, _cell_file(rng.choice(["c4c8", "benzenoid"]), cells), edit), False)


_ARRAYS, _LINES = True, False


@pytest.mark.parametrize(
    "text,arrays,expected",
    [
        ("t c4c8\nc 0 0\nc -1 2\n", _ARRAYS, ("ok", "c4c8", [(0, 0), (-1, 2)])),
        ("t benzenoid\nc -0 -00\n", _ARRAYS, ("ok", "benzenoid", [(0, 0)])),
        (f"t c4c8\nc {10**18 - 1} -{10**18 - 1}\n", _ARRAYS, ("ok", "c4c8", [(10**18 - 1, 1 - 10**18)])),
        # what int() takes and the array path does not
        ("# c\nt c4c8\n\nc 0 0\n", _LINES, ("ok", "c4c8", [(0, 0)])),
        ("t c4c8\r\nc 1 0\r\nc 0 0\r\n", _LINES, ("ok", "c4c8", [(1, 0), (0, 0)])),
        ("t c4c8\nc\t1  0 \n", _LINES, ("ok", "c4c8", [(1, 0)])),
        ("t c4c8\nc +1 1_0\n", _LINES, ("ok", "c4c8", [(1, 10)])),
        ("t c4c8\nc ١٢ ０\n", _LINES, ("ok", "c4c8", [(12, 0)])),
        (f"t c4c8\nc {10**18} 0\n", _LINES, ("ok", "c4c8", [(10**18, 0)])),
        (f"t c4c8\nc {2**70} -{2**70}\n", _LINES, ("ok", "c4c8", [(2**70, -(2**70))])),
        # a duplicate is named on its second line, however it is spelled
        ("t c4c8\nc 1 0\nc 2 0\nc +1 -0\n", _LINES, ("error", 4, "line 4: duplicate cell (1, 0)")),
        ("t c4c8\nc 1 -0\nc 1 0\n", _LINES, ("error", 3, "line 3: duplicate cell (1, 0)")),
        ("t c4c8\nc 1 2\nc 2 1\nc 1 2\n", _LINES, ("error", 4, "line 4: duplicate cell (1, 2)")),
        (f"t c4c8\nc {2**70} 0\nc {2**70} 0\n", _LINES,
         ("error", 3, f"line 3: duplicate cell ({2**70}, 0)")),
        ("t c4c8\nc 0 -\n", _LINES, ("error", 2, "line 2: expected integer coordinate")),
        ("t c4c8\nc 0 --1\n", _LINES, ("error", 2, "line 2: expected integer coordinate")),
    ],
)
def test_cell_files_parse_as_the_line_parser_says(text, arrays, expected):
    assert (files._parse_cell_arrays(text) is not None) == arrays
    assert _check_cell_paths(text, arrays) == expected
