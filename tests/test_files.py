import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutindex as ci
from cutindex.files import (
    ParseError,
    format_coords_sidecar,
    format_graph_file,
    parse_cell_text,
    parse_graph_text,
    sniff_kind,
)

C4_TEXT = """\
# a 4-cycle
p 4 4
e 0 1
e 1 2
e 2 3
e 3 0
"""


def test_parse_graph_basic():
    data = parse_graph_text(C4_TEXT)
    assert data.graph.vertex_count == 4
    assert data.graph.edges == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert data.vertex_weights == (1, 1, 1, 1)
    assert not data.has_nondefault_weights


def test_parse_graph_weights():
    text = "p 3 2\ne 0 1\ne 1 2\nwv 1 5\nwe 0 2\n"
    data = parse_graph_text(text)
    assert data.vertex_weights == (1, 5, 1)
    assert data.edge_weights == (2, 1)
    assert data.has_nondefault_weights


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("e 0 1\n", 1, "before header"),
        ("p 2\n", 1, "header"),
        ("p 2 1\n", 1, "declares 1 edges"),
        ("p 2 1\ne 0 1\ne 1 0\n", 3, "more than"),
        ("p 2 1\ne 0 x\n", 2, "integer"),
        ("p 2 1\ne 0 1\nwv 0 -2\n", 3, "nonnegative"),
        ("p 2 1\ne 0 1\nwv 0 2\nwv 0 3\n", 4, "duplicate wv"),
        ("p 2 1\ne 0 1\nwv 5 2\n", 3, "out of range"),
        ("p 2 1\ne 0 1\nzz 1 2\n", 3, "unknown record"),
        # ids and distances are int32, so counts stop at 2^31 - 1
        ("# big\np 10000000000000000000 0\n", 2, "counts must be at most 2147483647"),
        ("p 2 2147483648\ne 0 1\n", 1, "counts must be at most 2147483647"),
        ("p 2 2\ne 0 1\ne 1 0\n", 1, "duplicate edge"),
        ("", 1, "missing"),
        # the first bad line wins, whichever check it fails
        ("p 2 1\ne 0 1\ne 0 x\n", 3, "expected integer endpoint"),
        ("p 2 1\ne 0 1\nwv x -1\n", 3, "expected integer index"),
        ("p 2 1\ne 0 1\nwv 0 x\n", 3, "expected integer weight"),
        ("e 0\np 2 1\n", 1, "edge before header"),
        ("p 2 1\ne 0\n", 2, "edge line"),
        ("we 0 1\np 2 1\n", 1, "weight before header"),
        ("p 2 1\ne 0 1\nwe 0\n", 3, "weight line"),
        ("p 2 2\ne 0 x\nwv 9 1\n", 2, "integer"),
        ("p 2 1\ne 0 1\nwe 3 1\nwv 7 1\n", 3, "we index 3 out of range [0,1)"),
        ("p 2 1\ne 0 1\nwv 7 1\nwe 3 1\n", 3, "wv index 7 out of range [0,2)"),
        ("p 2 1\nwv 9 1\ne 0 0\n", 1, "self-loop"),
        ("p 2 1\nwv 9 1\nwv 9 2\ne 0 1\n", 3, "duplicate wv"),
        # CRLF line endings, tabs and comment lines keep their line numbers
        ("# x\r\np 2 1\r\n\t# y\r\ne\t0\t1\r\n\r\ne 1 0\r\n", 6, "more than"),
        ("p 3 2\r\n\te 0\t1 \r\n#e 1 1\r\ne 1 1\r\n", 1, "edge 1 = (1,1): self-loop"),
    ],
)
def test_parse_graph_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(ParseError) as err:
        parse_graph_text(text)
    assert err.value.line == line
    assert needle in str(err.value)


def test_graph_round_trip():
    data = parse_graph_text(C4_TEXT)
    text = format_graph_file(data.graph)
    again = parse_graph_text(text)
    assert again.graph.edges == data.graph.edges
    assert again.graph.vertex_count == data.graph.vertex_count


def test_graph_round_trip_with_weights():
    g = ci.build_graph(3, [(0, 1), (1, 2)])
    text = format_graph_file(g, vertex_weights=(4, 12, 12), edge_weights=(2, 4))
    data = parse_graph_text(text)
    assert data.vertex_weights == (4, 12, 12)
    assert data.edge_weights == (2, 4)


def test_parse_cells():
    kind, cells = parse_cell_text("t c4c8\nc 0 0\nc 1 0\n")
    assert kind == "c4c8"
    assert cells == [(0, 0), (1, 0)]
    kind, cells = parse_cell_text("# x\nt benzenoid\nc -1 2\n")
    assert kind == "benzenoid"
    assert cells == [(-1, 2)]


@pytest.mark.parametrize(
    "text,needle",
    [
        ("t nope\nc 0 0\n", "type"),
        ("c 0 0\n", "before type"),
        ("t c4c8\n", "at least one cell"),
        ("t c4c8\nc 0 0\nc 0 0\n", "duplicate cell"),
        ("t c4c8\nt c4c8\n", "duplicate type"),
        ("t c4c8\nc 0\n", "cell line"),
    ],
)
def test_parse_cell_errors(text, needle):
    with pytest.raises(ParseError, match=needle):
        parse_cell_text(text)


def test_sniff_kind():
    assert sniff_kind(C4_TEXT) == "graph"
    assert sniff_kind("# hi\nt c4c8\nc 0 0\n") == "cells"


def _sniff_by_lines(text):
    """sniff_kind as it was defined, over every line of the text."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            return "graph"
        if fields[0] == "t":
            return "cells"
        break
    return "graph"


# Every str.splitlines break, whitespace that is no break, and record letters.
_SNIFF_PIECES = list("pt#x ") + [
    "\n", "\r", "\r\n", "\t", "\v", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", "\u2028", "\u2029", "\u3000", "# c\n", "t c4c8", "p 1 0",
]


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(st.lists(st.sampled_from(_SNIFF_PIECES), max_size=16).map("".join))
def test_sniff_kind_equals_the_line_definition(text):
    assert sniff_kind(text) == _sniff_by_lines(text)


def test_sidecar_format():
    text = format_coords_sidecar(((0, 1), (2, 3)), ("H", "V"))
    assert text == "v 0 0 1\nv 1 2 3\nd 0 H\nd 1 V\n"


def test_array_path_builds_no_edge_tuples():
    data = parse_graph_text("p 3 2\ne 0 1\ne 1 2\nwv 2 5\nwe 0 4\n")
    assert "edges" not in data.graph.__dict__
    assert data.graph.ends.tolist() == [[0, 1], [1, 2]]
    assert data.vertex_weights == (1, 1, 5) and data.edge_weights == (4, 1)


def test_weight_lines_stay_arrays_on_both_parsers():
    for text in ("p 3 2\ne 0 1\ne 1 2\nwv 2 5\nwe 0 4\n", "# c\np 3 2\ne 0 1\ne 1 2\nwv 2 5\nwe 0 4\n"):
        data = parse_graph_text(text)
        w, w_edge = data.weight_vectors()
        assert w.dtype == w_edge.dtype == np.int64
        assert (w.tolist(), w_edge.tolist()) == ([1, 1, 5], [4, 1])
    # past int64, the line parser keeps that kind's weights as Python ints
    big = 2**63
    data = parse_graph_text(f"p 2 1\ne 0 1\nwv 1 {big}\nwe 0 {big - 1}\n")
    w, w_edge = data.weight_vectors()
    assert w.dtype == object and w.tolist() == [1, big]
    assert w_edge.dtype == np.int64 and w_edge.tolist() == [big - 1]
    assert data.vertex_weights == (1, big) and data.vertex_weight_lines == ((1,), (big,))


def test_huge_header_keeps_weights_sparse():
    for text in ("p 2000000000 0\nwv 1999999999 3\n", "# c\np 2000000000 0\nwv 1999999999 3\n"):
        data = parse_graph_text(text)
        assert data.graph.vertex_count == 2000000000
        assert data.vertex_weight_lines == ((1999999999,), (3,))
        assert data.has_nondefault_weights


def test_graph_file_data_equality_goes_by_dense_weights():
    # Both paths, line order and written-out default weights do not count.
    base = "p 3 2\ne 0 1\ne 1 2\n"
    same = [
        base + "wv 0 2\nwv 1 3\n",
        base + "wv 1 3\nwv 0 2\n",
        base + "wv 1 3\nwv 2 1\nwv 0 2\nwe 0 1\n",
        "# line parser\n" + base + "wv 0 2\nwv 1 3\n",
    ]
    parsed = [parse_graph_text(text) for text in same]
    assert all(data == parsed[0] for data in parsed)
    assert len({hash(data) for data in parsed}) == 1
    assert parse_graph_text(base) == parse_graph_text(base + "wv 0 1\n")
    assert parsed[0] != parse_graph_text(base + "wv 0 2\n")
    assert parsed[0] != parse_graph_text(base + "wv 0 2\nwv 1 3\nwe 1 2\n")
    assert parsed[0] != parse_graph_text("p 3 2\ne 0 1\ne 0 2\nwv 0 2\nwv 1 3\n")
