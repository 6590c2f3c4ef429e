import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutindex as ci
from cutindex import files
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
    assert [w.tolist() for w in data.weight_vectors()] == [[1, 1, 1, 1], [1, 1, 1, 1]]
    assert not data.has_nondefault_weights


def test_parse_graph_weights():
    text = "p 3 2\ne 0 1\ne 1 2\nwv 1 5\nwe 0 2\n"
    data = parse_graph_text(text)
    assert [w.tolist() for w in data.weight_vectors()] == [[1, 5, 1], [2, 1]]
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
    assert [w.tolist() for w in data.weight_vectors()] == [[4, 12, 12], [2, 4]]


def test_parse_cells():
    kind, cells = parse_cell_text("t c4c8\nc 0 0\nc 1 0\n")
    assert kind == "c4c8"
    assert cells.dtype == np.int64 and not cells.flags.writeable
    assert cells.tolist() == [[0, 0], [1, 0]]
    kind, cells = parse_cell_text("# x\nt benzenoid\nc -1 2\n")
    assert kind == "benzenoid"
    assert cells == [(-1, 2)]


def _cell_error(text, topic, message):
    """A case of test_parse_cell_errors, its id the text and a topic word."""
    return pytest.param(text, message, id=f"{text}-{topic}")


@pytest.mark.parametrize(
    "text,message",
    [
        _cell_error("t nope\nc 0 0\n", "type", "line 1: type must be 't c4c8' or 't benzenoid'"),
        _cell_error("c 0 0\n", "before type", "line 1: cell before type line"),
        _cell_error("t c4c8\n", "at least one cell", "line 1: at least one cell required"),
        _cell_error("t c4c8\nc 0 0\nc 0 0\n", "duplicate cell", "line 3: duplicate cell (0, 0)"),
        _cell_error("t c4c8\nt c4c8\n", "duplicate type", "line 2: duplicate type line"),
        _cell_error("t c4c8\nc 0\n", "cell line", "line 2: cell line must be 'c <i> <j>'"),
        _cell_error("", "missing type", "line 1: missing 't c4c8' or 't benzenoid' line"),
        _cell_error("t c4c8\nc 0 x\n", "coordinate", "line 2: expected integer coordinate"),
        _cell_error("t c4c8\nc 0 0\ne 0 1\n", "unknown record", "line 3: unknown record 'e'"),
        _cell_error("t c4c8 x\nc 0 0\n", "type fields", "line 1: type must be 't c4c8' or 't benzenoid'"),
        _cell_error("# a\r\n\r\nt c4c8\r\nc 5 -7\r\nc\t5 -7\r\n", "duplicate after breaks",
                    "line 5: duplicate cell (5, -7)"),
    ],
)
def test_parse_cell_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_cell_text(text)
    assert str(err.value) == message
    assert err.value.line == int(message.split(":")[0].split()[1])


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
    assert [w.tolist() for w in data.weight_vectors()] == [[1, 1, 5], [4, 1]]


def test_non_ascii_graph_file_takes_the_line_parser():
    plain = "p 3 2\ne 0 1\ne 1 2\nwv 2 5\n"
    for text in ("# Wiener\u2013Szeged\n" + plain, plain + "# \u00e9\n"):
        assert files._parse_graph_arrays(text) is None
        assert parse_graph_text(text) == parse_graph_text(plain)


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
    assert [column.tolist() for column in data.vertex_lines] == [[1], [big]]


def test_weight_tuple_views_equal_the_weight_vectors():
    big = 2**63
    for text in ("p 3 2\ne 0 1\ne 1 2\nwv 2 5\nwe 0 4\n", "# c\np 3 2\ne 0 1\ne 1 2\nwv 2 5\nwe 0 4\n",
                 f"p 2 1\ne 0 1\nwv 1 {big}\n"):
        data = parse_graph_text(text)
        w, w_edge = data.weight_vectors()
        assert (data.vertex_weights, data.edge_weights) == (tuple(w.tolist()), tuple(w_edge.tolist()))
        assert all(type(x) is int for x in data.vertex_weights + data.edge_weights)


def test_huge_header_keeps_weights_sparse():
    for text in ("p 2000000000 0\nwv 1999999999 3\n", "# c\np 2000000000 0\nwv 1999999999 3\n"):
        data = parse_graph_text(text)
        assert data.graph.vertex_count == 2000000000
        assert [column.tolist() for column in data.vertex_lines] == [[1999999999], [3]]
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
