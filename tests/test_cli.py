import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import cutindex as ci
import cutindex.cli as cli_module
from cutindex import chem, files, treedp
from cutindex.cli import main
from cutindex.files import format_graph_file, parse_graph_text
from helpers import random_tree, run_under_1gib

C4 = "p 4 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
C5 = "p 5 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 0\n"
GF1 = (
    "p 5 4\ne 0 2\ne 1 2\ne 2 3\ne 3 4\n"
    "wv 0 4\nwv 1 4\nwv 2 8\nwv 3 7\nwv 4 5\n"
    "we 0 2\nwe 1 2\nwe 2 4\nwe 3 3\n"
)
GF2 = "p 3 2\ne 0 1\ne 1 2\nwv 0 4\nwv 1 12\nwv 2 12\nwe 0 2\nwe 1 4\n"
GF4 = "p 4 3\ne 0 1\ne 1 2\ne 2 3\nwv 0 4\nwv 1 10\nwv 2 10\nwv 3 4\nwe 0 2\nwe 1 3\nwe 2 2\n"
OCT = "t c4c8\nc 0 0\n"
HEX = "t benzenoid\nc 0 0\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_index_brute_c4(tmp_path, capsys):
    rc = main(["index", _write(tmp_path, "c4.graph", C4)])
    assert rc == 0
    assert _lines(capsys)[:2] == ["wiener=8", "szeged=16"]


@pytest.mark.parametrize("method", ["brute", "cut", "partition"])
def test_index_methods_agree(tmp_path, capsys, method):
    rc = main(["index", _write(tmp_path, "c4.graph", C4), "--method", method])
    assert rc == 0
    assert _lines(capsys) == ["wiener=8", "szeged=16"]


@pytest.mark.parametrize("verbose", [[], ["--verbose"]])
def test_index_brute_builds_one_distance_matrix(tmp_path, capsys, monkeypatch, verbose):
    import cutindex.cli
    import cutindex.indices
    import cutindex.theta

    calls = []
    real = ci.distance_matrix

    def counted(g):
        calls.append(g.vertex_count)
        return real(g)

    for module in (cutindex.cli, cutindex.indices, cutindex.theta):
        monkeypatch.setattr(module, "distance_matrix", counted)
    rc = main(["index", _write(tmp_path, "c4.graph", C4), *verbose])
    assert rc == 0
    assert _lines(capsys)[:3] == ["wiener=8", "szeged=16", *(
        ["class=0 size=2 n1=2 n2=2 wiener_term=4 szeged_term=8"] if verbose else [])]
    assert calls == [4]


def test_index_cut_verbose_table(tmp_path, capsys):
    rc = main(["index", _write(tmp_path, "c4.graph", C4), "--method", "cut", "--verbose"])
    assert rc == 0
    out = _lines(capsys)
    assert out[0] == "wiener=8" and out[1] == "szeged=16"
    assert out[2:] == [
        "class=0 size=2 n1=2 n2=2 wiener_term=4 szeged_term=8",
        "class=1 size=2 n1=2 n2=2 wiener_term=4 szeged_term=8",
    ]


def test_index_partition_explicit_groups(tmp_path, capsys):
    rc = main([
        "index", _write(tmp_path, "c4.graph", C4),
        "--method", "partition", "--partition", "0;1",
    ])
    assert rc == 0
    assert _lines(capsys) == ["wiener=8", "szeged=16"]


def test_index_partition_bad_group_spec(tmp_path, capsys):
    rc = main([
        "index", _write(tmp_path, "c4.graph", C4),
        "--method", "partition", "--partition", "0,x",
    ])
    assert rc == 2


def test_index_partition_incomplete_groups_semantic(tmp_path):
    rc = main([
        "index", _write(tmp_path, "c4.graph", C4),
        "--method", "partition", "--partition", "0",
    ])
    assert rc == 3


def test_index_json_schema(tmp_path, capsys):
    rc = main([
        "index", _write(tmp_path, "c4.graph", C4),
        "--method", "partition", "--partition", "finest", "--json", "--verbose",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["command", "method", "partition", "wiener", "szeged", "classes"]
    assert payload["wiener"] == 8 and payload["szeged"] == 16
    assert payload["classes"][0] == {
        "class": 0, "size": 2, "n1": 2, "n2": 2, "wiener_term": 4, "szeged_term": 8,
    }


def test_index_non_partial_cube_exit_3_with_witness(tmp_path, capsys):
    rc = main(["index", _write(tmp_path, "c5.graph", C5), "--method", "cut"])
    assert rc == 3
    out = _lines(capsys)
    assert out[0] == "partial_cube=false"
    assert out[1] == "witness=odd_cycle"
    assert any(line.startswith("witness_cycle=") for line in out)


def test_odd_cycle_witness_bytes(tmp_path, capsys):
    c5 = _write(tmp_path, "c5.graph", C5)
    plain = "partial_cube=false\nwitness=odd_cycle\nwitness_cycle=2,1,0,4,3\n"
    as_json = '{"partial_cube": false, "witness": {"kind": "odd_cycle", "odd_cycle": [2, 1, 0, 4, 3]}}\n'
    for argv, rc, out in [
        (["recognize", c5], 0, plain),
        (["recognize", c5, "--json"], 0, as_json),
        (["index", c5, "--method", "cut"], 3, plain),
        (["index", c5, "--method", "cut", "--json"], 3, as_json),
    ]:
        assert main(argv) == rc
        assert capsys.readouterr() == (out, "")


def test_index_brute_works_on_non_partial_cube(tmp_path, capsys):
    rc = main(["index", _write(tmp_path, "c5.graph", C5)])
    assert rc == 0
    assert _lines(capsys) == ["wiener=15", "szeged=20"]


def test_index_rejects_weighted_graph_file(tmp_path):
    rc = main(["index", _write(tmp_path, "gf2.graph", GF2)])
    assert rc == 2


def test_index_parse_error_exit_2(tmp_path, capsys):
    rc = main(["index", _write(tmp_path, "bad.graph", "p 2 1\ne 0 5\n")])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["index", "recognize", "tree-index"])
def test_header_count_beyond_int32_exit_2(tmp_path, capsys, command):
    rc = main([command, _write(tmp_path, "big.graph", "p 10000000000000000000 0\n")])
    assert rc == 2
    assert capsys.readouterr().err == "error: line 1: counts must be at most 2147483647\n"


# Lines are counted as the parsers count them: CR and CRLF end a line too.
# The third file puts the bad byte past the first 8 KiB.
_NOT_UTF8 = [
    (b"\xff", 1),
    (b"t c4c8\rc 0 0\r\nc 1 \xe9\n", 3),
    (b"# padding\n" * 1000 + b"p 2 1\ne 0 1\xfe\n", 1002),
]


@pytest.mark.parametrize("command", ["index", "recognize", "tree-index", "generate"])
@pytest.mark.parametrize("data,line", _NOT_UTF8, ids=["first-byte", "after-cr", "past-8k"])
def test_non_utf8_file_exit_2_naming_its_line(tmp_path, capsys, command, data, line):
    file = tmp_path / "latin1.txt"
    file.write_bytes(data)
    out = tmp_path / "out.graph"
    assert main([command, str(file)] + ([str(out)] if command == "generate" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: file is not UTF-8 text\n"
    assert not out.exists()


def test_index_missing_file_exit_2(tmp_path):
    assert main(["index", str(tmp_path / "nope.graph")]) == 2


def test_index_overflow_exit_4(tmp_path, capsys):
    # K2 with astronomically many implicit... not constructible; force via
    # tree-index on weights beyond the 64-bit accumulator contract instead.
    big = 2**63
    text = f"p 2 1\ne 0 1\nwv 0 {big}\nwv 1 {big}\n"
    rc = main(["tree-index", _write(tmp_path, "big.graph", text)])
    assert rc == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: weighted Wiener index 85070591730234615865843651857942052864"
        " exceeds unsigned 64-bit range\n"
    )


def test_tree_index_szeged_overflow_wording(tmp_path, capsys):
    # The Wiener index fits; only the edge weight pushes the Szeged index over.
    text = f"p 2 1\ne 0 1\nwv 0 {2**32}\nwv 1 {2**31}\nwe 0 {2**40}\n"
    assert main(["tree-index", _write(tmp_path, "bigsz.graph", text)]) == 4
    assert capsys.readouterr().err == (
        "error: weighted Szeged index 10141204801825835211973625643008"
        " exceeds unsigned 64-bit range\n"
    )


def test_index_direction_requires_cell_file(tmp_path):
    rc = main([
        "index", _write(tmp_path, "c4.graph", C4),
        "--method", "partition", "--partition", "direction",
    ])
    assert rc == 2


def test_index_cell_file_direction(tmp_path, capsys):
    rc = main([
        "index", _write(tmp_path, "oct.cells", OCT),
        "--method", "partition", "--partition", "direction", "--verbose",
    ])
    assert rc == 0
    out = _lines(capsys)
    assert out[0] == "wiener=64" and out[1] == "szeged=128"
    assert len(out) == 6  # four class rows


def test_index_cell_file_benzenoid_direction(tmp_path, capsys):
    rc = main([
        "index", _write(tmp_path, "hex.cells", HEX),
        "--method", "partition", "--partition", "direction",
    ])
    assert rc == 0
    assert _lines(capsys) == ["wiener=27", "szeged=54"]


def test_index_cell_file_all_methods_agree(tmp_path, capsys):
    path = _write(tmp_path, "two.cells", "t c4c8\nc 0 0\nc 1 0\n")
    results = []
    for method in ("brute", "cut", "partition"):
        assert main(["index", path, "--method", method]) == 0
        results.append(tuple(_lines(capsys)))
    assert len(set(results)) == 1


def test_index_invalid_cells_exit_2(tmp_path):
    rc = main(["index", _write(tmp_path, "bad.cells", "t c4c8\nc 0 0\nc 2 2\n")])
    assert rc == 2


_C4C8_RING = "t c4c8\n" + "".join(
    f"c {i} {j}\n" for i in range(3) for j in range(3) if (i, j) != (1, 1)
)
_CORONENE_RING = "t benzenoid\n" + "".join(
    f"c {a} {b}\n" for a, b in [(1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2)]
)


@pytest.mark.parametrize(
    "text, message",
    [
        (_C4C8_RING, "cell set encloses a hole at (1, 1); not a bounded system"),
        ("t c4c8\nc 0 0\nc 2 2\n", "disconnected cells: (2, 2) unreachable from (0, 0)"),
        (_CORONENE_RING, "cell set encloses a hole at (1, 1); not a bounded system"),
    ],
    ids=["hole", "disconnected", "benzenoid-hole"],
)
@pytest.mark.parametrize(
    "route",
    [
        ["--method", "brute"],
        ["--method", "cut"],
        ["--method", "partition"],
        ["--method", "partition", "--partition", "coarsest"],
        ["--method", "partition", "--partition", "direction"],
        ["--method", "partition", "--partition", "direction", "--verbose", "--json"],
    ],
)
def test_index_invalid_c4c8_cells_same_error_on_every_route(tmp_path, capsys, text, message, route):
    path = _write(tmp_path, "bad.cells", text)
    assert main(["index", path] + route) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: line 1: {message}\n"


_C4C8_L3 = "t c4c8\nc 0 0\nc 1 0\nc 1 1\n"
_BENZENOID_4 = "t benzenoid\nc 0 0\nc 1 0\nc 0 1\nc 2 0\n"
_BENZENOID_3X2 = "t benzenoid\n" + "".join(f"c {i} {j}\n" for j in range(2) for i in range(3))
_Q3 = "p 8 12\n" + "".join(
    f"e {v} {v ^ 1 << b}\n" for v in range(8) for b in range(3) if v ^ 1 << b > v
)


@pytest.mark.parametrize(
    "name, text, partition, expected, expected_json",
    [
        (
            "l3.cells",
            _C4C8_L3,
            "direction",
            "wiener=730\n"
            "szeged=1642\n"
            "class=0 size=3 n1=13 n2=7 wiener_term=91 szeged_term=273\n"
            "class=1 size=2 n1=16 n2=4 wiener_term=64 szeged_term=128\n"
            "class=2 size=2 n1=16 n2=4 wiener_term=64 szeged_term=128\n"
            "class=3 size=2 n1=16 n2=4 wiener_term=64 szeged_term=128\n"
            "class=4 size=2 n1=4 n2=16 wiener_term=64 szeged_term=128\n"
            "class=5 size=2 n1=10 n2=10 wiener_term=100 szeged_term=200\n"
            "class=6 size=2 n1=4 n2=16 wiener_term=64 szeged_term=128\n"
            "class=7 size=2 n1=4 n2=16 wiener_term=64 szeged_term=128\n"
            "class=8 size=2 n1=4 n2=16 wiener_term=64 szeged_term=128\n"
            "class=9 size=3 n1=7 n2=13 wiener_term=91 szeged_term=273\n",
            '{"command": "index", "method": "partition", "partition": "direction",'
            ' "wiener": 730, "szeged": 1642, "classes": [{'
            '"class": 0, "size": 3, "n1": 13, "n2": 7, "wiener_term": 91, "szeged_term": 273}, {'
            '"class": 1, "size": 2, "n1": 16, "n2": 4, "wiener_term": 64, "szeged_term": 128}, {'
            '"class": 2, "size": 2, "n1": 16, "n2": 4, "wiener_term": 64, "szeged_term": 128}, {'
            '"class": 3, "size": 2, "n1": 16, "n2": 4, "wiener_term": 64, "szeged_term": 128}, {'
            '"class": 4, "size": 2, "n1": 4, "n2": 16, "wiener_term": 64, "szeged_term": 128}, {'
            '"class": 5, "size": 2, "n1": 10, "n2": 10, "wiener_term": 100, "szeged_term": 200}, {'
            '"class": 6, "size": 2, "n1": 4, "n2": 16, "wiener_term": 64, "szeged_term": 128}, {'
            '"class": 7, "size": 2, "n1": 4, "n2": 16, "wiener_term": 64, "szeged_term": 128}, {'
            '"class": 8, "size": 2, "n1": 4, "n2": 16, "wiener_term": 64, "szeged_term": 128}, {'
            '"class": 9, "size": 3, "n1": 7, "n2": 13, "wiener_term": 91, "szeged_term": 273}]}\n',
        ),
        (
            "four.cells",
            _BENZENOID_4,
            "direction",
            "wiener=440\n"
            "szeged=1152\n"
            "class=0 size=4 n1=7 n2=10 wiener_term=70 szeged_term=280\n"
            "class=1 size=3 n1=5 n2=12 wiener_term=60 szeged_term=180\n"
            "class=2 size=2 n1=3 n2=14 wiener_term=42 szeged_term=84\n"
            "class=3 size=2 n1=14 n2=3 wiener_term=42 szeged_term=84\n"
            "class=4 size=3 n1=8 n2=9 wiener_term=72 szeged_term=216\n"
            "class=5 size=2 n1=10 n2=7 wiener_term=70 szeged_term=140\n"
            "class=6 size=2 n1=14 n2=3 wiener_term=42 szeged_term=84\n"
            "class=7 size=2 n1=14 n2=3 wiener_term=42 szeged_term=84\n",
            '{"command": "index", "method": "partition", "partition": "direction",'
            ' "wiener": 440, "szeged": 1152, "classes": [{'
            '"class": 0, "size": 4, "n1": 7, "n2": 10, "wiener_term": 70, "szeged_term": 280}, {'
            '"class": 1, "size": 3, "n1": 5, "n2": 12, "wiener_term": 60, "szeged_term": 180}, {'
            '"class": 2, "size": 2, "n1": 3, "n2": 14, "wiener_term": 42, "szeged_term": 84}, {'
            '"class": 3, "size": 2, "n1": 14, "n2": 3, "wiener_term": 42, "szeged_term": 84}, {'
            '"class": 4, "size": 3, "n1": 8, "n2": 9, "wiener_term": 72, "szeged_term": 216}, {'
            '"class": 5, "size": 2, "n1": 10, "n2": 7, "wiener_term": 70, "szeged_term": 140}, {'
            '"class": 6, "size": 2, "n1": 14, "n2": 3, "wiener_term": 42, "szeged_term": 84}, {'
            '"class": 7, "size": 2, "n1": 14, "n2": 3, "wiener_term": 42, "szeged_term": 84}]}\n',
        ),
        (
            "q3.graph",
            _Q3,
            "coarsest",
            "wiener=48\n"
            "szeged=192\n"
            "class=0 size=4 n1=4 n2=4 wiener_term=16 szeged_term=64\n"
            "class=1 size=4 n1=4 n2=4 wiener_term=16 szeged_term=64\n"
            "class=2 size=4 n1=4 n2=4 wiener_term=16 szeged_term=64\n",
            '{"command": "index", "method": "partition", "partition": "coarsest",'
            ' "wiener": 48, "szeged": 192, "classes": [{'
            '"class": 0, "size": 4, "n1": 4, "n2": 4, "wiener_term": 16, "szeged_term": 64}, {'
            '"class": 1, "size": 4, "n1": 4, "n2": 4, "wiener_term": 16, "szeged_term": 64}, {'
            '"class": 2, "size": 4, "n1": 4, "n2": 4, "wiener_term": 16, "szeged_term": 64}]}\n',
        ),
        (
            "three-by-two.cells",
            _BENZENOID_3X2,
            "direction",
            "wiener=839\n"
            "szeged=2613\n"
            "class=0 size=4 n1=7 n2=15 wiener_term=105 szeged_term=420\n"
            "class=1 size=3 n1=5 n2=17 wiener_term=85 szeged_term=255\n"
            "class=2 size=2 n1=3 n2=19 wiener_term=57 szeged_term=114\n"
            "class=3 size=4 n1=15 n2=7 wiener_term=105 szeged_term=420\n"
            "class=4 size=3 n1=8 n2=14 wiener_term=112 szeged_term=336\n"
            "class=5 size=3 n1=11 n2=11 wiener_term=121 szeged_term=363\n"
            "class=6 size=3 n1=14 n2=8 wiener_term=112 szeged_term=336\n"
            "class=7 size=3 n1=17 n2=5 wiener_term=85 szeged_term=255\n"
            "class=8 size=2 n1=19 n2=3 wiener_term=57 szeged_term=114\n",
            '{"command": "index", "method": "partition", "partition": "direction",'
            ' "wiener": 839, "szeged": 2613, "classes": [{'
            '"class": 0, "size": 4, "n1": 7, "n2": 15, "wiener_term": 105, "szeged_term": 420}, {'
            '"class": 1, "size": 3, "n1": 5, "n2": 17, "wiener_term": 85, "szeged_term": 255}, {'
            '"class": 2, "size": 2, "n1": 3, "n2": 19, "wiener_term": 57, "szeged_term": 114}, {'
            '"class": 3, "size": 4, "n1": 15, "n2": 7, "wiener_term": 105, "szeged_term": 420}, {'
            '"class": 4, "size": 3, "n1": 8, "n2": 14, "wiener_term": 112, "szeged_term": 336}, {'
            '"class": 5, "size": 3, "n1": 11, "n2": 11, "wiener_term": 121, "szeged_term": 363}, {'
            '"class": 6, "size": 3, "n1": 14, "n2": 8, "wiener_term": 112, "szeged_term": 336}, {'
            '"class": 7, "size": 3, "n1": 17, "n2": 5, "wiener_term": 85, "szeged_term": 255}, {'
            '"class": 8, "size": 2, "n1": 19, "n2": 3, "wiener_term": 57, "szeged_term": 114}]}\n',
        ),
    ],
    ids=["c4c8-direction", "benzenoid-direction", "q3-coarsest", "benzenoid-3x2-direction"],
)
def test_index_verbose_stdout_pinned(tmp_path, capsys, name, text, partition, expected, expected_json):
    argv = ["index", _write(tmp_path, name, text), "--method", "partition",
            "--partition", partition, "--verbose"]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == expected_json


@pytest.mark.parametrize("text", [_C4C8_L3, _BENZENOID_3X2], ids=["c4c8", "benzenoid"])
def test_index_direction_builds_no_distance_matrix_of_the_system(
    tmp_path, capsys, monkeypatch, text
):
    # Both kinds take the tree pass alone: no distance matrix of any size,
    # and no class cut of a direction quotient labelled by components.
    argv = ["index", _write(tmp_path, "s.cells", text), "--method", "partition",
            "--partition", "direction", "--verbose"]
    assert main(argv) == 0
    expected = capsys.readouterr()

    def guarded(g, *args):
        raise AssertionError(f"whole-graph route on {g.vertex_count} vertices")

    monkeypatch.setattr("cutindex.theta.distance_matrix", guarded)
    monkeypatch.setattr("cutindex.indices.distance_matrix", guarded)
    monkeypatch.setattr("cutindex.indices.component_labels", guarded)
    assert main(argv) == 0
    assert capsys.readouterr() == expected


def test_recognize_q3(tmp_path, capsys):
    edges = []
    for v in range(8):
        for b in range(3):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    text = "p 8 12\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    rc = main(["recognize", _write(tmp_path, "q3.graph", text)])
    assert rc == 0
    out = _lines(capsys)
    assert out[0] == "partial_cube=true"
    assert out[1] == "classes=3"
    assert out[2] == "class_sizes=4,4,4"


def test_recognize_k23_false_still_exit_0(tmp_path, capsys):
    text = "p 5 6\ne 0 2\ne 0 3\ne 0 4\ne 1 2\ne 1 3\ne 1 4\n"
    rc = main(["recognize", _write(tmp_path, "k23.graph", text)])
    assert rc == 0
    assert _lines(capsys)[0] == "partial_cube=false"


def _q4_near_miss_text():
    edges = [(v, v ^ 1 << b) for v in range(16) for b in range(4) if v ^ 1 << b > v]
    edges.append((0, 7))  # odd distance 3: bipartite, not a partial cube
    return f"p 16 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


_Q4_NEAR_MISS_CLASS = list(range(33))  # one class holds every edge


@pytest.mark.parametrize(
    "name, text, expected, expected_json",
    [
        (
            "q4-near-miss",
            _q4_near_miss_text(),
            "partial_cube=false\n"
            "witness=bad_class_cut\n"
            "witness_class_edges=" + ",".join(map(str, _Q4_NEAR_MISS_CLASS)) + "\n"
            "witness_components=16\n",
            '{"partial_cube": false, "witness": {"kind": "bad_class_cut", '
            f'"class_edges": {_Q4_NEAR_MISS_CLASS}, "component_count": 16}}}}\n',
        ),
        (
            "k23",
            "p 5 6\ne 0 2\ne 0 3\ne 0 4\ne 1 2\ne 1 3\ne 1 4\n",
            "partial_cube=false\n"
            "witness=bad_class_cut\n"
            "witness_class_edges=0,1,2,3,4,5\n"
            "witness_components=5\n",
            '{"partial_cube": false, "witness": {"kind": "bad_class_cut", '
            '"class_edges": [0, 1, 2, 3, 4, 5], "component_count": 5}}\n',
        ),
    ],
)
def test_recognize_rejection_stdout_pinned(tmp_path, capsys, name, text, expected, expected_json):
    path = _write(tmp_path, f"{name}.graph", text)
    assert main(["recognize", path]) == 0
    assert capsys.readouterr().out == expected
    assert main(["recognize", path, "--json"]) == 0
    assert capsys.readouterr().out == expected_json


def test_recognize_k2_json(tmp_path, capsys):
    rc = main(["recognize", _write(tmp_path, "k2.graph", "p 2 1\ne 0 1\n"), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"partial_cube": True, "classes": 1, "class_sizes": [1]}


def test_generate_octagon(tmp_path, capsys):
    out = str(tmp_path / "oct.graph")
    rc = main(["generate", _write(tmp_path, "oct.cells", OCT), out])
    assert rc == 0
    text = Path(out).read_text()
    assert text.startswith("p 8 8\n")
    sidecar_lines = Path(out + ".coords").read_text().strip().splitlines()
    assert sum(1 for line in sidecar_lines if line.startswith("v ")) == 8
    assert sum(1 for line in sidecar_lines if line.startswith("d ")) == 8
    data = parse_graph_text(Path(out).read_text())
    g, _, _ = ci.build_c4c8(ci.C4C8Spec([(0, 0)]))
    assert data.graph.edges == g.edges
    assert data.graph.vertex_count == g.vertex_count


def test_generate_hexagon_header(tmp_path):
    out = str(tmp_path / "hex.graph")
    assert main(["generate", _write(tmp_path, "hex.cells", HEX), out]) == 0
    assert Path(out).read_text().startswith("p 6 6\n")


def test_generate_two_cells_header(tmp_path):
    out = str(tmp_path / "two.graph")
    cells = _write(tmp_path, "two.cells", "t c4c8\nc 0 0\nc 1 0\n")
    assert main(["generate", cells, out]) == 0
    assert Path(out).read_text().startswith("p 14 15\n")


def test_generate_deterministic_bytes(tmp_path):
    cells = _write(tmp_path, "oct.cells", OCT)
    out1, out2 = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
    assert main(["generate", cells, out1]) == 0
    assert main(["generate", cells, out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert Path(out1 + ".coords").read_bytes() == Path(out2 + ".coords").read_bytes()


@pytest.mark.parametrize(
    "cells, graph_sha, coords_sha, indices",
    [
        (
            "t c4c8\nc 0 0\nc 1 0\nc 0 1\nc 1 1\n",
            "68069fbc430f26ae91825ba87382d953e4ceb7f602f0e7dd99009f85a1791770",
            "5962940ebf8ca34e83af17f4f91524cab1d50315e0aef8a89200af3eb0824ba5",
            "wiener=1084\nszeged=3220\n",
        ),
        (
            "t benzenoid\nc 0 0\nc 1 0\nc 0 1\n",
            "50758cc84ddfff4d94bdfce3c674139039041b93c30e4aa47745f9473e240eef",
            "f6269531875ab53a7eede50b419bcb4edd9ee0ae52dc62e13601a3b225ad7ccb",
            "wiener=210\nszeged=540\n",
        ),
        (  # off the origin, listed out of (i, j) order
            "t c4c8\nc 3 -2\nc 2 -2\nc 2 -1\nc 3 -1\nc 4 -1\n",
            "f562d589d05b83e01846ec619356c99c47d64a5ac6f1ec08b2e3cfabb2067eeb",
            "571a81b41ef7424d57cfd8dc8997b9ecdf5afcc57218b8ba04a5f4b194bd8fad",
            "wiener=1999\nszeged=5805\n",
        ),
        (
            "t benzenoid\nc 0 2\nc -1 2\nc -1 3\nc 1 1\n",
            "c42ad7df9bf65f1d9f0a9e5ddf504056601c2dd4ac089ea2f9b846f660f3023b",
            "76dfdbac72b78cb7fcf6b7c3f2adbbcb285a49915d8487adbc342da240c15966",
            "wiener=440\nszeged=1152\n",
        ),
    ],
    ids=["c4c8-2x2", "benzenoid-3", "c4c8-shifted", "benzenoid-shifted"],
)
def test_generate_pinned_bytes(tmp_path, capsys, cells, graph_sha, coords_sha, indices):
    # Vertex and edge order fix these bytes, the class numbers and --verbose rows.
    path, out = _write(tmp_path, "s.cells", cells), str(tmp_path / "s.graph")
    assert main(["generate", path, out]) == 0
    assert hashlib.sha256(Path(out).read_bytes()).hexdigest() == graph_sha
    assert hashlib.sha256(Path(out + ".coords").read_bytes()).hexdigest() == coords_sha
    capsys.readouterr()
    assert main(["index", path, "--method", "partition", "--partition", "direction"]) == 0
    assert capsys.readouterr().out == indices


def test_generate_disconnected_exit_2(tmp_path, capsys):
    cells = _write(tmp_path, "bad.cells", "t c4c8\nc 0 0\nc 5 5\n")
    assert main(["generate", cells, str(tmp_path / "x.graph")]) == 2
    # the cell-set error has no line prefix, unlike the same file under index
    assert capsys.readouterr().err == "error: disconnected cells: (5, 5) unreachable from (0, 0)\n"
    assert not (tmp_path / "x.graph").exists()


def test_tree_index_fixtures(tmp_path, capsys):
    rc = main(["tree-index", _write(tmp_path, "gf1.graph", GF1)])
    assert rc == 0
    assert _lines(capsys) == ["wiener=499", "szeged=1497"]
    rc = main(["tree-index", _write(tmp_path, "gf2.graph", GF2)])
    assert rc == 0
    assert _lines(capsys) == ["wiener=288", "szeged=960"]
    rc = main(["tree-index", _write(tmp_path, "gf4.graph", GF4)])
    assert rc == 0
    assert _lines(capsys) == ["wiener=388", "szeged=972"]


def test_tree_index_single_vertex(tmp_path, capsys):
    rc = main(["tree-index", _write(tmp_path, "one.graph", "p 1 0\n")])
    assert rc == 0
    assert _lines(capsys) == ["wiener=0", "szeged=0"]


def test_tree_index_not_a_tree_exit_3(tmp_path):
    assert main(["tree-index", _write(tmp_path, "c4.graph", C4)]) == 3


def test_tree_index_disconnection_comes_before_overflow(tmp_path, capsys):
    # n - 1 edges, vertex 0 isolated, and weights whose indices would overflow.
    big = 2**63
    text = "p 4 3\ne 1 2\ne 2 3\ne 3 1\n" + "".join(f"wv {v} {big}\n" for v in range(4))
    assert main(["tree-index", _write(tmp_path, "big-forest.graph", text)]) == 3
    assert capsys.readouterr() == ("", "error: not a tree: graph is disconnected\n")


_HUGE_HEADERS = ["p 2000000000 0\n", "# line parser\np 2000000000 0\n"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("text", _HUGE_HEADERS)
def test_tree_index_huge_header_fails_before_per_vertex_weights(tmp_path, text):
    # Under a 1 GiB address-space limit: nothing per vertex is allocated
    # before the edge count shows the graph is no tree.
    proc = run_under_1gib("-m", "cutindex", "tree-index", _write(tmp_path, "huge.graph", text))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: not a tree: 2000000000 vertices but 0 edges\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("text", _HUGE_HEADERS, ids=["array-parser", "line-parser"])
@pytest.mark.parametrize(
    "command", [["index"], ["index", "--method", "cut"], ["recognize"]],
    ids=["index", "index-cut", "recognize"],
)
def test_huge_header_fails_on_the_matrix_budget_first(tmp_path, text, command):
    # The budget is checked before the connectivity check, whose labels
    # would take O(n) memory.
    path = _write(tmp_path, "huge.graph", text)
    proc = run_under_1gib("-m", "cutindex", command[0], path, *command[1:])
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "error: distance matrix of 2000000000 vertices needs 16000000000000000000 bytes,"
        " over the limit of 1073741824 bytes\n"
    )


def test_tree_index_json(tmp_path, capsys):
    rc = main(["tree-index", _write(tmp_path, "gf2.graph", GF2), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"command": "tree-index", "wiener": 288, "szeged": 960}


def test_tree_index_shuffled_long_path(tmp_path, capsys):
    # W = Sz = (n^3 - n) / 6 on a path, whatever the labels and edge order.
    n = 10**5
    rng = random.Random(59)
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    rng.shuffle(edges)
    text = f"p {n} {n - 1}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    assert main(["tree-index", _write(tmp_path, "path.graph", text)]) == 0
    expected = (n**3 - n) // 6
    assert _lines(capsys) == [f"wiener={expected}", f"szeged={expected}"]


def _regime_weight(rng, regime):
    """A weight of one regime: 0 or a digit, or now and then an 18- or 19-digit number."""
    if regime == "zero" or rng.random() < 0.75:
        return rng.choice((0, 0, 1, rng.randint(2, 9)))
    digits = 18 if regime == "18 digits" else 19
    return rng.randrange(10 ** (digits - 1), 10**digits)


def _expected_tree_index(t):
    """(exit code, stdout, stderr) of tree-index by the quadratic oracle."""
    try:
        wiener, szeged = ci.wiener_weighted(t), ci.szeged_weighted(t)
    except ci.IndexOverflowError as exc:
        return 4, "", f"error: {exc}\n"
    return 0, f"wiener={wiener}\nszeged={szeged}\n", ""


@pytest.mark.parametrize("regime", ["zero", "18 digits", "19 digits"])
def test_tree_index_equals_tree_indices_and_oracle_on_both_parsers(tmp_path, capsys, regime):
    # Weight files of random trees, read by the array parser as written and by
    # the line parser behind a comment; 19-digit numbers leave the array
    # parser, and those past int64 reach the pass as Python ints.
    rng = random.Random(regime)
    codes, past_int64 = set(), 0
    for case in range(40):
        g = random_tree(rng, rng.randint(1, 25))
        w = tuple(_regime_weight(rng, regime) for _ in range(g.vertex_count))
        w_edge = tuple(_regime_weight(rng, regime) for _ in range(g.edge_count))
        t = ci.VertexEdgeWeightedGraph(g, w, w_edge)
        expected = _expected_tree_index(t)
        try:
            wiener, szeged = ci.tree_indices(t)
        except ci.IndexOverflowError as exc:
            assert (4, "", f"error: {exc}\n") == expected
        else:
            assert (0, f"wiener={wiener}\nszeged={szeged}\n", "") == expected
        text = format_graph_file(g, w, w_edge)
        is_long = any(x >= 10**18 for x in w + w_edge)
        assert (files._parse_graph_arrays(text) is None) == is_long
        for name, body in (("plain", text), ("commented", "# line parser\n" + text)):
            rc = main(["tree-index", _write(tmp_path, f"{case}-{name}.graph", body)])
            assert (rc, *capsys.readouterr()) == expected, (regime, case, name)
        codes.add(expected[0])
        past_int64 += max(w + w_edge) >= 2**63
    assert codes == ({0} if regime == "zero" else {0, 4})
    assert (past_int64 > 0) == (regime == "19 digits")


@pytest.mark.parametrize(
    "text,code,out,err",
    [
        ("p 2 1\ne 0 1\nwv 0 4000000000\nwv 1 4000000000\n", 0,
         "wiener=16000000000000000000\nszeged=16000000000000000000\n", ""),
        ("p 3 2\ne 0 1\ne 1 2\nwv 0 999999999999999999\nwe 1 999999999999999999\n", 4, "",
         "error: weighted Szeged index 1000000000000000000999999999999999998"
         " exceeds unsigned 64-bit range\n"),
        # zero vertex weights and an edge weight past int64: the int64 pass
        # leaves the edge weights as Python ints
        ("p 2 1\ne 0 1\nwv 0 0\nwv 1 0\nwe 0 99999999999999999999\n", 0,
         "wiener=0\nszeged=0\n", ""),
    ],
    ids=["past-int64", "szeged-overflow", "huge-edge-weight"],
)
def test_tree_index_pinned_weights(tmp_path, capsys, text, code, out, err):
    for name, body in (("plain", text), ("commented", "#\n" + text)):
        assert main(["tree-index", _write(tmp_path, f"{name}.graph", body)]) == code
        assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("comment", ["", "# line parser\n"], ids=["array-parser", "line-parser"])
def test_tree_index_builds_no_weight_tuples(tmp_path, monkeypatch, comment):
    parsed = []

    def spy(text):
        parsed.append(parse_graph_text(text))
        return parsed[-1]

    monkeypatch.setattr("cutindex.cli.parse_graph_text", spy)
    assert main(["tree-index", _write(tmp_path, "gf1.graph", comment + GF1)]) == 0
    assert len(parsed) == 1
    assert "vertex_weights" not in parsed[0].__dict__
    assert "edge_weights" not in parsed[0].__dict__


@pytest.mark.parametrize("kind", ["c4c8", "benzenoid"])
def test_direction_route_builds_no_cell_or_class_tuples(tmp_path, monkeypatch, capsys, kind):
    # A plain cell file stays arrays from the parse to the rows: the spec
    # derives no cell set and the partition no class tuples.
    specs, thetas = [], []
    cell_spec, theta_partition = cli_module._cell_spec, chem.c4c8_theta_partition

    def spy_spec(text):
        specs.append(cell_spec(text))
        return specs[-1]

    def spy_theta(spec):
        thetas.append(theta_partition(spec))
        return thetas[-1]

    text = f"t {kind}\n" + "".join(f"c {i} {j}\n" for i in range(4) for j in range(-3, 0))
    monkeypatch.setattr("cutindex.cli._cell_spec", spy_spec)
    monkeypatch.setattr("cutindex.chem.c4c8_theta_partition", spy_theta)
    argv = ["index", _write(tmp_path, "block.cells", text), "--method", "partition",
            "--partition", "direction", "--verbose"]
    assert main(argv) == 0
    assert len(specs) == len(thetas) == 1
    assert list(specs[0].__dict__) == ["_grid"]
    assert "cells" not in specs[0].__dict__
    _, tags, theta = thetas[0]
    assert tags.dtype == np.int8
    assert "classes" not in theta.__dict__
    out = capsys.readouterr().out
    monkeypatch.undo()
    commented = "# line parser\n" + text.replace("\n", "\r\n")
    assert main(argv[:1] + [_write(tmp_path, "commented.cells", commented)] + argv[2:]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
@pytest.mark.parametrize("kind", ["c4c8", "benzenoid"])
def test_direction_indices_come_from_runs_without_the_face_join(tmp_path, monkeypatch, capsys,
                                                                 kind, as_json):
    # Without --verbose no graph of the system is built, and the indices are
    # those of the --verbose run, byte for byte.
    calls = []
    for name in ("_face_join", "c4c8_theta_partition"):
        original = getattr(chem, name)
        monkeypatch.setattr(chem, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    text = f"t {kind}\n" + "".join(f"c {i} {j}\n" for i in range(4) for j in range(-3, 0))
    path = _write(tmp_path, "cells.cells", text + "c 4 -1\nc 4 0\n")
    argv = ["index", path, "--method", "partition", "--partition", "direction"]
    argv += ["--json"] if as_json else []
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert calls == []
    assert main(argv + ["--verbose"]) == 0
    verbose = capsys.readouterr().out
    assert calls == ["c4c8_theta_partition", "_face_join"]
    if as_json:
        payload = json.loads(verbose)
        del payload["classes"]
        assert out == json.dumps(payload) + "\n"
    else:
        assert out == "".join(verbose.splitlines(keepends=True)[:2])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_direction_indices_of_a_million_cells_under_1gib(tmp_path):
    # The face join of this block peaks near 1.5 GB; the runs need no graph.
    # Its Szeged index is past 2**63, so the total is summed in Python ints.
    text = "t c4c8\n" + "".join(f"c {i} {j}\n" for i in range(1000) for j in range(1000))
    path = _write(tmp_path, "block.cells", text)
    argv = ["index", path, "--method", "partition", "--partition", "direction"]
    proc = run_under_1gib("-m", "cutindex", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "wiener=12832020666665200\nszeged=16043239351342002800\n"


def test_tree_passes_never_build_adjacency(tmp_path, monkeypatch):
    t = ci.VertexEdgeWeightedGraph(ci.build_graph(4, [(0, 1), (1, 2), (1, 3)]), (1, 2, 3, 4), (5, 6, 7))
    ci.tree_cut_rows(t)
    assert "adjacency" not in t.graph.__dict__

    seen = []

    def spy(g, w, w_edge):
        seen.append(g)
        return treedp._tree_sums(g, w, w_edge)

    monkeypatch.setattr("cutindex.cli._tree_sums", spy)
    assert main(["tree-index", _write(tmp_path, "gf1.graph", GF1)]) == 0
    assert len(seen) == 1 and "adjacency" not in seen[0].__dict__


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["index"]) == 2
    assert main(["index", "f", "--method", "nope"]) == 2
    assert main([]) == 2
