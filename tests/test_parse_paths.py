"""The array path of parse_graph_text against the line parser.

Graph files of every generated family, as format_graph_file writes them,
and seeded edits of them (line ends, whitespace, comments, number forms,
weight and edge faults, misplaced records) must parse to the same graph
and weights, or fail with the same ParseError text and line, whichever
path reads them; unedited files must take the array path.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutindex as ci
from cutindex import files
from cutindex.files import ParseError, format_graph_file, parse_graph_text
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
    return "ok", g.vertex_count, g.edges, data.vertex_weights, data.edge_weights


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


