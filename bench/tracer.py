"""Span tracer that wraps each layer's public functions from outside.

``Tracer`` rebinds every wrapped function in each ``cutindex.*`` module
that binds it (callers inside the package look names up in their own module
globals, so this catches package-internal calls too) and restores the
original objects on exit.  Each call records a span: name, start, end,
parent span and the id of the ``cli.main`` call it belongs to, plus the
counts taken at that boundary.  Spans stay in memory until ``dump``.

A span's self time is its duration minus the durations of its direct
children; the runner is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# layer -> public functions wrapped in that layer's module.
LAYERS = {
    "files": ("parse_graph_text", "parse_cell_text", "sniff_kind"),
    "core": ("build_graph", "distance_matrix", "component_labels", "is_bipartite"),
    "theta": ("recognize_partial_cube", "theta_star_classes"),
    "quotient": ("quotient_by_edge_classes", "quotient_theta_classes"),
    "indices": (
        "wiener_brute", "szeged_brute",
        "wiener_cut", "szeged_cut", "cut_class_summaries",
        "wiener_weighted", "szeged_weighted", "wiener_via_partition", "szeged_via_partition",
    ),
    "treedp": ("wiener_tree_linear", "szeged_tree_linear", "tree_cut_rows"),
    "chem": (
        "build_c4c8", "build_benzenoid", "c4c8_theta_partition",
        "c4c8_cut_classes", "direction_partition", "c4c8_report",
    ),
    "cli": ("main",),
}


def _counts(name, args, result):
    """Counts recorded at a function's boundary, from its arguments and result."""
    if name in ("files.parse_graph_text", "files.parse_cell_text"):
        return {"bytes": len(args[0])}
    if name == "core.build_graph":
        return {"edges": result.edge_count}
    if name == "core.distance_matrix":
        return {"bytes": 4 * args[0].vertex_count ** 2}
    if name == "theta.theta_star_classes":
        return {"pairs": args[0].edge_count ** 2}
    if name == "theta.recognize_partial_cube":
        if hasattr(result, "dimension"):
            return {"python_hamming": int(result.dimension > 64)}
        return {"rejected": 1}
    if name == "quotient.quotient_by_edge_classes":
        return {"vertices": result.quotient.vertex_count}
    if name.startswith("treedp."):
        return {"vertices": args[0].graph.vertex_count}
    return None


class Tracer:
    """Context manager; ``spans`` holds (name, start, end, parent, call, counts)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._call = -1
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "cli.main":
                self._call += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                counts = _counts(name, args, result) if result is not None else None
                spans[index] = (name, start, end, parent, self._call, counts)

        return traced

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cutindex" or n.startswith("cutindex."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"cutindex.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        self._saved.append((module, fname, original))
                        setattr(module, fname, wrapper)
        return self

    def __exit__(self, *exc):
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()
        return False

    def dump(self, path) -> None:
        """Write the spans as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "call", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


_FILES = ("files.parse_graph_text", "files.parse_cell_text")
_TREEDP = ("treedp.wiener_tree_linear", "treedp.szeged_tree_linear", "treedp.tree_cut_rows")
_ASSEMBLY = ("chem.build_c4c8", "chem.build_benzenoid", "chem.c4c8_theta_partition")

# Per-layer metric -> (unit, kind, counter, span names).  Kinds: "self" sums
# self times, "total" full durations, "calls" counts spans, "count" sums the
# named boundary counter.  A "/call" unit is averaged over cli.main calls.
METRICS = {
    "files.parse_s": ("s", "self", None, _FILES + ("files.sniff_kind",)),
    "files.input_bytes": ("B", "count", "bytes", _FILES),
    "core.build_graph_s": ("s", "self", None, ("core.build_graph",)),
    "core.build_graph_edges": ("count", "count", "edges", ("core.build_graph",)),
    "core.distance_matrix_s": ("s", "self", None, ("core.distance_matrix",)),
    "core.distance_matrix_calls": ("count", "calls", None, ("core.distance_matrix",)),
    "core.distance_matrix_bytes": ("B_computed", "count", "bytes", ("core.distance_matrix",)),
    "core.component_labels_s": ("s", "self", None, ("core.component_labels",)),
    "core.component_labels_calls": ("count", "calls", None, ("core.component_labels",)),
    "core.is_bipartite_s": ("s", "self", None, ("core.is_bipartite",)),
    "theta.recognize_s": ("s", "total", None, ("theta.recognize_partial_cube",)),
    "theta.recognize_self_s": ("s", "self", None, ("theta.recognize_partial_cube",)),
    "theta.classes_s": ("s", "self", None, ("theta.theta_star_classes",)),
    "theta.pair_tests": ("count", "count", "pairs", ("theta.theta_star_classes",)),
    "theta.python_hamming_calls": ("count", "count", "python_hamming",
                                   ("theta.recognize_partial_cube",)),
    "theta.rejections": ("count", "count", "rejected", ("theta.recognize_partial_cube",)),
    "quotient.build_s": ("s", "self", None, ("quotient.quotient_by_edge_classes",)),
    "quotient.count": ("count", "calls", None, ("quotient.quotient_by_edge_classes",)),
    "quotient.vertices": ("count", "count", "vertices", ("quotient.quotient_by_edge_classes",)),
    "quotient.theta_classes_s": ("s", "self", None, ("quotient.quotient_theta_classes",)),
    "indices.brute_s": ("s", "self", None, ("indices.wiener_brute", "indices.szeged_brute")),
    "indices.cut_s": ("s", "self", None,
                      ("indices.wiener_cut", "indices.szeged_cut", "indices.cut_class_summaries")),
    "indices.weighted_s": ("s", "self", None,
                           ("indices.wiener_weighted", "indices.szeged_weighted",
                            "indices.wiener_via_partition", "indices.szeged_via_partition")),
    "treedp.tree_s": ("s", "self", None, _TREEDP),
    "treedp.calls": ("count", "calls", None, _TREEDP),
    "treedp.vertices": ("count", "count", "vertices", _TREEDP),
    "chem.build_s": ("s", "self", None, _ASSEMBLY),
    "chem.cut_walk_s": ("s", "self", None, ("chem.c4c8_cut_classes",)),
    "chem.report_s": ("s", "self", None, ("chem.c4c8_report", "chem.direction_partition")),
    "chem.assemblies": ("count/call", "calls", None, _ASSEMBLY),
    "cli.self_s": ("s", "self", None, ("cli.main",)),
}

_BY_SPAN: dict[str, list[str]] = {}
for _metric, (_, _, _, _names) in METRICS.items():
    for _name in _names:
        _BY_SPAN.setdefault(_name, []).append(_metric)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, calls) -> dict[str, float]:
    """Every METRICS entry summed over the spans of the given cli.main call ids."""
    own = self_times(spans)
    sums = dict.fromkeys(METRICS, 0)
    for i, (name, start, end, _, call, counts) in enumerate(spans):
        if call not in calls:
            continue
        for metric in _BY_SPAN.get(name, ()):
            _, kind, counter, _ = METRICS[metric]
            if kind == "self":
                sums[metric] += own[i]
            elif kind == "total":
                sums[metric] += end - start
            elif kind == "calls":
                sums[metric] += 1
            elif counts:
                sums[metric] += counts.get(counter, 0)
    for metric, (unit, *_rest) in METRICS.items():
        if unit.endswith("/call"):
            sums[metric] /= len(calls)
    return sums
