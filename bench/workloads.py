"""Workload instance lists, and the prepare step that writes them to disk.

Run as ``python3 bench/workloads.py WORKLOAD SEED``: it writes the instance
files and a manifest with each instance's argv and expected output under
``.bench_cache/`` in the checkout, and prints the manifest path.  run.py
calls it in a child process, so generation and the oracle neither count
toward the timed runs nor raise the measured process's peak memory.
Manifests are cached per (workload, seed) and expected outputs per file
content; either is rebuilt when a benchmark source file changes.

Each pass over a list runs every instance once.  Lists are laid out so that
the median call and the tail call (the eleventh-slowest of a run) fall inside
a group of instances of similar cost for every pass count a run of about 25
seconds gives, rather than on the boundary between two groups.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_cache"
SOURCES = ("gen.py", "oracle.py", "workloads.py")

@dataclass(frozen=True)
class Instance:
    """One CLI call: ``argv`` with ``{file}`` standing for the input path.

    ``expected`` is a zero-argument function returning the exact stdout, so
    that a cached value is not recomputed, or None for a near-miss, whose
    output must be a rejection with a witness that verifies.
    """

    name: str
    argv: tuple[str, ...]
    text: str
    expected: object


def _hypercube_instances(seed: int):
    # Q10 takes about 6 s by the cut route, which would leave fewer than three
    # passes per run, so Q10 runs the brute route only.  Four calls of about
    # 0.1-0.3 s (Q8 cut and brute, Q9 brute, a Q8 near-miss) and five of about
    # 1.2 s (Q9 cut, Q10 brute, three Q9 near-misses) put both the median call
    # and the tail call among the long ones, whose times are the steadier.
    out = []
    for d, mode in ((8, "cut"), (8, "brute"), (9, "cut"), (9, "brute"), (10, "brute")):
        rng = gen.rng_for(seed, "cube", d, mode)
        argv = ("index", "{file}", "--method", "cut") if mode == "cut" else ("index", "{file}")
        w, sz = oracle.hypercube_indices(d)
        out.append(Instance(f"q{d}-{mode}", argv, gen.hypercube(d, rng),
                            lambda w=w, sz=sz: oracle.index_stdout(w, sz)))
    for d, tag in ((8, "a"), (9, "a"), (9, "b"), (9, "c")):
        rng = gen.rng_for(seed, "near-miss", d, tag)
        out.append(Instance(f"q{d}-near-miss-{tag}", ("recognize", "{file}"),
                            gen.hypercube_near_miss(d, rng), None))
    return out


def _chem_instance(name, kind, cells, verbose):
    argv = ("index", "{file}", "--method", "partition", "--partition", "direction")
    argv += ("--verbose",) if verbose else ()

    def expected():
        system = oracle.ChemSystem(kind, cells)
        rows = None
        if verbose:
            # The C4C8 tree route orients rows by vertex 0; the general
            # partition route by each class's anchor vertex.
            rows = system.vertex0_rows() if kind == "c4c8" else system.anchor_rows()
        return oracle.index_stdout(*system.indices(), rows)

    return Instance(name, argv, gen.cell_text(kind, cells), expected)


def _benzenoid_instances(seed: int):
    def rc(tag, rows, length):
        return gen.row_convex(rows, length, (0, -1), gen.rng_for(seed, "benzenoid", tag))

    return [
        _chem_instance("para-30x30", "benzenoid", gen.block(30, 30), False),
        _chem_instance("rc-20x23-a", "benzenoid", rc("a", 20, 23), False),
        _chem_instance("rc-20x23-b", "benzenoid", rc("b", 20, 23), True),
        _chem_instance("rc-20x23-c", "benzenoid", rc("c", 20, 23), True),
        _chem_instance("para-15x15", "benzenoid", gen.block(15, 15), True),
        _chem_instance("rc-12x20", "benzenoid", rc("d", 12, 20), False),
    ]


def _c4c8_instances(seed: int):
    def rc(tag, rows, length):
        return gen.row_convex(rows, length, (-1, 1), gen.rng_for(seed, "c4c8", tag))

    return [
        _chem_instance("block-25", "c4c8", gen.block(25, 25), False),
        _chem_instance("block-50", "c4c8", gen.block(50, 50), True),
        _chem_instance("rc-30x20", "c4c8", rc("s", 30, 20), True),
        _chem_instance("block-75", "c4c8", gen.block(75, 75), False),
        _chem_instance("rc-75x75-a", "c4c8", rc("a", 75, 75), False),
        _chem_instance("rc-75x75-b", "c4c8", rc("b", 75, 75), True),
        _chem_instance("rc-75x75-c", "c4c8", rc("c", 75, 75), False),
        _chem_instance("block-100", "c4c8", gen.block(100, 100), False),
    ]


def _tree_instances(seed: int):
    out = []
    for tag in ("a", "b"):
        tree = gen.random_tree(100_000, gen.rng_for(seed, "tree", tag))
        out.append(Instance(f"wtree-100k-{tag}", ("tree-index", "{file}"),
                            tree.text(gen.rng_for(seed, "tree-labels", tag)),
                            lambda tree=tree: oracle.index_stdout(*oracle.tree_indices(tree))))
    n = 200_000
    out.append(Instance("path-200k", ("tree-index", "{file}"),
                        gen.path(n).text(gen.rng_for(seed, "path")),
                        lambda: oracle.index_stdout(*oracle.path_indices(n))))
    return out


WORKLOADS = {
    "cube": _hypercube_instances,
    "benzenoid": _benzenoid_instances,
    "c4c8": _c4c8_instances,
    "tree": _tree_instances,
}


def _version() -> str:
    h = hashlib.sha256()
    for name in SOURCES:
        h.update((Path(__file__).parent / name).read_bytes())
    return h.hexdigest()[:16]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _expected(inst: Instance, version: str):
    """Expected stdout, cached by file content and argv."""
    if inst.expected is None:
        return None
    key = hashlib.sha256(f"{version}\0{inst.argv}\0{inst.text}".encode()).hexdigest()
    path = CACHE / "expected" / key
    if path.exists():
        return path.read_text(encoding="utf-8")
    value = inst.expected()
    _write(path, value)
    return value


def prepare(workload: str, seed: int) -> Path:
    """Write the instance files and manifest for (workload, seed); return the manifest path."""
    version = _version()
    folder = CACHE / f"{workload}-seed{seed}"
    manifest = folder / "manifest.json"
    if manifest.exists() and json.loads(manifest.read_text())["version"] == version:
        return manifest
    entries = []
    for inst in WORKLOADS[workload](seed):
        path = folder / f"{inst.name}.txt"
        _write(path, inst.text)
        rel = str(path.relative_to(ROOT))
        entries.append({
            "name": inst.name,
            "argv": [rel if a == "{file}" else a for a in inst.argv],
            "file": rel,
            "expected": _expected(inst, version),
        })
    _write(manifest, json.dumps({"version": version, "workload": workload,
                                 "seed": seed, "instances": entries}, indent=1))
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED")
    print(prepare(sys.argv[1], int(sys.argv[2])))
