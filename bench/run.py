"""End-to-end benchmark of the cutindex CLI.

    python3 bench/run.py --workload {cube,benzenoid,c4c8,tree} --seed N \
        --seconds S --trace {0,1}

A single-process, closed-loop load generator: one ``cutindex.cli.main(argv)`` call
at a time, in process, with no threads.  It generates the workload's input
files from the seed in a child process, outside the timed region, then makes
passes over the instance list until the next pass would end after
``--seconds``.  Every call's exit code and stdout are checked.  The last line
of stdout is one JSON object with keys correct, attempted, failed and
metrics.

Timings are in seconds at reference speed: a fixed piece of work
(reference.py) is timed before every call, and each pass is scaled by
REFERENCE_S over that pass's median reference time.  The measured seconds
are printed beside them.

With ``--trace 0`` the metrics are the end-to-end ones, all from untraced
calls.  With ``--trace 1`` the first half of the time runs untraced and the
second half traced (tracer.py); the metrics are per-layer medians per pass,
the traced outputs must equal the untraced ones byte for byte, and the spans
are written under ``.bench_cache/``.

Run from a checkout that holds ``src/cutindex``; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from reference import REFERENCE_S, Reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
# At least this many reference timings per pass, so that a pass's median
# reference is steady on workloads with few, long calls.
REFERENCES_PER_PASS = 8
# Tail latency is the highest percentile with at least this many calls beyond it.
TAIL_BEYOND = 10
# No pass starts after WALL_CAP times the budget once the minimum pass count
# is reached, nor after HARD_LIMIT_S at all, so a run ends well within three
# minutes even on a much slower program.
WALL_CAP = 1.6
HARD_LIMIT_S = 120.0
# At least this many passes, and at least TAIL_BEYOND + 1 calls, per run.
MIN_PASSES = 3


@dataclass
class Pass:
    """One pass over the instance list."""

    calls: list[float]  # measured seconds per call
    reference: float  # median reference seconds during the pass
    call_ids: range  # positions of the calls in the run's cli.main sequence

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.reference

    @property
    def seconds(self) -> float:
        return sum(self.calls)


def measure_setup(ref: Reference) -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to ``cutindex.cli`` imported, with references."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", "import cutindex.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # bytecode, file cache
    times, refs = [], []
    for _ in range(SETUP_RUNS):
        refs.append(ref.seconds())
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return times, refs


def prepare(workload: str, seed: int) -> list[dict]:
    """Instance list of (workload, seed), generated and cached by workloads.py."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: preparing {workload} seed {seed} failed:\n{proc.stderr}")
    manifest = json.loads(Path(proc.stdout.strip()).read_text(encoding="utf-8"))
    for inst in manifest["instances"]:
        inst["argv"] = [str(ROOT / a) if a == inst["file"] else a for a in inst["argv"]]
    return manifest["instances"]


class Checker:
    """Counts calls whose exit code or output is wrong.

    Every output must equal the first output of the same instance, so traced
    and untraced calls agree byte for byte, and, where the oracle knows it,
    the expected text.  A near-miss must print a rejection whose witness
    ``RecognitionWitness.verify`` accepts; ``verify_witnesses`` checks that
    once timing is over.
    """

    def __init__(self):
        self.first_output: dict[str, str] = {}
        self.calls: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, inst, code, out) -> None:
        name = inst["name"]
        self.attempted += 1
        self.calls[name] = self.calls.get(name, 0) + 1
        first = self.first_output.setdefault(name, out)
        expected = inst["expected"]
        ok = out == expected if expected is not None else out.startswith("partial_cube=false\n")
        if code != 0 or out != first or not ok:
            self.fail(1, f"{name}: exit code {code}, output {out[:60]!r}")

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < 10:
            self.messages.append(message)

    def verify_witnesses(self, instances) -> None:
        from cutindex.files import parse_graph_text
        from cutindex.theta import RecognitionWitness

        for inst in instances:
            out = self.first_output.get(inst["name"], "")
            if inst["expected"] is not None or not out.startswith("partial_cube=false\n"):
                continue
            fields = dict(line.split("=", 1) for line in out.splitlines()[1:])

            def ints(key):
                return tuple(map(int, fields[key].split(","))) if key in fields else None

            components = ints("witness_components")
            witness = RecognitionWitness(
                kind=fields.get("witness", ""),
                odd_cycle=ints("witness_cycle"),
                class_edges=ints("witness_class_edges"),
                component_count=components[0] if components else None,
                pair=ints("witness_pair"),
            )
            graph = parse_graph_text((ROOT / inst["file"]).read_text(encoding="utf-8")).graph
            if not witness.verify(graph):
                self.fail(self.calls[inst["name"]], f"{inst['name']}: witness does not verify")


def call(cli, argv):
    """One CLI call; returns (measured seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc(file=sys.__stderr__)
        seconds = perf_counter() - start
    return seconds, code, out.getvalue()


def run_passes(cli, instances, checker, ref, budget, min_passes) -> list[Pass]:
    """Passes until the next one would end after ``budget`` seconds at reference speed.

    Counting time at reference speed keeps the pass count, and so the
    calls that the median and tail land on, the same when the host slows
    down; a slow host makes the run longer instead, up to WALL_CAP times
    ``budget``.
    """
    passes = []
    refs_per_call = math.ceil(REFERENCES_PER_PASS / len(instances))
    start = perf_counter()
    scaled = 0.0
    while True:
        first = checker.attempted
        pass_start = perf_counter()
        calls, refs = [], []
        for inst in instances:
            refs += [ref.seconds() for _ in range(refs_per_call)]
            seconds, code, out = call(cli, inst["argv"])
            checker.check(inst, code, out)
            calls.append(seconds)
        passes.append(Pass(calls, median(refs), range(first, checker.attempted)))
        scaled += (perf_counter() - pass_start) * passes[-1].scale
        elapsed = perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            return passes
        if len(passes) >= min_passes and (
            scaled * (1 + 1 / len(passes)) > budget or elapsed > WALL_CAP * budget
        ):
            return passes


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(passes, setup, peak_rss_mb, names):
    """(metrics, report lines) for an untraced run."""
    setup_times, setup_refs = setup
    calls = [c * p.scale for p in passes for c in p.calls]
    tail_s, tail_pct = tail(calls)
    measured = {
        "setup_s": median(setup_times),
        "wall_s": median(p.seconds for p in passes),
        "call_p50_s": median(c for p in passes for c in p.calls),
        "call_tail_s": tail([c for p in passes for c in p.calls])[0],
    }
    values = {
        "setup_s": (median(setup_times) * REFERENCE_S / median(setup_refs), "s",
                    f"median of {len(setup_times)} fresh interpreters"),
        "wall_s": (median(p.seconds * p.scale for p in passes), "s",
                   f"median of {len(passes)} passes"),
        "call_p50_s": (median(calls), "s", f"median of {len(calls)} calls"),
        "call_tail_s": (tail_s, "s", f"p{tail_pct:.1f} of {len(calls)} calls, {TAIL_BEYOND} beyond"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of the measuring process"),
    }
    lines = []
    for name, (value, unit, note) in values.items():
        raw = f"measured {measured[name]:.4g} s" if name in measured else ""
        lines.append(f"  {name:<12} {value:>10.4f} {unit:<3} {raw:<20} {note}")
    for i, name in enumerate(names):
        lines.append(f"  {name:<18} median call {median(p.calls[i] * p.scale for p in passes):.4f} s"
                     f"  measured {median(p.calls[i] for p in passes):.4g} s")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}
    return metrics, lines


def per_layer(untraced, traced, spans):
    """(metrics, report lines) for a traced run: medians per traced pass."""
    import tracer

    offset = traced[0].call_ids.start  # the tracer counts cli.main calls from 0
    per_pass = []
    for p in traced:
        sums = tracer.layer_metrics(spans, {c - offset for c in p.call_ids})
        per_pass.append({name: v * p.scale if tracer.METRICS[name][0] == "s" else v
                         for name, v in sums.items()})
    metrics = {name: {"value": median(p[name] for p in per_pass), "unit": unit}
               for name, (unit, *_rest) in tracer.METRICS.items()}
    overhead = (median(p.seconds * p.scale for p in traced)
                / median(p.seconds * p.scale for p in untraced) - 1)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    lines = [f"  traced passes={len(traced)}, untraced passes={len(untraced)}"]
    lines += [f"  {name:<28} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cutindex" / "__init__.py").is_file():
        print(f"error: no cutindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cutindex.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "cutindex":
        print(f"error: imported cutindex from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    instances = prepare(args.workload, args.seed)
    ref = Reference()
    checker = Checker()
    setup = None if args.trace else measure_setup(ref)

    # Warm-up call, checked but not timed: the first call pays one-off costs
    # (lazy imports, allocator growth) that later calls do not.
    smallest = min(instances, key=lambda i: (ROOT / i["file"]).stat().st_size)
    checker.check(smallest, *call(cli, smallest["argv"])[1:])

    budget = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else max(MIN_PASSES, math.ceil((TAIL_BEYOND + 1) / len(instances)))
    untraced = run_passes(cli, instances, checker, ref, budget, min_passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        import tracer

        with tracer.Tracer() as tr:
            traced = run_passes(cli, instances, checker, ref, budget, 1)
        metrics, lines = per_layer(untraced, traced, tr.spans)
        spans_path = ROOT / ".bench_cache" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tr.dump(spans_path)
        lines.append(f"  spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(untraced, setup, peak_rss_mb, [i["name"] for i in instances])

    checker.verify_witnesses(instances)
    header = (f"workload={args.workload} seed={args.seed} trace={args.trace}"
              f" instances={len(instances)} passes={len(untraced)}"
              f" error_rate={checker.failed / checker.attempted:.6g}"
              f" ({checker.failed} of {checker.attempted} calls)")
    lines = [header] + lines + [f"  FAILED {m}" for m in checker.messages]
    print("\n".join(lines))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
