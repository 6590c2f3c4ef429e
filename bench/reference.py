"""Fixed reference work, timed between calls to track the host's speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
a factor of two over tens of seconds.  run.py times this fixed piece of work
before every CLI call and scales each pass by REFERENCE_S over the pass's
median reference time, which reports timings at one nominal speed and cuts
the run-to-run spread on such hosts (figures in NOTES.md).  The work mimics
the program's mix, not its code: text parsing into integer tuples,
adjacency lists, a deque BFS, set and dict traffic, and NumPy gathers.  It
never calls cutindex, so a faster program cannot speed up the reference.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

import numpy as np

#: Nominal duration of one reference run, about its median on a 2-vCPU
#: virtual machine; reported times are scaled to it.
REFERENCE_S = 0.04


class Reference:
    """The reference work and its inputs, built once per run."""

    def __init__(self):
        rng = random.Random("reference")
        self.n = 8000
        edges = [(v, rng.randrange(v)) for v in range(1, self.n)]
        edges += [(rng.randrange(self.n), rng.randrange(self.n)) for _ in range(8000)]
        self.lines = [f"e {u} {v}" for u, v in edges if u != v]
        gen = np.random.default_rng(0)
        self.values = gen.integers(0, 100, 1 << 16, dtype=np.int64)
        self.index = gen.integers(0, 1 << 16, 1 << 16)

    def work(self) -> int:
        edges = []
        for line in self.lines:
            fields = line.split()
            edges.append((int(fields[1]), int(fields[2])))
        adjacency = [[] for _ in range(self.n)]
        seen = set()
        for k, (u, v) in enumerate(edges):
            seen.add((u, v) if u < v else (v, u))
            adjacency[u].append((v, k))
            adjacency[v].append((u, k))
        dist = [-1] * self.n
        dist[0] = 0
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y, _ in adjacency[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        total = sum(dist) + len(seen)
        for _ in range(8):
            total += int(self.values[self.index].sum())
        return total

    def seconds(self) -> float:
        start = perf_counter()
        self.work()
        return perf_counter() - start
