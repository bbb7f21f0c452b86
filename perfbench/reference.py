"""A fixed pure-Python reference that gauges the host's speed right now.

The benchmark shares a host whose speed moves, over seconds to minutes,
between states up to 2x apart, and a slow state can cover a whole run. The
reference is timed between blocks of scans, and each time metric divides
the samples by the mean of the reference times on either side of them, so
the slowdown that scans and reference share cancels. The reference never
calls argus, so a change to the program does not move it.

Three kernels of about 20 ms each stand for the kinds of work a scan does:
integer arithmetic in the interpreter loop, a walk over a large adjacency
structure, and decoding and indexing a JSON graph document. One reference
sample runs each kernel REPEATS times and is the geometric mean of the
three kernels' mean times; at about 0.25 s it averages over the host's
brief swings rather than catching one.
"""

from __future__ import annotations

import json
import random
import statistics
import time

# What one reference sample reads on the reference machine (2-vCPU Intel
# Xeon at 2.0 GHz, Python 3.11) when the host is quiet. A normalised time
# is a sample's share of the reference times around it, times this, so it
# reads in seconds close to a quiet host's wall time.
REF_SECONDS = 0.02

REPEATS = 4
WALK_NODES = 30_000
DOC_NODES = 6_000


def _loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


class Reference:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._adj = [[rng.randrange(WALK_NODES) for _ in range(2)] for _ in range(WALK_NODES)]
        self._doc = json.dumps({
            "nodes": [{"id": f"n{i}", "label": f"org.example.C{i}.m", "function": f"f{i % 50}"}
                      for i in range(DOC_NODES)],
            "edges": [{"id": f"e{i}", "src": f"n{i % DOC_NODES}",
                       "dst": f"n{i * 7 % DOC_NODES}", "kind": "data"}
                      for i in range(2 * DOC_NODES)],
        })
        self.samples: list[float] = []
        self.sample()  # warm-up

    def _walk(self) -> int:
        seen: set[int] = set()
        stack = [0]
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(self._adj[n])
        return len(seen)

    def _decode(self) -> int:
        doc = json.loads(self._doc)
        index = {n["id"]: n for n in doc["nodes"]}
        out: dict[str, list[str]] = {}
        for e in doc["edges"]:
            out.setdefault(e["src"], []).append(index[e["dst"]]["function"])
        return len(out)

    def sample(self) -> float:
        """Time the three kernels; returns the geometric mean of their
        mean times."""
        times = []
        for kernel in (_loop, self._walk, self._decode):
            start = time.perf_counter()
            for _ in range(REPEATS):
                kernel()
            times.append((time.perf_counter() - start) / REPEATS)
        self.samples.append(statistics.geometric_mean(times))
        return self.samples[-1]
