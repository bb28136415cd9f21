"""Layer probes: one direct, unwrapped timing per layer, in ns per call.

The traced iteration says where an iteration's time goes, but every
span carries wrapper overhead. A probe calls one layer's function in a
tight loop over packets taken from the workload's own trace — no
wrappers, no event loop around it — so an optimisation of that layer
has one clean number to move. :mod:`adapter` builds the loops; this
file only times them.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict

import adapter

#: Packets handed to the probes (the head of the workload's trace).
PROBE_PACKETS = 2000
REPEATS = 5
MIN_REPEAT_NS = 15_000_000


def run_probes(blueprints) -> Dict[str, float]:
    results: Dict[str, float] = {}
    clock = time.perf_counter_ns
    for name, (run, calls, cleanup) in adapter.probe_cases(
        blueprints[:PROBE_PACKETS]
    ).items():
        run()  # warm caches and lazy set-up; users never pay it per call
        if cleanup is not None:
            cleanup()
        samples = []
        for _ in range(REPEATS):
            elapsed = done = 0
            while elapsed < MIN_REPEAT_NS:
                t0 = clock()
                run()
                elapsed += clock() - t0
                done += calls
                if cleanup is not None:
                    cleanup()
            samples.append(elapsed / done)
        results[name] = statistics.median(samples)
    return results
