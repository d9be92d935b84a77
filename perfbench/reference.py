"""How fast the machine is right now, measured on a fixed reference unit.

On a shared VM the same code runs up to twice as fast in one minute as in
the next, with no steal to show for it (neighbours contend for the core's
caches and memory), so a wall time alone says as much about the machine
as about the program.  The benchmark therefore times a fixed *reference
unit* right before and right after every round and every set-up sample,
and reports each timing at reference speed: the wall time scaled by
``NOMINAL_S`` over the reference unit's time at that moment.  The raw
wall figures stay in every metric's base.

The unit is program-like work that shares no code with the program: a
small NumPy distance table, the pairs within reach as Python tuples,
noise, a sort, a greedy matching over sets and dicts, and a JSON round
trip.  A pure-Python integer loop does not do: it slows less than the
program under contention.  Interleaved with 100 x 200 ``paper-batch``
cycles on a 2-core VM, per-cycle wall times spread 0.53 (IQR over
median) while their ratio to this unit spread 0.08, and over windows of
20 cycles 0.45 against 0.015.

The unit runs with the garbage collector off, so a collection that scans
the program's heap is never billed to the machine, and ``probe`` takes the
median of several calls, so the first call's cold caches do not count.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

#: Reference calls per probe; the probe is their median.
CALLS = 9

#: Seconds one reference unit typically takes on the 2-core VM the
#: benchmark was sized on (Xeon, 2.0 GHz, Python 3.11, NumPy 2.4): the
#: speed every timing is reported at.  Only a scale; changing it would
#: rescale every timing.
NOMINAL_S = 0.0015


def unit() -> int:
    """One fixed unit of reference work; returns its matching's size."""
    rng = np.random.default_rng(7)
    tasks = rng.random((60, 2))
    workers = rng.random((120, 2))
    radii = rng.uniform(0.1, 0.2, 120)
    dist = np.sqrt(((tasks[:, None, :] - workers[None, :, :]) ** 2).sum(-1))
    rows, cols = np.nonzero(dist <= radii[None, :])
    noise = rng.laplace(0.0, 0.1, len(rows))
    pairs = [
        (float(dist[i, j]) + float(n), int(i), int(j)) for i, j, n in zip(rows, cols, noise)
    ]
    pairs.sort()
    used_tasks: set[int] = set()
    used_workers: set[int] = set()
    matched: dict[int, tuple[int, float]] = {}
    for utility, i, j in pairs:
        if i in used_tasks or j in used_workers:
            continue
        used_tasks.add(i)
        used_workers.add(j)
        matched[i] = (j, utility)
    return len(json.loads(json.dumps(sorted(matched.items()))))


def probe() -> float:
    """Seconds one reference unit takes now: the median of CALLS calls."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            unit()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the machine ran between two probes."""
    return 0.5 * (before + after) / NOMINAL_S
