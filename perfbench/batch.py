"""``paper-batch``: the paper's offline Section VII setting.

Why: this is the only workload where per-pair engine and PGT costs
dominate.  Streaming solves stay small or are cached, so without it a
per-pair kernel gain or a PGT change would show nowhere.  It is also
where the paper's headline claims live (PGT faster than PDCE, PUCE a
little ahead of PDCE on utility).

Bypasses: stream, service, journal and cache entirely.

Size: :data:`INSTANCES` fixed-size instances per run, 18 on the paper's
normal dataset and 9 Chengdu-like, each of 100 tasks and 200 workers
(about 670 feasible pairs on normal and 200 on Chengdu-like).  A request
builds one instance with ``ProblemInstance.build`` from its generated
tasks and workers and solves it with one method through
``MethodSpec.parse(m).make().solve``; a cycle requests each instance
once with each of PUCE, PGT and PDCE (81 requests).  A round is one
cycle; a run has :data:`CYCLES_PER_SECOND` cycles per second of
``--seconds`` (16 cycles, 1,296 requests, in 20 s), and every repeat
must decide what the first cycle decided.  Instances are small so that a
run holds enough solves for its p95 (four beyond it per cycle, 64 per
run); per-pair cost still dominates a solve.  Per-request times fall
into groups by method and dataset: the Chengdu-like solves (27 a cycle)
are fastest, then normal PUCE and PDCE (36), then normal PGT (18), so
the p50 sits inside the normal PUCE/PDCE group and the p95 inside the
normal PGT group.
"""

from __future__ import annotations

import gc
import time

from perfbench import checks, gen
from perfbench.harness import Outcome, Timed, rounds_for

TASKS = 100
WORKERS = 200
#: Instances per cycle by dataset.  Chengdu-like instances are sparser and
#: solve faster; two normal ones to each of them put the p50 inside the
#: normal PUCE/PDCE group rather than on its edge.
DATASETS = ("normal", "normal", "chengdu")
PER_DATASET = 9
INSTANCES = PER_DATASET * len(DATASETS)
METHODS = ("PUCE", "PGT", "PDCE")
CYCLES_PER_SECOND = 0.8
#: Set-up passes timed; each builds every instance of the cycle once.
SETUP_REPEATS = 15
#: Requests of the first cycle re-solved with ``sweep="scalar"``.
SCALAR_SAMPLE_EVERY = 5


class Inputs:
    """One instance's generated tasks and workers, and its solve seed."""

    def __init__(self, dataset: str, seed: int):
        from repro.datasets.workload import Task, Worker
        from repro.spatial.geometry import Point

        self.dataset = dataset
        self.seed = seed
        self.truth = gen.Truth()
        draws = gen.Draws(seed, gen.spatial(dataset, TASKS, WORKERS, seed))
        points, values = draws.task_points(TASKS), draws.values(TASKS)
        self.tasks = [
            Task(id=i, location=Point(float(x), float(y)), value=float(v))
            for i, ((x, y), v) in enumerate(zip(points, values))
        ]
        points, radii = draws.worker_points(WORKERS), draws.radii(WORKERS)
        self.workers = [
            Worker(id=j, location=Point(float(x), float(y)), radius=float(r))
            for j, ((x, y), r) in enumerate(zip(points, radii))
        ]
        self.truth.tasks = {t.id: (t.location.x, t.location.y) for t in self.tasks}
        self.truth.workers = {
            w.id: (w.location.x, w.location.y, w.radius) for w in self.workers
        }

    def build(self):
        from repro.simulation.instance import ProblemInstance

        return ProblemInstance.build(self.tasks, self.workers, seed=self.seed)


def solve(inputs: Inputs, method: str):
    """One request: build the instance, then solve it."""
    from repro.api.methods import MethodSpec

    instance = inputs.build()
    return MethodSpec.parse(method).make().solve(instance, seed=inputs.seed)


def decided(pairs) -> list[tuple]:
    """Matched pairs as ``(task, worker, distance, utility)`` tuples."""
    return [(p.task_id, p.worker_id, p.distance, p.utility) for p in pairs]


def run(seed: int, seconds: float, tracer=None, workdir=None) -> Outcome:
    out = Outcome()
    inputs = [
        Inputs(dataset, seed * 1000 + k * len(DATASETS) + d)
        for k in range(PER_DATASET)
        for d, dataset in enumerate(DATASETS)
    ]
    plan = [(item, method) for item in inputs for method in METHODS]
    gc.collect()
    for _ in range(SETUP_REPEATS):
        out.probe_setup()
        t0 = time.perf_counter()
        for item in inputs:
            item.build()
        out.setup_seconds.append(time.perf_counter() - t0)
    out.probe_setup()

    solved: list = []
    with Timed(out, tracer) as timed:
        for cycle in range(rounds_for(seconds, CYCLES_PER_SECOND)):
            with timed.round() as this:
                for index, (item, method) in enumerate(plan):
                    if tracer is not None:
                        tracer.key = (f"cycle {cycle}", index)
                    t0 = time.perf_counter()
                    result = solve(item, method)
                    out.latencies.append(time.perf_counter() - t0)
                    out.kinds.append(f"{method}/{item.dataset}")
                    this.tasks += TASKS
                    # The paper's measures, kept compact: the results
                    # themselves would hold every instance alive.
                    out.assigned += result.matched_count
                    out.utility += result.total_utility
                    out.epsilon += result.total_privacy_spend
                    solved.append(decided(result.matched_pairs()))
    # No admission layer: every task offered is taken.
    out.arrived = out.submits_offered = out.tasks_decided

    first = solved[: len(plan)]
    for number, matched in enumerate(solved):
        cycle, index = divmod(number, len(plan))
        label = f"cycle {cycle} request {index}"
        out.failures += checks.batch_valid(label, matched, plan[index][0].truth)
        if cycle:
            out.failures += checks.same_sequence(f"{label} vs cycle 0", matched, first[index])

    # A sample of the engine's solves on the reference (scalar) sweep.
    scalar_checked = 0
    for index, (item, method) in enumerate(plan):
        if index % SCALAR_SAMPLE_EVERY or method == "PGT":
            continue
        from repro.api.methods import MethodSpec

        reference = MethodSpec.parse(f"{method}(sweep=scalar)").make()
        want = decided(reference.solve(item.build(), seed=item.seed).matched_pairs())
        out.failures += checks.same_sequence(f"request {index} vs scalar sweep", first[index], want)
        scalar_checked += 1

    out.size = {
        "instances": INSTANCES,
        "tasks_per_instance": TASKS,
        "workers_per_instance": WORKERS,
        "methods": list(METHODS),
        "cycles": len(out.latencies) // len(plan),
        "requests": out.attempted,
        "pairs_per_instance": {
            dataset: sorted(
                item.build().num_feasible_pairs for item in inputs if item.dataset == dataset
            )
            for dataset in sorted(set(DATASETS))
        },
        "scalar_checked_requests": scalar_checked,
    }
    return out
