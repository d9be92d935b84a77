"""``session-replay``: fixed-count rush-hour days, record by record,
through ``DispatchSession.apply``.

Why: this is the arrival -> ``Assignment`` path with nothing in front of
it.  ``MicroBatcher.build_instance``, the simulator's idle-pool scan, the
shard cut and planner, and the engine do the work; the evening peak fills
the 200-task ``max_batch_size`` cap, the largest flush streaming can
produce.

Bypasses: wire codecs, ``DispatchService`` (admission, queues, metrics),
journals and the flush cache (PUCE in a single private stream never
fingerprints).

Size: a day is 96 time units (a unit is a quarter hour).  2,600 tasks
arrive on a fixed rush-hour schedule (a base of 4 per unit, a morning
peak at unit 34 and a sharp evening peak at unit 72 of about 700 per
unit; with the tasks each flush hands back unassigned, about eight
flushes a day fill the 200-task cap, which a check requires).  60
workers are on duty at 0 and 340 more come on duty on a fixed schedule,
each with a shift budget of 40.  Default ``SolveOptions`` (``max_wait``
0.25 units, 200-task cap) with PUCE and the global accountant; the
program's noise seed is the day's seed.  The platform submits each
arrival as it comes and, on a clock tick every ``max_wait``, advances
the clock and drains: 3,769 requests and about 290 flushes a day, of
which about 380 are advances.  Most advances carry one flush, so the
p95 request sits in the middle of the advance population and the p50 in
the middle of the task submits.

A run replays :data:`DAYS` distinct days, each generated from its own
sub-seed.  A round replays one day with a fresh session, the days in
turn; a run has :data:`ROUNDS_PER_SECOND` rounds per second of
``--seconds`` (16 rounds, each day four times, in 20 s).  The seed moves
where tasks and workers are, so how many tasks a flush leaves
unassigned, and with it how many flushes a day takes (about 270 to 320)
and its feasible pairs (about 16,000, within a few percent), moves a
little with it; four days per run average that out.  A repeat must
decide exactly what the first replay of its day decided.  Set-up is
opening a session and registering its 60 starting workers, fifty
sessions a sample.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from perfbench import checks, gen
from perfbench.harness import Outcome, Timed, rounds_for

HORIZON = 96.0
TASKS = 2_600
INITIAL_WORKERS = 60
LATE_WORKERS = 340
WORKER_BUDGET = 40.0
#: Task patience: a task released at t expires at t + PATIENCE.
PATIENCE = 4.0
#: The clock ticks every ``max_wait`` (0.25 units, the default).
TICK = 0.25
#: The default ``max_batch_size``: the largest flush streaming produces.
CAP = 200
TASK_RATE = gen.rush_hour(4.0, ((34.0, 2.0, 250.0), (72.0, 1.0, 1400.0)))
WORKER_RATE = gen.rush_hour(1.0, ((30.0, 6.0, 3.0), (68.0, 6.0, 3.0)))
#: Location law: the paper's normal dataset, sized so that the evening's
#: 200-task flushes see a dense idle pool.
LAW = ("normal", 80, 160)
#: Distinct days per run; a round replays one of them, in turn.
DAYS = 4
ROUNDS_PER_SECOND = 0.8
#: Set-up samples; each opens :data:`SETUP_SESSIONS` sessions and
#: registers every session's starting fleet.
SETUP_REPEATS = 15
SETUP_SESSIONS = 50
#: Units of day 0 replayed with ``shards=0, sweep="scalar"`` as a check.
REFERENCE_UNITS = 40.0


class Day:
    """One day's wire records plus the ground truth the checks need."""

    def __init__(self, seed: int):
        from repro.api.wire import Advance, Drain, Finish

        self.seed = seed
        self.truth = gen.Truth()
        draws = gen.Draws(seed, gen.spatial(*LAW, seed))
        worker_times = np.concatenate(
            [np.zeros(INITIAL_WORKERS), gen.schedule(LATE_WORKERS, WORKER_RATE, HORIZON)]
        )
        arrivals = gen.worker_records(self.truth, draws, worker_times, 0, WORKER_BUDGET)
        arrivals += gen.task_records(
            self.truth, draws, gen.schedule(TASKS, TASK_RATE, HORIZON), 0, PATIENCE
        )
        self.records = []
        tick = TICK
        for record in sorted(arrivals, key=lambda r: (r.at, r.kind != "submit_worker")):
            while record.at >= tick:
                self.records += [Advance(to_time=tick), Drain()]
                tick += TICK
            self.records.append(record)
        self.records += [Advance(to_time=HORIZON + PATIENCE), Drain(), Finish()]


def open_session(seed: int, **options):
    from repro.api.options import SolveOptions
    from repro.api.session import DispatchSession, SessionConfig

    return DispatchSession("PUCE", SessionConfig(options=SolveOptions(seed=seed, **options)))


def replay(session, records, latencies=None, kinds=None):
    """Apply every record; returns the drained assignments in decision
    order and the final stats."""
    from repro.api.wire import Drain, Finish

    drained, final = [], None
    clock = time.perf_counter
    for record in records:
        t0 = clock()
        outcome = session.apply(record)
        if latencies is not None:
            latencies.append(clock() - t0)
            kinds.append(record.kind)
        if isinstance(record, Drain):
            drained.extend(checks.as_tuple(a) for a in outcome)
        elif isinstance(record, Finish):
            final = outcome
    return drained, final


def run(seed: int, seconds: float, tracer=None, workdir=None) -> Outcome:
    out = Outcome()
    days = [Day(seed * 1000 + index) for index in range(DAYS)]
    fleet = days[0].records[:INITIAL_WORKERS]
    gc.collect()
    for _ in range(SETUP_REPEATS):
        out.probe_setup()
        t0 = time.perf_counter()
        sessions = [open_session(days[0].seed) for _ in range(SETUP_SESSIONS)]
        for session in sessions:
            for record in fleet:
                session.apply(record)
        out.setup_seconds.append(time.perf_counter() - t0)
        for session in sessions:
            session.close()
    out.probe_setup()

    finished = []
    with Timed(out, tracer, segments=False) as timed:
        for number in range(rounds_for(seconds, ROUNDS_PER_SECOND)):
            day = days[number % DAYS]
            if tracer is not None:
                tracer.key = ("replay", number)
            with timed.round() as this:
                session = open_session(day.seed)
                drained, stats = replay(session, day.records, out.latencies, out.kinds)
                this.tasks += stats.assigned + stats.expired
            if tracer is not None:
                tracer.segments.append((this.started, this.started + this.wall))
            finished.append((drained, stats))

    for index, (drained, stats) in enumerate(finished):
        day = days[index % DAYS]
        label = f"replay {index} (day {index % DAYS})"
        out.arrived += stats.arrived_tasks
        out.assigned += stats.assigned
        out.utility += stats.total_utility
        out.epsilon += stats.total_privacy_spend
        # Every submit is admitted: replay has no admission layer.
        out.submits_offered += len(day.truth.tasks)
        out.failures += (
            checks.conservation(
                label, stats.arrived_tasks, stats.assigned, stats.expired, stats.leftover
            )
            + checks.assignments_valid(label, drained, day.truth.tasks, day.truth.workers)
            + checks.budgets_within(label, stats.per_worker_spend, day.truth.budgets)
        )
        if len(drained) != stats.assigned:
            out.failures.append(f"{label}: drained {len(drained)} != assigned {stats.assigned}")
        if not any(f.pending_tasks >= CAP for f in stats.flushes):
            out.failures.append(f"{label}: no flush filled the {CAP}-task cap")
        if index >= DAYS:
            out.failures += checks.same_sequence(
                f"{label} vs its first replay", drained, finished[index % DAYS][0]
            )

    # The first units of day 0 on the reference path (unsharded, scalar
    # sweep) must decide exactly the same assignments.
    day = days[0]
    cut = next(
        i for i, r in enumerate(day.records) if r.kind == "advance" and r.to_time > REFERENCE_UNITS
    )
    want, _ = replay(open_session(day.seed, shards=0, sweep="scalar"), day.records[:cut])
    out.failures += checks.same_sequence("reference prefix", finished[0][0][: len(want)], want)

    out.size = {
        "days": DAYS,
        "replays": len(finished),
        "requests_per_day": len(days[0].records),
        "tasks_per_day": TASKS,
        "fleet_per_day": INITIAL_WORKERS + LATE_WORKERS,
        "flushes_per_day": [len(stats.flushes) for _, stats in finished[:DAYS]],
        "cap_flushes_per_day": [
            sum(f.pending_tasks >= CAP for f in stats.flushes) for _, stats in finished[:DAYS]
        ],
        "max_pairs_per_flush": max(f.pairs for _, stats in finished for f in stats.flushes),
        "reference_prefix_assignments": len(want),
    }
    return out
