"""Fault-tolerance benchmark: journal overhead and age, recovery, ladder cost.

Crash safety adds moving parts that could each tax the happy path; this
bench records the numbers that keep them honest:

* **journal overhead ratio** — wall clock of one wire-driven tenant run
  (the full 183-request script, smoke runs too) with the write-ahead
  journal on (group-commit ``fsync_every=8``) over the same run with
  journaling off, clean and journaled runs interleaved, min of
  :data:`JOURNAL_RUNS` each.  The hard acceptance gate: the ratio must
  stay at or under **1.25x** — crash safety is not allowed to cost
  more than a quarter of the clean wall.
* **long-lived tenant** — one journaled tenant sends 20,000 requests
  (smoke runs too: a shorter life is too noisy to judge), and the mean
  cost of its journal write per request in the last tenth of its life
  over the first tenth is ``append_late_over_early``.  The gate: at
  most **3x** — an append must not cost more as the tenant ages.
* **recovery replay ratio** — seconds for :meth:`DispatchService.
  recover` to rebuild the tenant from its journal over the original
  run's wall.  Replay re-applies the accepted records (flushes
  re-execute), so the ratio should hover near the journaled fraction of
  the run, not above it.
* **degraded-vs-clean wall** — one sharded flush under a
  ``pool_crash``-every-time plan (the ladder walks to sequential) over
  the clean pooled flush, with the bit-identity of the two results
  recorded as ``results_identical`` — the whole point of the ladder.

``REPRO_BENCH_SMOKE=1`` keeps the run error-only and leaves the tracked
``BENCH_faults.json`` untouched (``REPRO_BENCH_JSON_DIR`` collects the
fresh JSON elsewhere — the CI perf gate does exactly that).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import emit_table
from repro.api.options import SolveOptions
from repro.api.wire import (
    Advance,
    Drain,
    Finish,
    FinishedReply,
    OpenSession,
    SubmitTask,
    SubmitWorker,
)
from repro.core.registry import make_solver
from repro.datasets.synthetic import NormalGenerator
from repro.datasets.workload import Task, Worker
from repro.faults import FaultPlan
from repro.service import DispatchService, ServiceConfig, TenantJournal
from repro.simulation.instance import ProblemInstance
from repro.spatial.geometry import Point
from repro.stream.arrivals import PoissonProcess, StreamWorkload, TaskArrival
from repro.stream.shards import ShardSeedSchedule, ShardedFlushExecutor

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

#: The gate the ISSUE pins: crash safety may cost at most a quarter of
#: the clean wall on the wire-driven tenant run.
JOURNAL_OVERHEAD_LIMIT = 1.25

#: Group-commit cadence for the journaled run (recorded in the JSON).
FSYNC_EVERY = 8

#: Interleaved clean/journaled pairs behind the overhead ratio (at least;
#: ``REPRO_BENCH_RUNS`` may ask for more).  On a 2-core VM, 198 pairs of
#: the 183-request script (three sessions of 45, 63 and 90) read
#: single-pair ratios of 0.70-1.68 around a median near 1.0, clean wall
#: 0.43-0.92 s.  Min-of-3 ratios reached 1.32 and min-of-5 1.29, past
#: the 1.25x gate on noise alone; min-of-7 reached 1.21 and min-of-9
#: 1.21, so nine pairs (about 11 s) keep the gate clear of noise.  The
#: 70-request smoke script this replaces read 1.34-1.47x, 3 runs of 3.
JOURNAL_RUNS = 9

#: The gate on ``append_late_over_early``.  A flat append reads ~1.0,
#: but fsync latency and machine speed drift between the two tenths: on
#: a 2-core VM, 13 runs of 20,000 requests read 0.36-1.43 (runs of
#: 4,000 read 0.6-1.9, too wide to gate).  A journal that rewrote its
#: whole history every 256 appends read 7.8x, 14.3x and 15.2x, so 3x
#: sits clear of both.
APPEND_GROWTH_LIMIT = 3.0

#: The long-lived tenant: requests, fleet, per-window worker budget,
#: window and task rate (tasks per time unit).
LONG_REQUESTS = 20_000
LONG_WORKERS = 12
LONG_WORKER_BUDGET = 48.0
LONG_WINDOW = 4.0
LONG_TASK_RATE = 96.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _runs() -> int:
    return int(os.environ.get("REPRO_BENCH_RUNS", "3" if _smoke() else "5"))


def _task_rate() -> float:
    return float(os.environ.get("REPRO_BENCH_FAULT_RATE", "120"))


def _json_target() -> Path | None:
    out = os.environ.get("REPRO_BENCH_JSON_DIR")
    if out:
        return Path(out) / "BENCH_faults.json"
    return None if _smoke() else BENCH_JSON


def build_script(task_rate: float, seed: int = 7) -> list:
    """One tenant's full request sequence as wire records."""
    workload = StreamWorkload(
        task_process=PoissonProcess(rate=task_rate, horizon=1.0),
        worker_process=PoissonProcess(rate=task_rate / 4.0, horizon=1.0),
        spatial=NormalGenerator(
            num_tasks=max(int(task_rate * 2), 50),
            num_workers=max(int(task_rate * 2), 50),
            seed=seed,
        ),
        initial_workers=max(int(task_rate / 3), 8),
        task_deadline=0.8,
        worker_budget=30.0,
        seed=seed,
    )
    options = SolveOptions(seed=seed, max_batch_size=24, max_wait=0.1)
    script: list = [OpenSession(method="PUCE", options=options.to_dict())]
    for event in workload.events(seed=seed):
        if isinstance(event, TaskArrival):
            script.append(
                SubmitTask.from_task(
                    event.task, at=event.time, deadline=event.deadline
                )
            )
        else:
            budget = event.budget_capacity
            script.append(
                SubmitWorker.from_worker(
                    event.worker,
                    at=event.time,
                    budget=budget if budget is not None else math.inf,
                )
            )
    for cut in (0.25, 0.5, 0.75, 1.0):
        script.append(Advance(to_time=cut))
        script.append(Drain())
    script.append(Finish())
    return script


def build_long_script(requests: int, seed: int = 7) -> list:
    """A long-lived tenant's ``requests`` wire records, ending in Finish.

    A fixed fleet of :data:`LONG_WORKERS` under a sliding budget window
    (budgets refresh, so the tenant can run forever) and tasks on a
    fixed schedule, advancing every 24 and draining every 48: the work
    per request stays the same however old the tenant is.
    """
    rng = np.random.default_rng(seed)
    options = SolveOptions(
        seed=seed, max_batch_size=24, max_wait=0.1, window_seconds=LONG_WINDOW
    )
    script: list = [OpenSession(method="PUCE", options=options.to_dict())]
    for worker_id in range(LONG_WORKERS):
        worker = Worker(id=worker_id, location=Point(*rng.normal(size=2)), radius=1.4)
        script.append(SubmitWorker.from_worker(worker, budget=LONG_WORKER_BUDGET))
    count = 0
    while len(script) < requests - 1:
        at = count / LONG_TASK_RATE
        task = Task(id=count, location=Point(*rng.normal(size=2)), value=4.5)
        script.append(SubmitTask.from_task(task, at=at, deadline=at + 0.8))
        count += 1
        if count % 24 == 0:
            script.append(Advance(to_time=at))
        if count % 48 == 0:
            script.append(Drain())
    return script[: requests - 1] + [Finish()]


async def _drive(service, script, tenant, start_seq=1, stop_after=None):
    final = None
    for index, record in enumerate(script):
        if stop_after is not None and index >= stop_after:
            break
        reply = await service.submit(tenant, record, seq=start_seq + index)
        if isinstance(reply, FinishedReply):
            final = reply
    return final


def long_tenant_append_costs(script, config) -> list[float]:
    """Seconds of journal write per request, in request order.

    Times the tenant's journal ``append`` (with any fsync it triggers)
    and bills a ``checkpoint`` fold, if the service makes one, to the
    append that triggered it.
    """
    costs: list[float] = []

    def timed(method, new_request):
        def wrapper(*args):
            started = time.perf_counter()
            method(*args)
            elapsed = time.perf_counter() - started
            if new_request:
                costs.append(elapsed)
            else:
                costs[-1] += elapsed

        return wrapper

    async def run():
        service = DispatchService(config)
        await service.submit("long", script[0], seq=1)
        journal = service._tenants["long"].journal
        journal.append = timed(journal.append, True)
        journal.checkpoint = timed(journal.checkpoint, False)
        await _drive(service, script[1:], "long", start_seq=2)
        await service.close()

    asyncio.run(run())
    return costs


def timed_wire_run(script, config) -> tuple[float, FinishedReply]:
    async def run():
        service = DispatchService(config)
        started = time.perf_counter()
        final = await _drive(service, script, "bench")
        wall = time.perf_counter() - started
        await service.close()
        return wall, final

    return asyncio.run(run())


@pytest.fixture(scope="module")
def fault_rows():
    runs = _runs()
    script = build_script(_task_rate())
    rows = []

    # 1. Journal overhead: the same wire run, journal off vs on,
    # interleaved; the minimum of each is its least-disturbed run.
    journal_runs = max(runs, JOURNAL_RUNS)
    with tempfile.TemporaryDirectory() as scratch:
        clean_walls, journal_walls = [], []
        for attempt in range(journal_runs):
            clean_walls.append(timed_wire_run(script, ServiceConfig())[0])
            journal_walls.append(
                timed_wire_run(
                    script,
                    ServiceConfig(
                        journal_dir=str(Path(scratch) / f"j{attempt}"),
                        journal_fsync_every=FSYNC_EVERY,
                    ),
                )[0]
            )
        clean_wall = min(clean_walls)
        journal_wall = min(journal_walls)
    rows.append(
        {
            "metric": "journal",
            "requests": len(script),
            "runs": journal_runs,
            "fsync_every": FSYNC_EVERY,
            "clean_wall_seconds": clean_wall,
            "journal_wall_seconds": journal_wall,
            "overhead_ratio": journal_wall / clean_wall,
            "overhead_limit": JOURNAL_OVERHEAD_LIMIT,
        }
    )

    # 2. Long-lived tenant: journal write cost per request versus age.
    long_script = build_long_script(LONG_REQUESTS)
    with tempfile.TemporaryDirectory() as scratch:
        costs = long_tenant_append_costs(
            long_script,
            ServiceConfig(journal_dir=scratch, journal_fsync_every=FSYNC_EVERY),
        )
    tenth = len(costs) // 10
    early = statistics.fmean(costs[:tenth])
    late = statistics.fmean(costs[-tenth:])
    rows.append(
        {
            "metric": "long_lived",
            "requests": len(long_script),
            "fsync_every": FSYNC_EVERY,
            "append_us_early": early * 1e6,
            "append_us_late": late * 1e6,
            "append_late_over_early": late / early,
            "growth_limit": APPEND_GROWTH_LIMIT,
        }
    )

    # 3. Recovery replay: graceful stop mid-run, rebuild, finish.
    stop_after = len(script) // 2
    with tempfile.TemporaryDirectory() as scratch:
        config = ServiceConfig(journal_dir=scratch, journal_fsync_every=FSYNC_EVERY)

        async def crash_and_recover():
            service = DispatchService(config)
            await _drive(service, script, "bench", stop_after=stop_after)
            await service.close()  # the journal files survive
            entries = len(TenantJournal(scratch, "bench").entries())
            fresh = DispatchService(config)
            started = time.perf_counter()
            recovered = await fresh.recover()
            replay = time.perf_counter() - started
            assert recovered == ["bench"]
            final = await _drive(
                fresh, script[stop_after:], "bench", start_seq=stop_after + 1
            )
            await fresh.close()
            return entries, replay, final

        entries, replay_seconds, final = asyncio.run(crash_and_recover())
    rows.append(
        {
            "metric": "recovery",
            "entries_replayed": entries,
            "replay_seconds": replay_seconds,
            "replay_ratio": replay_seconds / journal_wall,
            "finished_after_recovery": isinstance(final, FinishedReply),
        }
    )

    # 4. Degraded vs clean flush: the ladder's latency price, and the
    # bit-identity it buys.
    rng = np.random.default_rng(0)
    tasks, workers = [], []
    for cluster in range(4):
        cx = 100.0 * cluster
        for _ in range(24 if _smoke() else 60):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            tasks.append(Task(id=len(tasks), location=Point(cx + x, y), value=4.5))
        for _ in range(12 if _smoke() else 30):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            workers.append(
                Worker(id=1000 + len(workers), location=Point(cx + x, y), radius=6.0)
            )
    instance = ProblemInstance.build(tasks, workers, seed=0)
    schedule = ShardSeedSchedule(base=(3, 0, 7))

    def ladder_run(fault_plan):
        walls, outcome = [], None
        for _ in range(runs):
            with ShardedFlushExecutor(
                make_solver("PUCE"),
                num_shards=4,
                parallel="process",
                min_shard_pairs=0,
                fault_plan=fault_plan,
            ) as executor:
                started = time.perf_counter()
                result = executor.solve(instance, schedule)
                walls.append(time.perf_counter() - started)
                outcome = (
                    dict(result.matching),
                    list(result.ledger.events()),
                    executor.last_degraded,
                )
        return statistics.median(walls), outcome

    clean_flush, (clean_matching, clean_events, clean_chain) = ladder_run(None)
    degraded_flush, (matching, events, chain) = ladder_run(
        FaultPlan(seed=1, rates={"pool_crash": 1.0})
    )
    rows.append(
        {
            "metric": "degraded",
            "pairs": instance.num_feasible_pairs,
            "clean_wall_seconds": clean_flush,
            "degraded_wall_seconds": degraded_flush,
            "degraded_over_clean": degraded_flush / clean_flush,
            "degradation_chain": chain,
            "results_identical": (
                matching == clean_matching
                and events == clean_events
                and clean_chain is None
            ),
        }
    )

    return {"runs": runs, "rows": rows}


def test_faults_baseline(fault_rows):
    """Record the fault-tolerance numbers and their hard gates."""
    rows = fault_rows["rows"]
    journal = next(r for r in rows if r["metric"] == "journal")
    long_lived = next(r for r in rows if r["metric"] == "long_lived")
    recovery = next(r for r in rows if r["metric"] == "recovery")
    degraded = next(r for r in rows if r["metric"] == "degraded")
    lines = [
        "metric     clean        faulted      ratio",
        f"journal    {journal['clean_wall_seconds']:>8.3f}s    "
        f"{journal['journal_wall_seconds']:>8.3f}s    "
        f"{journal['overhead_ratio']:>5.2f}x  "
        f"(limit {journal['overhead_limit']}x, "
        f"fsync_every={journal['fsync_every']})",
        f"long-lived {long_lived['append_us_early']:>7.1f}us    "
        f"{long_lived['append_us_late']:>7.1f}us    "
        f"{long_lived['append_late_over_early']:>5.2f}x  "
        f"(limit {long_lived['growth_limit']}x, late over early tenth of "
        f"{long_lived['requests']} requests)",
        f"recovery   {recovery['replay_seconds']:>8.3f}s replay of "
        f"{recovery['entries_replayed']} entries  "
        f"({recovery['replay_ratio']:>5.2f}x of the journaled wall)",
        f"degraded   {degraded['clean_wall_seconds']:>8.3f}s    "
        f"{degraded['degraded_wall_seconds']:>8.3f}s    "
        f"{degraded['degraded_over_clean']:>5.2f}x  "
        f"(chain {degraded['degradation_chain']}, identical="
        f"{degraded['results_identical']})",
    ]
    if not _smoke():
        emit_table("faults", "\n".join(lines))

    target = _json_target()
    if target is not None:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(fault_rows, indent=2) + "\n")

    # The acceptance gates, enforced at measurement time too.
    assert journal["overhead_ratio"] <= JOURNAL_OVERHEAD_LIMIT, journal
    assert long_lived["append_late_over_early"] <= APPEND_GROWTH_LIMIT, long_lived
    assert recovery["finished_after_recovery"], recovery
    assert recovery["entries_replayed"] > 0, recovery
    assert degraded["results_identical"], degraded
    assert degraded["degradation_chain"], degraded
