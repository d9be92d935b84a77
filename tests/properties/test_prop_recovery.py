"""The crash-recovery invariant: a service killed at an arbitrary point
and restarted from its journal finishes bit-identically to an
uninterrupted direct session, and no acknowledged request is lost.

The kill is simulated the way a real crash looks to the journal: the
consumer tasks die mid-stream and the write handles are dropped with
whatever the journal already made durable (``fsync_every=1`` — every
acknowledged append).  The client then retries its last acknowledged
request with the same sequence number, which must dedup to a no-op ack
instead of double-applying.
"""

import asyncio
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.options import SolveOptions
from repro.api.session import DispatchSession, SessionConfig
from repro.api.wire import (
    AckReply,
    Advance,
    AssignmentsReply,
    Drain,
    Finish,
    FinishedReply,
    OpenSession,
    SubmitTask,
    SubmitWorker,
)
from repro.datasets.synthetic import NormalGenerator
from repro.service import DispatchService, ServiceConfig
from repro.stream.arrivals import PoissonProcess, StreamWorkload, TaskArrival

METHODS = ("PUCE", "UCE", "GRD")


def small_workload(workload_seed):
    return StreamWorkload(
        task_process=PoissonProcess(rate=16.0, horizon=1.0),
        worker_process=PoissonProcess(rate=5.0, horizon=1.0),
        spatial=NormalGenerator(num_tasks=60, num_workers=120, seed=workload_seed),
        initial_workers=12,
        task_deadline=0.8,
        worker_budget=25.0,
        seed=workload_seed,
    )


def request_script(method, options, events, cuts):
    """The full request sequence of one run, as wire records."""
    script = [OpenSession(method=method, options=options.to_dict())]
    feed = iter(events)
    queued = next(feed, None)

    def to_record(event):
        if isinstance(event, TaskArrival):
            return SubmitTask.from_task(
                event.task, at=event.time, deadline=event.deadline
            )
        budget = event.budget_capacity
        return SubmitWorker.from_worker(
            event.worker,
            at=event.time,
            budget=budget if budget is not None else math.inf,
        )

    for cut in sorted(cuts):
        while queued is not None and queued.time <= cut:
            script.append(to_record(queued))
            queued = next(feed, None)
        script.append(Advance(to_time=cut))
        script.append(Drain())
    while queued is not None:
        script.append(to_record(queued))
        queued = next(feed, None)
    script.append(Finish())
    return script


def direct_run(method, options, events, cuts):
    session = DispatchSession(method, SessionConfig(options=options))
    feed = iter(events)
    queued = next(feed, None)
    collected = []
    for cut in sorted(cuts):
        while queued is not None and queued.time <= cut:
            session.submit(queued)
            queued = next(feed, None)
        session.advance(cut)
        collected.extend(session.drain())
    while queued is not None:
        session.submit(queued)
        queued = next(feed, None)
    stats = session.finish()
    collected.extend(session.drain())
    return stats, collected


async def simulate_crash(service):
    """What a SIGKILL looks like from the journal's side: consumers die,
    handles drop, and only already-fsynced bytes survive."""
    for state in service._tenants.values():
        if state.consumer is not None and not state.consumer.done():
            state.consumer.cancel()
            try:
                await state.consumer
            except asyncio.CancelledError:
                pass
        if state.journal is not None:
            state.journal.close()
        state.session.close()


async def crashing_run(script, kill_after, journal_dir):
    """Drive the script, crash after ``kill_after`` acknowledged
    requests, restart from the journal, retry, and finish."""
    config = ServiceConfig(
        backpressure_ratio=None,
        journal_dir=str(journal_dir),
    )
    service = DispatchService(config)
    tenant = "prop"
    collected = []
    final = None
    acked = 0

    for index, record in enumerate(script):
        seq = index + 1
        if acked == kill_after:
            await simulate_crash(service)
            service = DispatchService(config)
            recovered = await service.recover()
            assert recovered == [tenant]
            # At-least-once delivery: the client cannot know whether its
            # last acknowledged request predated the crash, so it
            # retries it.  The sequence number makes that a no-op.
            if index > 0:
                retry = await service.submit(tenant, script[index - 1], seq=seq - 1)
                assert isinstance(retry, AckReply)
        reply = await service.submit(tenant, record, seq=seq)
        acked += 1
        if isinstance(reply, AssignmentsReply):
            collected.extend(r.to_assignment() for r in reply.assignments)
        elif isinstance(reply, FinishedReply):
            collected.extend(r.to_assignment() for r in reply.assignments)
            final = reply
    stats = service.tenant_stats(tenant)
    await service.close()
    return final, stats, collected


@settings(max_examples=6, deadline=None)
@given(
    workload_seed=st.integers(0, 2**20),
    run_seed=st.integers(0, 2**20),
    method=st.sampled_from(METHODS),
    cuts=st.lists(st.floats(0.1, 1.4), min_size=1, max_size=3),
    kill_fraction=st.floats(0.0, 1.0),
)
def test_kill_and_restart_is_bit_identical(
    tmp_path_factory, workload_seed, run_seed, method, cuts, kill_fraction
):
    workload = small_workload(workload_seed)
    options = SolveOptions(seed=run_seed, max_batch_size=10, max_wait=0.15)
    events = list(workload.events(seed=run_seed))
    script = request_script(method, options, events, cuts)
    # Kill anywhere from "right after open" to "right before finish".
    kill_after = 1 + int(kill_fraction * max(0, len(script) - 2))

    expected_stats, expected_events = direct_run(method, options, events, cuts)
    journal_dir = tmp_path_factory.mktemp("journal")
    final, actual_stats, actual_events = asyncio.run(
        crashing_run(script, kill_after, journal_dir)
    )

    # Zero acknowledged requests lost, zero double-applies: the full
    # assignment stream matches the uninterrupted session exactly.
    assert actual_events == expected_events
    assert final is not None
    assert final.arrived_tasks == expected_stats.arrived_tasks
    assert final.assigned == expected_stats.assigned
    assert final.expired == expected_stats.expired
    assert final.total_utility == expected_stats.total_utility
    assert final.privacy_spend == expected_stats.total_privacy_spend
    assert final.flushes == len(expected_stats.flushes)
    assert actual_stats.latencies == expected_stats.latencies
    assert actual_stats.per_worker_spend == expected_stats.per_worker_spend

    # The finished session cleaned its journal up.
    assert list(journal_dir.iterdir()) == []


def test_recovered_service_survives_repeated_crashes(tmp_path):
    """Crash → recover → crash → recover, with work in between."""

    async def run():
        config = ServiceConfig(journal_dir=str(tmp_path))
        options = SolveOptions(seed=3, max_batch_size=6)
        workload = small_workload(11)
        events = list(workload.events(seed=3))
        script = request_script("GRD", options, events, [0.4, 0.9])

        service = DispatchService(config)
        seq = 0
        collected = []
        final = None
        for index, record in enumerate(script):
            seq = index + 1
            if index in (4, 9, 14):
                await simulate_crash(service)
                service = DispatchService(config)
                await service.recover()
            reply = await service.submit("t", record, seq=seq)
            for item in getattr(reply, "assignments", ()):
                collected.append(item.to_assignment())
            if isinstance(reply, FinishedReply):
                final = reply
        await service.close()
        return final, collected

    final, collected = asyncio.run(run())
    expected_stats, expected_events = direct_run(
        "GRD",
        SolveOptions(seed=3, max_batch_size=6),
        list(small_workload(11).events(seed=3)),
        [0.4, 0.9],
    )
    assert collected == expected_events
    assert final.total_utility == expected_stats.total_utility
