"""``service-fleet``: a few dozen concurrent short-lived tenants on one
service, replaced as they finish.

Why: per-request overhead dominates here: wire decode/encode, admission,
metric-label lookups, ``active_fault_plan()`` reads, the queue hand-off,
``apply``, the shared cache's fingerprint and lookup, and the fixed cost
of a micro-flush.  Each tenant that finishes is replaced by a new one
until the run's tenants are used up, so costs that grow with the number
of tenants ever opened (``open_sessions`` counts them all) show in
``service.open_us_late_over_early``.  Fixed concurrency (a closed loop of
:data:`CLIENTS` clients, each awaiting its reply before sending again)
keeps the load steady.

Bypasses: journals (off), the sliding-window accountant (global budgets,
no tenant budget cap) and the pooled shard modes (``parallel`` stays
``off``).  Cache hits skip the engine, so solver work is small here.

Size: :data:`CLIENTS` = 32 clients over one ``DispatchService`` with
default ``ServiceConfig`` (shared 1,024-entry flush cache, queue limit
64) and the workload seed as the program's noise seed.  Tenants cycle
through 24 shapes of 10 workers and 24 tasks (52 requests each), so
flushes recur across tenants and hit the shared cache.  Methods by
tenant: 70% UCE, 20% PUCE, 10% PGT.  One tenant in ten floods instead:
it sends its 100 task submissions at once, past the queue limit, and the
overflow is shed; 10 flood shapes.  A round serves
:data:`ROUND_TENANTS` tenants (one full cycle of shapes and methods,
twelve of them floods); a run has :data:`ROUNDS_PER_SECOND` rounds per
second of ``--seconds`` (16 rounds, 1,920 tenants and about 106k
requests in 20 s).

Set-up is a warm restart: an untimed pre-phase serves the first
:data:`PRE_TENANTS` tenants on a service that snapshots its flush cache
on close; ``setup_s`` is the median time to construct the service from
that snapshot.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import time

import numpy as np

from perfbench import checks, client, gen
from perfbench.client import WireClient
from perfbench.harness import Outcome, Timed, rounds_for

CLIENTS = 32
SHAPES = 24
FLOOD_SHAPES = 10
WORKERS = 10
TASKS = 24
FLOOD_TASKS = 100
TASK_RATE = 12.0
#: Flood tenants' tasks arrive faster, so their bursts span few flushes.
FLOOD_TASK_RATE = 50.0
WORKER_BUDGET = 10.0
PATIENCE = 1.0
#: Method by tenant index mod 10: 7 UCE, 2 PUCE, 1 PGT.
METHODS = ("UCE",) * 7 + ("PUCE", "PUCE", "PGT")
#: Location law per tenant: a town dense enough that most tasks are in
#: some worker's reach, so a tenant's quality hangs little on its layout.
LAW = ("normal", 8, 16)
#: Tenants whose accepted records are replayed through a direct session.
DIRECT_SAMPLE_EVERY = 97
#: Tenants per round: one full cycle of the (shape, method) rotation.
ROUND_TENANTS = 120
ROUNDS_PER_SECOND = 0.8
#: Tenants served before the warm restart (one full shape x method cycle).
PRE_TENANTS = 120
#: Service constructions timed as set-up.
SETUP_REPEATS = 15


class Shape:
    """One tenant workload: its requests as ``(kind, JSON text)`` (without
    the open_session record) and the ground truth the checks need."""

    def __init__(self, seed: int, tasks: int, rate: float, flood: bool):
        from repro.api.wire import Advance, BudgetStatus, Drain, Finish, encode_record

        self.truth = gen.Truth()
        draws = gen.Draws(seed, gen.spatial(*LAW, seed))
        head = gen.worker_records(self.truth, draws, [0.0] * WORKERS, 0, WORKER_BUDGET)
        times = (0.5 + np.arange(tasks)) / rate
        submits = gen.task_records(self.truth, draws, times, 0, PATIENCE)
        body, burst = [], []
        if flood:
            burst = submits
        else:
            for i, record in enumerate(submits):
                body.append(record)
                if i % 3 == 2:
                    body.append(Advance(to_time=record.at))
                if i % 9 == 8:
                    body.append(Drain())
                if i == len(submits) // 2:
                    body.append(BudgetStatus())
        tail = [Advance(to_time=times[-1] + 2.0), Drain(), Finish()]

        def text(records):
            return [(r.kind, json.dumps(encode_record(r))) for r in records]

        self.head, self.burst, self.body, self.tail = (
            text(head),
            text(burst),
            text(body),
            text(tail),
        )

    @property
    def requests(self) -> int:
        return 1 + len(self.head) + len(self.burst) + len(self.body) + len(self.tail)


def build_shapes(seed: int) -> tuple[list[Shape], list[Shape]]:
    shapes = [Shape(seed * 100 + s, TASKS, TASK_RATE, False) for s in range(SHAPES)]
    floods = [
        Shape(seed * 100 + 50 + s, FLOOD_TASKS, FLOOD_TASK_RATE, True)
        for s in range(FLOOD_SHAPES)
    ]
    return shapes, floods


def tenant_plan(index: int, shapes, floods) -> tuple[str, Shape]:
    """``(method, shape)`` of tenant ``index``; flood shapes burst.

    A fixed, finely interleaved cycle: every (shape, method) combination
    recurs every 120 tenants, and each block of ten tenants holds exactly
    one flood, whose method rotates from block to block, so any second
    of the run sees the same mix.
    """
    method = METHODS[index % 10]
    if index % 10 == (index // 10) % 10:
        return method, floods[(index // 10) % FLOOD_SHAPES]
    return method, shapes[index % SHAPES]


class TenantRecord:
    """What one tenant sent and received."""

    __slots__ = ("name", "method", "shape", "accepted", "assignments", "finished", "shed")

    def __init__(self, name, method, shape):
        self.name = name
        self.method = method
        self.shape = shape
        self.accepted: list[str] | None = None
        self.assignments: list[tuple] = []
        self.finished: dict | None = None
        self.shed = 0


class Fleet:
    """Closed-loop tenant clients over one service."""

    def __init__(self, service, shapes, floods, outcome: Outcome | None = None):
        from repro.api.wire import OpenSession, encode_record

        self.service = service
        self.shapes, self.floods = shapes, floods
        self.out = outcome if outcome is not None else Outcome()
        self.client = WireClient(service, self.out)
        self.tenants: list[TenantRecord] = []
        self.opens = {
            method: json.dumps(encode_record(OpenSession(method=method)))
            for method in set(METHODS)
        }

    async def tenant(self, index: int, this=None) -> None:
        method, shape = tenant_plan(index, self.shapes, self.floods)
        name = f"t{index}"
        record = TenantRecord(name, method, shape)
        flood = "flood_" if shape.burst else ""
        keep = index % DIRECT_SAMPLE_EVERY == 0 or index < 20
        accepted = [] if keep else None
        send = self.client.send

        def settle(payload: str, reply: dict) -> None:
            kind = reply["kind"]
            if kind == "shed":
                record.shed += 1
                return
            if accepted is not None:
                accepted.append(payload)
            if kind in ("assignments", "finished"):
                record.assignments.extend(checks.as_tuple(a) for a in reply["assignments"])
            if kind == "finished":
                record.finished = reply
                if this is not None:
                    this.tasks += reply["assigned"] + reply["expired"]

        reply = await send(name, "open_session", self.opens[method])
        if reply["kind"] != "ack":
            self.out.failed += 1
            self.out.failures.append(f"{name}: open refused {reply}")
            return
        for sent, payload in shape.head:
            settle(payload, await send(name, sent, payload))
        if shape.burst:
            replies = await asyncio.gather(
                *(send(name, sent, p, label=flood + sent) for sent, p in shape.burst)
            )
            for (_, payload), reply in zip(shape.burst, replies):
                settle(payload, reply)
        for sent, payload in shape.body + shape.tail:
            settle(payload, await send(name, sent, payload))
        record.accepted = accepted
        self.tenants.append(record)

    async def serve(self, first: int, total: int, this=None):
        """Serve tenants ``first .. first + total - 1`` with CLIENTS
        closed-loop clients, each taking the next tenant as it finishes."""
        counter = itertools.count(first)

        async def closed_loop() -> None:
            for index in counter:
                if index >= first + total:
                    return
                await self.tenant(index, this)

        await asyncio.gather(*(closed_loop() for _ in range(CLIENTS)))


def _config(seed: int, snapshot):
    from repro.api.options import SolveOptions
    from repro.service import ServiceConfig

    return ServiceConfig(snapshot_path=str(snapshot), default_options=SolveOptions(seed=seed))


def run(seed: int, seconds: float, tracer=None, workdir=None) -> Outcome:
    shapes, floods = build_shapes(seed)
    snapshot = workdir / "flush-cache.json"
    asyncio.run(_prephase(seed, shapes, floods, snapshot))
    return asyncio.run(_timed(seed, seconds, shapes, floods, snapshot, tracer))


async def _prephase(seed, shapes, floods, snapshot) -> None:
    from repro.service import DispatchService

    service = DispatchService(_config(seed, snapshot))
    await Fleet(service, shapes, floods).serve(0, PRE_TENANTS)
    await service.close()


async def _timed(seed, seconds, shapes, floods, snapshot, tracer) -> Outcome:
    from repro.service import DispatchService

    from perfbench import tracing

    out = Outcome()
    for _ in range(SETUP_REPEATS):
        # Free the previous service before timing, not inside the sample.
        service = None
        gc.collect()
        out.probe_setup()
        t0 = time.perf_counter()
        service = DispatchService(_config(seed, snapshot))
        out.setup_seconds.append(time.perf_counter() - t0)
    out.probe_setup()
    cached = len(service.cache)
    fleet = Fleet(service, shapes, floods, out)
    if tracer is not None:
        asyncio.get_running_loop().set_task_factory(tracing.task_factory(tracer))
    with Timed(out, tracer) as timed:
        for number in range(rounds_for(seconds, ROUNDS_PER_SECOND)):
            with timed.round() as this:
                await fleet.serve(number * ROUND_TENANTS, ROUND_TENANTS, this)
    asyncio.get_running_loop().set_task_factory(None)

    flushes = 0
    for tenant in fleet.tenants:
        fin = tenant.finished
        if fin is None:
            out.failures.append(f"{tenant.name}: no finished reply")
            continue
        out.arrived += fin["arrived_tasks"]
        out.assigned += fin["assigned"]
        out.utility += fin["total_utility"]
        out.epsilon += fin["privacy_spend"]
        flushes += fin["flushes"]
        truth = tenant.shape.truth
        spend = service.tenant_stats(tenant.name).per_worker_spend
        out.failures += (
            checks.conservation(
                tenant.name, fin["arrived_tasks"], fin["assigned"], fin["expired"], fin["leftover"]
            )
            + checks.assignments_valid(tenant.name, tenant.assignments, truth.tasks, truth.workers)
            + checks.budgets_within(tenant.name, spend, truth.budgets)
        )
        if len(tenant.assignments) != fin["assigned"]:
            out.failures.append(
                f"{tenant.name}: delivered {len(tenant.assignments)} != assigned {fin['assigned']}"
            )
        if tenant.accepted is not None:
            out.failures += checks.same_sequence(
                f"{tenant.name} wire vs direct",
                tenant.assignments,
                direct_assignments(seed, tenant.method, tenant.accepted),
            )
    # Identical inputs decide identical assignments: every tenant of one
    # (shape, method) got exactly what the first of them got.
    first: dict[tuple, TenantRecord] = {}
    for tenant in fleet.tenants:
        if tenant.shed:
            continue  # a shed request changes what the session saw
        key = (id(tenant.shape), tenant.method)
        if key in first:
            out.failures += checks.same_sequence(
                f"{tenant.name} vs {first[key].name}",
                tenant.assignments,
                first[key].assignments,
            )
        else:
            first[key] = tenant
    await service.close()
    out.size = {
        "clients": CLIENTS,
        "tenants": len(fleet.tenants),
        "requests": out.attempted,
        "flushes": flushes,
        "fleet_per_tenant": WORKERS,
        "requests_per_tenant": shapes[0].requests,
        "flood_requests_per_tenant": floods[0].requests,
        "snapshot_entries": cached,
        "direct_checked_tenants": sum(1 for t in fleet.tenants if t.accepted is not None),
    }
    return out


def direct_assignments(seed: int, method: str, payloads: list[str]) -> list[tuple]:
    """The assignments a direct ``DispatchSession`` decides when fed the
    records a tenant's service session accepted, in order."""
    from repro.api.options import SolveOptions
    from repro.api.session import SessionConfig
    from repro.api.wire import decode_record

    config = SessionConfig(options=SolveOptions(seed=seed))
    records = [decode_record(json.loads(payload)) for payload in payloads]
    return client.direct_assignments(method, config, records)
