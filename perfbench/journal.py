"""``service-journal``: a handful of long-lived tenants writing through
crash-safe journals, recovered after an abandoned service.

Why: this uses the service layer for writes, where ``service-fleet``
uses it read-mostly.  Journal append, fsync and checkpoint, recovery
replay and windowed-budget admission queries do their work here and
nowhere else.  A checkpoint re-encodes every entry the tenant has
journaled, so journal cost grows with tenant age
(``journal.append_us_late_over_early``, ``journal.checkpoint_ms``).  The
shared flush cache never hits for these tenants (each is one private
stream), so its fingerprinting is pure overhead here.

Bypasses: cache hits, flush floods and tenant turnover (the tenants live
for the whole run), and the pooled shard modes.

Size: :data:`TENANTS` = 4 PUCE tenants on one ``DispatchService`` with
journaling on (group commit of :data:`FSYNC_EVERY` appends per fsync,
the default checkpoint every 256 entries), a 4-unit sliding budget
window, and a tenant budget cap that never binds but makes admission
price every submit against the windowed spend.  Each tenant has 12
workers (budget 48 per window) and streams tasks on a fixed schedule of
96 per unit, advancing every 24 tasks, draining every 48 and asking
``budget_status`` every 96, each tenant out of step with the others.  An
untimed pre-phase writes each tenant's first :data:`PRE_REQUESTS`
requests and abandons the service without ``close()``; set-up then times
``DispatchService.recover()`` on copies of those journals (2,400
entries), :data:`SETUP_REPEATS` times.  A recovered journal counts
entries towards its next checkpoint from zero, so, untimed, tenant ``i``
then sends ``i * STAGGER`` more requests: the tenants' checkpoints fall
at even intervals rather than together.  The timed phase continues the
sessions in rounds of :data:`ROUND_REQUESTS` more requests per tenant,
:data:`ROUNDS_PER_SECOND` rounds per second of ``--seconds`` (16 rounds,
4,096 requests per tenant and 16,384 in all in 20 s, one checkpoint per
tenant per round), then finishes them.  The journal directory sits under
the checkout, on whatever filesystem holds it (recorded as
``journal_fs``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import shutil
import time

import numpy as np

from perfbench import checks, client, gen
from perfbench.client import WireClient
from perfbench.harness import Outcome, Timed, rounds_for

TENANTS = 4
WORKERS = 12
WORKER_BUDGET = 48.0
PATIENCE = 1.0
TASK_RATE = 96.0
#: Tasks between clock advances (every advance past ``max_wait`` flushes).
ADVANCE_EVERY = 24
WINDOW = 4.0
#: Never binds; makes admission query the windowed spend on every submit.
TENANT_BUDGET = 1e9
#: Group commit: one fsync per this many appends.  Syncing every append
#: (the default) made fsync waits two fifths of the timed phase.  An fsync
#: blocks the event loop, so each slow one delays every other tenant's
#: request in flight; this disk's fsync p95 moves between 0.2 and 4 ms
#: within seconds, and at one fsync per 8 appends the requests it delays
#: were more than 5% of all and set the p95 (11 or 25 ms by the disk's
#: mood).  At 64 they are about 1%, and the p95 sits among the requests
#: that waited behind another tenant's flush.
FSYNC_EVERY = 64
LAW = ("normal", 2 * WORKERS, WORKERS)
#: Requests per tenant written before the service is abandoned.
PRE_REQUESTS = 600
#: The service's default checkpoint cadence, in journal entries.
CHECKPOINT_EVERY = 256
#: Untimed requests per tenant index after recovery (tenant ``i`` sends
#: ``i * STAGGER``), spreading the tenants' checkpoints over each
#: ``CHECKPOINT_EVERY`` entries.
STAGGER = CHECKPOINT_EVERY // TENANTS
#: Timed requests per tenant per round: one checkpoint period, so every
#: round holds one checkpoint per tenant.  A checkpoint blocks the event
#: loop, delaying the other tenants' requests in flight: with four
#: tenants that is about 1% of a round's requests, so the p95 sits among
#: the requests that waited behind a flush (about 12%) rather than on the
#: edge of the checkpoint-delayed ones.
ROUND_REQUESTS = CHECKPOINT_EVERY
ROUNDS_PER_SECOND = 0.8
#: Recoveries timed as set-up (each on its own copy of the journals).
SETUP_REPEATS = 7


class Tenant:
    """One tenant's fixed request stream, what the service accepted and
    what came back."""

    def __init__(self, name: str, seed: int, requests: int, phase: int = 0):
        from repro.api.wire import (
            Advance,
            BudgetStatus,
            Drain,
            Finish,
            OpenSession,
            encode_record,
        )

        self.name = name
        self.seed = seed
        self.truth = gen.Truth()
        draws = gen.Draws(seed, gen.spatial(*LAW, seed))
        records = [OpenSession(method="PUCE", options=options(seed))]
        records += gen.worker_records(self.truth, draws, [0.0] * WORKERS, 0, WORKER_BUDGET)
        # Each task brings at least one record, so this many tasks always
        # fill the stream, which is then cut to exactly ``requests``
        # records (the same count for every seed).  Tenants advance out
        # of step (``phase``), so their flushes do not all land at once.
        times = (0.5 + np.arange(requests)) / TASK_RATE
        for count, record in enumerate(
            gen.task_records(self.truth, draws, times, 0, PATIENCE), start=1 + phase
        ):
            records.append(record)
            if count % ADVANCE_EVERY == 0:
                records.append(Advance(to_time=record.at))
            if count % (2 * ADVANCE_EVERY) == 0:
                records.append(Drain())
            if count % (4 * ADVANCE_EVERY) == 0:
                records.append(BudgetStatus())
            if len(records) >= requests:
                break
        self.records = records[:requests] + [Finish()]
        self.payloads = [(r.kind, json.dumps(encode_record(r))) for r in self.records]
        #: seq -> assignments delivered by that request's reply.
        self.delivered: dict[int, list[tuple]] = {}
        #: seqs the service accepted (not shed), in order.
        self.accepted: list[int] = []
        self.finished: dict | None = None
        self.sent = 0


def options(seed: int) -> dict:
    return {"seed": seed, "window_seconds": WINDOW}


def _config(journal_dir, fsync_every=FSYNC_EVERY):
    from repro.service import ServiceConfig

    return ServiceConfig(
        journal_dir=str(journal_dir),
        journal_fsync_every=fsync_every,
        tenant_budget=TENANT_BUDGET,
    )


class Client(WireClient):
    """Closed-loop wire client: one request in flight per tenant, each
    request carrying its sequence number."""

    async def send_index(self, tenant: Tenant, index: int) -> dict:
        """Send request ``index`` of ``tenant``'s stream."""
        kind, payload = tenant.payloads[index]
        seq = index + 1
        reply = await self.send(tenant.name, kind, payload, seq=seq)
        if reply["kind"] == "shed":
            return reply
        tenant.accepted.append(seq)
        if reply["kind"] in ("assignments", "finished"):
            tenant.delivered[seq] = [checks.as_tuple(a) for a in reply["assignments"]]
        if reply["kind"] == "finished":
            tenant.finished = reply
        return reply


def _prephase(tenants: list[Tenant], journal_dir) -> None:
    """Write each tenant's first requests, then abandon the service: no
    ``close()``, its consumers cancelled with the loop, its journal
    handles released by the garbage collector."""
    from repro.service import DispatchService

    async def main():
        # The fsync cadence does not change what is journaled; the
        # untimed pre-phase just waits less for the disk.
        wire = Client(DispatchService(_config(journal_dir, PRE_REQUESTS)), Outcome())
        for tenant in tenants:
            for index in range(PRE_REQUESTS):
                await wire.send_index(tenant, index)
            tenant.sent = PRE_REQUESTS

    asyncio.run(main())
    gc.collect()


def run(seed: int, seconds: float, tracer=None, workdir=None) -> Outcome:
    rounds = rounds_for(seconds, ROUNDS_PER_SECOND)
    tenants = [
        Tenant(
            f"tenant-{i}",
            seed * 100 + i,
            PRE_REQUESTS + i * STAGGER + rounds * ROUND_REQUESTS,
            phase=i * ADVANCE_EVERY // TENANTS,
        )
        for i in range(TENANTS)
    ]
    base = workdir / "journals"
    _prephase(tenants, base)
    return asyncio.run(_timed(tenants, base, workdir, rounds, tracer))


async def _timed(tenants, base, workdir, rounds, tracer) -> Outcome:
    from repro.service import DispatchService
    from repro.service.journal import TenantJournal, journal_tenants

    from perfbench import tracing

    out = Outcome()
    # What the abandoned service made durable: each tenant resumes after
    # it (a request journaled but lost would be re-sent; a duplicate is
    # an idempotent no-op by sequence number).
    durable = {}
    for tenant in tenants:
        journal = TenantJournal(base, tenant.name)
        journal.entries()
        durable[tenant.name] = journal.last_seq
        journal.close()

    service = live = None
    if tracer is not None:
        tracer.activate()
    for attempt in range(SETUP_REPEATS):
        copy = workdir / f"recover-{attempt}"
        shutil.copytree(base, copy)
        if service is not None:
            await service.close()
            shutil.rmtree(live, ignore_errors=True)
        out.probe_setup()
        t0 = time.perf_counter()
        service = DispatchService(_config(copy))
        recovered = await service.recover()
        out.setup_seconds.append(time.perf_counter() - t0)
        live = copy
        if sorted(recovered) != sorted(t.name for t in tenants):
            out.failures.append(f"recovered {sorted(recovered)}")
    out.probe_setup()
    if tracer is not None:
        tracer.deactivate()
    for tenant in tenants:
        tenant.sent = durable[tenant.name]
        for seq in [s for s in tenant.delivered if s > tenant.sent]:
            del tenant.delivered[seq]
        tenant.accepted = [s for s in tenant.accepted if s <= tenant.sent]

    wire = Client(service, out)

    async def drive(client: Client, tenant: Tenant, until: int) -> None:
        while tenant.sent < until:
            await client.send_index(tenant, tenant.sent)
            tenant.sent += 1

    def decided() -> int:
        return sum(
            s.assigned + s.expired for s in (service.tenant_stats(t.name) for t in tenants)
        )

    # The untimed stagger is not part of the run's requests.
    stagger = Client(service, Outcome())
    await asyncio.gather(
        *(drive(stagger, t, t.sent + i * STAGGER) for i, t in enumerate(tenants))
    )
    out.failures += stagger.out.failures
    start = {t.name: t.sent for t in tenants}

    if tracer is not None:
        asyncio.get_running_loop().set_task_factory(tracing.task_factory(tracer))
    with Timed(out, tracer) as timed:
        for number in range(rounds):
            with timed.round() as this:
                before = decided()
                await asyncio.gather(
                    *(
                        drive(wire, t, start[t.name] + (number + 1) * ROUND_REQUESTS)
                        for t in tenants
                    )
                )
                this.tasks = decided() - before
        # Every tenant finishes: its Finish is the last record.
        await asyncio.gather(*(wire.send_index(t, len(t.payloads) - 1) for t in tenants))
    asyncio.get_running_loop().set_task_factory(None)

    leftovers = [p.name for p in live.iterdir()] if live.exists() else []
    if journal_tenants(live) or leftovers:
        out.failures.append(f"journal dir not empty after finish: {leftovers}")
    for tenant in tenants:
        fin = tenant.finished
        if fin is None:
            out.failures.append(f"{tenant.name}: no finished reply")
            continue
        stats = service.tenant_stats(tenant.name)
        out.arrived += fin["arrived_tasks"]
        out.assigned += fin["assigned"]
        out.utility += fin["total_utility"]
        out.epsilon += fin["privacy_spend"]
        delivered = [a for seq in sorted(tenant.delivered) for a in tenant.delivered[seq]]
        out.failures += (
            checks.conservation(
                tenant.name, fin["arrived_tasks"], fin["assigned"], fin["expired"], fin["leftover"]
            )
            + checks.assignments_valid(
                tenant.name, delivered, tenant.truth.tasks, tenant.truth.workers
            )
            + ([] if stats.window_invariant_ok else [f"{tenant.name}: window cap exceeded"])
            + checks.same_sequence(
                f"{tenant.name} recovered vs uninterrupted",
                delivered,
                direct_assignments(tenant),
            )
        )
    await service.close()
    shutil.rmtree(live, ignore_errors=True)
    out.size = {
        "tenants": TENANTS,
        "requests_per_tenant": len(tenants[0].payloads),
        "rounds": len(out.rounds),
        "round_requests_per_tenant": ROUND_REQUESTS,
        "prephase_requests_per_tenant": PRE_REQUESTS,
        "recovered_entries": sum(durable.values()),
        "fleet_per_tenant": WORKERS,
    }
    return out


def direct_assignments(tenant: Tenant) -> list[tuple]:
    """What one uninterrupted direct session decides on the records the
    service accepted for ``tenant`` (pre-phase and timed phase alike)."""
    from repro.api.options import SolveOptions
    from repro.api.session import SessionConfig

    config = SessionConfig(options=SolveOptions.from_mapping(options(tenant.seed)))
    records = [tenant.records[seq - 1] for seq in tenant.accepted[1:]]
    return client.direct_assignments("PUCE", config, records)
