"""The multi-tenant dispatch service: admission, isolation, lifecycle."""

import asyncio
import json

import pytest

from repro.api.wire import (
    AckReply,
    Advance,
    BudgetReply,
    Drain,
    ErrorReply,
    Finish,
    FinishedReply,
    OpenSession,
    ShedReply,
    SubmitTask,
    SubmitWorker,
    encode_record,
)
from repro.datasets.workload import Task, Worker
from repro.errors import ConfigurationError, ServiceError
from repro.service import (
    DispatchService,
    ServiceClient,
    ServiceConfig,
    TenantJournal,
    serve_jsonl,
)
from repro.spatial.geometry import Point


def run(coro):
    return asyncio.run(coro)


def worker(j=1, radius=5.0):
    return Worker(id=j, location=Point(0.0, 0.0), radius=radius)


def task(i=1):
    return Task(id=i, location=Point(0.1, 0.1), value=1.0)


class TestServiceConfig:
    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.max_sessions == 10_000
        assert config.queue_limit == 64

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_sessions": 0},
            {"queue_limit": 0},
            {"backpressure_ratio": 0.0},
            {"tenant_budget": -1.0},
            {"cache_entries": 0},
            {"cache_bytes": 0},
        ],
        ids=lambda d: next(iter(d)),
    )
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            ServiceConfig(**bad)

    def test_mapping_round_trip(self):
        config = ServiceConfig(queue_limit=8, tenant_budget=5.0)
        assert ServiceConfig.from_mapping(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        # The second is a removed knob: old configs must fail loudly.
        for unknown in ({"typo": 3}, {"journal_checkpoint_every": 256}):
            with pytest.raises(ConfigurationError, match=next(iter(unknown))):
                ServiceConfig.from_mapping(unknown)


class TestSessionLifecycle:
    def test_full_session_through_the_client(self):
        async def scenario():
            service = DispatchService()
            client = ServiceClient(service, "acme")
            assert isinstance(await client.open("UCE"), AckReply)
            await client.submit_worker(worker())
            await client.submit_task(task())
            await client.advance(1.0)
            events = await client.drain()
            assert len(events) == 1
            assert events[0].task_id == 1
            final = await client.finish()
            assert isinstance(final, FinishedReply)
            assert final.assigned == 1
            await service.close()

        run(scenario())

    def test_double_open_is_an_error(self):
        async def scenario():
            service = DispatchService()
            client = ServiceClient(service, "a", raise_errors=False)
            await client.open("UCE")
            reply = await client.open("UCE")
            assert isinstance(reply, ErrorReply)
            assert "already" in reply.message
            await service.close()

        run(scenario())

    def test_reopen_after_finish_is_allowed(self):
        async def scenario():
            service = DispatchService()
            client = ServiceClient(service, "a")
            await client.open("UCE")
            await client.finish()
            assert isinstance(await client.open("GRD"), AckReply)
            await client.finish()
            await service.close()

        run(scenario())

    def test_request_without_session_is_an_error(self):
        async def scenario():
            service = DispatchService()
            client = ServiceClient(service, "ghost")
            with pytest.raises(ServiceError, match="no open session"):
                await client.advance(1.0)
            await service.close()

        run(scenario())

    def test_bad_options_are_reported_not_raised(self):
        async def scenario():
            service = DispatchService()
            client = ServiceClient(service, "a", raise_errors=False)
            reply = await client.open("UCE", options={"typo": 1})
            assert isinstance(reply, ErrorReply)
            assert reply.code == "ConfigurationError"
            await service.close()

        run(scenario())

    def test_server_side_failure_becomes_service_error(self):
        async def scenario():
            service = DispatchService()
            client = ServiceClient(service, "a")
            await client.open("UCE")
            await client.advance(5.0)
            with pytest.raises(ServiceError) as excinfo:
                await client.submit_task(task(), at=1.0)  # in the past
            assert excinfo.value.code == "ConfigurationError"
            await client.finish()
            await service.close()

        run(scenario())


class TestTenantIsolation:
    def test_sessions_do_not_interfere(self):
        async def scenario():
            service = DispatchService()
            a = ServiceClient(service, "a")
            b = ServiceClient(service, "b")
            await a.open("UCE", options={"seed": 1})
            await b.open("GRD", options={"seed": 2})
            await a.submit_worker(worker())
            await a.submit_task(task())
            # b has no fleet: its task must expire, a's must assign.
            await b.submit_task(task())
            await asyncio.gather(a.advance(2.0), b.advance(2.0))
            fa, fb = await asyncio.gather(a.finish(), b.finish())
            assert fa.assigned == 1
            assert fb.assigned == 0 and fb.expired == 1
            await service.close()

        run(scenario())

    def test_many_interleaved_tenants(self):
        async def drive(client):
            await client.open("UCE")
            await client.submit_worker(worker())
            await client.submit_task(task())
            await client.advance(1.0)
            events = await client.drain()
            final = await client.finish()
            return len(events), final.assigned

        async def scenario():
            service = DispatchService()
            clients = [ServiceClient(service, f"t{i}") for i in range(40)]
            results = await asyncio.gather(*(drive(c) for c in clients))
            assert all(r == (1, 1) for r in results)
            await service.close()

        run(scenario())


class TestAdmissionControl:
    def test_max_sessions_sheds_opens(self):
        async def scenario():
            service = DispatchService(ServiceConfig(max_sessions=2))
            replies = []
            for name in ("a", "b", "c"):
                replies.append(
                    await service.open_session("" + name, OpenSession(method="UCE"))
                )
            assert isinstance(replies[0], AckReply)
            assert isinstance(replies[1], AckReply)
            assert isinstance(replies[2], ShedReply)
            assert replies[2].reason == "max_sessions"
            await service.close()

        run(scenario())

    def test_open_count_tracks_every_lifecycle_step(self, tmp_path):
        def assert_count(service, expected):
            recount = sum(1 for t in service._tenants.values() if not t.closed)
            assert service.open_sessions == recount == expected

        async def shed(service, name):
            reply = await service.open_session(name, OpenSession(method="UCE"))
            assert isinstance(reply, ShedReply)
            assert reply.reason == "max_sessions"

        # A journal that ends in `finish`: recover() must finish it again.
        done = TenantJournal(tmp_path, "done")
        done.append(1, encode_record(OpenSession(method="UCE")))
        done.append(2, encode_record(Finish()))
        done.close()
        config = ServiceConfig(max_sessions=3, journal_dir=str(tmp_path))

        async def scenario():
            service = DispatchService(config)
            for name in ("a", "b", "c"):
                await service.open_session(name, OpenSession(method="UCE"))
            assert_count(service, 3)
            await shed(service, "d")
            assert isinstance(await service.submit("a", Finish()), FinishedReply)
            assert_count(service, 2)
            # Re-opening a finished tenant's name counts it again.
            reopened = await service.open_session("a", OpenSession(method="UCE"))
            assert isinstance(reopened, AckReply)
            assert_count(service, 3)
            await shed(service, "d")
            await service.submit("c", Finish())
            assert_count(service, 2)
            await service.close()
            assert_count(service, 0)

            restarted = DispatchService(config)
            assert await restarted.recover() == ["a", "b", "done"]
            assert_count(restarted, 2)
            await restarted.open_session("c", OpenSession(method="UCE"))
            assert_count(restarted, 3)
            await shed(restarted, "d")
            await restarted.close()
            assert_count(restarted, 0)

        run(scenario())

    def test_budget_cap_sheds_new_tasks(self):
        async def scenario():
            # An absurdly small cap: the very first PUCE flush spends
            # past it, so the next submit must shed.
            service = DispatchService(ServiceConfig(tenant_budget=1e-9))
            client = ServiceClient(service, "a")
            await client.open("PUCE", options={"seed": 3})
            await client.submit_worker(worker())
            await client.submit_task(task(1))
            await client.advance(1.0)
            await client.drain()
            reply = await client.submit_task(task(2))
            assert isinstance(reply, ShedReply)
            assert reply.reason == "budget"
            assert client.shed == 1
            # Control requests still pass: the session can wind down.
            final = await client.finish()
            assert isinstance(final, FinishedReply)
            await service.close()

        run(scenario())

    def test_backpressure_sheds_when_flushes_run_slow(self):
        async def scenario():
            service = DispatchService(ServiceConfig(backpressure_ratio=2.0))
            client = ServiceClient(service, "a")
            # An impossible target makes any observed flush "too slow"
            # once the EWMA warms up (3 non-cached flushes).
            await client.open(
                "UCE", options={"target_flush_seconds": 1e-12, "max_wait": 0.1}
            )
            await client.submit_worker(worker())
            for i in range(1, 5):
                await client.submit_task(task(i), at=float(i) * 0.5)
                await client.advance(float(i) * 0.5 + 0.2)
            reply = await client.submit_task(task(99), at=3.0)
            assert isinstance(reply, ShedReply)
            assert reply.reason == "backpressure"
            final = await client.finish()
            assert isinstance(final, FinishedReply)
            await service.close()

        run(scenario())

    def test_queue_full_sheds_tasks(self):
        async def scenario():
            service = DispatchService(ServiceConfig(queue_limit=1))
            client = ServiceClient(service, "a")
            await client.open("UCE")
            # Stuff the queue without letting the consumer run by
            # enqueueing from inside one event-loop step.
            loop = asyncio.get_running_loop()
            state = service._tenants["a"]
            state.queue.put_nowait(
                (SubmitWorker(worker_id=1, x=0.0, y=0.0, radius=5.0),
                 1,
                 loop.create_future())
            )
            reply = await client.submit_task(task())
            assert isinstance(reply, ShedReply)
            assert reply.reason == "queue_full"
            await client.finish()
            await service.close()

        run(scenario())


class TestMetricsAndCache:
    def test_metrics_render_after_traffic(self):
        async def scenario():
            service = DispatchService()
            client = ServiceClient(service, "acme")
            await client.open("PUCE", options={"seed": 1})
            await client.submit_worker(worker())
            await client.submit_task(task())
            await client.advance(1.0)
            await client.drain()
            await client.finish()
            text = service.render_metrics()
            assert 'service_requests_total{kind="submit_task",tenant="acme"}' in text
            assert "service_tenant_privacy_spend" in text
            assert "service_open_sessions 0" in text
            await service.close()

        run(scenario())

    def test_identical_tenants_share_cache_entries(self):
        async def scenario():
            service = DispatchService()
            for name in ("a", "b", "c"):
                client = ServiceClient(service, name)
                await client.open("UCE", options={"cache": True})
                await client.submit_worker(worker())
                await client.submit_task(task())
                await client.advance(1.0)
                await client.finish()
            # Three identical pure flushes: one solve, two hits.
            assert len(service.cache) == 1
            assert service.cache.hits == 2
            await service.close()

        run(scenario())

    def test_cache_snapshot_survives_restart(self, tmp_path):
        snapshot = tmp_path / "service_cache.json"

        async def generation(expect_hits):
            service = DispatchService(
                ServiceConfig(snapshot_path=str(snapshot))
            )
            client = ServiceClient(service, "a")
            await client.open("UCE", options={"cache": True})
            await client.submit_worker(worker())
            await client.submit_task(task())
            await client.advance(1.0)
            final = await client.finish()
            hits = final.cache_hit_rate
            await service.close()
            return hits

        cold = run(generation(False))
        assert snapshot.is_file()
        warm = run(generation(True))
        assert cold == 0.0
        assert warm == 1.0  # restart replayed the snapshot, flush hit

        run(generation(True))


class TestServeJsonl:
    def test_envelope_round_trip(self):
        lines = [
            json.dumps(
                {"tenant": "a", "request": {"kind": "open_session", "v": 1,
                                            "method": "UCE",
                                            "options": None,
                                            "default_deadline": 1.0}}
            ),
            json.dumps(
                {"tenant": "a", "request": {"kind": "finish", "v": 1}}
            ),
            "not json at all",
            json.dumps({"tenant": 7, "request": {"kind": "drain", "v": 1}}),
            json.dumps({"tenant": "b", "request": {"kind": "teleport", "v": 1}}),
        ]
        out = []

        async def scenario():
            service = DispatchService()
            served = await serve_jsonl(service, lines, out.append)
            await service.close()
            return served

        served = run(scenario())
        assert served == 2  # only well-formed envelopes reach the service
        replies = [json.loads(line) for line in out]
        assert replies[0]["reply"]["kind"] == "ack"
        assert replies[1]["reply"]["kind"] == "finished"
        assert replies[2]["reply"]["kind"] == "error"
        assert replies[3]["reply"]["kind"] == "error"
        assert replies[4]["reply"]["kind"] == "error"
        assert replies[4]["tenant"] == "b"


class TestBudgetStatus:
    def test_worker_and_tenant_level_readings(self):
        async def scenario():
            service = DispatchService(ServiceConfig(tenant_budget=100.0))
            client = ServiceClient(service, "a")
            await client.open("PUCE", options={"seed": 3})
            await client.submit_worker(worker(), budget=40.0)
            await client.submit_task(task(1))
            await client.advance(1.0)

            tenant = await client.budget_status()
            assert isinstance(tenant, BudgetReply)
            assert tenant.worker_id is None
            assert tenant.spend > 0.0
            # The service overlays its tenant cap onto `remaining`.
            assert tenant.remaining == pytest.approx(100.0 - tenant.spend)

            mine = await client.budget_status(worker_id=1)
            assert mine.worker_id == 1
            assert mine.spend > 0.0
            assert mine.remaining == pytest.approx(40.0 - mine.spend)
            await service.close()

        run(scenario())

    def test_tenant_reading_without_cap_has_null_remaining(self):
        async def scenario():
            service = DispatchService(ServiceConfig())
            client = ServiceClient(service, "a")
            await client.open("UCE")
            reply = await client.budget_status()
            assert isinstance(reply, BudgetReply)
            assert reply.spend == 0.0
            assert reply.remaining is None
            await service.close()

        run(scenario())

    def test_budget_status_needs_a_session(self):
        async def scenario():
            service = DispatchService(ServiceConfig())
            client = ServiceClient(service, "a", raise_errors=False)
            reply = await client.budget_status()
            assert isinstance(reply, ErrorReply)
            await service.close()

        run(scenario())

    def test_windowed_tenant_is_readmitted_after_budget_shed(self):
        async def scenario():
            # Cap below one flush's spend: the tenant sheds right after
            # flushing — then, because the session accounts per sliding
            # window, the same tenant is admitted again once the releases
            # age out of the window.  A global tenant stays shed forever.
            options = {
                "seed": 3,
                "window_seconds": 2.0,
                "window_budget": 40.0,
            }
            service = DispatchService(ServiceConfig(tenant_budget=1e-9))
            client = ServiceClient(service, "a")
            await client.open("PUCE", options=options)
            await client.submit_worker(worker(), budget=40.0)
            await client.submit_task(task(1))
            await client.advance(1.0)
            shed = await client.submit_task(task(2))
            assert isinstance(shed, ShedReply)
            assert shed.reason == "budget"

            # Two window-widths with no traffic: in-window spend -> 0.
            await client.advance(6.0)
            readmitted = await client.submit_task(task(3), at=6.0)
            assert isinstance(readmitted, AckReply)
            status = await client.budget_status()
            assert status.spend == 0.0
            await service.close()

        run(scenario())
