"""Per-layer tracing from the benchmark's own files.

No program file changes: :func:`install` wraps the public entry points of
each layer with timers, and :meth:`Hooks.uninstall` puts the originals
back.  Two private boundaries are wrapped besides: the simulator's
``_flush`` step (``advance`` runs zero or more flushes, and the flush is
the unit the simulator metrics count) and the service's per-tenant
consumer task.  End-to-end numbers always come from untraced runs.

Each span records name, start, end, parent and the ``(tenant, seq)`` of
the request it serves.  Spans nest by a stack: the workloads are single
threaded, and an asyncio task step runs to its next ``await`` without
interruption, so between two steps the stack is empty.  Async entry
points are timed by the steps they actually run (their *active* time),
never across the awaits in which other tenants' work runs.

A span's self time is its duration minus the union of its children's
intervals (:func:`perfbench.stats.self_time`).  Wrapper cost is not
subtracted; it lands in the enclosing span's self time, and
``trace.overhead_ratio`` (traced over untraced wall time of the same
work) says how much of it there is.

Accountant queries run once per idle worker per flush, so they are
counted on every call but timed on one call in :data:`QUERY_SAMPLE`.
Spans are kept in memory (aggregates for every span, the first
:data:`SPAN_LOG_LIMIT` spans in full) and written once at the end.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from perfbench import stats

clock = time.perf_counter

#: One accountant query in this many is timed; every one is counted.
QUERY_SAMPLE = 16

#: Spans kept for the written span log (aggregates cover every span).
SPAN_LOG_LIMIT = 100_000

#: Names whose ``(start, self)`` points are kept for late_over_early.
GROWTH = {"service.open", "journal.append"}


class NameStats:
    __slots__ = ("count", "total", "self_total", "points")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.points: list[tuple[float, float]] = []


class _Frame:
    __slots__ = ("name", "start", "children", "span_id", "parent", "key")

    def __init__(self, name, start, span_id, parent, key):
        self.name = name
        self.start = start
        self.children: list[tuple[float, float]] = []
        self.span_id = span_id
        self.parent = parent
        self.key = key


class Tracer:
    """Span stack, per-name aggregates and a bounded span log."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.by_name: dict[str, NameStats] = defaultdict(NameStats)
        self.log: list[tuple] = []
        self.spans = 0
        #: ``(tenant, seq)`` (or another request key) of the current work.
        self.key: tuple | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.lists: dict[str, list[float]] = defaultdict(list)
        #: Intervals of top-level spans (nothing open beneath them).
        self.roots: list[tuple[float, float]] = []
        #: History intervals for late_over_early (set by the workloads).
        self.segments: list[tuple[float, float]] = []
        #: Flush caches seen storing entries (for eviction totals).
        self.caches: dict[int, Any] = {}
        #: Wrappers pass straight through while inactive (set-up that is
        #: not program work, and the output checks).
        self.active = False
        self._gc_start: float | None = None

    def activate(self) -> None:
        if not self.active:
            self.active = True
            gc.callbacks.append(self._on_gc)

    def deactivate(self) -> None:
        if self.active:
            self.active = False
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        elif self._gc_start is not None:
            self.counters["runtime.gc_collections"] += 1
            self.counters["runtime.gc_pause_s"] += clock() - self._gc_start
            self._gc_start = None

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> _Frame:
        stack = self.stack
        parent = stack[-1].span_id if stack else -1
        self.spans += 1
        frame = _Frame(name, clock(), self.spans, parent, self.key)
        stack.append(frame)
        return frame

    def pop(self, frame: _Frame) -> tuple[float, float]:
        """Close ``frame`` and bill its interval to the enclosing span;
        returns ``(duration, self_time)``."""
        end = clock()
        stack = self.stack
        stack.pop()
        own = stats.self_time(frame.start, end, frame.children)
        if stack:
            stack[-1].children.append((frame.start, end))
        else:
            self.roots.append((frame.start, end))
        return end - frame.start, own

    def exit(self, frame: _Frame) -> tuple[float, float, float]:
        """Close and record ``frame``; returns ``(start, duration, self)``."""
        duration, own = self.pop(frame)
        self.record(frame.name, frame.start, duration, own, frame.span_id, frame.parent, frame.key)
        return frame.start, duration, own

    def record(self, name, start, duration, own, span_id, parent, key) -> None:
        entry = self.by_name[name]
        entry.count += 1
        entry.total += duration
        entry.self_total += own
        if name in GROWTH:
            entry.points.append((start, own))
        if len(self.log) < SPAN_LOG_LIMIT:
            self.log.append((span_id, parent, name, start, start + duration, own, key))

    def unattributed(self, window: tuple[float, float]) -> float:
        """Share of ``window`` that no top-level span covers."""
        lo, hi = window
        covered = stats.union_length(self.roots, lo, hi)
        return 1.0 - covered / (hi - lo) if hi > lo else 0.0

    def write_log(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, own, key in self.log:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "self": own,
                    "key": list(key) if key is not None else None,
                }
                handle.write(json.dumps(record, default=str) + "\n")


class _TimedAwait:
    """Drive a coroutine, timing only the steps it runs (its active time).

    The logical span opens at the first step and closes when the
    coroutine returns; its duration and self time are sums over steps.
    ``root`` marks an asyncio task's own coroutine: its steps start with
    no request key, since the previous step may have belonged to
    another tenant.
    """

    __slots__ = ("tracer", "name", "coro", "key", "root")

    def __init__(self, tracer: Tracer, name: str, coro, key=None, root=False):
        self.tracer = tracer
        self.name = name
        self.coro = coro
        self.key = key
        self.root = root

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        tracer.spans += 1
        span_id = tracer.spans
        parent = tracer.stack[-1].span_id if tracer.stack else -1
        first = None
        active = own_total = 0.0
        send, error = None, None
        while True:
            saved_key = tracer.key
            if self.key is not None or self.root:
                tracer.key = self.key
            frame = _Frame(self.name, clock(), span_id, parent, tracer.key)
            if first is None:
                first = frame.start
            tracer.stack.append(frame)
            done = False
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(send)
            except StopIteration as stop:
                done, result = True, stop.value
            finally:
                duration, own = tracer.pop(frame)
                active += duration
                own_total += own
                if self.key is not None:
                    tracer.key = saved_key
            if done:
                tracer.record(self.name, first, active, own_total, span_id, parent, self.key)
                return result
            try:
                send, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # forwarded into the coroutine
                send, error = None, exc


# -- wrapper installation ----------------------------------------------------


_ABSENT = object()


class Hooks:
    """Installed wrappers, removable in reverse order."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    def _swap(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(original)``.  A target a later
        revision renamed is listed in :attr:`missing`, not fatal, so the
        end-to-end run never depends on the hooks."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, make(original))

    def sync(self, owner, attr, name, after=None) -> None:
        """Time every call as a span named ``name`` (or ``name(args)``);
        ``after(args, result, span)`` records counts once the span
        ``(start, duration, self)`` is closed."""
        tracer = self.tracer
        name_of = name if callable(name) else None

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                frame = tracer.enter(name_of(args) if name_of else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span = tracer.exit(frame)
                if after is not None:
                    after(args, result, span)
                return result

            return wrapper

        self._swap(owner, attr, make)

    def before(self, owner, attr, call: Callable) -> None:
        """Run ``call(args)`` ahead of every call, with no span of its own
        (a later :meth:`sync` on the same attribute times it as part of
        that span)."""
        tracer = self.tracer

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer.active:
                    call(args)
                return original(*args, **kwargs)

            return wrapper

        self._swap(owner, attr, make)

    def counted(self, owner, attr, name) -> None:
        """Count every call; time one in QUERY_SAMPLE as a full span."""
        tracer = self.tracer
        counter = tracer.counters

        def make(original):
            calls = [0]

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                calls[0] += 1
                counter[name] += 1
                if calls[0] % QUERY_SAMPLE:
                    return original(*args, **kwargs)
                frame = tracer.enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit(frame)

            return wrapper

        self._swap(owner, attr, make)

    def coroutine(self, owner, attr, name, key=None) -> None:
        tracer = self.tracer

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                return _TimedAwait(
                    tracer,
                    name,
                    original(*args, **kwargs),
                    key(args, kwargs) if key is not None else None,
                )

            return wrapper

        self._swap(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        self.tracer.deactivate()


def task_factory(tracer: Tracer):
    """An asyncio task factory timing every step of the service's
    per-tenant consumer task as a root span, ``service.consume``.  Other
    tasks (the benchmark's clients) are left unwrapped: their own time is
    not the program's and counts as unattributed."""

    def factory(loop, coro, **kwargs):
        if not tracer.active or not getattr(coro, "__qualname__", "").endswith("._consume"):
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def driven():
            return await _TimedAwait(tracer, "service.consume", coro, root=True)

        return asyncio.Task(driven(), loop=loop, **kwargs)

    return factory


def timed_queue(tracer: Tracer, base):
    """An ``asyncio.Queue`` subclass recording each item's queue wait and
    tagging the consumer's spans with the item's ``(tenant, seq)``."""

    class TimedQueue(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._put_at: dict[int, tuple[float, tuple]] = {}

        def put_nowait(self, item):
            super().put_nowait(item)
            if tracer.active:
                key = tracer.key
                tenant = key[0] if key else None
                seq = item[1] if isinstance(item, tuple) and len(item) > 1 else None
                self._put_at[id(item)] = (clock(), (tenant, seq))

        def get_nowait(self):
            item = super().get_nowait()
            put = self._put_at.pop(id(item), None)
            if put is not None and tracer.active:
                tracer.lists["service.queue_wait"].append(clock() - put[0])
                tracer.key = put[1]
            return item

    return TimedQueue


# -- the layer hooks -----------------------------------------------------------


def install(tracer: Tracer) -> Hooks:
    """Wrap every layer's public entry points; returns the undo handle."""
    import repro.faults as faults_mod
    import repro.service.server as server_mod
    import repro.stream.shards as shards_mod
    import repro.stream.simulator as simulator_mod
    from repro.api.session import DispatchSession
    from repro.core.engine import ConflictEliminationSolver
    from repro.core.pgt import PGTSolver
    from repro.obs.metrics import MetricsRegistry
    from repro.privacy.horizon import GlobalAccountant, WindowAccountant
    from repro.service.journal import TenantJournal
    from repro.simulation.instance import ProblemInstance
    from repro.stream.batcher import MicroBatcher, WorkerBudgetTracker
    from repro.stream.cache import FlushSolverCache
    from repro.stream.costmodel import FlushPlanner
    from repro.stream.shards import ShardedFlushExecutor

    hooks = Hooks(tracer)
    counters, lists = tracer.counters, tracer.lists

    # wire: where the server looks the codecs up
    hooks.sync(server_mod, "decode_record", "wire.decode")
    hooks.sync(server_mod, "encode_record", "wire.encode")

    # service
    def tenant_key(args, kwargs):
        return (args[1], kwargs.get("seq")) if len(args) > 1 else None

    hooks.coroutine(server_mod, "serve_jsonl", "service.serve_jsonl")
    hooks.coroutine(server_mod.DispatchService, "submit", "service.submit", key=tenant_key)
    hooks.coroutine(server_mod.DispatchService, "open_session", "service.open", key=tenant_key)
    hooks.coroutine(server_mod.DispatchService, "recover", "service.recover")

    # journal: bytes are the WAL and checkpoint files' sizes, read as a
    # checkpoint folds the WAL away, as a finished tenant's journal is
    # deleted, and after each checkpoint is written
    def wal_bytes(args):
        journal = args[0]
        handle = journal._handle
        try:
            size = handle.tell() if handle is not None else journal.wal_path.stat().st_size
        except (OSError, ValueError):
            size = 0
        counters["journal.bytes"] += size

    def checkpointed(args, result, span):
        try:
            counters["journal.bytes"] += args[0].ckpt_path.stat().st_size
        except OSError:
            pass

    hooks.before(TenantJournal, "checkpoint", wal_bytes)
    hooks.before(TenantJournal, "delete", wal_bytes)
    hooks.sync(TenantJournal, "append", "journal.append")
    hooks.sync(TenantJournal, "sync", "journal.sync")
    hooks.sync(TenantJournal, "checkpoint", "journal.checkpoint", after=checkpointed)

    # session (entries replayed under recover() are counted as such)
    def applied(args, result, span):
        if any(frame.name == "service.recover" for frame in tracer.stack):
            counters["journal.replayed_entries"] += 1

    hooks.sync(DispatchSession, "apply", "session.apply", after=applied)

    # simulator: advance() and the flush step behind it.  A flush step
    # with nothing buffered records no flush and is not sampled.
    last_flush: dict[int, Any] = {}

    def flushed(args, result, span):
        flushes = args[0].stats.flushes
        if flushes and flushes[-1] is not last_flush.get(id(args[0])):
            last_flush[id(args[0])] = flushes[-1]
            start, duration, own = span
            lists["simulator.flush_s"].append(duration)
            lists["simulator.flush_points"].append((start, own))

    hooks.sync(simulator_mod.DispatchSimulator, "advance", "simulator.advance")
    hooks.sync(simulator_mod.DispatchSimulator, "_flush", "simulator.flush", after=flushed)

    # batcher
    def built(args, result, span):
        lists["batcher.tasks"].append(len(args[1]))
        lists["batcher.pairs"].append(result.num_feasible_pairs)

    hooks.sync(MicroBatcher, "build_instance", "batcher.build", after=built)
    hooks.sync(WorkerBudgetTracker, "charge", "batcher.charge")

    # cache
    def looked_up(args, result, span):
        counters["cache.hits" if result is not None else "cache.misses"] += 1

    def stored(args, result, span):
        tracer.caches[id(args[0])] = args[0]

    hooks.sync(simulator_mod, "flush_inputs_fingerprint", "cache.fingerprint")
    hooks.sync(FlushSolverCache, "lookup", "cache.lookup", after=looked_up)
    hooks.sync(FlushSolverCache, "store", "cache.store", after=stored)

    # shards + cost model
    def cut(args, result, span):
        lists["shards.components"].append(result.num_components)

    def planned(args, result, span):
        counters["shards.plans"] += 1
        if result.mode != "unsharded":
            counters["shards.plans_sharded"] += 1

    def solved_planned(args, result, span):
        if args[0].last_degraded is not None:
            counters["shards.degraded"] += 1

    hooks.sync(shards_mod, "cut_flush", "shards.cut", after=cut)
    hooks.sync(FlushPlanner, "plan", "shards.plan", after=planned)
    hooks.sync(
        ShardedFlushExecutor, "solve_planned", "shards.solve_planned", after=solved_planned
    )

    # instance construction
    def instance_built(args, result, span):
        lists["instance.pairs"].append(result.num_feasible_pairs)

    hooks.sync(ProblemInstance, "build", "instance.build", after=instance_built)

    # engine (UCE, PUCE, PDCE ...) and PGT, per method
    def engine_solved(args, result, span):
        lists[f"engine.pairs.{args[0].name}"].append(args[1].num_feasible_pairs)

    def pgt_solved(args, result, span):
        lists["pgt.pairs"].append(args[1].num_feasible_pairs)

    hooks.sync(
        ConflictEliminationSolver,
        "solve",
        lambda args: f"engine.solve.{args[0].name}",
        after=engine_solved,
    )
    hooks.sync(PGTSolver, "solve", "pgt.solve", after=pgt_solved)

    # privacy accountant
    for cls in (GlobalAccountant, WindowAccountant):
        for query in ("remaining", "spend_in_window"):
            hooks.counted(cls, query, "accountant.query")
        hooks.sync(cls, "record", "accountant.record")

    # metrics registry
    for kind in ("counter", "gauge", "histogram"):
        hooks.counted(MetricsRegistry, kind, "metrics.lookup")

    # faults: where the service reads the plan, and the module itself
    hooks.counted(server_mod, "active_fault_plan", "faults.plan_read")
    hooks.counted(faults_mod, "active_fault_plan", "faults.plan_read")

    # queue hand-off waits (only the service creates asyncio queues)
    hooks._swap(asyncio, "Queue", lambda original: timed_queue(tracer, original))
    return hooks


# -- per-layer metrics ---------------------------------------------------------

#: Every per-layer metric, in print order, with its unit.
PER_LAYER: list[tuple[str, str]] = [
    ("wire.records", "count"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("service.requests", "count"),
    ("service.self_us", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p95", "ms"),
    ("service.open_us", "us"),
    ("service.open_us_late_over_early", "ratio"),
    ("service.shed", "count"),
    ("journal.appends", "count"),
    ("journal.append_us", "us"),
    ("journal.append_us_late_over_early", "ratio"),
    ("journal.fsyncs", "count"),
    ("journal.fsync_us", "us"),
    ("journal.checkpoints", "count"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("journal.replayed_entries", "count"),
    ("journal.recover_ms", "ms"),
    ("session.applies", "count"),
    ("session.apply_self_us", "us"),
    ("simulator.flushes", "count"),
    ("simulator.flush_ms_p50", "ms"),
    ("simulator.flush_ms_p95", "ms"),
    ("simulator.flush_self_us", "us"),
    ("simulator.flush_self_us_late_over_early", "ratio"),
    ("batcher.build_us", "us"),
    ("batcher.tasks_per_flush_mean", "tasks"),
    ("batcher.pairs_per_flush_mean", "pairs"),
    ("batcher.pairs_per_flush_max", "pairs"),
    ("batcher.charge_us", "us"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.fingerprint_us", "us"),
    ("cache.store_us", "us"),
    ("cache.evictions", "count"),
    ("shards.plans", "count"),
    ("shards.plans_sharded", "count"),
    ("shards.cut_us", "us"),
    ("shards.components_mean", "components"),
    ("shards.degraded", "count"),
    ("instance.builds", "count"),
    ("instance.build_us", "us"),
    ("instance.pairs_mean", "pairs"),
    ("engine.solves", "count"),
    ("engine.pairs_per_solve_mean", "pairs"),
    ("engine.us_per_pair.PUCE", "us"),
    ("engine.us_per_pair.PDCE", "us"),
    ("pgt.solves", "count"),
    ("pgt.us_per_pair", "us"),
    ("accountant.queries", "count"),
    ("accountant.query_us", "us"),
    ("accountant.records", "count"),
    ("accountant.record_us", "us"),
    ("metrics.lookups", "count"),
    ("metrics.lookup_us", "us"),
    ("faults.plan_reads", "count"),
    ("runtime.gc_collections", "count"),
    ("runtime.gc_pause_ms", "ms"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

#: Spans whose self time is the service layer's own.
SERVICE_SPANS = ("service.serve_jsonl", "service.submit", "service.open", "service.consume")


def layer_metrics(tracer: Tracer, traced, untraced) -> tuple[dict[str, float], dict[str, Any]]:
    """Every per-layer metric of one traced run, plus the bases and
    sample counts behind them.  ``traced`` and ``untraced`` are the two
    passes' :class:`~perfbench.harness.Outcome`; shed counts come from
    the ``ShedReply`` records the clients saw."""
    by, counters, lists = tracer.by_name, tracer.counters, tracer.lists
    m: dict[str, float] = {}
    notes: dict[str, Any] = {}

    def n(*spans: str) -> int:
        return sum(by[x].count for x in spans if x in by)

    def total(*spans: str, own: bool = False) -> float:
        return sum(by[x].self_total if own else by[x].total for x in spans if x in by)

    def per(name: str, value: float, base: float, scale: float, base_name: str = "calls"):
        m[name] = value / base * scale if base else 0.0
        notes[name] = {base_name: base}

    def self_us(name: str, *spans: str) -> None:
        per(name, total(*spans, own=True), n(*spans), 1e6)

    def tail_ms(name: str, samples: list[float], q: float) -> None:
        value, beyond, steady = stats.flagged_tail(samples, q)
        m[name] = value * 1e3
        notes[name] = {"samples": len(samples), "beyond": beyond, "tail_ok": steady}

    def growth(name: str, points: list[tuple[float, float]]) -> None:
        m[name], early, late = stats.late_over_early(points, tracer.segments)
        notes[name] = {"early_calls": early, "late_calls": late, "segments": len(tracer.segments)}

    def mean_of(name: str, key: str) -> None:
        m[name] = stats.mean(lists.get(key, []))
        notes[name] = {"samples": len(lists.get(key, []))}

    def points(span: str) -> list[tuple[float, float]]:
        return by[span].points if span in by else []

    def count(name: str, key: str) -> None:
        m[name] = counters.get(key, 0.0)

    m["wire.records"] = n("wire.decode", "wire.encode")
    self_us("wire.decode_us", "wire.decode")
    self_us("wire.encode_us", "wire.encode")

    m["service.requests"] = n("service.submit")
    per("service.self_us", total(*SERVICE_SPANS, own=True), n("service.submit"), 1e6, "requests")
    waits = lists.get("service.queue_wait", [])
    tail_ms("service.queue_wait_ms_p50", waits, 0.5)
    tail_ms("service.queue_wait_ms_p95", waits, 0.95)
    self_us("service.open_us", "service.open")
    growth("service.open_us_late_over_early", points("service.open"))
    m["service.shed"] = float(traced.shed)
    notes["service.shed"] = {"reasons": dict(traced.shed_reasons)}

    m["journal.appends"] = n("journal.append")
    self_us("journal.append_us", "journal.append")
    growth("journal.append_us_late_over_early", points("journal.append"))
    m["journal.fsyncs"] = n("journal.sync")
    self_us("journal.fsync_us", "journal.sync")
    m["journal.checkpoints"] = n("journal.checkpoint")
    per("journal.checkpoint_ms", total("journal.checkpoint"), n("journal.checkpoint"), 1e3)
    count("journal.bytes", "journal.bytes")
    count("journal.replayed_entries", "journal.replayed_entries")
    per("journal.recover_ms", total("service.recover"), n("service.recover"), 1e3)

    m["session.applies"] = n("session.apply")
    self_us("session.apply_self_us", "session.apply")

    flush_s = lists.get("simulator.flush_s", [])
    flush_points = lists.get("simulator.flush_points", [])
    m["simulator.flushes"] = float(len(flush_s))
    notes["simulator.flushes"] = {"flush_calls": n("simulator.flush")}
    tail_ms("simulator.flush_ms_p50", flush_s, 0.5)
    tail_ms("simulator.flush_ms_p95", flush_s, 0.95)
    per("simulator.flush_self_us", sum(own for _, own in flush_points), len(flush_points), 1e6)
    growth("simulator.flush_self_us_late_over_early", flush_points)

    self_us("batcher.build_us", "batcher.build")
    mean_of("batcher.tasks_per_flush_mean", "batcher.tasks")
    mean_of("batcher.pairs_per_flush_mean", "batcher.pairs")
    m["batcher.pairs_per_flush_max"] = float(max(lists.get("batcher.pairs", []) or [0]))
    self_us("batcher.charge_us", "batcher.charge")

    hits = counters.get("cache.hits", 0.0)
    m["cache.lookups"] = hits + counters.get("cache.misses", 0.0)
    per("cache.hit_ratio", hits, m["cache.lookups"], 1.0, "lookups")
    self_us("cache.fingerprint_us", "cache.fingerprint")
    self_us("cache.store_us", "cache.store")
    m["cache.evictions"] = float(sum(c.evictions for c in tracer.caches.values()))

    count("shards.plans", "shards.plans")
    count("shards.plans_sharded", "shards.plans_sharded")
    self_us("shards.cut_us", "shards.cut")
    mean_of("shards.components_mean", "shards.components")
    count("shards.degraded", "shards.degraded")

    m["instance.builds"] = n("instance.build")
    self_us("instance.build_us", "instance.build")
    mean_of("instance.pairs_mean", "instance.pairs")

    # Pairs of every engine solve, by method (the solver's reported name).
    solves = {k.split(".")[-1]: v for k, v in lists.items() if k.startswith("engine.pairs.")}
    every = [pairs for v in solves.values() for pairs in v]
    m["engine.solves"] = len(every)
    m["engine.pairs_per_solve_mean"] = stats.mean(every)
    notes["engine.pairs_per_solve_mean"] = {"samples": len(every), "methods": sorted(solves)}
    for method in ("PUCE", "PDCE"):
        own = total(f"engine.solve.{method}", own=True)
        per(f"engine.us_per_pair.{method}", own, sum(solves.get(method, [])), 1e6, "pairs")

    m["pgt.solves"] = n("pgt.solve")
    pgt_pairs = sum(lists.get("pgt.pairs", []))
    per("pgt.us_per_pair", total("pgt.solve", own=True), pgt_pairs, 1e6, "pairs")

    count("accountant.queries", "accountant.query")
    self_us("accountant.query_us", "accountant.query")
    notes["accountant.query_us"]["sample_every"] = QUERY_SAMPLE
    m["accountant.records"] = n("accountant.record")
    self_us("accountant.record_us", "accountant.record")

    count("metrics.lookups", "metrics.lookup")
    self_us("metrics.lookup_us", "metrics.lookup")
    notes["metrics.lookup_us"]["sample_every"] = QUERY_SAMPLE
    count("faults.plan_reads", "faults.plan_read")

    count("runtime.gc_collections", "runtime.gc_collections")
    m["runtime.gc_pause_ms"] = counters.get("runtime.gc_pause_s", 0.0) * 1e3

    m["trace.unattributed_ratio"] = tracer.unattributed(traced.segments[-1])
    m["trace.overhead_ratio"] = stats.ratio(traced.wall, untraced.wall, name="trace.overhead_ratio")
    notes["trace.overhead_ratio"] = {"traced_wall_s": traced.wall, "untraced_wall_s": untraced.wall}
    return {name: float(m[name]) for name, _ in PER_LAYER}, notes
