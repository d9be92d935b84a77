"""Unit tests for micro-batching and cross-flush budget accounting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budgets import BudgetSampler
from repro.datasets.workload import Task, Worker
from repro.errors import ConfigurationError, FlushBudgetError
from repro.privacy.accountant import PrivacyLedger
from repro.spatial.geometry import Point
from repro.stream.batcher import (
    AdaptiveBatchController,
    MicroBatcher,
    WorkerBudgetTracker,
)
from repro.stream.events import OpenTask


def open_task(task_id, x=0.0, y=0.0, arrival=0.0, deadline=10.0):
    return OpenTask(
        task=Task(id=task_id, location=Point(x, y), value=4.5),
        arrival_time=arrival,
        deadline=deadline,
    )


def worker(worker_id, x=0.0, y=0.0, radius=5.0):
    return Worker(id=worker_id, location=Point(x, y), radius=radius)


class TestTriggers:
    def test_size_trigger(self):
        batcher = MicroBatcher(max_batch_size=3, max_wait=100.0)
        for i in range(2):
            batcher.add(open_task(i))
        assert not batcher.should_flush(now=0.0)
        batcher.add(open_task(2))
        assert batcher.should_flush(now=0.0)

    def test_wait_trigger_follows_oldest(self):
        batcher = MicroBatcher(max_batch_size=100, max_wait=0.5)
        batcher.add(open_task(0, arrival=1.0))
        batcher.add(open_task(1, arrival=2.0))
        assert batcher.flush_deadline() == pytest.approx(1.5)
        assert not batcher.should_flush(now=1.4)
        assert batcher.should_flush(now=1.5)

    def test_restore_restarts_wait_clock(self):
        batcher = MicroBatcher(max_batch_size=100, max_wait=0.5)
        loser = open_task(0, arrival=1.0)
        batcher.add(loser)
        taken = batcher.take_batch()
        assert not len(batcher)
        batcher.restore(taken, now=3.0)
        # Latency still measures from arrival, but the flush clock reset.
        assert loser.arrival_time == 1.0
        assert batcher.flush_deadline() == pytest.approx(3.5)

    def test_expire_drops_past_deadline(self):
        batcher = MicroBatcher()
        batcher.add(open_task(0, deadline=1.0))
        batcher.add(open_task(1, deadline=5.0))
        expired = batcher.expire(now=2.0)
        assert [t.task.id for t in expired] == [0]
        assert [t.task.id for t in batcher.pending] == [1]

    def test_take_batch_oldest_first_capped(self):
        batcher = MicroBatcher(max_batch_size=2, max_wait=1.0)
        batcher.add(open_task(0, arrival=3.0))
        batcher.add(open_task(1, arrival=1.0))
        batcher.add(open_task(2, arrival=2.0))
        batch = batcher.take_batch()
        assert [t.task.id for t in batch] == [1, 2]
        assert [t.task.id for t in batcher.pending] == [0]

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_wait=0.0)


class TestWorkerBudgetTracker:
    def test_remaining_decreases_with_charges(self):
        tracker = WorkerBudgetTracker()
        tracker.register(7, 5.0)
        ledger = PrivacyLedger()
        ledger.record(7, 0, 1.5)
        ledger.record(7, 1, 2.0)
        tracker.charge(ledger)
        assert tracker.spent(7) == pytest.approx(3.5)
        assert tracker.remaining(7) == pytest.approx(1.5)
        assert not tracker.exhausted(7)
        assert tracker.exhausted(7, floor=1.5)

    def test_unregistered_worker_is_unlimited(self):
        tracker = WorkerBudgetTracker()
        assert tracker.remaining(3) == float("inf")
        assert not tracker.exhausted(3)

    def test_overspend_raises(self):
        tracker = WorkerBudgetTracker()
        tracker.register(7, 1.0)
        ledger = PrivacyLedger()
        ledger.record(7, 0, 2.0)
        with pytest.raises(ConfigurationError, match="exceeded shift budget"):
            tracker.charge(ledger)

    def test_overspend_error_carries_context(self):
        """The typed error names the worker and the numbers involved."""
        tracker = WorkerBudgetTracker()
        tracker.register(7, 1.0)
        ledger = PrivacyLedger()
        ledger.record(7, 0, 2.5)
        with pytest.raises(FlushBudgetError) as excinfo:
            tracker.charge(ledger)
        error = excinfo.value
        assert error.worker_id == 7
        assert error.spend == pytest.approx(2.5)
        assert error.remaining == pytest.approx(-1.5)

    def test_charges_accumulate_across_flushes(self):
        tracker = WorkerBudgetTracker()
        tracker.register(7, 10.0)
        for _ in range(3):
            ledger = PrivacyLedger()
            ledger.record(7, 0, 2.0)
            tracker.charge(ledger)
        assert tracker.spent(7) == pytest.approx(6.0)
        assert tracker.total_spend() == pytest.approx(6.0)


class TestBudgetCappedInstances:
    def setup_method(self):
        self.batcher = MicroBatcher(
            budget_sampler=BudgetSampler(low=1.0, high=1.0, group_size=3)
        )
        self.tasks = [open_task(0, x=0.0), open_task(1, x=1.0)]
        self.workers = [worker(0, x=0.5)]

    def test_uncapped_when_tracker_is_none(self):
        instance = self.batcher.build_instance(self.tasks, self.workers, None, seed=0)
        assert instance.reachable[0] == (0, 1)
        # Both pairs keep their full Z=3 vectors (3.0 each, 6.0 total).
        assert instance.budget_vector(0, 0).total == pytest.approx(3.0)

    def test_worst_case_spend_fits_remaining(self):
        tracker = WorkerBudgetTracker()
        tracker.register(0, 4.0)
        instance = self.batcher.build_instance(
            self.tasks, self.workers, tracker, seed=0
        )
        total = sum(
            instance.budget_vector(i, j).total for i, j in instance.feasible_pairs()
        )
        assert total <= 4.0 + 1e-9
        # First pair affordable in full, second truncated to the remainder.
        assert instance.budget_vector(0, 0).total == pytest.approx(3.0)
        assert instance.budget_vector(1, 0).total == pytest.approx(1.0)

    def test_exhausted_worker_loses_all_pairs(self):
        tracker = WorkerBudgetTracker()
        tracker.register(0, 0.5)  # below the cheapest single element
        instance = self.batcher.build_instance(
            self.tasks, self.workers, tracker, seed=0
        )
        assert instance.reachable[0] == ()
        assert instance.num_feasible_pairs == 0

    def test_partial_spend_carries_forward(self):
        tracker = WorkerBudgetTracker()
        tracker.register(0, 4.0)
        ledger = PrivacyLedger()
        ledger.record(0, 0, 2.5)
        tracker.charge(ledger)
        instance = self.batcher.build_instance(
            self.tasks, self.workers, tracker, seed=0
        )
        assert tracker.remaining(0) == pytest.approx(1.5)
        total = sum(
            instance.budget_vector(i, j).total for i, j in instance.feasible_pairs()
        )
        assert total <= tracker.remaining(0) + 1e-9


class TestTruncationFastPath:
    """The vectorized fits-remainder shortcut vs the reference loop.

    The fast path may only fire where the sequential reference loop
    provably keeps every element; remainders anywhere near the worker's
    total — including within float-rounding distance of it — must fall
    through to the exact loop and truncate identically.
    """

    def _reference_keep_len(self, instance, remaining_by_worker):
        import numpy as np

        pairs = instance.pairs
        keep = []
        for j in range(instance.num_workers):
            lo, hi = int(pairs.offsets[j]), int(pairs.offsets[j + 1])
            remaining = remaining_by_worker[j]
            for p in range(lo, hi):
                z = int(pairs.budget_len[p])
                k = int(
                    np.count_nonzero(
                        pairs.budget_prefix[p, 1 : z + 1] <= remaining + 1e-12
                    )
                )
                keep.append(k)
                if k:
                    remaining -= pairs.budget_prefix[p, k]
        return keep

    @pytest.mark.parametrize(
        "offset",
        [0.0, -1e-13, 1e-13, -1e-9, 1e-9, -0.5, 0.5, -2.9, 10.0],
        ids=lambda o: f"total{o:+g}",
    )
    def test_matches_reference_loop_at_and_near_the_cap(self, offset):
        import numpy as np

        batcher = MicroBatcher(
            budget_sampler=BudgetSampler(low=0.5, high=1.75, group_size=3)
        )
        tasks = [open_task(i, x=float(i) * 0.4) for i in range(4)]
        fleet = [worker(0, x=0.5), worker(1, x=1.0)]
        uncapped = batcher.build_instance(tasks, fleet, None, seed=7)
        pairs = uncapped.pairs
        totals = [
            sum(
                float(pairs.budget_prefix[p, int(pairs.budget_len[p])])
                for p in range(int(pairs.offsets[j]), int(pairs.offsets[j + 1]))
            )
            for j in range(2)
        ]
        tracker = WorkerBudgetTracker()
        remaining = [totals[0] + offset, totals[1] + offset]
        for j in (0, 1):
            if remaining[j] > 0:
                tracker.register(j, remaining[j])
        capped = batcher.build_instance(tasks, fleet, tracker, seed=7)
        expected = self._reference_keep_len(
            uncapped, [tracker.remaining(j) for j in (0, 1)]
        )
        kept = []
        table = capped.budgets
        for i, j in uncapped.feasible_pairs():
            vector = table.get((i, j))
            kept.append(len(vector) if vector is not None else 0)
        assert kept == [k for k in expected], (offset, totals)
        # The cap invariant itself (one home, asserted in build_instance)
        # held or we would not be here; double-check the totals anyway.
        spent = [0.0, 0.0]
        for (i, j), vector in table.items():
            spent[j] += vector.total
        for j in (0, 1):
            assert spent[j] <= tracker.remaining(j) + 1e-9
        assert np.all(capped.pairs.budget_len >= 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_most_pairs_tight(self, seed):
        """Every worker near or under their total walks the exact loop."""
        import numpy as np

        batcher = MicroBatcher(
            budget_sampler=BudgetSampler(low=0.5, high=1.75, group_size=4)
        )
        tasks = [open_task(i, x=0.3 * (i % 4), y=0.3 * (i // 4)) for i in range(12)]
        fleet = [worker(j, x=0.2 * j, radius=3.0) for j in range(8)]
        uncapped = batcher.build_instance(tasks, fleet, None, seed=seed)
        pairs = uncapped.pairs
        rng = np.random.default_rng(seed)
        tracker = WorkerBudgetTracker()
        for j in range(len(fleet)):
            lo, hi = int(pairs.offsets[j]), int(pairs.offsets[j + 1])
            total = float(pairs.budget_prefix[lo:hi, -1].sum())
            # One worker keeps everything; the rest land anywhere from a
            # single element to a hair under their whole sampled spend.
            share = 2.0 if j == 0 else rng.uniform(0.02, 1.0 - 1e-7)
            tracker.register(j, total * share)
        capped = batcher.build_instance(tasks, fleet, tracker, seed=seed)
        expected = self._reference_keep_len(
            uncapped, [tracker.remaining(j) for j in range(len(fleet))]
        )
        # Workers 1..7 (most pairs) cannot keep everything: they walk the
        # loop, and it cuts vectors short as well as dropping pairs.
        assert int(pairs.offsets[1]) < pairs.num_pairs // 2
        lengths = pairs.budget_len.tolist()
        assert any(0 < k < n for k, n in zip(expected, lengths))
        assert any(k == 0 for k in expected)
        table = capped.budgets
        kept = [
            len(table[(i, j)]) if (i, j) in table else 0
            for i, j in uncapped.feasible_pairs()
        ]
        assert kept == expected


class TestCappedArraySlicing:
    """The vectorized truncation must leave coherent CSR pair arrays."""

    def test_sliced_arrays_stay_consistent(self):
        batcher = MicroBatcher(
            budget_sampler=BudgetSampler(low=1.0, high=1.0, group_size=3)
        )
        tasks = [open_task(0, x=0.0), open_task(1, x=1.0), open_task(2, x=2.0)]
        workers = [worker(0, x=0.5), worker(1, x=1.5), worker(2, x=2.5)]
        tracker = WorkerBudgetTracker()
        tracker.register(0, 4.0)   # truncates worker 0's second pair
        tracker.register(1, 0.5)   # drops worker 1 entirely
        # worker 2 unregistered: infinite capacity, untouched vectors
        instance = batcher.build_instance(tasks, workers, tracker, seed=0)

        assert instance.reachable[1] == ()
        pairs = instance.pairs
        for j in range(instance.num_workers):
            sl = pairs.worker_slice(j)
            assert tuple(pairs.task[sl].tolist()) == instance.reachable[j]
        # Every retained vector is the exact prefix of the sampled one and
        # worst-case spend fits each worker's remaining budget.
        for (i, j) in instance.feasible_pairs():
            vector = instance.budget_vector(i, j)
            assert all(e == 1.0 for e in vector.epsilons)
        spend_w0 = sum(
            instance.budget_vector(i, j).total
            for (i, j) in instance.feasible_pairs()
            if j == 0
        )
        assert spend_w0 <= 4.0 + 1e-9

    def test_cap_invariant_has_single_home(self):
        """A tracker reporting negative remaining trips the cap check."""
        batcher = MicroBatcher(
            budget_sampler=BudgetSampler(low=1.0, high=1.0, group_size=1)
        )

        class BrokenTracker(WorkerBudgetTracker):
            def remaining(self, worker_id):
                return float("nan")  # poisons every comparison

        # NaN remaining keeps no budget elements, and the one-home cap
        # check rejects the poisoned comparison loudly instead of handing
        # the solver an uncapped instance.
        with pytest.raises(FlushBudgetError, match="flush cap") as excinfo:
            batcher.build_instance([open_task(0)], [worker(0)], BrokenTracker(), seed=0)
        assert excinfo.value.worker_id == 0
        assert excinfo.value.spend is not None

    def test_nan_remainder_keeps_nothing(self):
        """A NaN remainder keeps no element: the cap check reports a
        worst-case spend of zero, not the whole sampled vector."""
        batcher = MicroBatcher(
            budget_sampler=BudgetSampler(low=1.0, high=1.0, group_size=3)
        )

        class NanTracker(WorkerBudgetTracker):
            def remaining(self, worker_id):
                return float("nan")

        tasks = [open_task(0), open_task(1, x=1.0)]
        with pytest.raises(FlushBudgetError, match="flush cap") as excinfo:
            batcher.build_instance(tasks, [worker(0)], NanTracker(), seed=0)
        assert excinfo.value.spend == 0.0


class TestAdaptiveBatchController:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AdaptiveBatchController(target_seconds=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveBatchController(min_size=10, max_size=5)
        with pytest.raises(ConfigurationError):
            AdaptiveBatchController(growth=1.0)
        with pytest.raises(ConfigurationError):
            AdaptiveBatchController(headroom=0.0)

    def test_slow_flush_shrinks_proportionally(self):
        controller = AdaptiveBatchController(target_seconds=0.01, min_size=4)
        # 4x over target -> size drops toward a quarter.
        assert controller.next_size(100, 0.04, 100) == 25
        # Never below the floor.
        assert controller.next_size(5, 10.0, 5) == 4

    def test_fast_full_flush_grows(self):
        controller = AdaptiveBatchController(target_seconds=0.01, max_size=120)
        assert controller.next_size(50, 0.001, 50) == 75
        # Growth clamps at the ceiling.
        assert controller.next_size(100, 0.001, 100) == 120

    def test_underfilled_fast_flush_holds(self):
        """A wait-triggered trickle flush is no evidence for growth."""
        controller = AdaptiveBatchController(target_seconds=0.01)
        assert controller.next_size(50, 0.001, 12) == 50

    def test_in_band_flush_holds(self):
        controller = AdaptiveBatchController(target_seconds=0.01, headroom=0.5)
        assert controller.next_size(50, 0.007, 50) == 50

    def test_batcher_observe_flush_drives_the_limit(self):
        batcher = MicroBatcher(
            max_batch_size=50,
            controller=AdaptiveBatchController(target_seconds=0.01, min_size=4),
        )
        assert batcher.observe_flush(0.04, 50) == 12
        assert batcher.max_batch_size == 12
        assert batcher.observe_flush(0.001, 12) == 18

    def test_observe_flush_without_controller_is_a_noop(self):
        batcher = MicroBatcher(max_batch_size=50)
        assert batcher.observe_flush(10.0, 50) == 50
        assert batcher.max_batch_size == 50

    def test_initial_limit_clamped_into_controller_bounds(self):
        batcher = MicroBatcher(
            max_batch_size=5000,
            controller=AdaptiveBatchController(max_size=100),
        )
        assert batcher.max_batch_size == 100


class _RescanBuffer:
    """The buffer semantics by full rescans: the reference for the
    tracked-minimum triggers."""

    def __init__(self, max_batch_size, max_wait):
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.pending = []

    def add(self, open_task):
        self.pending.append(open_task)

    def expire(self, now):
        expired = [t for t in self.pending if t.expired(now)]
        self.pending = [t for t in self.pending if not t.expired(now)]
        return expired

    def take_batch(self):
        self.pending.sort(key=lambda t: (t.arrival_time, t.task.id))
        batch = self.pending[: self.max_batch_size]
        self.pending = self.pending[self.max_batch_size :]
        return batch

    def restore(self, open_tasks, now):
        for open_task in open_tasks:
            open_task.buffer_since = now
        self.pending.extend(open_tasks)

    def oldest_waiting(self):
        return min((t.buffer_since for t in self.pending), default=None)

    def flush_deadline(self):
        oldest = self.oldest_waiting()
        return None if oldest is None else oldest + self.max_wait

    def should_flush(self, now):
        if len(self.pending) >= self.max_batch_size:
            return True
        deadline = self.flush_deadline()
        return deadline is not None and now >= deadline - 1e-12


_times = st.integers(0, 80).map(lambda k: k * 0.125)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _times, st.integers(0, 24).map(lambda k: k * 0.125)),
        st.tuples(st.just("take"), _times, st.integers(0, 6)),
        st.tuples(st.just("expire"), _times, st.just(0)),
    ),
    max_size=60,
)


class TestTrackedTriggers:
    """``MicroBatcher``'s O(1) triggers against a rescanning buffer."""

    @settings(max_examples=200, deadline=None)
    @given(
        ops=_ops,
        max_batch_size=st.integers(1, 6),
        max_wait=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_matches_a_naive_rescan(self, ops, max_batch_size, max_wait):
        batcher = MicroBatcher(max_batch_size=max_batch_size, max_wait=max_wait)
        naive = _RescanBuffer(max_batch_size, max_wait)

        def ids(tasks):
            return [t.task.id for t in tasks]

        for step, (op, now, arg) in enumerate(ops):
            if op == "add":
                batcher.add(open_task(step, arrival=now, deadline=now + arg))
                naive.add(open_task(step, arrival=now, deadline=now + arg))
            elif op == "take":
                taken, naive_taken = batcher.take_batch(), naive.take_batch()
                assert ids(taken) == ids(naive_taken)
                # A prefix of the losers returns, with a restarted clock.
                batcher.restore(taken[:arg], now)
                naive.restore(naive_taken[:arg], now)
            else:
                assert ids(batcher.expire(now)) == ids(naive.expire(now))
            assert ids(batcher.pending) == ids(naive.pending)
            assert batcher.oldest_waiting() == naive.oldest_waiting()
            assert batcher.flush_deadline() == naive.flush_deadline()
            deadlines = [t.deadline for t in naive.pending]
            assert batcher.earliest_deadline() == min(deadlines, default=None)
            for probe in (now, now + max_wait / 2, now + max_wait, math.inf):
                assert batcher.should_flush(probe) == naive.should_flush(probe)
