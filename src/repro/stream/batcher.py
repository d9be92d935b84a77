"""Micro-batching: from a pending-task buffer to `ProblemInstance`s.

The streaming layer cannot wait for Section VII-B's 1000-task windows: it
flushes the pending buffer into a solvable :class:`ProblemInstance`
whenever the buffer is full (``max_batch_size``) *or* its oldest task has
waited ``max_wait`` time units — the classic latency/quality trade of
dispatch micro-batching.

Privacy is the part a naive re-batching would get wrong: a worker's LDP
guarantee (Theorem V.2) is about their *cumulative* published budget, so
the spend must carry across flushes.  :class:`WorkerBudgetTracker` keeps
one persistent :class:`~repro.privacy.accountant.PrivacyLedger` per
stream, and :meth:`MicroBatcher.build_instance` truncates each pair's
freshly-sampled budget vector so that the worker's *worst-case* spend in
the flush — every element of every pair published — cannot exceed what
remains of their shift capacity.  The cap therefore holds by construction
for every solver that draws its publishes from ``instance.budgets`` (all
registry methods), not by solver cooperation; a solver that publishes
out of band (e.g. GEOI's per-flush location release) is outside this
model and trips the :meth:`WorkerBudgetTracker.charge` audit instead.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.api.options import validate_batching
from repro.core.budgets import BudgetSampler
from repro.core.utility import UtilityModel
from repro.datasets.workload import Worker
from repro.errors import ConfigurationError, FlushBudgetError
from repro.privacy.accountant import PrivacyLedger
from repro.privacy.horizon import BudgetAccountant, GlobalAccountant
from repro.simulation.instance import ProblemInstance
from repro.simulation.pairs import PairArrays
from repro.stream.events import OpenTask

__all__ = ["WorkerBudgetTracker", "MicroBatcher", "AdaptiveBatchController"]


class WorkerBudgetTracker:
    """Per-worker budget accounting, persistent across micro-batches.

    Wraps one append-only :class:`PrivacyLedger` (the task-level audit
    trail) plus one *accountant* (:mod:`repro.privacy.horizon`) that owns
    the capacity arithmetic.  The default :class:`GlobalAccountant` is
    the historical fixed-shift-budget semantics, bit-identically; a
    :class:`~repro.privacy.horizon.WindowAccountant` makes ``remaining``
    / ``exhausted`` windowed — spends age out, and a worker who was
    retired as exhausted becomes eligible again once the window slides
    past their releases (the :meth:`remaining` recomputation at the next
    flush is the regain; there is no separate un-retire step).

    Time enters through :meth:`observe` (the simulator calls it as each
    flush starts), so the per-worker query methods keep their time-free
    signatures at every call site.
    """

    def __init__(self, accountant: BudgetAccountant | None = None) -> None:
        self.ledger = PrivacyLedger()
        self.accountant = GlobalAccountant() if accountant is None else accountant

    @property
    def windowed(self) -> bool:
        """Whether budgets regenerate under a sliding-window policy."""
        return self.accountant.windowed

    def observe(self, now: float) -> None:
        """Advance the accountant's clock to the flush time ``now``."""
        self.accountant.observe(now)

    def register(self, worker_id: int, capacity: float) -> None:
        """Declare a worker's budget capacity (per shift, or per window
        under a windowed accountant)."""
        self.accountant.register(worker_id, capacity)

    def capacity(self, worker_id: int) -> float:
        return self.accountant.capacity(worker_id)

    def spent(self, worker_id: int) -> float:
        """Lifetime published budget — the Theorem V.2 audit total."""
        return self.accountant.lifetime_spend(worker_id)

    def window_spend(self, worker_id: int) -> float:
        """Spend charged against the worker's cap right now (equals
        :meth:`spent` under the global accountant)."""
        return self.accountant.spend_in_window(worker_id)

    def remaining(self, worker_id: int) -> float:
        return self.accountant.remaining(worker_id)

    def exhausted(self, worker_id: int, floor: float = 0.0) -> bool:
        """Whether the worker cannot publish even one more ``floor`` budget."""
        return self.remaining(worker_id) <= floor

    def charge(self, flush_ledger: PrivacyLedger) -> None:
        """Fold one flush's audit trail into the persistent ledger.

        Raises
        ------
        ConfigurationError
            If the recorded spend pushed any worker past capacity.  This
            cannot happen for solvers whose every publish consumes an
            element of ``instance.budgets`` (all registry methods) on
            instances built by :class:`MicroBatcher`; a solver that also
            publishes out of band (e.g. GEOI's per-flush location release)
            is outside the capped model and fails here loudly rather than
            silently overdrawing the shift budget.
        """
        for worker_id, task_id, epsilon in flush_ledger.events():
            self.ledger.record(worker_id, task_id, epsilon)
            self.accountant.record(worker_id, epsilon)
        for worker_id in flush_ledger.workers():
            if self.remaining(worker_id) < -1e-9:
                raise FlushBudgetError(
                    f"worker {worker_id} exceeded shift budget: spent "
                    f"{self.window_spend(worker_id):.4f} of "
                    f"{self.capacity(worker_id):.4f}",
                    worker_id=worker_id,
                    spend=self.window_spend(worker_id),
                    remaining=self.remaining(worker_id),
                )

    def total_spend(self) -> float:
        """Lifetime total across all workers (monotone over the stream)."""
        return self.accountant.total_spend()


def _slice_capped_instance(
    instance: ProblemInstance, keep_len: np.ndarray
) -> ProblemInstance:
    """Re-assemble a budget-capped instance by slicing the pair arrays."""
    pairs = instance.pairs
    offsets = pairs.offsets
    kept = keep_len > 0
    sel = np.flatnonzero(kept)
    kept_cum = np.concatenate(([0], np.cumsum(kept)))
    new_counts = kept_cum[offsets[1:]] - kept_cum[offsets[:-1]]
    new_offsets = np.zeros(len(new_counts) + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_offsets[1:])

    new_len = keep_len[sel]
    z_max = int(new_len.max()) if new_len.size else 1
    new_matrix = pairs.budget_matrix[sel, :z_max].copy()
    new_matrix[np.arange(z_max) >= new_len[:, None]] = 0.0
    new_pairs = PairArrays(
        offsets=new_offsets,
        task=pairs.task[sel].copy(),
        worker=pairs.worker[sel].copy(),
        distance=pairs.distance[sel].copy(),
        budget_matrix=new_matrix,
        budget_len=new_len.copy(),
        task_value=pairs.task_value,
    )
    kept_tasks = new_pairs.task.tolist()
    reachable = tuple(
        tuple(kept_tasks[int(new_offsets[j]) : int(new_offsets[j + 1])])
        for j in range(instance.num_workers)
    )
    return ProblemInstance.from_arrays(
        tasks=instance.tasks,
        workers=instance.workers,
        model=instance.model,
        reachable=reachable,
        pairs=new_pairs,
    )


@dataclass
class AdaptiveBatchController:
    """Target-latency controller for the micro-batch flush size.

    Watches each flush's *service time* (solver wall seconds) and steers
    ``max_batch_size`` toward the largest flush the solver can clear
    within ``target_seconds``: bigger flushes amortise per-flush overhead
    and give the solver more pairs per sweep, but a flush that takes
    longer than the target starts eating into assignment latency.

    The policy is deterministic and multiplicative (AIMD-flavoured):

    * a flush slower than the target shrinks the size proportionally to
      the overshoot (never below ``min_size``);
    * a *full* flush faster than ``headroom * target`` grows the size by
      ``growth`` (never above ``max_size``) — under-filled flushes carry
      no evidence that a bigger limit would fill, so they never grow it.

    With a ``cost_model`` attached the controller also plans ahead
    instead of only reacting: it keeps a pairs-per-task EWMA from the
    observed flushes and caps growth at the batch size whose *predicted*
    solve time (:meth:`~repro.stream.costmodel.FlushCostModel.
    max_pairs_within`) stays inside the target — so one over-eager
    growth step can no longer blow a flush straight past the latency
    budget before the reactive shrink kicks in.
    """

    target_seconds: float = 0.02
    min_size: int = 8
    max_size: int = 2000
    growth: float = 1.5
    headroom: float = 0.5
    cost_model: "object | None" = None
    _pairs_per_task: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.target_seconds > 0:
            raise ConfigurationError(
                f"target_seconds must be positive, got {self.target_seconds}"
            )
        if not 1 <= self.min_size <= self.max_size:
            raise ConfigurationError(
                f"need 1 <= min_size <= max_size, got "
                f"[{self.min_size}, {self.max_size}]"
            )
        if not self.growth > 1.0:
            raise ConfigurationError(f"growth must exceed 1, got {self.growth}")
        if not 0 < self.headroom <= 1.0:
            raise ConfigurationError(
                f"headroom must be in (0, 1], got {self.headroom}"
            )

    def next_size(
        self, current: int, service_seconds: float, flushed: int, pairs: int = 0
    ) -> int:
        """The flush-size limit to use after one observed flush.

        ``pairs`` (the flush instance's feasible-pair count, 0 when
        unknown) feeds the cost model's look-ahead cap; without a model
        the policy is the pure reactive AIMD.
        """
        if pairs > 0 and flushed > 0:
            ratio = pairs / flushed
            self._pairs_per_task = (
                ratio
                if self._pairs_per_task == 0.0
                else 0.7 * self._pairs_per_task + 0.3 * ratio
            )
        if service_seconds > self.target_seconds:
            shrunk = int(current * self.target_seconds / service_seconds)
            return max(self.min_size, min(shrunk, current - 1))
        if flushed >= current and service_seconds < self.headroom * self.target_seconds:
            grown = min(self.max_size, max(int(current * self.growth), current + 1))
            return max(min(grown, self._planned_cap()), min(current, self.max_size))
        return current

    def _planned_cap(self) -> int:
        """Largest batch the cost model predicts still meets the target.

        Unbounded without a model or before any pairs-per-task evidence.
        """
        if self.cost_model is None or self._pairs_per_task <= 0.0:
            return self.max_size
        max_pairs = self.cost_model.max_pairs_within(self.target_seconds)
        return max(self.min_size, int(max_pairs / self._pairs_per_task))


@dataclass
class MicroBatcher:
    """Pending-task buffer with size- and wait-based flush triggers.

    Parameters
    ----------
    max_batch_size:
        Flush as soon as this many tasks are pending.  With a
        ``controller`` attached this is only the *initial* limit — each
        observed flush may grow or shrink it.
    max_wait:
        Flush as soon as the oldest pending task has waited this long.
    budget_sampler, model:
        Per-flush instance parameters (Table X defaults when omitted).
    controller:
        Optional :class:`AdaptiveBatchController`; feed it through
        :meth:`observe_flush` after every flush.
    """

    max_batch_size: int = 200
    max_wait: float = 0.25
    budget_sampler: BudgetSampler | None = None
    model: UtilityModel | None = None
    controller: AdaptiveBatchController | None = None
    _pending: list[OpenTask] = field(default_factory=list, repr=False)
    # The buffer's earliest deadline and earliest ``buffer_since``, kept
    # current on every change so the per-event trigger checks cost O(1).
    _min_deadline: float = field(default=math.inf, init=False, repr=False)
    _min_since: float = field(default=math.inf, init=False, repr=False)

    def __post_init__(self) -> None:
        # One validation path: shared with SolveOptions (repro.api.options).
        validate_batching(self.max_batch_size, self.max_wait)
        # Resolve the model and sampler once: every flush then shares the
        # same frozen objects, which the flush-fingerprint cache's
        # identity-memoed repr keys exploit.
        if self.model is None:
            self.model = UtilityModel()
        if self.budget_sampler is None:
            self.budget_sampler = BudgetSampler()
        if self.controller is not None:
            self.max_batch_size = max(
                self.controller.min_size,
                min(self.max_batch_size, self.controller.max_size),
            )
        self._rescan()

    def observe_flush(
        self, service_seconds: float, flushed: int, pairs: int = 0
    ) -> int:
        """Adapt ``max_batch_size`` to one flush's observed service time.

        ``pairs`` forwards the flush's feasible-pair count to the
        controller's cost-model look-ahead (0 = unknown).  No-op without
        a controller.  Returns the limit now in force.
        """
        if self.controller is not None:
            self.max_batch_size = self.controller.next_size(
                self.max_batch_size, service_seconds, flushed, pairs=pairs
            )
        return self.max_batch_size

    # -- buffer ------------------------------------------------------------
    #
    # The flush triggers run on every stream event, so they read two
    # tracked minima instead of scanning the buffer: ``add`` and
    # ``restore`` fold new tasks in, and only ``take_batch`` or an actual
    # expiry — the events that remove tasks — rescan what is left.

    def _rescan(self) -> None:
        """Recompute the tracked minima from the whole buffer."""
        self._min_deadline = math.inf
        self._min_since = math.inf
        self._track(self._pending)

    def _track(self, open_tasks: list[OpenTask] | tuple[OpenTask, ...]) -> None:
        """Fold ``open_tasks`` (already in the buffer) into the minima."""
        min_deadline, min_since = self._min_deadline, self._min_since
        for open_task in open_tasks:
            if open_task.deadline < min_deadline:
                min_deadline = open_task.deadline
            if open_task.buffer_since < min_since:
                min_since = open_task.buffer_since
        self._min_deadline, self._min_since = min_deadline, min_since

    def add(self, open_task: OpenTask) -> None:
        self._pending.append(open_task)
        self._track((open_task,))

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> tuple[OpenTask, ...]:
        return tuple(self._pending)

    def earliest_deadline(self) -> float | None:
        """Earliest ``deadline`` among pending tasks."""
        return self._min_deadline if self._pending else None

    def oldest_waiting(self) -> float | None:
        """Earliest ``buffer_since`` among pending tasks."""
        return self._min_since if self._pending else None

    def flush_deadline(self) -> float | None:
        """The absolute time by which a wait-triggered flush is due."""
        oldest = self.oldest_waiting()
        return None if oldest is None else oldest + self.max_wait

    def should_flush(self, now: float) -> bool:
        if len(self._pending) >= self.max_batch_size:
            return True
        deadline = self.flush_deadline()
        return deadline is not None and now >= deadline - 1e-12

    def expire(self, now: float) -> list[OpenTask]:
        """Drop and return every pending task whose deadline has passed."""
        if not now > self._min_deadline:
            # No deadline lies before ``now``: nothing can have expired.
            return []
        expired = [t for t in self._pending if t.expired(now)]
        self._pending = [t for t in self._pending if not t.expired(now)]
        self._rescan()
        return expired

    def take_batch(self) -> list[OpenTask]:
        """Remove and return the oldest ``max_batch_size`` pending tasks."""
        self._pending.sort(key=lambda t: (t.arrival_time, t.task.id))
        batch = self._pending[: self.max_batch_size]
        self._pending = self._pending[self.max_batch_size :]
        self._rescan()
        return batch

    def restore(self, open_tasks: list[OpenTask], now: float) -> None:
        """Return unassigned tasks to the buffer for the next flush.

        Their wait-trigger clocks restart at ``now`` so losers pace
        re-flushes instead of keeping the buffer permanently overdue.
        """
        for open_task in open_tasks:
            open_task.buffer_since = now
        self._pending.extend(open_tasks)
        self._track(open_tasks)

    # -- instance assembly -------------------------------------------------

    def build_instance(
        self,
        open_tasks: list[OpenTask],
        workers: list[Worker],
        tracker: WorkerBudgetTracker | None = None,
        seed: int | np.random.Generator | None = None,
        remaining: list[float] | None = None,
    ) -> ProblemInstance:
        """One flush's :class:`ProblemInstance`, budget-capped per worker.

        Reachability and distances come from the standard
        :meth:`ProblemInstance.build` path (exact radius predicate, pair
        cost proportional to the feasible pairs); each pair's sampled
        budget vector is then truncated so the sum of *all* retained
        elements across a worker's pairs is at most the worker's
        remaining shift budget.  Pairs left with no affordable element
        drop out of the worker's reachable set entirely.

        ``remaining`` is the workers' remaining budgets, index-aligned
        with ``workers``, when the caller has already read them this
        flush (the simulator reads each one once while picking the idle
        pool); otherwise they are read from ``tracker``.

        The truncation works on the instance's pair arrays directly: each
        pair's affordable prefix length falls out of its budget cumsum
        (``budget_prefix``) against the worker's running remainder, and
        the capped instance is re-assembled by slicing those arrays — no
        per-pair Python lists or dicts are rebuilt.  The resulting cap
        (worst-case flush spend per worker ≤ remaining shift budget) is
        asserted in one place before the instance is returned.

        ``tracker=None`` skips the capping — the path for non-private
        methods, which never publish and so never deplete a shift budget.
        """
        instance = ProblemInstance.build(
            [t.task for t in open_tasks],
            workers,
            budget_sampler=self.budget_sampler,
            model=self.model,
            seed=seed,
        )
        if tracker is None or instance.num_feasible_pairs == 0:
            return instance
        pairs = instance.pairs
        offsets = pairs.offsets
        prefix = pairs.budget_prefix
        budget_len = pairs.budget_len
        if remaining is None:
            remaining = [tracker.remaining(w.id) for w in workers]
        remaining0 = np.array(remaining, dtype=np.float64)

        # Affordable prefix length per pair: element u fits exactly when
        # the pair-local cumulative spend up to u stays within the
        # worker's running remainder (budgets are positive, so the cumsum
        # is monotone and the comparison yields a prefix).  Fast path
        # first: a worker whose *whole* sampled spend clearly fits the
        # remainder keeps every element — the steady-state case for fresh
        # shifts — which turns the per-pair Python scan into one array
        # comparison; workers anywhere *near* their cap walk the exact
        # sequential remainder loop.  "Clearly" carries a relative margin
        # that strictly dominates the summation's accumulated rounding
        # (its float arithmetic differs from the loop's sequential
        # subtractions), so the fast path can only ever fire where the
        # reference loop provably keeps everything — bit-identity is
        # one-sided by construction, never a rounding race.  The totals
        # are summed *per worker* (bincount), not as global-cumsum
        # differences: a local sum's error scales with the worker's own
        # total — which the margin dominates — not with the whole flush's
        # cumulative spend.
        keep_len = np.zeros(pairs.num_pairs, dtype=np.int64)
        pair_totals = prefix[np.arange(pairs.num_pairs), budget_len]
        worker_totals = np.bincount(
            pairs.worker, weights=pair_totals, minlength=len(workers)
        )
        fits = worker_totals + 1e-6 * (1.0 + worker_totals) <= remaining0
        if np.any(fits):
            unconstrained = np.repeat(fits, np.diff(offsets))
            keep_len[unconstrained] = budget_len[unconstrained]
        tight = np.flatnonzero(~fits & (offsets[1:] > offsets[:-1])).tolist()
        if tight:
            # The exact sequential remainder loop, on Python lists: the
            # count of prefix sums within the remainder is a bisection of
            # the monotone row.  A NaN remainder compares false against
            # every element (the array form kept nothing), which bisect
            # would read as "everything fits", so it keeps nothing here.
            bounds = offsets.tolist()
            lengths = budget_len.tolist()
            for j in tight:
                lo, hi = bounds[j], bounds[j + 1]
                left = float(remaining0[j])
                for p, row in enumerate(prefix[lo:hi].tolist(), lo):
                    limit = left + 1e-12
                    if limit != limit:
                        continue
                    k = bisect_right(row, limit, 1, lengths[p] + 1) - 1
                    keep_len[p] = k
                    if k:
                        left -= row[k]

        if np.array_equal(keep_len, budget_len):
            capped = instance
        else:
            capped = _slice_capped_instance(instance, keep_len)

        # The single home of the privacy-cap invariant: even if every
        # retained budget element of every pair is published this flush,
        # no worker can exceed their remaining shift budget.
        kept_total = prefix[np.arange(pairs.num_pairs), keep_len]
        cum = np.concatenate(([0.0], np.cumsum(kept_total)))
        per_worker = cum[offsets[1:]] - cum[offsets[:-1]]
        if not np.all(per_worker <= remaining0 + 1e-9):
            overdrawn = int(np.argmax(per_worker - remaining0))
            raise FlushBudgetError(
                f"flush cap violated for worker {workers[overdrawn].id}: "
                f"worst-case spend {per_worker[overdrawn]:.6f} exceeds "
                f"remaining budget {remaining0[overdrawn]:.6f}",
                worker_id=workers[overdrawn].id,
                spend=float(per_worker[overdrawn]),
                remaining=float(remaining0[overdrawn]),
            )
        return capped
