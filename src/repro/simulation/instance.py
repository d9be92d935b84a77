"""The PA-TA problem instance (Definition 5).

A :class:`ProblemInstance` freezes everything that is *given* before any
algorithm runs: the task and worker populations, the utility model
(``f_d``, ``f_p``), the reachability sets ``R_j`` (tasks inside each
worker's service circle), the true distances of the feasible pairs, and
each pair's privacy budget vector ``eps_ij``.

Storage is struct-of-arrays (:class:`~repro.simulation.pairs.PairArrays`):
the feasible pairs live in CSR-by-worker index arrays with flat distance /
budget / value columns, which is what the vectorized proposal sweeps in
:mod:`repro.core.sweep` operate on directly.  The historical dict-shaped
accessors (``distances``, ``budgets``, ``distance()``, ``budget_vector()``,
``feasible_pairs()``) are kept as thin views over the arrays so existing
call sites keep working.

Real distances are private inputs: solvers only hand them to the
worker-local side of the computation (noise draws and PPCF gates), never
to the server model.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.budgets import BudgetSampler, BudgetVector
from repro.core.utility import UtilityModel
from repro.errors import InvalidInstanceError
from repro.datasets.workload import Batch, Task, Worker
from repro.simulation.pairs import PairArrays
from repro.utils.rng import ensure_rng

__all__ = ["ProblemInstance"]


class ProblemInstance:
    """Immutable PA-TA instance over index-aligned tasks and workers.

    Algorithms address tasks and workers by position (``0..m-1`` /
    ``0..n-1``); public identifiers live on the :class:`Task` and
    :class:`Worker` records.  Construction is via :meth:`build` (exact
    radius reachability + sampled budgets), :meth:`from_arrays` (the streaming
    fast path), or the legacy dict-keyed constructor used by tests and
    worked examples.
    """

    __slots__ = (
        "tasks",
        "workers",
        "model",
        "reachable",
        "pairs",
        "_candidates",
        "_pair_index",
        "_distances",
        "_budgets",
    )

    def __init__(
        self,
        tasks: Sequence[Task],
        workers: Sequence[Worker],
        model: UtilityModel,
        reachable: Sequence[Sequence[int]],
        distances: Mapping[tuple[int, int], float] | None = None,
        budgets: Mapping[tuple[int, int], BudgetVector] | None = None,
        *,
        pairs: PairArrays | None = None,
    ):
        self.tasks = tuple(tasks)
        self.workers = tuple(workers)
        self.model = model
        self.reachable = tuple(map(tuple, reachable))
        if len(self.reachable) != len(self.workers):
            raise InvalidInstanceError(
                f"reachable has {len(self.reachable)} entries for "
                f"{len(self.workers)} workers"
            )
        if pairs is None:
            if distances is None or budgets is None:
                raise InvalidInstanceError(
                    "need either pair arrays or distance/budget mappings"
                )
            pairs = self._pairs_from_mappings(distances, budgets)
        # The dict views are always rebuilt lazily from the arrays —
        # never the caller's mappings verbatim — so view iteration order
        # (CSR) and membership (exactly the feasible pairs) hold for
        # every constructor; entries for pairs outside ``reachable`` are
        # dropped.  Like them, ``candidates`` and the pair-index table
        # are lazy: the vectorized flush hot path never touches either,
        # and building them eagerly cost O(P) Python work per micro-flush.
        self._distances = None
        self._budgets = None
        self._candidates = None
        self._pair_index = None
        self.pairs = pairs

    def _pairs_from_mappings(
        self,
        distances: Mapping[tuple[int, int], float],
        budgets: Mapping[tuple[int, int], BudgetVector],
    ) -> PairArrays:
        """Validate the legacy dict form and pack it into CSR arrays."""
        distance_rows: list[list[float]] = []
        budget_rows: list[list[tuple[float, ...]]] = []
        for j, tasks_in_range in enumerate(self.reachable):
            d_row: list[float] = []
            b_row: list[tuple[float, ...]] = []
            for i in tasks_in_range:
                if not 0 <= i < len(self.tasks):
                    raise InvalidInstanceError(
                        f"worker {j} reaches unknown task index {i}"
                    )
                if (i, j) not in distances:
                    raise InvalidInstanceError(
                        f"feasible pair ({i}, {j}) has no distance"
                    )
                if (i, j) not in budgets:
                    raise InvalidInstanceError(
                        f"feasible pair ({i}, {j}) has no budget vector"
                    )
                d_row.append(float(distances[(i, j)]))
                b_row.append(tuple(budgets[(i, j)].epsilons))
            distance_rows.append(d_row)
            budget_rows.append(b_row)
        return PairArrays.from_rows(
            self.reachable,
            distance_rows,
            budget_rows,
            [t.value for t in self.tasks],
        )

    # -- construction --------------------------------------------------

    #: Up to this many ``tasks * workers``, :meth:`build` scans the task
    #: coordinates pair by pair in Python; above it, one numpy superset
    #: test per worker block narrows the exact ``math.hypot`` predicate to
    #: the survivors.  Both paths yield bit-identical reachability and
    #: distances.  The value is the measured crossover of the two: the
    #: scan costs about 0.3-0.5 us a pair, the vectorised path about
    #: 55 us of fixed numpy work, and they meet between 128 and 256 pairs
    #: (2-core x86 VM, Python 3.11, numpy 2.4).  A handful of tasks over
    #: a few dozen idle workers stays on the scan.
    BRUTE_FORCE_PAIR_LIMIT = 256

    #: Cells (``tasks * workers``) the vectorised superset test holds in
    #: memory at once: paper-size 1000 x 5000 builds run in blocks of
    #: workers instead of materialising 5M-cell temporaries.
    REACH_BLOCK_CELLS = 1 << 16

    @classmethod
    def build(
        cls,
        tasks: Sequence[Task],
        workers: Sequence[Worker],
        budget_sampler: BudgetSampler | None = None,
        model: UtilityModel | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> "ProblemInstance":
        """Materialise reachability, distances and budget vectors.

        ``seed`` drives only the budget-vector draws; distances are exact.
        Budget vectors are drawn in one batched ``uniform`` call covering
        every pair, which consumes the generator stream exactly as the
        historical per-worker (and before that, pair-at-a-time) sampling
        did — worker-major, reachable order.  Pair arrays are assembled
        directly (no per-pair row loop).

        Reachability is the exact ``math.hypot(wx - tx, wy - ty) <=
        radius`` predicate, whose value doubles as the pair's distance.
        Micro instances (``tasks * workers <= BRUTE_FORCE_PAIR_LIMIT``)
        evaluate it for every pair in a Python scan; larger ones first
        keep, per block of workers, the pairs whose squared distance
        passes a slightly widened bound (a strict superset of the exact
        predicate, see :func:`_reach_vectorised`) and evaluate ``hypot``
        on those survivors only, so the cost follows the feasible pairs
        rather than the ``tasks * workers`` grid.
        """
        rng = ensure_rng(seed)
        sampler = budget_sampler or BudgetSampler()
        utility_model = model or UtilityModel()
        tasks = tuple(tasks)
        workers = tuple(workers)
        _check_unique_ids(tasks, workers)

        if not tasks:
            counts = np.zeros(len(workers), dtype=np.int64)
            task_index = np.zeros(0, dtype=np.int64)
            distance = np.zeros(0, dtype=np.float64)
        elif len(tasks) * len(workers) <= cls.BRUTE_FORCE_PAIR_LIMIT:
            counts, task_index, distance = _reach_scan(tasks, workers)
        else:
            counts, task_index, distance = _reach_vectorised(
                tasks, workers, cls.REACH_BLOCK_CELLS
            )

        offsets = np.zeros(len(workers) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        # Most idle workers of a flush reach nothing: share one empty
        # tuple and slice rows only for the workers that have pairs.
        bounds = offsets.tolist()
        task_list = task_index.tolist()
        reachable: list[tuple[int, ...]] = [()] * len(workers)
        for j in np.flatnonzero(counts).tolist():
            reachable[j] = tuple(task_list[bounds[j] : bounds[j + 1]])
        # One batched draw for every pair's budget vector: numpy fills
        # row-major, so the stream order equals the historical per-worker
        # sample_matrix calls (worker-major, reachable order).
        budget_matrix = sampler.sample_matrix(rng, total)
        if total == 0:
            budget_matrix = budget_matrix.reshape(0, 1)
        pairs = PairArrays(
            offsets=offsets,
            task=task_index,
            worker=np.repeat(np.arange(len(workers), dtype=np.int64), counts),
            distance=distance,
            budget_matrix=budget_matrix,
            budget_len=np.full(total, budget_matrix.shape[1], dtype=np.int64),
            task_value=np.asarray([t.value for t in tasks], dtype=np.float64),
        )
        return cls(
            tasks=tasks,
            workers=workers,
            model=utility_model,
            reachable=reachable,
            pairs=pairs,
        )

    @classmethod
    def from_arrays(
        cls,
        tasks: Sequence[Task],
        workers: Sequence[Worker],
        model: UtilityModel,
        reachable: Sequence[Sequence[int]],
        pairs: PairArrays,
    ) -> "ProblemInstance":
        """Wrap pre-assembled pair arrays (the streaming fast path)."""
        return cls(tasks=tasks, workers=workers, model=model, reachable=reachable, pairs=pairs)

    @classmethod
    def from_batch(
        cls,
        batch: Batch,
        budget_sampler: BudgetSampler | None = None,
        model: UtilityModel | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> "ProblemInstance":
        """Build an instance from one workload batch."""
        return cls.build(batch.tasks, batch.workers, budget_sampler, model, seed)

    # -- dict-shaped compatibility views --------------------------------

    @property
    def candidates(self) -> tuple[tuple[int, ...], ...]:
        """Per-task candidate workers (lazy view over the pair arrays)."""
        if self._candidates is None:
            per_task: list[list[int]] = [[] for _ in self.tasks]
            pairs = self.pairs
            for i, j in zip(pairs.task.tolist(), pairs.worker.tolist()):
                per_task[i].append(j)
            self._candidates = tuple(tuple(c) for c in per_task)
        return self._candidates

    def _pair_table(self) -> dict[tuple[int, int], int]:
        """The lazily built ``(task, worker) -> flat pair`` table."""
        if self._pair_index is None:
            pairs = self.pairs
            self._pair_index = {
                (i, j): p
                for p, (i, j) in enumerate(
                    zip(pairs.task.tolist(), pairs.worker.tolist())
                )
            }
        return self._pair_index

    @property
    def distances(self) -> dict[tuple[int, int], float]:
        """``{(task_index, worker_index): distance}`` view of the arrays."""
        if self._distances is None:
            self._distances = {
                (i, j): d
                for (i, j), d in zip(
                    self._pair_table(), self.pairs.distance.tolist()
                )
            }
        return self._distances

    @property
    def budgets(self) -> dict[tuple[int, int], BudgetVector]:
        """``{(task_index, worker_index): BudgetVector}`` view of the arrays."""
        if self._budgets is None:
            pairs = self.pairs
            self._budgets = {
                (i, j): pairs.budget_vector(p)
                for p, (i, j) in enumerate(self._pair_table())
            }
        return self._budgets

    def pair_index(self, task_index: int, worker_index: int) -> int:
        """Flat index of a feasible pair in the CSR arrays.

        Raises
        ------
        InvalidInstanceError
            If the pair is infeasible (outside the worker's service area).
        """
        try:
            return self._pair_table()[(task_index, worker_index)]
        except KeyError:
            raise InvalidInstanceError(
                f"pair (task {task_index}, worker {worker_index}) is not feasible"
            ) from None

    # -- queries ---------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def num_feasible_pairs(self) -> int:
        return self.pairs.num_pairs

    def feasible_pairs(self) -> Iterator[tuple[int, int]]:
        """All ``(task_index, worker_index)`` pairs, CSR (worker-major) order."""
        return iter(self._pair_table())

    def distance(self, task_index: int, worker_index: int) -> float:
        """True distance of a feasible pair.

        Served from the (lazily materialised) dict view: the scalar sweep
        probes distances pair-at-a-time, and a plain dict hit beats array
        indexing for that access pattern.

        Raises
        ------
        InvalidInstanceError
            If the pair is infeasible (outside the worker's service area).
        """
        table = self._distances
        if table is None:
            table = self.distances
        try:
            return table[(task_index, worker_index)]
        except KeyError:
            raise InvalidInstanceError(
                f"pair (task {task_index}, worker {worker_index}) is not feasible"
            ) from None

    def budget_vector(self, task_index: int, worker_index: int) -> BudgetVector:
        """The privacy budget vector ``eps_ij`` of a feasible pair."""
        table = self._budgets
        if table is None:
            table = self.budgets
        try:
            return table[(task_index, worker_index)]
        except KeyError:
            raise InvalidInstanceError(
                f"pair (task {task_index}, worker {worker_index}) is not feasible"
            ) from None

    def base_utility(self, task_index: int, worker_index: int) -> float:
        """``v_i - f_d(d_ij)``: utility before any privacy cost."""
        task = self.tasks[task_index]
        return self.model.utility(task.value, self.distance(task_index, worker_index))

    def mean_tasks_per_worker(self) -> float:
        """Average ``|R_j|`` — the density statistic driving Figures 7/8."""
        if not self.workers:
            return 0.0
        return sum(len(r) for r in self.reachable) / len(self.workers)

    # -- equality ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return (
            self.tasks == other.tasks
            and self.workers == other.workers
            and self.model == other.model
            and self.reachable == other.reachable
            and np.array_equal(self.pairs.task, other.pairs.task)
            and np.array_equal(self.pairs.worker, other.pairs.worker)
            and np.array_equal(self.pairs.distance, other.pairs.distance)
            and np.array_equal(self.pairs.budget_len, other.pairs.budget_len)
            and _padded_equal(self.pairs.budget_matrix, other.pairs.budget_matrix)
        )

    def __repr__(self) -> str:
        return (
            f"ProblemInstance({self.num_tasks} tasks, {self.num_workers} workers, "
            f"{self.num_feasible_pairs} feasible pairs)"
        )


def _padded_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Budget matrices compare equal up to trailing zero padding."""
    width = max(a.shape[1], b.shape[1])
    if a.shape[1] != width:
        a = np.pad(a, ((0, 0), (0, width - a.shape[1])))
    if b.shape[1] != width:
        b = np.pad(b, ((0, 0), (0, width - b.shape[1])))
    return np.array_equal(a, b)


def _reach_scan(
    tasks: tuple[Task, ...], workers: tuple[Worker, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-worker pair counts, task indices and distances by a full scan.

    One exact ``math.hypot`` per pair serves as both the radius predicate
    and the distance; task order is naturally ascending.
    """
    coordinates = [(float(t.location[0]), float(t.location[1])) for t in tasks]
    counts: list[int] = []
    task_index: list[int] = []
    distance: list[float] = []
    for worker in workers:
        wx = float(worker.location[0])
        wy = float(worker.location[1])
        radius = worker.radius
        before = len(task_index)
        for i, (tx, ty) in enumerate(coordinates):
            d = math.hypot(wx - tx, wy - ty)
            if d <= radius:
                task_index.append(i)
                distance.append(d)
        counts.append(len(task_index) - before)
    return (
        np.asarray(counts, dtype=np.int64),
        np.asarray(task_index, dtype=np.int64),
        np.asarray(distance, dtype=np.float64),
    )


def _reach_vectorised(
    tasks: tuple[Task, ...], workers: tuple[Worker, ...], block_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_reach_scan`'s result from a numpy superset test.

    Per block of at most ``block_cells`` (worker, task) cells, a pair
    survives unless its squared distance exceeds ``r * r * (1 + 1e-9) +
    1e-300``.  That bound is a strict superset of ``hypot <= r``: the
    relative margin dominates the few ulps of rounding in the squares
    and their sum, the absolute floor covers squares of denormal offsets
    that underflow to zero, an overflowing square can only exceed a
    finite bound when the offset itself exceeds the radius, and a NaN
    square (infinite coordinates) survives to the exact test.  The exact
    ``math.hypot(wx - tx, wy - ty) <= radius`` then runs on the
    survivors only; numpy's float64 subtraction is the same IEEE
    operation as Python's, so every distance is bit-identical to the
    scan's.  Flat cell numbers of row-major blocks come out in
    worker-major, ascending-task order.
    """
    m, n = len(tasks), len(workers)
    tx, ty = _coordinates(tasks)
    wx, wy = _coordinates(workers)
    radius = np.fromiter([w.radius for w in workers], dtype=np.float64, count=n)
    with np.errstate(over="ignore"):
        bound = radius * radius * (1.0 + 1e-9) + 1e-300
    step = max(1, block_cells // m)
    cells: list[np.ndarray] = []
    # Overflowing squares and inf - inf offsets are part of the contract
    # above, not accidents to warn about.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            dx = wx[lo:hi, None] - tx
            dy = wy[lo:hi, None] - ty
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            dx += dy
            # Flat row-major cell numbers, offset to the whole instance.
            cells.append(np.flatnonzero(~(dx > bound[lo:hi, None])) + lo * m)
    worker, task_index = np.divmod(np.concatenate(cells), m)
    distance = np.fromiter(
        map(
            math.hypot,
            (wx[worker] - tx[task_index]).tolist(),
            (wy[worker] - ty[task_index]).tolist(),
        ),
        dtype=np.float64,
        count=len(worker),
    )
    keep = distance <= radius[worker]
    if not keep.all():
        worker = worker[keep]
        task_index = task_index[keep]
        distance = distance[keep]
    counts = np.bincount(worker, minlength=n).astype(np.int64, copy=False)
    return counts, task_index.astype(np.int64, copy=False), distance


def _coordinates(agents: tuple[Task, ...] | tuple[Worker, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The agents' x and y coordinates as float64 arrays."""
    xy = np.fromiter(
        itertools.chain.from_iterable([a.location for a in agents]),
        dtype=np.float64,
        count=2 * len(agents),
    )
    return xy[0::2].copy(), xy[1::2].copy()


def _check_unique_ids(tasks: tuple[Task, ...], workers: tuple[Worker, ...]) -> None:
    task_ids = {t.id for t in tasks}
    if len(task_ids) != len(tasks):
        raise InvalidInstanceError("task ids must be unique")
    worker_ids = {w.id for w in workers}
    if len(worker_ids) != len(workers):
        raise InvalidInstanceError("worker ids must be unique")
