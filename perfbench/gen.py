"""Fixed-count input generators shared by the workloads.

The workload seed moves locations, task values, worker radii and the
program's noise seed.  It never moves how many tasks, workers, tenants or
records a workload holds, nor when they arrive: arrival times come from a
fixed schedule (:func:`schedule`), so every seed sends the same number of
requests and the flushes fall due at the same instants.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: Task value range (the paper's Table X default 4.5 sits in the middle).
VALUE_RANGE = (4.0, 5.0)
#: Worker service radius range (Table X default 1.4 in the middle).
RADIUS_RANGE = (1.2, 1.6)


def schedule(count: int, rate: Callable[[np.ndarray], np.ndarray], horizon: float) -> np.ndarray:
    """``count`` arrival times on ``[0, horizon)`` that follow ``rate``.

    Arrival ``k`` sits at the ``(k + 0.5) / count`` quantile of the
    cumulative intensity, so the count is exact and the times depend on
    nothing random: a deterministic stand-in for a Poisson process with
    that intensity.
    """
    grid = np.linspace(0.0, horizon, 20_001)
    mid = 0.5 * (grid[1:] + grid[:-1])
    mass = np.concatenate([[0.0], np.cumsum(rate(mid) * np.diff(grid))])
    targets = (np.arange(count) + 0.5) / count * mass[-1]
    return np.interp(targets, mass, grid)


def rush_hour(base: float, peaks: tuple[tuple[float, float, float], ...]):
    """Intensity ``base + sum(height * exp(-((t - at) / width)**2 / 2))``."""

    def rate(t: np.ndarray) -> np.ndarray:
        out = np.full_like(t, base, dtype=float)
        for at, width, height in peaks:
            out += height * np.exp(-0.5 * ((t - at) / width) ** 2)
        return out

    return rate


def spatial(dataset: str, num_tasks: int, num_workers: int, seed: int):
    """The paper's location law for a population of this size."""
    from repro.experiments.sweeps import make_generator

    return make_generator(dataset, num_tasks, num_workers, seed)


class Draws:
    """Seeded per-entity draws: locations, values, radii."""

    def __init__(self, seed: int, law):
        self.rng = np.random.default_rng(seed)
        self.law = law

    def task_points(self, count: int) -> np.ndarray:
        return self.law.sample_task_locations(self.rng, count)

    def worker_points(self, count: int) -> np.ndarray:
        return self.law.sample_worker_locations(self.rng, count)

    def values(self, count: int) -> np.ndarray:
        return self.rng.uniform(*VALUE_RANGE, size=count)

    def radii(self, count: int) -> np.ndarray:
        return self.rng.uniform(*RADIUS_RANGE, size=count)


class Truth:
    """Ground truth the output checks need: where each task and worker is."""

    def __init__(self) -> None:
        #: task id -> (x, y)
        self.tasks: dict[int, tuple[float, float]] = {}
        #: worker id -> (x, y, radius)
        self.workers: dict[int, tuple[float, float, float]] = {}
        #: worker id -> shift budget capacity
        self.budgets: dict[int, float] = {}


def task_records(truth: Truth, draws: Draws, times, first_id: int, patience: float):
    """``SubmitTask`` records for tasks released at ``times``."""
    from repro.api.wire import SubmitTask

    points = draws.task_points(len(times))
    values = draws.values(len(times))
    records = []
    for k, (t, (x, y), v) in enumerate(zip(times, points, values)):
        task_id = first_id + k
        truth.tasks[task_id] = (float(x), float(y))
        records.append(
            SubmitTask(
                task_id=task_id,
                x=float(x),
                y=float(y),
                value=float(v),
                at=float(t),
                deadline=float(t) + patience,
                release_time=float(t),
            )
        )
    return records


def worker_records(truth: Truth, draws: Draws, times, first_id: int, budget: float):
    """``SubmitWorker`` records for workers coming on duty at ``times``."""
    from repro.api.wire import SubmitWorker

    points = draws.worker_points(len(times))
    radii = draws.radii(len(times))
    records = []
    for k, (t, (x, y), r) in enumerate(zip(times, points, radii)):
        worker_id = first_id + k
        truth.workers[worker_id] = (float(x), float(y), float(r))
        truth.budgets[worker_id] = budget
        records.append(
            SubmitWorker(
                worker_id=worker_id,
                x=float(x),
                y=float(y),
                radius=float(r),
                at=float(t),
                budget=None if math.isinf(budget) else budget,
            )
        )
    return records
