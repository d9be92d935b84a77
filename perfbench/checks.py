"""Output checks, run outside the timed window.

Each check returns a list of failure messages (empty = passed), so a run
reports every broken invariant at once and exits non-zero on any.
Assignments are compared as ``(flush_index, task_id, worker_id,
distance, utility, time)`` tuples whether they came over the wire or
from a direct session.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

#: Slack for float comparisons of distances and budget spends.
TOLERANCE = 1e-9


def as_tuple(assignment: Any) -> tuple:
    """One assignment (event, wire record or wire dict) as a tuple."""
    get = assignment.get if isinstance(assignment, Mapping) else lambda k: getattr(assignment, k)
    return (
        get("flush_index"),
        get("task_id"),
        get("worker_id"),
        get("distance"),
        get("utility"),
        get("time"),
    )


def conservation(label: str, arrived: int, assigned: int, expired: int, leftover: int) -> list[str]:
    """Every arrived task is assigned, expired or left over — once."""
    if arrived != assigned + expired + leftover:
        return [
            f"{label}: arrived {arrived} != assigned {assigned} + expired "
            f"{expired} + leftover {leftover}"
        ]
    return []


def assignments_valid(
    label: str,
    assignments: Sequence[tuple],
    tasks: Mapping[int, tuple[float, float]],
    workers: Mapping[int, tuple[float, float, float]],
) -> list[str]:
    """Each task assigned at most once, each worker at most once per
    flush, every pair within the worker's radius at the distance between
    the task and where the worker stood (a worker moves to each task it
    serves, the simulator's default).

    ``tasks`` maps id -> (x, y); ``workers`` maps id -> (x, y, radius).
    ``assignments`` must be in decision order.
    """
    failures: list[str] = []
    seen_tasks: set[int] = set()
    per_flush: set[tuple[int, int]] = set()
    where = {wid: (x, y) for wid, (x, y, _) in workers.items()}
    for flush, task_id, worker_id, distance, _utility, _time in assignments:
        if task_id in seen_tasks:
            failures.append(f"{label}: task {task_id} assigned twice")
        seen_tasks.add(task_id)
        if (flush, worker_id) in per_flush:
            failures.append(f"{label}: worker {worker_id} assigned twice in flush {flush}")
        per_flush.add((flush, worker_id))
        if task_id not in tasks or worker_id not in workers:
            failures.append(f"{label}: unknown pair ({task_id}, {worker_id})")
            continue
        radius = workers[worker_id][2]
        if distance > radius + TOLERANCE:
            failures.append(
                f"{label}: task {task_id} -> worker {worker_id} at {distance:.6f} "
                f"beyond radius {radius}"
            )
        tx, ty = tasks[task_id]
        wx, wy = where[worker_id]
        actual = math.hypot(tx - wx, ty - wy)
        if abs(actual - distance) > 1e-6:
            failures.append(
                f"{label}: task {task_id} -> worker {worker_id} reports distance "
                f"{distance:.6f}, positions give {actual:.6f}"
            )
        where[worker_id] = (tx, ty)
        if len(failures) > 20:
            break
    return failures


def budgets_within(
    label: str,
    spend: Mapping[int, float],
    capacity: Mapping[int, float],
) -> list[str]:
    """No worker spent more than their capacity."""
    return [
        f"{label}: worker {wid} spent {eps:.6f} of capacity {capacity.get(wid, math.inf)}"
        for wid, eps in spend.items()
        if eps > capacity.get(wid, math.inf) + TOLERANCE
    ][:20]


def same_sequence(label: str, got: Sequence[Any], want: Sequence[Any]) -> list[str]:
    """Two assignment lists are identical, element by element."""
    if list(got) == list(want):
        return []
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{label}: first difference at #{index}: {a} != {b}"]
    return [f"{label}: lengths differ, {len(got)} != {len(want)}"]



def batch_valid(label: str, matched: Sequence[tuple], truth: Any) -> list[str]:
    """One offline solve: each task and each worker matched at most once,
    every pair within the worker's radius at the true distance.

    ``matched`` holds ``(task_id, worker_id, distance, utility)`` tuples;
    ``truth`` has ``tasks`` (id -> (x, y)) and ``workers`` (id -> (x, y,
    radius)) like :class:`perfbench.gen.Truth`.
    """
    failures: list[str] = []
    tasks: set[int] = set()
    workers: set[int] = set()
    for task_id, worker_id, distance, _utility in matched:
        if task_id in tasks:
            failures.append(f"{label}: task {task_id} matched twice")
        if worker_id in workers:
            failures.append(f"{label}: worker {worker_id} matched twice")
        tasks.add(task_id)
        workers.add(worker_id)
        if task_id not in truth.tasks or worker_id not in truth.workers:
            failures.append(f"{label}: unknown pair ({task_id}, {worker_id})")
            continue
        tx, ty = truth.tasks[task_id]
        wx, wy, radius = truth.workers[worker_id]
        actual = math.hypot(tx - wx, ty - wy)
        if actual > radius + TOLERANCE or abs(actual - distance) > 1e-6:
            failures.append(
                f"{label}: task {task_id} -> worker {worker_id} at {distance:.6f} "
                f"(positions give {actual:.6f}, radius {radius})"
            )
        if len(failures) > 20:
            break
    return failures
