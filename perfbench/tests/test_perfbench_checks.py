"""The output checks pass correct results and reject corrupted ones."""

from __future__ import annotations

import math

from perfbench import checks
from perfbench.gen import Truth

TASKS = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)}
WORKERS = {10: (0.5, 0.0, 1.0), 11: (0.0, 0.5, 1.0)}


def assignment(flush, task, worker, where):
    tx, ty = TASKS[task]
    wx, wy = where
    return (flush, task, worker, math.hypot(tx - wx, ty - wy), 1.0, 0.0)


def good() -> list[tuple]:
    # Worker 10 serves task 0 then (having moved to it) task 1 a flush later.
    return [
        assignment(0, 0, 10, (0.5, 0.0)),
        assignment(0, 2, 11, (0.0, 0.5)),
        assignment(1, 1, 10, (0.0, 0.0)),
    ]


def test_correct_assignments_pass():
    assert checks.assignments_valid("t", good(), TASKS, WORKERS) == []


def test_duplicated_assignment_is_rejected():
    corrupted = good() + [good()[1]]
    failures = checks.assignments_valid("t", corrupted, TASKS, WORKERS)
    assert any("assigned twice" in f for f in failures)


def test_worker_twice_in_one_flush_is_rejected():
    corrupted = [good()[0], assignment(0, 1, 10, (0.0, 0.0))]
    failures = checks.assignments_valid("t", corrupted, TASKS, WORKERS)
    assert any("worker 10 assigned twice in flush 0" in f for f in failures)


def test_pair_beyond_radius_is_rejected():
    far = {10: (5.0, 5.0, 1.0), 11: WORKERS[11]}
    corrupted = [assignment(0, 0, 10, (5.0, 5.0))]
    failures = checks.assignments_valid("t", corrupted, TASKS, far)
    assert any("beyond radius" in f for f in failures)


def test_misreported_distance_is_rejected():
    flush, task, worker, distance, utility, time = good()[0]
    corrupted = [(flush, task, worker, distance + 0.1, utility, time)]
    failures = checks.assignments_valid("t", corrupted, TASKS, WORKERS)
    assert any("reports distance" in f for f in failures)


def test_over_budget_worker_is_rejected():
    assert checks.budgets_within("t", {10: 4.0}, {10: 4.0}) == []
    failures = checks.budgets_within("t", {10: 4.5, 11: 1.0}, {10: 4.0, 11: 4.0})
    assert len(failures) == 1 and "worker 10" in failures[0]


def test_conservation():
    assert checks.conservation("t", 10, 6, 3, 1) == []
    assert checks.conservation("t", 10, 6, 3, 0) != []


def test_same_sequence_names_the_first_difference():
    assert checks.same_sequence("t", [1, 2, 3], [1, 2, 3]) == []
    assert "#1" in checks.same_sequence("t", [1, 5, 3], [1, 2, 3])[0]
    assert "lengths differ" in checks.same_sequence("t", [1, 2], [1, 2, 3])[0]


def test_batch_check_rejects_duplicates_and_far_pairs():
    truth = Truth()
    truth.tasks = dict(TASKS)
    truth.workers = dict(WORKERS)
    ok = [(0, 10, 0.5, 1.0), (2, 11, 0.5, 1.0)]
    assert checks.batch_valid("t", ok, truth) == []
    twice = ok + [(1, 10, math.hypot(0.5, 0.0), 1.0)]
    assert any("worker 10 matched twice" in f for f in checks.batch_valid("t", twice, truth))
    truth.workers[12] = (9.0, 9.0, 1.0)
    far = [(0, 12, math.hypot(9.0, 9.0), 1.0)]
    assert checks.batch_valid("t", far, truth) != []


def test_as_tuple_reads_records_and_wire_dicts():
    from repro.api.wire import AssignmentRecord, encode_record

    record = AssignmentRecord(
        time=1.0,
        flush_index=2,
        task_id=3,
        worker_id=4,
        distance=0.5,
        utility=2.0,
        latency=0.1,
        method="PUCE",
    )
    assert checks.as_tuple(record) == (2, 3, 4, 0.5, 2.0, 1.0)
    assert checks.as_tuple(encode_record(record)) == (2, 3, 4, 0.5, 2.0, 1.0)
