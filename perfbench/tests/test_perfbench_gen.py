"""The generators hold their counts and schedules fixed across seeds."""

from __future__ import annotations

import numpy as np

from perfbench import batch, fleet, gen, journal, replay


def test_schedule_is_exact_and_seed_free():
    times = gen.schedule(500, replay.TASK_RATE, replay.HORIZON)
    assert len(times) == 500
    assert np.all(np.diff(times) >= 0)
    assert 0.0 <= times[0] and times[-1] < replay.HORIZON
    assert np.array_equal(times, gen.schedule(500, replay.TASK_RATE, replay.HORIZON))


def test_schedule_follows_the_intensity():
    times = gen.schedule(2000, replay.TASK_RATE, replay.HORIZON)
    evening = np.sum((times > 70.0) & (times < 74.0))
    night = np.sum((times > 2.0) & (times < 6.0))
    assert evening > 20 * night


def kinds(records):
    return [r.kind for r in records]


def test_replay_days_differ_only_in_where_and_how_much():
    a, b = replay.Day(1000), replay.Day(2000)
    assert kinds(a.records) == kinds(b.records)
    assert [getattr(r, "at", None) for r in a.records] == [
        getattr(r, "at", None) for r in b.records
    ]
    assert len(a.truth.tasks) == len(b.truth.tasks) == replay.TASKS
    assert len(a.truth.workers) == replay.INITIAL_WORKERS + replay.LATE_WORKERS
    assert a.truth.tasks != b.truth.tasks
    assert [r.radius for r in a.records if r.kind == "submit_worker"] != [
        r.radius for r in b.records if r.kind == "submit_worker"
    ]


def test_replay_day_is_reproducible():
    a, b = replay.Day(7), replay.Day(7)
    assert a.records == b.records


def test_fleet_shapes_hold_their_counts():
    one, floods_one = fleet.build_shapes(1)
    two, floods_two = fleet.build_shapes(2)
    assert [s.requests for s in one] == [s.requests for s in two]
    assert [s.requests for s in floods_one] == [s.requests for s in floods_two]
    assert [k for k, _ in one[0].body] == [k for k, _ in two[0].body]
    assert one[0].body != two[0].body


def test_journal_streams_hold_their_counts():
    a, b = journal.Tenant("a", 1, 700), journal.Tenant("b", 2, 700)
    assert len(a.records) == len(b.records) == 701  # plus the Finish
    assert kinds(a.records) == kinds(b.records)
    assert a.records[1:] != b.records[1:]


def test_batch_inputs_hold_their_counts():
    a, b = batch.Inputs("chengdu", 1), batch.Inputs("chengdu", 2)
    assert len(a.tasks) == len(b.tasks) == batch.TASKS
    assert len(a.workers) == len(b.workers) == batch.WORKERS
    assert a.truth.tasks != b.truth.tasks
