"""Property-based tests for instance construction (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budgets import BudgetSampler
from repro.datasets.workload import Task, Worker
from repro.simulation.instance import ProblemInstance
from repro.spatial.geometry import Point, euclidean
from tests.conftest import build_instance

coords = st.floats(-8.0, 8.0, allow_nan=False)
values = st.floats(0.1, 10.0, allow_nan=False)
radii = st.floats(0.0, 10.0, allow_nan=False)

task_lists = st.lists(st.tuples(coords, coords, values), min_size=0, max_size=8)
worker_lists = st.lists(st.tuples(coords, coords, radii), min_size=0, max_size=8)


class TestInstanceProperties:
    @settings(max_examples=60, deadline=None)
    @given(tasks=task_lists, workers=worker_lists)
    def test_reachability_is_exactly_the_radius_predicate(self, tasks, workers):
        instance = build_instance(tasks, workers, seed=0)
        for j, worker in enumerate(instance.workers):
            reachable = set(instance.reachable[j])
            for i, task in enumerate(instance.tasks):
                in_range = euclidean(worker.location, task.location) <= worker.radius
                assert (i in reachable) == in_range

    @settings(max_examples=60, deadline=None)
    @given(tasks=task_lists, workers=worker_lists)
    def test_distances_match_geometry(self, tasks, workers):
        instance = build_instance(tasks, workers, seed=0)
        for (i, j), distance in instance.distances.items():
            expected = euclidean(
                instance.workers[j].location, instance.tasks[i].location
            )
            assert distance == expected

    @settings(max_examples=60, deadline=None)
    @given(tasks=task_lists, workers=worker_lists, seed=st.integers(0, 50))
    def test_every_feasible_pair_has_budget_vector(self, tasks, workers, seed):
        instance = build_instance(tasks, workers, seed=seed)
        assert set(instance.budgets) == set(instance.distances)
        for vector in instance.budgets.values():
            assert len(vector) == 7  # Table X group size default
            assert all(0.5 <= e <= 1.75 for e in vector.epsilons)

    @settings(max_examples=40, deadline=None)
    @given(tasks=task_lists, workers=worker_lists)
    def test_candidates_inverse_of_reachable(self, tasks, workers):
        instance = build_instance(tasks, workers, seed=0)
        pairs_via_reachable = {
            (i, j) for j, row in enumerate(instance.reachable) for i in row
        }
        pairs_via_candidates = {
            (i, j) for i, row in enumerate(instance.candidates) for j in row
        }
        assert pairs_via_reachable == pairs_via_candidates

    @settings(max_examples=40, deadline=None)
    @given(tasks=task_lists, workers=worker_lists)
    def test_base_utility_consistent_with_model(self, tasks, workers):
        instance = build_instance(tasks, workers, seed=0)
        for (i, j) in instance.feasible_pairs():
            expected = instance.tasks[i].value - instance.model.f_d(
                instance.distance(i, j)
            )
            assert instance.base_utility(i, j) == expected


# -- reachability against a pure-Python full-scan oracle --------------------
#
# The small-coordinate strategies above stay far below
# BRUTE_FORCE_PAIR_LIMIT, so they only ever reach the scan.  These draw
# sizes on both sides of it (and block sizes below the instance size, so
# the vectorised superset test runs over several worker blocks) and mix
# in points that sit exactly on, or one ulp either side of, a radius;
# coincident points with radius 0; offsets near 1e-310 and offsets whose
# squares are denormal; coordinates near 1e150 and 1e154 (whose squares
# overflow); and infinite radii.


def _oracle(tasks, workers, seed):
    """Reachability, distances and budget matrix by a pure-Python scan."""
    reachable, distances = [], []
    for worker in workers:
        wx, wy = float(worker.location[0]), float(worker.location[1])
        row = []
        for i, task in enumerate(tasks):
            d = math.hypot(wx - float(task.location[0]), wy - float(task.location[1]))
            if d <= worker.radius:
                row.append(i)
                distances.append(d)
        reachable.append(tuple(row))
    budgets = BudgetSampler().sample_matrix(np.random.default_rng(seed), len(distances))
    return tuple(reachable), distances, budgets


def _assert_matches_oracle(instance, tasks, workers, seed):
    reachable, distances, budgets = _oracle(tasks, workers, seed)
    assert instance.reachable == reachable
    assert instance.pairs.distance.tobytes() == np.asarray(distances, dtype=np.float64).tobytes()
    if distances:
        assert instance.pairs.budget_matrix.tobytes() == budgets.tobytes()
    else:
        assert instance.num_feasible_pairs == 0


def _variant(limit, cells):
    """ProblemInstance with its scan limit and block size replaced."""
    return type(
        "Variant",
        (ProblemInstance,),
        {"BRUTE_FORCE_PAIR_LIMIT": limit, "REACH_BLOCK_CELLS": cells},
    )


# 1e-161: squares are denormal and round coarsely; 1e-310: the offsets
# themselves are denormal; 1e154: squares overflow to inf.
_SCALES = st.sampled_from([1.0, 1e-161, 1e-310, 1e150, 1e154])


@st.composite
def _adversarial(draw):
    scale = draw(_SCALES)
    unit = st.integers(-6, 6).map(lambda k: k * scale)
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 40))
    task_xy = [(draw(unit), draw(unit)) for _ in range(m)]
    tasks = [Task(id=i, location=Point(x, y), value=1.0) for i, (x, y) in enumerate(task_xy)]
    workers = []
    for j in range(n):
        kind = draw(st.sampled_from(["free", "on", "inside", "outside", "345", "zero", "inf"]))
        wx, wy = draw(unit), draw(unit)
        tx, ty = task_xy[draw(st.integers(0, m - 1))]
        on = math.hypot(wx - tx, wy - ty)
        if kind == "free":
            radius = draw(st.integers(0, 8)) * scale
        elif kind == "on":
            radius = on
        elif kind == "inside":
            radius = np.nextafter(on, math.inf)
        elif kind == "outside":
            radius = np.nextafter(on, 0.0)
        elif kind == "345":
            # A 3-4-5 triangle: the task sits exactly on the radius.
            k = draw(st.integers(1, 3)) * scale
            tasks.append(Task(id=len(tasks), location=Point(wx + 3 * k, wy - 4 * k), value=1.0))
            radius = 5 * k
        elif kind == "zero":
            # A coincident task at radius 0, and one a denormal away.
            tasks.append(Task(id=len(tasks), location=Point(wx, wy), value=1.0))
            tasks.append(
                Task(id=len(tasks), location=Point(np.nextafter(wx, math.inf), wy), value=1.0)
            )
            radius = 0.0
        else:
            radius = math.inf
        workers.append(Worker(id=j, location=Point(wx, wy), radius=float(radius)))
    return tasks, workers


class TestReachabilityOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        case=_adversarial(),
        # 0 sends every instance down the vectorised path.
        limit=st.sampled_from([0, ProblemInstance.BRUTE_FORCE_PAIR_LIMIT]),
        cells=st.integers(1, 400),
        seed=st.integers(0, 2**16),
    )
    def test_both_paths_match_the_full_scan(self, case, limit, cells, seed):
        tasks, workers = case
        instance = _variant(limit, cells).build(tasks, workers, seed=seed)
        _assert_matches_oracle(instance, tasks, workers, seed)

    def test_sizes_straddle_the_scan_limit(self):
        limit = ProblemInstance.BRUTE_FORCE_PAIR_LIMIT
        rng = np.random.default_rng(5)
        for m, n in [(1, limit), (1, limit + 1), (16, 16), (17, 16), (limit + 1, 1)]:
            tasks = [
                Task(id=i, location=Point(*rng.normal(0.0, 3.0, 2)), value=1.0)
                for i in range(m)
            ]
            workers = [
                Worker(id=j, location=Point(*rng.normal(0.0, 3.0, 2)), radius=2.0)
                for j in range(n)
            ]
            instance = ProblemInstance.build(tasks, workers, seed=m * n)
            _assert_matches_oracle(instance, tasks, workers, m * n)

    def test_instance_larger_than_one_block(self):
        """The real block size, on an instance spanning several blocks."""
        rng = np.random.default_rng(11)
        side = math.isqrt(ProblemInstance.REACH_BLOCK_CELLS) + 40
        tasks = [
            Task(id=i, location=Point(*rng.normal(0.0, 10.0, 2)), value=1.0)
            for i in range(side)
        ]
        workers = [
            Worker(id=j, location=Point(*rng.normal(0.0, 10.0, 2)), radius=float(r))
            for j, r in enumerate(rng.uniform(0.0, 4.0, side))
        ]
        assert side * side > ProblemInstance.REACH_BLOCK_CELLS
        instance = ProblemInstance.build(tasks, workers, seed=3)
        _assert_matches_oracle(instance, tasks, workers, 3)
