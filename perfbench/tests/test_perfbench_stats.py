"""The percentile rule, self time, late_over_early, ratios and spreads."""

from __future__ import annotations

import statistics

import pytest

from perfbench import stats


class TestPercentile:
    def test_interpolates_between_order_statistics(self):
        assert stats.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
        assert stats.percentile(range(101), 0.95) == 95.0

    def test_samples_beyond_counts_strictly_above(self):
        # 1000 samples 0..999: p95 sits at 949.05, and 50 lie above it.
        values = list(range(1000))
        assert stats.samples_beyond(1000, 0.95) == 50
        assert sum(v > stats.percentile(values, 0.95) for v in values) == 50
        assert stats.samples_beyond(1000, 0.5) == 500

    def test_round_percentile_is_the_median_of_per_round_values(self):
        rounds = [[float(i) for i in range(1001)], [10.0 * i for i in range(1001)]]
        rounds.append([5.0 * i for i in range(1001)])
        value, per_round, beyond = stats.round_percentile(rounds, 0.95)
        assert per_round == [950.0, 9500.0, 4750.0]
        assert value == 4750.0 and beyond == 3 * 50

    def test_round_percentile_needs_min_tail_beyond_over_all_rounds(self):
        # 20 samples beyond p95 per round of 401: enough only summed over
        # as many rounds as it takes to reach MIN_TAIL.
        need = -(-stats.MIN_TAIL // 20)
        one = [float(i) for i in range(401)]
        assert stats.round_percentile([one] * need, 0.95)[2] >= stats.MIN_TAIL
        with pytest.raises(stats.TooFewSamples):
            stats.round_percentile([one] * (need - 1), 0.95)
        with pytest.raises(stats.TooFewSamples):
            stats.round_percentile([one, []] * need, 0.95)
        with pytest.raises(stats.TooFewSamples):
            stats.round_percentile([], 0.5)

    def test_flagged_tail_keeps_its_quantile_and_flags_a_thin_tail(self):
        few = list(range(100))
        value, beyond, ok = stats.flagged_tail(few, 0.95)
        assert value == pytest.approx(94.05) and beyond == 5 and not ok
        many = list(range(20 * stats.MIN_TAIL + 1))
        value, beyond, ok = stats.flagged_tail(many, 0.95)
        assert value == stats.percentile(many, 0.95) and beyond == stats.MIN_TAIL and ok
        assert stats.flagged_tail([], 0.95) == (0.0, 0, False)


class TestPlacement:
    def test_quantile_inside_the_slow_population(self):
        fast = [1.0 + i * 1e-3 for i in range(900)]
        slow = [10.0 + i * 1e-2 for i in range(100)]
        where = stats.placement(fast + slow, ["fast"] * 900 + ["slow"] * 100, 0.95)
        assert where["population"] == "slow"
        assert where["share_below"] == pytest.approx(0.5, abs=0.02)
        assert where["beyond"] == 50
        assert where["beyond_by_population"] == {"slow": 50}

    def test_quantile_on_the_edge_of_a_population(self):
        fast = [1.0] * 950
        slow = [10.0] * 50
        where = stats.placement(fast + slow, ["fast"] * 950 + ["slow"] * 50, 0.95)
        assert where["population"] == "fast"
        assert where["share_below"] == 1.0

    def test_one_label_per_sample(self):
        with pytest.raises(ValueError):
            stats.placement([1.0, 2.0], ["a"], 0.5)


class TestSelfTime:
    def test_no_children(self):
        assert stats.self_time(0.0, 10.0, []) == 10.0

    def test_nested_children_subtract_once(self):
        # A grandchild lies inside its parent child: only the child counts.
        assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (6.0, 7.0)]) == 6.0

    def test_overlapping_children_are_not_counted_twice(self):
        assert stats.self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0)]) == 4.0

    def test_children_are_clipped_to_the_span(self):
        assert stats.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0

    def test_tracer_nesting_bills_children_to_their_parent(self):
        from perfbench.tracing import Tracer

        tracer = Tracer()
        outer = tracer.enter("outer")
        inner = tracer.enter("inner")
        leaf = tracer.enter("leaf")
        tracer.exit(leaf)
        tracer.exit(inner)
        tracer.exit(outer)
        by = tracer.by_name
        assert by["outer"].total >= by["inner"].total >= by["leaf"].total
        assert by["inner"].self_total == pytest.approx(
            by["inner"].total - by["leaf"].total, abs=1e-9
        )
        assert by["outer"].self_total == pytest.approx(
            by["outer"].total - by["inner"].total, abs=1e-9
        )
        # Parent links: leaf's parent is inner, inner's is outer.
        rows = {row[2]: row for row in tracer.log}  # name -> (id, parent, ...)
        assert rows["leaf"][1] == rows["inner"][0]
        assert rows["inner"][1] == rows["outer"][0]
        assert rows["outer"][1] == -1


class TestLateOverEarly:
    def test_growth_in_one_segment(self):
        # Cost grows linearly with time: the last tenth over the first.
        points = [(t, 1.0 + t) for t in range(100)]
        value, early, late = stats.late_over_early(points, [(0.0, 99.0)])
        assert early == 10 and late == 10
        assert value == pytest.approx((1.0 + 94.5) / (1.0 + 4.5))

    def test_flat_cost_reads_one(self):
        points = [(t, 2.0) for t in range(100)]
        assert stats.late_over_early(points, [(0.0, 99.0)])[0] == pytest.approx(1.0)

    def test_each_segment_has_its_own_tenths(self):
        # Two replayed days, each growing from 1 to 10.
        points = [(t, 1.0 + (t % 10)) for t in range(20)]
        value, early, late = stats.late_over_early(points, [(0.0, 9.0), (10.0, 19.0)])
        assert early == 2 and late == 2
        assert value == pytest.approx(10.0)

    def test_empty_tenth_reads_zero(self):
        assert stats.late_over_early([(5.0, 1.0)], [(0.0, 10.0)]) == (0.0, 0, 0)


class TestRatiosAndSpread:
    def test_ratio_refuses_an_empty_base(self):
        assert stats.ratio(3.0, 4.0, name="x") == 0.75
        with pytest.raises(ZeroDivisionError):
            stats.ratio(1.0, 0.0, name="x")

    def test_spread_uses_python_quartiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 11.5, 9.8]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert stats.spread(values) == pytest.approx((q3 - q1) / q2)

    def test_spread_needs_two_values(self):
        with pytest.raises(stats.TooFewSamples):
            stats.spread([1.0])


class TestEndToEndBases:
    def _outcome(self):
        from perfbench.harness import Outcome
        from perfbench.reference import NOMINAL_S

        out = Outcome()
        out.setup_seconds = [0.3, 0.1, 0.2]
        out.setup_probes = [NOMINAL_S] * 4
        out.probes = [NOMINAL_S] * 4
        # Three rounds of the same mix, 10% slow advances in each; the
        # last round runs at half speed.
        one = [0.001] * 1800 + [0.01] * 200
        out.latencies = one + one + [2 * x for x in one]
        out.kinds = (["submit"] * 1800 + ["advance"] * 200) * 3
        out.rounds = [(2.0, 2000, 100, 0), (1.0, 2000, 80, 2000), (4.0, 2000, 20, 4000)]
        out.tasks_decided = 200
        out.submits_offered, out.shed = 500, 50
        out.arrived, out.assigned = 250, 200
        out.utility, out.epsilon = 500.0, 100.0
        out.wall, out.cpu = 7.0, 6.0
        return out

    def test_every_metric_and_its_base(self):
        from perfbench.harness import END_TO_END, end_to_end

        metrics, bases = end_to_end(self._outcome(), steal=0.05)
        assert list(metrics) == [name for name, _ in END_TO_END]
        assert metrics["setup_s"] == 0.2
        # Medians over rounds: tasks 50, 80, 5 per s; requests 1000,
        # 2000, 500 per s; p50 1, 1, 2 ms; p95 10, 10, 20 ms.
        assert metrics["tasks_per_s"] == 50.0
        assert metrics["requests_per_s"] == 1000.0
        assert metrics["request_p50_ms"] == pytest.approx(1.0)
        assert metrics["admitted_ratio"] == 0.9
        assert metrics["assigned_ratio"] == 0.8
        assert metrics["utility_per_task"] == 2.0
        assert metrics["epsilon_per_assignment"] == 0.5
        assert metrics["request_p95_ms"] == pytest.approx(10.0)
        assert bases["admitted_ratio"]["submits_offered"] == 500
        assert bases["assigned_ratio"] == {
            "assigned": 200,
            "arrived": 250,
            "wall_s": 7.0,
            "cpu_s": 6.0,
            "steal_share": 0.05,
            "slowdown_median": 1.0,
        }
        assert bases["request_p95_ms"]["population"] == "advance"
        assert bases["tasks_per_s"]["rounds"] == 3
        assert bases["request_p95_ms"]["per_round"] == [10.0, 10.0, 20.0]
        assert bases["request_p95_ms"]["beyond"] == 3 * 100

    def test_timings_are_at_reference_speed(self):
        from perfbench.harness import end_to_end
        from perfbench.reference import NOMINAL_S

        out = self._outcome()
        # The machine ran twice as slow as nominal over the second round
        # (probes 1x before it, 3x after it) and 1.5x over every set-up.
        out.probes = [NOMINAL_S, NOMINAL_S, 3 * NOMINAL_S, 3 * NOMINAL_S]
        out.setup_probes = [1.5 * NOMINAL_S] * 4
        metrics, bases = end_to_end(out, steal=0.0)
        assert bases["tasks_per_s"]["slowdowns"] == [1.0, 2.0, 3.0]
        # tasks per round 100/2, 80/1 and 20/4 per wall second, times the
        # slowdowns 1, 2, 3: 50, 160, 15.
        assert bases["tasks_per_s"]["per_round"] == [50.0, 160.0, 15.0]
        assert metrics["tasks_per_s"] == 50.0
        assert bases["tasks_per_s"]["wall_median"] == 50.0
        # p95 per round 10, 10, 20 ms of wall time, over 1, 2, 3.
        assert bases["request_p95_ms"]["per_round"] == [10.0, 5.0, pytest.approx(6.6667)]
        assert metrics["request_p95_ms"] == pytest.approx(20.0 / 3)
        assert metrics["setup_s"] == pytest.approx(0.2 / 1.5)
        assert bases["setup_s"]["wall_median_s"] == 0.2

    def test_a_probe_missing_is_refused(self):
        from perfbench import stats
        from perfbench.harness import end_to_end

        out = self._outcome()
        out.probes.pop()
        with pytest.raises(stats.TooFewSamples):
            end_to_end(out, steal=0.0)


def test_layer_metrics_cover_every_per_layer_name():
    from perfbench.harness import Outcome
    from perfbench.tracing import PER_LAYER, Tracer, layer_metrics

    traced, untraced = Outcome(), Outcome()
    traced.wall, untraced.wall = 3.0, 2.0
    traced.segments = [(0.0, 3.0)]
    metrics, _ = layer_metrics(Tracer(), traced, untraced)
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["trace.overhead_ratio"] == 1.5
    assert metrics["trace.unattributed_ratio"] == 1.0  # no span covered anything
    assert metrics["engine.solves"] == 0.0


def test_task_factory_wraps_only_the_service_consumer():
    import asyncio

    from perfbench.tracing import Tracer, task_factory

    class Service:
        async def _consume(self):
            await asyncio.sleep(0)

    async def client():
        await asyncio.sleep(0)

    tracer = Tracer()
    tracer.activate()

    async def main():
        asyncio.get_running_loop().set_task_factory(task_factory(tracer))
        plain = asyncio.ensure_future(client())
        consumer = asyncio.ensure_future(Service()._consume())
        await asyncio.gather(plain, consumer)
        return plain

    try:
        plain = asyncio.run(main())
    finally:
        tracer.deactivate()
    assert plain.get_coro().__qualname__ == "test_task_factory_wraps_only_the_service_consumer.<locals>.client"
    assert tracer.by_name["service.consume"].count == 1
    assert set(tracer.by_name) == {"service.consume"}


def test_journal_bytes_are_the_files_sizes(tmp_path):
    from repro.service.journal import TenantJournal

    from perfbench.tracing import Tracer, install

    tracer = Tracer()
    hooks = install(tracer)
    tracer.activate()
    try:
        journal = TenantJournal(tmp_path, "t")
        for seq in range(1, 6):
            journal.append(seq, {"kind": "drain"})
        journal.sync()
        wal = journal.wal_path.stat().st_size
        journal.checkpoint()
        ckpt = journal.ckpt_path.stat().st_size
        journal.append(6, {"kind": "drain"})
        journal.sync()
        tail = journal.wal_path.stat().st_size
        journal.delete()
    finally:
        hooks.uninstall()
    assert wal > 0 and ckpt > 0 and tail > 0
    assert tracer.counters["journal.bytes"] == wal + ckpt + tail
    assert tracer.by_name["journal.append"].count == 6
    assert tracer.by_name["journal.checkpoint"].count == 1


def test_reference_unit_is_fixed_and_probe_restores_the_collector():
    import gc

    from perfbench import reference

    assert reference.unit() == reference.unit() > 0
    assert gc.isenabled()
    assert reference.probe() > 0
    assert gc.isenabled()
    assert reference.slowdown(reference.NOMINAL_S, 3 * reference.NOMINAL_S) == 2.0
