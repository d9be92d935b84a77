"""What every workload returns, and the end-to-end metrics made from it.

Every timing is reported at reference speed (:mod:`perfbench.reference`):
the timed phase probes the machine before its first round and after
each round, set-up before each sample and after the last, and a round's
or a sample's wall time is divided by how much slower than nominal the
machine ran over it.  The raw wall figures stay in the bases.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench import reference, stats

#: Every end-to-end metric, in print order, with its unit.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tasks_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("admitted_ratio", "ratio"),
    ("assigned_ratio", "ratio"),
    ("utility_per_task", "utility"),
    ("epsilon_per_assignment", "epsilon"),
]

#: The tail percentile every request timing reports.
TAIL_Q = 0.95

#: Every timed phase is a fixed number of rounds of fixed work, each
#: round holding the workload's whole request mix, so that a throughput
#: or a percentile can be the median of its per-round values: a median
#: over many short rounds sheds the slow moments (a collection, a burst
#: of steal) that a figure pooled over the run would take in.  A run has
#: at least this many rounds, whatever ``--seconds`` asks for, and each
#: workload sizes its rounds so that the percentile rule holds at it.
MIN_ROUNDS = 16


@dataclass
class Outcome:
    """One workload run: raw counts and samples, before any arithmetic."""

    #: Wall seconds of each set-up repetition.
    setup_seconds: list[float] = field(default_factory=list)
    #: Reference probes before each set-up repetition and after the last.
    setup_probes: list[float] = field(default_factory=list)
    #: Wall and process-CPU seconds of the timed phase.
    wall: float = 0.0
    cpu: float = 0.0
    #: Wall seconds of one request each (send -> reply, or one call).
    latencies: list[float] = field(default_factory=list)
    #: The request kind of each latency, parallel to ``latencies``.
    kinds: list[str] = field(default_factory=list)
    #: Requests that raised or came back as an ErrorReply.
    failed: int = 0
    #: SubmitTask requests offered, and those refused with a ShedReply.
    submits_offered: int = 0
    shed: int = 0
    #: ShedReply count by its ``reason``.
    shed_reasons: dict[str, int] = field(default_factory=dict)
    #: Tasks decided (assigned + expired, or instance tasks) while timed.
    tasks_decided: int = 0
    #: Quality totals over every session or solve the run finished.
    arrived: int = 0
    assigned: int = 0
    utility: float = 0.0
    epsilon: float = 0.0
    #: Output-check failures (empty = correct).
    failures: list[str] = field(default_factory=list)
    #: History intervals for late_over_early (perf_counter seconds).
    segments: list[tuple[float, float]] = field(default_factory=list)
    #: Workload size as run.
    size: dict[str, Any] = field(default_factory=dict)
    #: ``(wall seconds, requests, tasks decided, index of its first
    #: latency)`` of each round of the timed phase; the throughput and
    #: percentile metrics are medians over rounds.
    rounds: list[tuple[float, int, int, int]] = field(default_factory=list)
    #: Reference probes before the first round and after each round.
    probes: list[float] = field(default_factory=list)

    def probe_setup(self) -> None:
        """Probe the machine; call before each set-up repetition and after
        the last."""
        self.setup_probes.append(reference.probe())

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class Timed:
    """The timed phase, as a context: its wall and process-CPU time, and
    the tracer (if any) active inside it and only there.

    ``segments`` says whether the whole phase is one history segment for
    ``late_over_early``; a workload that marks its own segments (one per
    replayed day) passes ``False``.
    """

    def __init__(self, outcome: Outcome, tracer=None, segments: bool = True):
        self.outcome = outcome
        self.tracer = tracer
        self.segments = segments

    def __enter__(self) -> "Timed":
        settle()
        self.outcome.probes.append(reference.probe())
        if self.tracer is not None:
            self.tracer.activate()
        self.started = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        out = self.outcome
        out.wall = time.perf_counter() - self.started
        out.cpu = time.process_time() - self._cpu
        out.segments.append((self.started, self.started + out.wall))
        if self.tracer is not None:
            self.tracer.deactivate()
            if self.segments:
                self.tracer.segments.append(out.segments[-1])
        gc.unfreeze()

    def round(self) -> "Round":
        return Round(self.outcome)


class Round:
    """One round of the timed phase: its wall time, the requests answered
    in it and the tasks it decided (the workload adds to ``tasks``)."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self.tasks = 0

    def __enter__(self) -> "Round":
        self._requests = len(self.outcome.latencies)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall = time.perf_counter() - self.started
        requests = len(self.outcome.latencies) - self._requests
        self.outcome.rounds.append((self.wall, requests, self.tasks, self._requests))
        self.outcome.tasks_decided += self.tasks
        self.outcome.probes.append(reference.probe())


def rounds_for(seconds: float, per_second: float) -> int:
    """Rounds in a run of ``seconds``: at least :data:`MIN_ROUNDS`.  A run
    always does all of them (no time cap), so every run of a seed does
    the same work; a slower machine just takes longer."""
    return max(MIN_ROUNDS, round(seconds * per_second))


def settle() -> None:
    """Call right before timing starts: collect garbage and freeze what
    is left (imports and the pre-generated inputs), so the program's
    collections scan its own objects, not the benchmark's inputs."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slowdowns(probes: list[float], spans: int) -> list[float]:
    """The machine's slowdown over each of ``spans`` consecutive spans,
    from the probes taken before the first and after each one."""
    if len(probes) != spans + 1:
        raise stats.TooFewSamples(f"{len(probes)} probes for {spans} spans")
    return [reference.slowdown(a, b) for a, b in zip(probes, probes[1:])]


def end_to_end(outcome: Outcome, steal: float | None) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics and, beside them, their bases and counts.

    Timings are at reference speed; each base keeps the raw wall figure
    (``wall_*``) and the slowdowns it was divided by.  Every base also
    carries the run's process-CPU seconds and the share of host CPU time
    stolen while it ran.
    """
    lat, n = outcome.latencies, len(outcome.latencies)
    slow = slowdowns(outcome.probes, len(outcome.rounds))
    setup_slow = slowdowns(outcome.setup_probes, len(outcome.setup_seconds))
    setup = [x / s for x, s in zip(outcome.setup_seconds, setup_slow)]
    wall_task_rates = [stats.ratio(t, w, name="tasks_per_s") for w, _, t, _ in outcome.rounds]
    wall_request_rates = [stats.ratio(r, w, name="requests_per_s") for w, r, _, _ in outcome.rounds]
    task_rates = [x * s for x, s in zip(wall_task_rates, slow)]
    request_rates = [x * s for x, s in zip(wall_request_rates, slow)]
    per_round = [lat[first : first + r] for _, r, _, first in outcome.rounds]
    p50, p50_rounds, p50_beyond = stats.round_percentile(per_round, 0.5, slow)
    p95, p95_rounds, p95_beyond = stats.round_percentile(per_round, TAIL_Q, slow)
    m = {
        "setup_s": stats.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "tasks_per_s": stats.median(task_rates),
        "requests_per_s": stats.median(request_rates),
        "request_p50_ms": p50 * 1e3,
        "request_p95_ms": p95 * 1e3,
        "admitted_ratio": 1.0
        - stats.ratio(outcome.shed, outcome.submits_offered, name="admitted_ratio"),
        "assigned_ratio": stats.ratio(outcome.assigned, outcome.arrived, name="assigned_ratio"),
        "utility_per_task": stats.ratio(outcome.utility, outcome.arrived, name="utility_per_task"),
        "epsilon_per_assignment": stats.ratio(
            outcome.epsilon, outcome.assigned, name="epsilon_per_assignment"
        ),
    }
    run = {
        "wall_s": outcome.wall,
        "cpu_s": outcome.cpu,
        "steal_share": steal,
        "slowdown_median": stats.median(slow),
    }
    per_round_ms = {
        q: [round(x * 1e3, 4) for x in values] for q, values in ((0.5, p50_rounds), (TAIL_Q, p95_rounds))
    }
    wall_ms = {
        q: stats.median([stats.percentile(samples, q) for samples in per_round]) * 1e3
        for q in (0.5, TAIL_Q)
    }
    bases = {
        "setup_s": {
            "samples": len(setup),
            "wall_median_s": stats.median(outcome.setup_seconds),
            "slowdowns": [round(x, 3) for x in setup_slow],
        },
        "peak_rss_mb": {},
        "tasks_per_s": {
            "tasks": outcome.tasks_decided,
            "rounds": len(task_rates),
            "per_round": [round(x, 3) for x in task_rates],
            "wall_median": stats.median(wall_task_rates),
            "slowdowns": [round(x, 3) for x in slow],
        },
        "requests_per_s": {
            "requests": n,
            "rounds": len(request_rates),
            "per_round": [round(x, 3) for x in request_rates],
            "wall_median": stats.median(wall_request_rates),
        },
        "request_p50_ms": {
            "samples": n,
            "rounds": len(p50_rounds),
            "per_round": per_round_ms[0.5],
            "wall_median_ms": wall_ms[0.5],
            **stats.placement(lat, outcome.kinds, 0.5),
            "beyond": p50_beyond,
        },
        "request_p95_ms": {
            "samples": n,
            "rounds": len(p95_rounds),
            "per_round": per_round_ms[TAIL_Q],
            "wall_median_ms": wall_ms[TAIL_Q],
            **stats.placement(lat, outcome.kinds, TAIL_Q),
            "beyond": p95_beyond,
        },
        "admitted_ratio": {
            "shed": outcome.shed,
            "submits_offered": outcome.submits_offered,
            "shed_reasons": dict(outcome.shed_reasons),
        },
        "assigned_ratio": {"assigned": outcome.assigned, "arrived": outcome.arrived},
        "utility_per_task": {"utility": outcome.utility, "arrived": outcome.arrived},
        "epsilon_per_assignment": {"epsilon": outcome.epsilon, "assigned": outcome.assigned},
    }
    for base in bases.values():
        base.update(run)
    return m, bases
