"""The benchmark's own arithmetic: tail percentiles, self time, ratios.

Every number the benchmark prints goes through one of these functions, so
the tests in ``perfbench/tests`` pin the rules once:

* a timing is reported as its median and its p95, each the median over
  the run's rounds of that round's percentile, refused unless at least
  :data:`MIN_TAIL` samples lie beyond it over all rounds together
  (:func:`round_percentile`), with a histogram of the request
  populations around it (:func:`placement`);
* a span's self time is its duration minus the *union* of its children's
  intervals clipped to it, so overlapping children are not counted twice
  (:func:`self_time`);
* ``late_over_early`` compares the mean per-call cost in the last tenth of
  each history segment (a replayed day, a run) with the first tenth
  (:func:`late_over_early`), which exposes O(history) growth;
* a ratio always names its base, and an empty base is an error
  (:func:`ratio`);
* the spread of repeated runs is the interquartile range over the median,
  with the quartiles Python's ``statistics.quantiles(values, n=4)`` gives
  (:func:`spread`).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Samples that must lie beyond the highest percentile printed.
MIN_TAIL = 50


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_TAIL samples beyond it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples``, by linear interpolation."""
    if not samples:
        raise TooFewSamples("no samples")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q``-quantile."""
    return count - 1 - math.floor(q * (count - 1))


def flagged_tail(samples: Sequence[float], q: float) -> tuple[float, int, bool]:
    """``(value, beyond, tail_ok)``: the ``q``-quantile, the samples
    beyond it, and whether they are at least MIN_TAIL (``(0.0, 0, False)``
    for no samples).

    Per-layer timings use this and print the flag in their base, since a
    layer a workload bypasses has few or no samples; the end-to-end ones
    use the strict :func:`round_percentile` and size the workloads to
    satisfy it.
    """
    if not samples:
        return 0.0, 0, False
    beyond = samples_beyond(len(samples), q)
    return percentile(samples, q), beyond, beyond >= MIN_TAIL


def round_percentile(
    rounds: Sequence[Sequence[float]], q: float, slowdowns: Sequence[float] | None = None
) -> tuple[float, list[float], int]:
    """``(value, per_round, beyond)``: the median over rounds of each
    round's ``q``-quantile (divided by the round's slowdown, if given),
    the per-round quantiles, and the samples beyond them summed over
    rounds.  Refused unless that sum is at least MIN_TAIL (and every round
    has a sample)."""
    if not rounds or not all(rounds):
        raise TooFewSamples(f"p{q * 100:g} asked of {len(rounds)} rounds, some empty")
    slow = slowdowns if slowdowns is not None else [1.0] * len(rounds)
    per_round = [percentile(samples, q) / s for samples, s in zip(rounds, slow)]
    beyond = sum(samples_beyond(len(samples), q) for samples in rounds)
    if beyond < MIN_TAIL:
        raise TooFewSamples(
            f"p{q * 100:g} over {len(rounds)} rounds has {beyond} samples beyond it; "
            f"need {MIN_TAIL}"
        )
    return median(per_round), per_round, beyond


def placement(
    samples: Sequence[float], labels: Sequence[str], q: float
) -> dict[str, object]:
    """Where the ``q``-quantile falls among labelled request populations.

    Returns the label of the population the quantile sits in, the share
    of that population below it (0.5 = its middle, near 0 or 1 = its
    edge), the samples beyond it, and a per-label count of samples beyond
    it: the histogram that shows whether a percentile rests inside one
    population or on the edge between two.
    """
    if len(samples) != len(labels):
        raise ValueError("one label per sample")
    value = percentile(samples, q)
    below: dict[str, int] = {}
    above: dict[str, int] = {}
    for sample, label in zip(samples, labels):
        bucket = below if sample <= value else above
        bucket[label] = bucket.get(label, 0) + 1
    # The population holding the quantile is the one with the most
    # samples within the nearest tenth of all samples around it.
    ordered = sorted(zip(samples, labels))
    centre = round(q * (len(ordered) - 1))
    half = max(1, len(ordered) // 20)
    near: dict[str, int] = {}
    for _, label in ordered[max(0, centre - half) : centre + half + 1]:
        near[label] = near.get(label, 0) + 1
    home = max(near, key=near.get)
    total = below.get(home, 0) + above.get(home, 0)
    return {
        "population": home,
        "share_below": below.get(home, 0) / total,
        "beyond": samples_beyond(len(samples), q),
        "beyond_by_population": dict(sorted(above.items())),
    }


def ratio(numerator: float, base: float, *, name: str) -> float:
    """``numerator / base``; a zero base is a workload defect, not a 0."""
    if base <= 0:
        raise ZeroDivisionError(f"{name}: base is {base!r}")
    return numerator / base


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, start, end)


def late_over_early(
    points: Iterable[tuple[float, float]],
    segments: Sequence[tuple[float, float]],
) -> tuple[float, int, int]:
    """Mean cost of calls in the last tenth of each segment over the first.

    ``points`` are ``(time, cost)`` pairs; ``segments`` are the history
    intervals the growth is measured along (one per replayed day, or the
    whole run).  Returns ``(ratio, early_count, late_count)``; the ratio
    is 0.0 when either tenth holds no call.
    """
    early_sum = late_sum = 0.0
    early_n = late_n = 0
    bounds = [(a, b, a + 0.1 * (b - a), b - 0.1 * (b - a)) for a, b in segments]
    for t, cost in points:
        for a, b, early_end, late_start in bounds:
            if a <= t <= b:
                if t < early_end:
                    early_sum += cost
                    early_n += 1
                elif t >= late_start:
                    late_sum += cost
                    late_n += 1
                break
    if not early_n or not late_n:
        return 0.0, early_n, late_n
    return (late_sum / late_n) / (early_sum / early_n), early_n, late_n


def median(values: Sequence[float]) -> float:
    """The plain median (0.0 for no values)."""
    return percentile(values, 0.5) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median, the steadiness measure of repeated
    runs (quartiles as ``statistics.quantiles(values, n=4)`` computes them)."""
    if len(values) < 2:
        raise TooFewSamples("a spread needs at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:
        raise ZeroDivisionError("spread: median is 0")
    return (q3 - q1) / abs(q2)
