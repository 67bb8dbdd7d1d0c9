"""Summary statistics shared by the benchmark and its spread check."""

from __future__ import annotations

import re
import statistics

#: Metric names must match this pattern (they become JSON keys that other
#: tools parse).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return len(name) <= 64 and METRIC_NAME.fullmatch(name) is not None


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With N sorted samples the
    value is the (N - 10)-th, i.e. percentile 100 * (N - 10) / N; 400 samples
    give p97.5.  With fewer than TAIL_BEYOND + 1 samples no percentile
    qualifies and the maximum is returned as p100 with 0 samples beyond, so
    callers can see the rule was not met.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fastest_passes(passes, min_ops: int) -> tuple[list[float], list[float]]:
    """The fastest passes, taken fastest first until they hold at least
    min_ops operations (or all passes).

    passes holds (pass time, [operation times]).  Returns the operation
    times and the pass times of the passes taken.
    """
    ops: list[float] = []
    times: list[float] = []
    for elapsed, op_times in sorted(passes, key=lambda p: p[0]):
        if len(ops) >= min_ops:
            break
        ops.extend(op_times)
        times.append(elapsed)
    return ops, times
