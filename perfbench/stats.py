"""Order statistics for run samples and self times for span trees."""

from __future__ import annotations

import math
import statistics

#: Samples a tail percentile must leave above it.
TAIL_BEYOND = 10


def rank_index(n: int, pct: float) -> int:
    """0-based nearest-rank index of the pct-th percentile of n samples."""
    return max(0, math.ceil(pct / 100.0 * n) - 1)


def beyond(n: int, pct: float) -> int:
    """Samples ranked above the pct-th percentile of n samples."""
    return n - 1 - rank_index(n, pct)


#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail_rank(n: int) -> tuple[int, float] | None:
    """(0-based index, percentile) of the tail of n sorted samples.

    The highest ladder percentile with TAIL_BEYOND samples above it, else the
    exact percentile that leaves TAIL_BEYOND above it; None when n is too small.
    """
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= TAIL_BEYOND:
            return rank_index(n, pct), pct
    if n <= TAIL_BEYOND:
        return None
    index = n - 1 - TAIL_BEYOND
    return index, 100.0 * (index + 1) / n


def tail(values: list[float]) -> tuple[float, float | None]:
    """(value, percentile) of the tail; the maximum when samples are too few."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered))
    if rank is None:
        return ordered[-1], None
    return ordered[rank[0]], rank[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def round_cost(keys, values) -> float:
    """Sum over distinct keys of the median of that key's values.

    With one key per invocation of a round, this is the cost of a typical
    round; each invocation's median keeps a slow stretch of the run from
    weighing on the invocations that ran outside it.
    """
    groups: dict[object, list[float]] = {}
    for key, value in zip(keys, values):
        groups.setdefault(key, []).append(value)
    return sum(statistics.median(v) for v in groups.values())


def round_sums(rounds, values) -> list[float]:
    """The sum of each round's values, in round order."""
    sums: dict[int, float] = {}
    for r, value in zip(rounds, values):
        sums[r] = sums.get(r, 0.0) + value
    return [sums[r] for r in sorted(sums)]


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Spans are indexed 0..n-1 and parents[i] is the index of span i's parent
    or -1. Children may overlap one another; the union of their intervals,
    clipped to the parent, is what gets subtracted.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (t0, t1) in enumerate(zip(starts, ends)):
        covered = 0
        edge = t0
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], edge), min(ends[c], t1)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((t1 - t0) - covered)
    return out
