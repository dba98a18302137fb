"""The benchmark's arithmetic: medians, quartiles, rates, shares, self time.

Kept free of any ``repro`` import so the tests can check it in isolation.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile.

    The cut points of ``statistics.quantiles(values, n=4)`` (its default
    exclusive method), which is how the benchmark's spread is judged.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("spread of values with a zero median")
    return (q3 - q1) / q2


def kips(instructions: float, seconds: float) -> float:
    """Thousands of instructions per host second (0 when nothing ran)."""
    if seconds <= 0:
        return 0.0
    return instructions / seconds / 1000.0


def failed_share(failed: float, attempted: float) -> float:
    """Share of failed operations, as the rule of succession estimates it.

    ``(failed + 1) / (attempted + 2)``: never 0, so a regression can be
    judged as a share of the parent's value even when nothing failed,
    and it rises with every failure.
    """
    if attempted < 0 or not 0 <= failed <= attempted:
        raise ValueError("need 0 <= failed <= attempted, got %r of %r"
                         % (failed, attempted))
    return (failed + 1.0) / (attempted + 2.0)


def self_times(events: Iterable[dict]) -> Dict[str, float]:
    """Self time in seconds per span category of Chrome trace events.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Spans nest per thread; a child is a span of the
    same thread that starts inside its parent.  Only complete ("X")
    events count.
    """
    by_thread: Dict[object, List[dict]] = defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            by_thread[(event.get("pid"), event.get("tid"))].append(event)
    totals: Dict[str, float] = defaultdict(float)
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        covered = [0.0] * len(spans)
        open_spans: List[int] = []
        for index, span in enumerate(spans):
            while open_spans and (spans[open_spans[-1]]["ts"]
                                  + spans[open_spans[-1]]["dur"]
                                  <= span["ts"]):
                open_spans.pop()
            if open_spans:
                covered[open_spans[-1]] += span["dur"]
            open_spans.append(index)
        for span, child_us in zip(spans, covered):
            totals[span.get("cat", "")] += (span["dur"] - child_us) / 1e6
    return dict(totals)
