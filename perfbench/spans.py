"""In-memory span recorder and self-time arithmetic for the traced run.

A span records a name, its start and end on one clock, and the span
that was open when it started (its parent).  Spans stay in memory while
the traced run works and are written out once at the end.  A span's
self time is its duration minus the part of its interval that its
children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of one traced run, recorded on ``clock``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, parent, self._clock())
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._open.pop()

    def records(self) -> List[dict]:
        return [asdict(span) for span in self.spans]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span, by span id.

    The children's intervals are merged before they are subtracted, so
    overlapping children are not counted twice, and clipped to the
    parent's interval.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def totals_by_name(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed duration, summed self time and span count."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "count": 0})
        entry["s"] += span.duration
        entry["self_s"] += own[span.id]
        entry["count"] += 1
    return totals
