"""In-memory spans recorded at layer boundaries, and their arithmetic.

A span is a flat list (cheap to create on a hot path) holding an id, the
id of the span that was open on the *same thread* when it started, the
boundary's metric stem, the thread, the cycle and the two
``time.perf_counter()`` stamps, plus one number the boundary reports
about the call (bytes moved, or simulated seconds).  Spans stay in
memory until the benchmark ends.

The arithmetic is separate from the recording so the self-test can feed
it synthetic call trees: a span's *self time* is its duration minus the
part covered by child spans on the same thread; per-stem sums run over
all threads, so busy time of concurrent threads adds up beyond wall
time (``trace.busy_over_wall`` reports by how much).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "SID", "PARENT", "STEM", "THREAD", "CYCLE", "START", "END", "VALUE",
    "SpanRecorder", "self_seconds", "aggregate", "union_seconds",
    "covered_seconds",
]

SID, PARENT, STEM, THREAD, CYCLE, START, END, VALUE = range(8)


class SpanRecorder:
    """Collects spans from every thread; inert unless :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: wrappers pass straight through while this is False
        self.active = False
        #: id of the cycle being measured, stamped into each span
        self.cycle = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def enter(self, stem: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [
            next(self._ids), stack[-1][SID] if stack else -1, stem,
            threading.get_ident(), self.cycle, 0.0, 0.0, 0.0,
        ]
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def exit(self, span: list, value: float = 0.0) -> None:
        span[END] = time.perf_counter()
        span[VALUE] = value
        self._local.stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL


def _children(spans: Sequence[list]) -> Dict[int, List[list]]:
    """Parent id -> child spans on the parent's own thread, by start."""
    by_id = {s[SID]: s for s in spans}
    out: Dict[int, List[list]] = {}
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None and parent[THREAD] == s[THREAD]:
            out.setdefault(parent[SID], []).append(s)
    for kids in out.values():
        kids.sort(key=lambda c: c[START])
    return out


def _self_intervals(spans: Sequence[list]) -> Iterator[Tuple[list, float, float]]:
    """Each span's interval with its same-thread children's intervals
    cut out (children are nested and disjoint by construction)."""
    children = _children(spans)
    for s in spans:
        cursor = s[START]
        for c in children.get(s[SID], ()):
            if c[START] > cursor:
                yield s, cursor, c[START]
            cursor = max(cursor, c[END])
        if s[END] > cursor:
            yield s, cursor, s[END]


def self_seconds(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans
    on the same thread."""
    own = {s[SID]: 0.0 for s in spans}
    for s, a, b in _self_intervals(spans):
        own[s[SID]] += b - a
    return own


def aggregate(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per stem, summed over all threads: self seconds, total seconds,
    call count and the sum of the values the boundary reported."""
    own = self_seconds(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(
            s[STEM], {"self_s": 0.0, "total_s": 0.0, "calls": 0, "value": 0.0}
        )
        agg["self_s"] += own[s[SID]]
        agg["total_s"] += s[END] - s[START]
        agg["calls"] += 1
        agg["value"] += s[VALUE]
    return out


def union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for a, b in sorted(intervals):
        if b > cursor:
            total += b - max(a, cursor)
            cursor = b
    return total


def covered_seconds(spans: Sequence[list], stems: Iterable[str]) -> float:
    """Time during which at least one thread was in the self part of a
    span whose stem is in ``stems`` — a union over threads, so
    concurrent spans are not counted twice."""
    wanted = set(stems)
    return union_seconds(
        (a, b) for s, a, b in _self_intervals(spans) if s[STEM] in wanted
    )
