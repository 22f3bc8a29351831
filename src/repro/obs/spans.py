"""Hierarchical spans over the simulated and wall clocks.

A :class:`Span` covers one phase of work — a checkpoint, its segment
write, one array's parstream, a single stream piece — and records both
timelines: *simulated* seconds (the calibrated PIOFS/machine model that
the paper's tables are denominated in) and *wall* seconds (what the
Python process actually spent).  Spans nest: the tracer keeps a
per-thread stack, so a ``parstream`` span opened inside a ``checkpoint``
span becomes its child and the Chrome-trace export renders the
hierarchy.

The simulated timeline is a cursor (:attr:`Tracer.sim_now`) that
instrumented code advances explicitly — e.g. the checkpoint engine calls
:meth:`Tracer.advance` with each solved I/O-phase duration — so sibling
spans tile the timeline and a parent's simulated duration is exactly the
sum of the advances made inside it.  :meth:`Tracer.sync` merges the
cursor forward to an external clock (the RC's cluster clock), letting
daemon events and application phases share one timeline.

:class:`NullTracer` is the module default: ``span()`` hands back a
shared no-op context manager and its metrics registry is the shared
null, so the instrumented hot paths cost one global read and a couple of
no-op calls when observability is off.  Turn tracing on for a scope with
:func:`use_tracer`::

    from repro.obs import Tracer, use_tracer

    with use_tracer(Tracer()) as tracer:
        drms_checkpoint(pfs, "ckpt", segment, arrays)
    print(breakdown_report(tracer))
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = [
    "Span",
    "Mark",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclass
class Span:
    """One timed phase on both clocks."""

    name: str
    span_id: int
    parent_id: Optional[int]
    sim_start: float
    wall_start: float
    sim_end: Optional[float] = None
    wall_end: Optional[float] = None
    #: thread that opened the span (export groups rows by thread)
    thread: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.sim_end is not None

    @property
    def sim_seconds(self) -> float:
        """Simulated duration (0 until the span ends)."""
        return (self.sim_end - self.sim_start) if self.done else 0.0

    @property
    def wall_seconds(self) -> float:
        return (self.wall_end - self.wall_start) if self.done else 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (bytes, pieces, task counts, ...)."""
        self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:
        state = f"{self.sim_seconds:.3f}s" if self.done else "open"
        return f"Span({self.name!r}, {state})"


@dataclass(frozen=True)
class Mark:
    """An instant event on the span timeline (TC state transitions,
    recovery decisions)."""

    name: str
    sim_time: float
    wall_time: float
    attrs: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Span recorder + simulated-time cursor + metrics registry."""

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None, sim_start: float = 0.0):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: every span ever started, in start order (open ones included)
        self.spans: List[Span] = []
        self.marks: List[Mark] = []
        self._sim_now = float(sim_start)
        # a library caller's own thread traces without the baton
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)

    # -- simulated clock ---------------------------------------------------

    @property
    def sim_now(self) -> float:
        """Current position of the simulated-time cursor."""
        return self._sim_now

    def advance(self, dt: float) -> float:
        """Charge ``dt`` simulated seconds to the open spans."""
        if dt < 0:
            raise ValueError(f"cannot advance the trace clock by {dt}")
        with self._lock:
            self._sim_now += dt
            return self._sim_now

    def sync(self, t: float) -> float:
        """Merge the cursor forward to an external simulated clock
        (never backward — Lamport-style, like the task clocks)."""
        with self._lock:
            if t > self._sim_now:
                self._sim_now = float(t)
            return self._sim_now

    # -- span lifecycle -----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a span as a child of the current one."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        with self._lock:
            span = Span(
                name=name,
                span_id=next(self._ids),
                parent_id=parent,
                sim_start=self._sim_now,
                wall_start=time.perf_counter(),
                thread=threading.get_ident(),
                attrs=dict(attrs),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close a span at the current cursor position."""
        if attrs:
            span.attrs.update(attrs)
        span.sim_end = self._sim_now
        span.wall_end = time.perf_counter()
        stack = self._stack()
        if span in stack:  # tolerate out-of-order closes
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Context manager: open a child span, close it on exit (also
        on exceptions, recording ``error`` so aborted phases show up)."""
        s = self.start(name, **attrs)
        try:
            yield s
        except BaseException as exc:
            s.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self.end(s)

    def mark(self, name: str, sim_time: Optional[float] = None, **attrs: Any) -> Mark:
        """Record an instant event (defaults to the cursor position)."""
        m = Mark(
            name=name,
            sim_time=self._sim_now if sim_time is None else float(sim_time),
            wall_time=time.perf_counter(),
            attrs=dict(attrs),
        )
        with self._lock:
            self.marks.append(m)
        return m

    # -- queries ------------------------------------------------------------

    def roots(self) -> List[Span]:
        """Top-level spans, in start order."""
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> List[Span]:
        """All spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def __repr__(self) -> str:
        return f"Tracer({len(self.spans)} spans, sim_now={self._sim_now:.3f}s)"


class _NullSpan:
    """Shared inert span handed out by the null tracer."""

    __slots__ = ()
    name = "<null>"
    span_id = 0
    parent_id = None
    sim_start = sim_end = 0.0
    wall_start = wall_end = 0.0
    sim_seconds = wall_seconds = 0.0
    done = True
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable no-op context manager (allocation-free ``span()``)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer(Tracer):
    """The default tracer: records nothing, costs (almost) nothing."""

    enabled = False

    def __init__(self):
        self.metrics = NULL_METRICS
        self.spans = []
        self.marks = []
        self._sim_now = 0.0

    def advance(self, dt: float) -> float:
        return 0.0

    def sync(self, t: float) -> float:
        return 0.0

    def current(self) -> Optional[Span]:
        return None

    def start(self, name: str, **attrs: Any):
        return _NULL_SPAN

    def end(self, span, **attrs: Any):
        return span

    def span(self, name: str, **attrs: Any):
        return _NULL_SPAN_CONTEXT

    def mark(self, name: str, sim_time: Optional[float] = None, **attrs: Any):
        return None

    def __repr__(self) -> str:
        return "NullTracer()"


#: the process-wide default
NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The active tracer (the shared :data:`NULL_TRACER` by default)."""
    return _current


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the active tracer (None restores the
    null); returns the tracer now active."""
    global _current
    _current = tracer if tracer is not None else NULL_TRACER
    return _current


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scope a tracer: install on entry, restore the previous on exit."""
    previous = _current
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
