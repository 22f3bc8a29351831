"""Per-task simulated clocks, and the active clock records are stamped with.

Each task carries a :class:`SimClock` measuring simulated seconds.
Compute and I/O charge time with :meth:`SimClock.advance`; message
passing merges clocks Lamport-style (a receiver's clock becomes at least
the message's arrival stamp), so globally synchronizing operations
(barriers, blocking checkpoints) end with every task at the same
simulated time — exactly the "blocking checkpoint" timing discipline the
paper measures.  The active clock is found, not passed: :func:`use_clock`
scopes one (anything with ``now``) and :func:`now` reads it (DESIGN.md §13).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = ["SimClock", "now", "use_clock"]


class SimClock:
    """A monotone simulated-seconds counter for one task."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Charge ``dt`` simulated seconds (must be >= 0); returns the
        new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self._now += dt
        return self._now

    def merge(self, other_time: float) -> float:
        """Lamport merge: move forward to ``other_time`` if it is later."""
        if other_time > self._now:
            self._now = float(other_time)
        return self._now

    def reset(self, t: float = 0.0) -> None:
        self._now = float(t)

    def __repr__(self) -> str:
        return f"SimClock({self._now:.6f}s)"


_active: ContextVar[Any] = ContextVar("repro_clock", default=None)


def now() -> float:
    """The active clock's simulated time (0.0 when no clock is set)."""
    clock = _active.get()
    return clock.now if clock is not None else 0.0


@contextmanager
def use_clock(c: Any) -> Iterator[Any]:
    """Scope ``c`` (anything with ``now``) as the active clock."""
    token = _active.set(c)
    try:
        yield c
    finally:
        _active.reset(token)
