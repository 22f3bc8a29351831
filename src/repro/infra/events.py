"""Cluster event log: the observable record of the DRMS daemons."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.obs.flight import get_flight

__all__ = ["Event", "EventLog", "emit_event"]


@dataclass(frozen=True)
class Event:
    """One timestamped infrastructure event."""

    time: float
    kind: str
    detail: Dict[str, Any]

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"[{self.time:9.3f}s] {self.kind}({items})"

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "kind": self.kind, "detail": dict(self.detail)}


def emit_event(
    events: Optional["EventLog"], time: float, kind: str, **detail: Any
) -> Event:
    """The one write of a daemon or recovery decision: append it to
    ``events`` (when there is a log) and record the same event on the
    active flight recorder, on the ring of ``detail["node"]`` (the
    global ring when the detail names no node)."""
    ev = Event(time=time, kind=kind, detail=detail)
    if events is not None:
        events.events.append(ev)
    get_flight().record(kind, time=time, **detail)
    return ev


class EventLog:
    """Append-only event record shared by RC/TCs/JSA/UIC.

    Every :meth:`emit` also lands on the active flight recorder's ring
    (:func:`emit_event`), so a black box holds the daemon decisions.
    Consumers query the log (:meth:`of_kind`, :meth:`between`,
    :meth:`where`) instead of re-filtering ``events`` by hand, or
    export it (:meth:`to_json`).
    """

    def __init__(self):
        self.events: List[Event] = []

    def emit(self, time: float, kind: str, **detail: Any) -> Event:
        """Append one timestamped event (and record it on the flight
        recorder)."""
        return emit_event(self, time, kind, **detail)

    # -- queries ------------------------------------------------------------

    def of_kind(self, kind: str, **detail_filter: Any) -> List[Event]:
        """Events of ``kind`` whose detail matches every given key
        exactly — ``log.of_kind("checkpoint_rejected", job="bt")``."""
        return [
            e
            for e in self.events
            if e.kind == kind
            and all(e.detail.get(k) == v for k, v in detail_filter.items())
        ]

    def between(
        self, t0: float, t1: float, kind: Optional[str] = None
    ) -> List[Event]:
        """Events in the closed time window ``[t0, t1]``, optionally of
        one kind."""
        return [
            e
            for e in self.events
            if t0 <= e.time <= t1 and (kind is None or e.kind == kind)
        ]

    def where(self, predicate: Callable[[Event], bool]) -> List[Event]:
        """Events satisfying an arbitrary predicate."""
        return [e for e in self.events if predicate(e)]

    def last(self, kind: Optional[str] = None) -> Optional[Event]:
        seq = self.events if kind is None else self.of_kind(kind)
        return seq[-1] if seq else None

    # -- export -------------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """The full log as a JSON array of ``{time, kind, detail}``
        objects (non-JSON detail values fall back to ``repr``)."""
        return json.dumps(
            [e.to_dict() for e in self.events], indent=indent, default=repr
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
