"""Cluster event log: the observable record of the DRMS daemons.

Its records are :class:`~repro.obs.flight.Event` objects, written only
by :func:`~repro.obs.flight.emit_event` (both re-exported here)."""

from __future__ import annotations

import json
from typing import Any, Callable, List, Optional

from repro.obs.flight import Event, emit_event

__all__ = ["Event", "EventLog", "emit_event"]


class EventLog:
    """Append-only event record shared by RC/TCs/JSA/UIC.

    Every :meth:`emit` is one :func:`~repro.obs.flight.emit_event`: the
    same record also lands on the active flight recorder's ring, so a
    black box holds the daemon decisions.
    Consumers query the log (:meth:`of_kind`, :meth:`between`,
    :meth:`where`) instead of re-filtering ``events`` by hand, or
    export it (:meth:`to_json`).
    """

    def __init__(self):
        self.events: List[Event] = []

    def emit(self, kind: str, **detail: Any) -> Event:
        """Append one event stamped with the active clock (and record
        it on the flight recorder's ring)."""
        return emit_event(self, kind, **detail)

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
        """The full log as a JSON array of :meth:`Event.to_dict` rows
        (non-JSON detail values fall back to ``repr``)."""
        return json.dumps(
            [e.to_dict() for e in self.events], indent=indent, default=repr
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
