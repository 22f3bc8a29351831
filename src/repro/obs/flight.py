"""The event record and its one write, and the per-node flight recorder.

Every daemon decision, recovery step and piece of per-node telemetry is
one :class:`Event`, built only by :func:`emit_event`.  The same object
lands on the cluster :class:`~repro.infra.events.EventLog` (when the
emitter has one) and on the active flight recorder's ring of its node.

The flight recorder is the always-on "black box" of the cluster: every
node carries a **bounded ring buffer** of events (checkpoint phase
transitions, SOP crossings, drain state changes, replica placements,
PFS faults, stream ops with byte counts, and every daemon or recovery
decision the cluster event log carries) that is cheap enough to leave
on even when tracing is off.  When a node is killed — by a
:class:`~repro.infra.failure.FailurePlan`, an
:meth:`~repro.mlck.store.L1Store.drop_node`, or the RC's failure
protocol — the recorder emits a **black-box dump**: a JSON-able
snapshot of the node's last ``capacity`` events, exactly what a crash
investigator wants to know about what the node was doing when it died.

Cost model: the default is the shared :data:`NULL_FLIGHT`, whose ring
write is a no-op.  An active :class:`FlightRecorder` appends the event
to a bounded ``deque``; there is no hashing and no I/O, so recording
stays well under the 5% overhead budget the ``bench_obs_overhead``
benchmark enforces.

Scope a recorder on exactly like a tracer::

    from repro.obs import FlightRecorder, use_flight

    with use_flight(FlightRecorder()) as fr:
        cluster.run_with_recovery(...)
    for box in fr.blackboxes:
        print(box["node"], box["reason"], len(box["events"]))

The record, the ring and the dump schema are specified in DESIGN.md §13.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import threading
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.runtime.clock import now

if TYPE_CHECKING:  # infra.events imports this module
    from repro.infra.events import EventLog

__all__ = [
    "Event",
    "emit_event",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "GLOBAL_NODE",
    "get_flight",
    "set_flight",
    "use_flight",
]

#: ring slot for events not tied to any one node (scheduler decisions,
#: whole-fleet transitions)
GLOBAL_NODE = -1

#: black-box dump schema version (DESIGN.md §13)
BLACKBOX_SCHEMA = "repro.flight/1"


@dataclass(frozen=True)
class Event:
    """One timestamped record: a daemon decision or a piece of per-node
    telemetry.  ``seq`` is unique in the process and orders records
    written concurrently; ``node`` is ``detail.get("node", GLOBAL_NODE)``
    and ``detail`` is exactly what the emitter passed."""

    seq: int
    time: float
    kind: str
    node: int
    detail: Dict[str, Any]

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"[{self.time:9.3f}s] {self.kind}({items})"

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-able row of a log export, a ring or a dump."""
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "node": self.node,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "Event":
        """Read back a :meth:`to_dict` row; missing keys take the
        defaults of an empty record."""
        detail = dict(row.get("detail", {}))
        return cls(
            seq=int(row.get("seq", 0)),
            time=float(row.get("time", 0.0)),
            kind=str(row.get("kind", "")),
            node=row.get("node", detail.get("node", GLOBAL_NODE)),
            detail=detail,
        )


_seq = itertools.count(1)


def emit_event(events: Optional["EventLog"], kind: str, **detail: Any) -> Optional[Event]:
    """The one write of a record, stamped with the active clock's
    :func:`~repro.runtime.clock.now`: append it to ``events`` (when
    there is a log) and to the active flight recorder's ring of
    ``detail["node"]`` (the global ring when the detail names no node).
    One lock covers the sequence number and both appends, so a ring and
    the log list their records in ``seq`` order under threads.  With no
    log and no enabled recorder nothing keeps the record: none is
    built, no ``seq`` is drawn, and the call returns None."""
    fr = _current
    if events is None and not fr.enabled:
        return None
    time = now()
    with fr._lock:
        ev = Event(next(_seq), time, kind, detail.get("node", GLOBAL_NODE), detail)
        fr.record(ev)
        if events is not None:
            events.events.append(ev)
    return ev


class FlightRecorder:
    """Bounded per-node rings of events + black-box dumps.

    ``capacity`` bounds each node's ring; older events fall off the
    back (the ``dropped`` count in a dump says how many).  Records
    arrive through :func:`emit_event` only, under the recorder's lock
    (every SPMD task thread may write the global ring, and a dump's
    ``recorded`` / ``dropped`` must count each record).
    """

    enabled = True

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"flight ring capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._rings: Dict[int, deque] = defaultdict(
            lambda: deque(maxlen=self.capacity)
        )
        self._recorded: Dict[int, int] = Counter()
        # a library caller's own thread records without the baton
        self._lock = threading.Lock()
        #: emitted black-box dumps, in emission order
        self.blackboxes: List[Dict[str, Any]] = []
        self._dumped: set = set()

    def record(self, ev: Event) -> None:
        """Append ``ev`` to its node's ring (caller holds the lock)."""
        self._rings[ev.node].append(ev)
        self._recorded[ev.node] += 1

    # -- queries -------------------------------------------------------------

    def nodes(self) -> List[int]:
        """Node ids with at least one recorded event (global ring
        included as :data:`GLOBAL_NODE`)."""
        return sorted(self._rings)

    def ring(self, node: int = GLOBAL_NODE) -> List[Event]:
        """The current contents of one node's ring, oldest first."""
        return list(self._rings.get(node, ()))

    def events(self) -> List[Event]:
        """Every resident event across all rings, in ``seq`` order (the
        interleaved view a forensic timeline wants)."""
        out = [ev for node in self.nodes() for ev in self.ring(node)]
        out.sort(key=lambda e: e.seq)
        return out

    def recorded(self, node: int = GLOBAL_NODE) -> int:
        """Total events ever recorded for ``node`` (dropped included)."""
        return self._recorded.get(node, 0)

    # -- black-box dumps -----------------------------------------------------

    def _box(self, node: int, reason: str) -> Dict[str, Any]:
        """``node``'s ring interleaved with the global ring — a dead
        node's story usually ends in scheduler/RC decisions that were
        recorded globally — as a DESIGN.md §13 dump, stamped now."""
        own = self.ring(node)
        context = self.ring(GLOBAL_NODE) if node != GLOBAL_NODE else []
        merged = sorted(own + context, key=lambda e: e.seq)
        return {
            "schema": BLACKBOX_SCHEMA,
            "node": node,
            "reason": reason,
            "time": now(),
            "capacity": self.capacity,
            "recorded": self.recorded(node),
            "dropped": max(0, self.recorded(node) - len(own)),
            "events": [e.to_dict() for e in merged],
        }

    def blackbox(self, node: int, reason: str = "") -> Dict[str, Any]:
        """Snapshot ``node``'s ring as a black-box dump, register it on
        :attr:`blackboxes`, and return it."""
        box = self._box(node, reason)
        with self._lock:
            self.blackboxes.append(box)
            self._dumped.add(node)
        return box

    def auto_blackbox(
        self, node: int, reason: str = ""
    ) -> Optional[Dict[str, Any]]:
        """Emit a black-box dump for ``node`` unless one was already
        emitted this incident (several layers observe the same death:
        the RC protocol, the L1 store drop, the cluster scenario — the
        first observer wins).  Returns the dump, or None if deduped."""
        with self._lock:
            if node in self._dumped:
                return None
        return self.blackbox(node, reason=reason)

    def reset_incident(self) -> None:
        """Forget which nodes already dumped (start a new incident)."""
        with self._lock:
            self._dumped.clear()

    # -- export --------------------------------------------------------------

    def publish_metrics(self) -> None:
        """Feed the recorder's volume counters into the active metrics
        registry (``flight.recorded`` / ``flight.blackboxes``) — called
        at export/incident time, never on the hot recording path."""
        from repro.obs.spans import get_tracer

        m = get_tracer().metrics
        m.gauge("flight.recorded").set(sum(self._recorded.values()))
        m.gauge("flight.blackboxes").set(len(self.blackboxes))

    def to_dict(self) -> Dict[str, Any]:
        """The whole recorder state, JSON-able: rings + dumps."""
        return {
            "schema": BLACKBOX_SCHEMA,
            "capacity": self.capacity,
            "rings": {
                str(node): [e.to_dict() for e in self.ring(node)]
                for node in self.nodes()
            },
            "blackboxes": list(self.blackboxes),
        }

    def write_blackboxes(self, out_dir) -> List[pathlib.Path]:
        """Write each emitted dump as ``blackbox_node<N>.json`` under
        ``out_dir``; returns the paths."""
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for box in self.blackboxes:
            path = out / f"blackbox_node{box['node']}.json"
            path.write_text(json.dumps(box, indent=1, default=repr))
            paths.append(path)
        return paths

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self._rings)} rings, "
            f"{len(self.blackboxes)} blackboxes)"
        )


class NullFlightRecorder(FlightRecorder):
    """The default recorder: its rings stay empty, and the dumps it is
    asked for are never registered (the shared :data:`NULL_FLIGHT`
    must not accumulate state)."""

    enabled = False

    def __init__(self):
        super().__init__()
        self.capacity = 0

    def record(self, ev: Event) -> None:
        pass

    def blackbox(self, node, reason="") -> Dict[str, Any]:
        return self._box(node, reason)

    def auto_blackbox(self, node, reason="") -> None:
        return None


#: the process-wide default
NULL_FLIGHT = NullFlightRecorder()

_current: FlightRecorder = NULL_FLIGHT


def get_flight() -> FlightRecorder:
    """The active flight recorder (:data:`NULL_FLIGHT` by default)."""
    return _current


def set_flight(recorder: Optional[FlightRecorder]) -> FlightRecorder:
    """Install ``recorder`` as the active flight recorder (None
    restores the null); returns the recorder now active."""
    global _current
    _current = recorder if recorder is not None else NULL_FLIGHT
    return _current


@contextmanager
def use_flight(recorder: FlightRecorder) -> Iterator[FlightRecorder]:
    """Scope a flight recorder: install on entry, restore on exit."""
    previous = _current
    set_flight(recorder)
    try:
        yield recorder
    finally:
        set_flight(previous)
