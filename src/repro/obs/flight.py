"""Per-node flight recorder: the always-on "black box" of the cluster.

A failure in this system used to be observable only after the fact, by
grepping span dumps — and only when a full :class:`~repro.obs.spans.Tracer`
happened to be installed.  The flight recorder closes that gap: every
node carries a **bounded ring buffer** of structured events (checkpoint
phase transitions, SOP crossings, drain state changes, replica
placements, PFS faults, stream ops with byte counts, and every daemon
or recovery decision the cluster event log carries) that is cheap
enough to leave on even when tracing is off.  When a node is killed —
by a :class:`~repro.infra.failure.FailurePlan`, an
:meth:`~repro.mlck.store.L1Store.drop_node`, or the RC's failure
protocol — the recorder emits a **black-box dump**: a JSON-able
snapshot of the node's last ``capacity`` events, exactly what a crash
investigator wants to know about what the node was doing when it died.

Cost model: the default is the shared :data:`NULL_FLIGHT`, whose
``record`` is a no-op — instrumented hot paths pay one module-level
read and one no-op call.  An active :class:`FlightRecorder` appends one
tuple to a bounded ``deque`` per event; there is no hashing, no I/O,
and no per-event allocation beyond the tuple and its detail dict, so
recording stays well under the 5% overhead budget the
``bench_obs_overhead`` benchmark enforces.

Scope a recorder on exactly like a tracer::

    from repro.obs import FlightRecorder, use_flight

    with use_flight(FlightRecorder()) as fr:
        cluster.run_with_recovery(...)
    for box in fr.blackboxes:
        print(box["node"], box["reason"], len(box["events"]))

Event ring format and the dump schema are specified in DESIGN.md §13.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import threading
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "FlightEvent",
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
class FlightEvent:
    """One recorded ring entry, materialized for consumers.

    The ring itself stores bare tuples (``seq, time, kind, detail``) —
    this dataclass exists for query results and dump loading, not for
    the hot recording path.
    """

    seq: int
    time: float
    kind: str
    node: int
    detail: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-able dump row (DESIGN.md §13 event schema)."""
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "node": self.node,
            "detail": dict(self.detail),
        }


class FlightRecorder:
    """Bounded per-node rings of structured events + black-box dumps.

    ``capacity`` bounds each node's ring; older events fall off the
    back (the ``dropped`` count in a dump says how many).  ``record``
    is safe under the SPMD task threads, several of which write the
    global ring: one lock covers the sequence number, the append and
    the node's count.
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
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        #: emitted black-box dumps, in emission order
        self.blackboxes: List[Dict[str, Any]] = []
        self._dumped: set = set()

    # -- recording (the hot path) -------------------------------------------

    def record(
        self, kind: str, node: int = GLOBAL_NODE, time: float = 0.0, **detail: Any
    ) -> None:
        """Append one event to ``node``'s ring (the global ring by
        default).  Near-zero cost: one tuple, one deque append."""
        with self._lock:
            self._rings[node].append((next(self._seq), time, kind, detail))
            self._recorded[node] += 1

    # -- queries -------------------------------------------------------------

    def nodes(self) -> List[int]:
        """Node ids with at least one recorded event (global ring
        included as :data:`GLOBAL_NODE`)."""
        return sorted(self._rings)

    def ring(self, node: int = GLOBAL_NODE) -> List[FlightEvent]:
        """The current contents of one node's ring, oldest first."""
        return [
            FlightEvent(seq=s, time=t, kind=k, node=node, detail=dict(d))
            for s, t, k, d in list(self._rings.get(node, ()))
        ]

    def events(self) -> List[FlightEvent]:
        """Every resident event across all rings, in global sequence
        order (the interleaved view a forensic timeline wants)."""
        out: List[FlightEvent] = []
        for node in self.nodes():
            out.extend(self.ring(node))
        out.sort(key=lambda e: e.seq)
        return out

    def recorded(self, node: int = GLOBAL_NODE) -> int:
        """Total events ever recorded for ``node`` (dropped included)."""
        return self._recorded.get(node, 0)

    # -- black-box dumps -----------------------------------------------------

    def blackbox(
        self, node: int, reason: str = "", time: float = 0.0
    ) -> Dict[str, Any]:
        """Snapshot ``node``'s ring as a black-box dump (DESIGN.md §13
        schema), register it on :attr:`blackboxes`, and return it.

        The dump interleaves the node's own ring with the global ring —
        a dead node's story usually ends in scheduler/RC decisions that
        were recorded globally.
        """
        own = self.ring(node)
        context = self.ring(GLOBAL_NODE) if node != GLOBAL_NODE else []
        merged = sorted(own + context, key=lambda e: e.seq)
        box = {
            "schema": BLACKBOX_SCHEMA,
            "node": node,
            "reason": reason,
            "time": time,
            "capacity": self.capacity,
            "recorded": self.recorded(node),
            "dropped": max(0, self.recorded(node) - len(own)),
            "events": [e.to_dict() for e in merged],
        }
        with self._lock:
            self.blackboxes.append(box)
            self._dumped.add(node)
        return box

    def auto_blackbox(
        self, node: int, reason: str = "", time: float = 0.0
    ) -> Optional[Dict[str, Any]]:
        """Emit a black-box dump for ``node`` unless one was already
        emitted this incident (several layers observe the same death:
        the RC protocol, the L1 store drop, the cluster scenario — the
        first observer wins).  Returns the dump, or None if deduped."""
        with self._lock:
            if node in self._dumped:
                return None
        return self.blackbox(node, reason=reason, time=time)

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
            f"FlightRecorder({len(self._rings)} rings, "
            f"{len(self.blackboxes)} blackboxes)"
        )


class NullFlightRecorder(FlightRecorder):
    """The default recorder: records nothing, costs (almost) nothing."""

    enabled = False

    def __init__(self):
        self.capacity = 0
        self.blackboxes = []

    def record(self, kind, node=GLOBAL_NODE, time=0.0, **detail) -> None:
        pass

    def nodes(self) -> List[int]:
        return []

    def ring(self, node: int = GLOBAL_NODE) -> List[FlightEvent]:
        return []

    def events(self) -> List[FlightEvent]:
        return []

    def recorded(self, node: int = GLOBAL_NODE) -> int:
        return 0

    def blackbox(self, node, reason="", time=0.0) -> Dict[str, Any]:
        return {
            "schema": BLACKBOX_SCHEMA,
            "node": node,
            "reason": reason,
            "time": time,
            "capacity": 0,
            "recorded": 0,
            "dropped": 0,
            "events": [],
        }

    def auto_blackbox(self, node, reason="", time=0.0) -> None:
        return None

    def reset_incident(self) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": BLACKBOX_SCHEMA, "capacity": 0, "rings": {}, "blackboxes": []}

    def __repr__(self) -> str:
        return "NullFlightRecorder()"


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
