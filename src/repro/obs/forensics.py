"""Failure forensics: incident dumps and the recovery-timeline
reconstructor.

The paper's value proposition is recovery latency, so a failure should
be an *explorable artifact*, not an assertion pass/fail.  This module
turns one incident — the cluster :class:`~repro.infra.events.EventLog`,
the flight recorder's black-box dumps (:mod:`repro.obs.flight`), and
optionally a tracer's spans — into a single ordered forensic report::

    failure detected -> state selected (tier, generation, rejections)
                     -> rebuild -> resume

with per-phase latency attribution that sums to the recovery latency
the cluster reports (``RecoveryOutcome.recovery_latency_s``), a
property the flight-marked tests assert.  The log and the rings hold
the same :class:`~repro.obs.flight.Event` records, so the timeline is
every record once (a ring row is the log's when it has the log's
``seq``) plus the tracer's span rows.

An **incident dump** is one JSON document (schema
``repro.forensics/2``) carrying everything needed to re-run the
analysis offline: events, black boxes, the recovery outcome, a health
snapshot, and the flat metrics.  ``python -m repro.tools.forensics``
produces and consumes these; :func:`diff_incidents` compares two.

:func:`load_events` round-trips :meth:`~repro.infra.events.EventLog.to_json`
exactly — the degenerate-input tests in ``tests/obs`` pin that down.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.flight import GLOBAL_NODE, Event

if TYPE_CHECKING:  # infra itself imports repro.obs
    from repro.infra.events import EventLog

__all__ = [
    "INCIDENT_SCHEMA",
    "TimelinePhase",
    "ForensicTimeline",
    "load_events",
    "make_incident",
    "write_incident",
    "load_incident",
    "reconstruct_timeline",
    "render_timeline",
    "diff_incidents",
    "render_diff",
]

#: incident dump schema version (DESIGN.md §13); /2 rows carry the
#: record's ``seq`` and ``node``
INCIDENT_SCHEMA = "repro.forensics/2"


@dataclass(frozen=True)
class TimelinePhase:
    """One attributed recovery phase."""

    name: str
    start: float
    seconds: float
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.seconds


@dataclass
class ForensicTimeline:
    """The reconstructed story of one failure + recovery: every record
    of the incident once, in ``(time, seq)`` order, and the tracer's
    span rows (``name``, ``sim_start``, ``sim_seconds``, ``attrs``)."""

    entries: List[Event]
    phases: List[TimelinePhase]
    spans: List[Dict[str, Any]] = field(default_factory=list)
    failed_node: Optional[int] = None
    job: Optional[str] = None
    chosen_prefix: Optional[str] = None
    chosen_tier: Optional[str] = None
    rejections: List[Dict[str, Any]] = field(default_factory=list)
    resumed_at: Optional[float] = None

    @property
    def total_seconds(self) -> float:
        """Sum of the attributed phase latencies — equals the cluster's
        reported recovery latency (within float tolerance)."""
        return sum(p.seconds for p in self.phases)

    def phase(self, name: str) -> Optional[TimelinePhase]:
        """The attributed phase named ``name``, or None."""
        for p in self.phases:
            if p.name == name:
                return p
        return None


# -- loaders -----------------------------------------------------------------


def load_events(
    data: Union[str, bytes, Iterable[Union[Event, Dict[str, Any]]]]
) -> List[Event]:
    """Rebuild :class:`Event` records from any serialized form of an
    event log: the JSON string :meth:`EventLog.to_json` produced, the
    already-parsed list of rows, a live :class:`EventLog`, or a
    sequence of :class:`Event` objects (passed through)."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    return [row if isinstance(row, Event) else Event.from_dict(row) for row in data]


# -- incident dumps ----------------------------------------------------------


def make_incident(
    events: Union["EventLog", Sequence[Event], Sequence[Dict[str, Any]]],
    flight=None,
    outcome=None,
    health=None,
    metrics=None,
    tracer=None,
    job: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble one incident dump (schema ``repro.forensics/2``).

    ``flight`` is a :class:`~repro.obs.flight.FlightRecorder` (its
    emitted black boxes ride along), ``outcome`` a
    :class:`~repro.infra.cluster.RecoveryOutcome`, ``health`` a
    :class:`~repro.obs.health.HealthRegistry`, ``metrics`` a
    :class:`~repro.obs.metrics.MetricsRegistry`, ``tracer`` a
    :class:`~repro.obs.spans.Tracer` whose completed spans join the
    merged timeline.
    """
    event_rows = [e.to_dict() for e in load_events(events)]
    incident: Dict[str, Any] = {
        "schema": INCIDENT_SCHEMA,
        "job": job,
        "created": event_rows[-1]["time"] if event_rows else 0.0,
        "events": event_rows,
        "blackboxes": list(flight.blackboxes) if flight is not None else [],
    }
    if tracer is not None:
        incident["spans"] = [
            {
                "name": s.name,
                "sim_start": s.sim_start,
                "sim_seconds": s.sim_seconds,
                "attrs": {k: repr(v) for k, v in s.attrs.items()},
            }
            for s in tracer.spans
            if s.done
        ]
    if outcome is not None:
        report = outcome.final_report
        bd = getattr(report, "restart_breakdown", None)
        incident["failed_node"] = outcome.failed_node
        incident["recovery"] = {
            "latency_s": outcome.recovery_latency_s,
            "node_repair_s": outcome.node_repair_s,
            "tasks_before": outcome.tasks_before,
            "tasks_after": outcome.tasks_after,
            "restarted_from": getattr(report, "restarted_from", None),
            "restart_seconds": bd.total_seconds if bd is not None else 0.0,
            "restart_kind": bd.kind if bd is not None else None,
        }
    if health is not None:
        incident["health"] = health.snapshot()
    if metrics is not None:
        incident["metrics"] = metrics.flat()
    return incident


def write_incident(path, incident: Dict[str, Any]) -> pathlib.Path:
    """Serialize an incident dump to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(incident, indent=1, default=repr))
    return path


def load_incident(source: Union[str, pathlib.Path, Dict[str, Any]]) -> Dict[str, Any]:
    """Load an incident dump from a path (or pass a dict through),
    verifying the schema tag."""
    if isinstance(source, (str, pathlib.Path)):
        source = json.loads(pathlib.Path(source).read_text())
    schema = source.get("schema")
    if schema != INCIDENT_SCHEMA:
        raise ValueError(
            f"not an incident dump: schema {schema!r} (expected "
            f"{INCIDENT_SCHEMA!r})"
        )
    return source


# -- the reconstructor -------------------------------------------------------


def _records(
    events: List[Event], blackboxes: Sequence[Dict[str, Any]]
) -> List[Event]:
    """Each record once: the log's, then every ring row that is not one
    of them — a log record is on a ring too, and the rings of two dumps
    overlap on the global ring — ordered by time, then ``seq``."""
    records = list(events)
    seen = {e.seq for e in events}
    for box in blackboxes:
        for ev in load_events(box.get("events", ())):
            if ev.seq not in seen:
                seen.add(ev.seq)
                records.append(ev)
    records.sort(key=lambda e: (e.time, e.seq))
    return records


def reconstruct_timeline(
    incident: Union[Dict[str, Any], "EventLog", Sequence[Event]],
    blackboxes: Optional[Sequence[Dict[str, Any]]] = None,
) -> ForensicTimeline:
    """Reconstruct the failure -> tiered-restart sequence of the *last*
    incident in the record.

    Accepts a full incident dump, or a raw event log plus black boxes.
    Phase attribution (each phase's simulated seconds):

    * ``detection`` — failure injection to the TC disconnect;
    * ``failure_protocol`` — the RC's five-step protocol (TC restarts);
    * ``state_selection`` — the tier-aware recovery walk (events carry
      the chosen generation/tier and every rejection);
    * ``rebuild`` — the restart's state reconstruction, taken from the
      ``restart_seconds`` the JSA records on ``job_restarted``.

    Their sum is the recovery latency the cluster reports.
    """
    if isinstance(incident, dict):
        events = load_events(incident.get("events", []))
        blackboxes = incident.get("blackboxes", [])
        spans = incident.get("spans", [])
        recovery = incident.get("recovery", {})
    else:
        events = load_events(incident)
        blackboxes = list(blackboxes or [])
        spans = []
        recovery = {}

    tl = ForensicTimeline(
        entries=_records(events, blackboxes), phases=[], spans=list(spans)
    )

    # anchor on the last observed failure: injection if recorded,
    # otherwise the first TC disconnect.
    injected = [e for e in events if e.kind == "failure_injected"]
    start_idx = 0
    t_inject = None
    if injected:
        anchor = injected[-1]
        t_inject = anchor.time
        tl.failed_node = anchor.detail.get("node")
        tl.job = anchor.detail.get("job")
        start_idx = events.index(anchor)
    window = events[start_idx:]

    def first(kind: str) -> Optional[Event]:
        for e in window:
            if e.kind == kind:
                return e
        return None

    disconnect = first("tc_disconnected")
    if tl.failed_node is None and disconnect is not None:
        tl.failed_node = disconnect.detail.get("node")
    restarted_tcs = first("tcs_restarted")
    recovery_started = first("recovery_started")
    if tl.job is None and recovery_started is not None:
        tl.job = recovery_started.detail.get("job")
    verified = first("checkpoint_verified")
    job_restarted = first("job_restarted")

    tl.rejections = [
        {
            "prefix": e.detail.get("prefix"),
            "tier": e.detail.get("tier"),
            "errors": e.detail.get("errors"),
        }
        for e in window
        if e.kind == "checkpoint_rejected"
    ]
    if verified is not None:
        tl.chosen_prefix = verified.detail.get("prefix")
        tl.chosen_tier = verified.detail.get("tier")

    # -- phase attribution --------------------------------------------------
    if disconnect is not None:
        t0 = t_inject if t_inject is not None else disconnect.time
        tl.phases.append(
            TimelinePhase(
                name="detection",
                start=t0,
                seconds=max(0.0, disconnect.time - t0),
                detail={"node": tl.failed_node},
            )
        )
        t_protocol_end = (
            restarted_tcs.time if restarted_tcs is not None else disconnect.time
        )
        tl.phases.append(
            TimelinePhase(
                name="failure_protocol",
                start=disconnect.time,
                seconds=max(0.0, t_protocol_end - disconnect.time),
                detail={
                    "healthy": restarted_tcs.detail.get("healthy")
                    if restarted_tcs is not None
                    else None
                },
            )
        )
        t_select_start = (
            recovery_started.time
            if recovery_started is not None
            else t_protocol_end
        )
        t_select_end = verified.time if verified is not None else t_select_start
        tl.phases.append(
            TimelinePhase(
                name="state_selection",
                start=t_select_start,
                seconds=max(0.0, t_select_end - t_select_start),
                detail={
                    "prefix": tl.chosen_prefix,
                    "tier": tl.chosen_tier,
                    "rejected": len(tl.rejections),
                },
            )
        )
        rebuild_seconds = 0.0
        if job_restarted is not None:
            rebuild_seconds = float(
                job_restarted.detail.get("restart_seconds", 0.0)
            )
        elif recovery:
            rebuild_seconds = float(recovery.get("restart_seconds", 0.0))
        rebuild_detail = {
            "kind": job_restarted.detail.get("restart_kind")
            if job_restarted is not None
            else recovery.get("restart_kind"),
            "ntasks": job_restarted.detail.get("ntasks")
            if job_restarted is not None
            else recovery.get("tasks_after"),
        }
        # Localized recoveries tag the phase with what was actually
        # rebuilt (lost ranks, byte scope) — the JSA attaches the
        # RebuildScope summary to its job_restarted event.
        scope = (
            job_restarted.detail.get("rebuild_scope")
            if job_restarted is not None
            else None
        )
        if scope is not None:
            rebuild_detail["rebuild_scope"] = scope
        tl.phases.append(
            TimelinePhase(
                name="rebuild",
                start=t_select_end,
                seconds=rebuild_seconds,
                detail=rebuild_detail,
            )
        )
        if job_restarted is not None:
            tl.resumed_at = t_select_end + rebuild_seconds
    return tl


# -- rendering ---------------------------------------------------------------


def render_timeline(tl: ForensicTimeline, max_entries: int = 60) -> str:
    """The forensic report as text: the merged entry stream (tail-
    truncated to ``max_entries``) followed by the phase attribution."""
    lines = []
    head = "forensic timeline"
    if tl.job is not None:
        head += f" — job {tl.job!r}"
    if tl.failed_node is not None:
        head += f", node {tl.failed_node} failed"
    lines.append(head)
    rows = []
    for e in tl.entries:
        where = f" node={e.node}" if e.node != GLOBAL_NODE else ""
        items = {k: v for k, v in e.detail.items() if k != "node"}
        rows.append((e.time, f"{e.kind}{where}", items))
    for s in tl.spans:
        items = {"seconds": s.get("sim_seconds"), **s.get("attrs", {})}
        rows.append((float(s.get("sim_start", 0.0)), f"span {s.get('name')}", items))
    rows.sort(key=lambda r: r[0])  # stable: records before spans at a tie
    if len(rows) > max_entries:
        lines.append(f"  ... {len(rows) - max_entries} earlier entries elided")
        rows = rows[-max_entries:]
    for t, what, items in rows:
        text = ", ".join(f"{k}={v!r}" for k, v in items.items())
        lines.append(f"  [{t:10.3f}s] {what}" + (f"  ({text})" if text else ""))
    if tl.phases:
        lines.append("phases (failure -> resume):")
        for p in tl.phases:
            extra = ""
            if p.name == "state_selection" and p.detail.get("prefix"):
                extra = (
                    f"   chose {p.detail['prefix']} "
                    f"(tier {p.detail.get('tier')}), "
                    f"{p.detail.get('rejected', 0)} rejected"
                )
            elif p.name == "rebuild" and p.detail.get("kind"):
                extra = f"   via {p.detail['kind']}"
            lines.append(f"  {p.name:<18} {p.seconds:10.3f}s{extra}")
        lines.append(f"  {'total':<18} {tl.total_seconds:10.3f}s")
    if tl.resumed_at is not None:
        lines.append(f"resumed at {tl.resumed_at:.3f}s")
    return "\n".join(lines)


# -- incident diff -----------------------------------------------------------


def diff_incidents(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    """Structured comparison of two incident dumps: phase-latency
    deltas, serving tier/generation changes, rejection counts, and
    black-box coverage."""
    ta, tb = reconstruct_timeline(a), reconstruct_timeline(b)
    phases = {}
    for name in ("detection", "failure_protocol", "state_selection", "rebuild"):
        pa, pb = ta.phase(name), tb.phase(name)
        sa = pa.seconds if pa is not None else 0.0
        sb = pb.seconds if pb is not None else 0.0
        phases[name] = {"a": sa, "b": sb, "delta": sb - sa}
    return {
        "failed_node": {"a": ta.failed_node, "b": tb.failed_node},
        "chosen": {
            "a": {"prefix": ta.chosen_prefix, "tier": ta.chosen_tier},
            "b": {"prefix": tb.chosen_prefix, "tier": tb.chosen_tier},
        },
        "rejections": {"a": len(ta.rejections), "b": len(tb.rejections)},
        "phases": phases,
        "total": {
            "a": ta.total_seconds,
            "b": tb.total_seconds,
            "delta": tb.total_seconds - ta.total_seconds,
        },
        "blackboxes": {
            "a": len(a.get("blackboxes", [])),
            "b": len(b.get("blackboxes", [])),
        },
    }


def render_diff(diff: Dict[str, Any]) -> str:
    """One readable table of a :func:`diff_incidents` result."""
    lines = ["incident diff (A vs B)"]
    ch = diff["chosen"]
    lines.append(
        f"  failed node        {diff['failed_node']['a']} vs "
        f"{diff['failed_node']['b']}"
    )
    lines.append(
        f"  state chosen       {ch['a']['prefix']} ({ch['a']['tier']}) vs "
        f"{ch['b']['prefix']} ({ch['b']['tier']})"
    )
    lines.append(
        f"  rejections         {diff['rejections']['a']} vs "
        f"{diff['rejections']['b']}"
    )
    for name, row in diff["phases"].items():
        lines.append(
            f"  {name:<18} {row['a']:10.3f}s vs {row['b']:10.3f}s  "
            f"(delta {row['delta']:+.3f}s)"
        )
    t = diff["total"]
    lines.append(
        f"  {'total':<18} {t['a']:10.3f}s vs {t['b']:10.3f}s  "
        f"(delta {t['delta']:+.3f}s)"
    )
    return "\n".join(lines)
