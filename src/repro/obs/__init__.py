"""repro.obs — unified tracing and metrics for the whole pipeline.

The paper's evidence is cost accounting (Tables 5-6 break checkpoint
and restart into their phases); this package is the measurement
substrate that produces such breakdowns from the live system:

* :mod:`repro.obs.spans`   — hierarchical spans over the simulated and
  wall clocks, with a cheap :class:`NullTracer` default;
* :mod:`repro.obs.metrics` — counters, gauges, histograms in one
  registry shared by every producer (checkpoint engines, streaming,
  PIOFS, fault injection);
* :mod:`repro.obs.export`  — Chrome trace-event JSON (``about:tracing``
  / Perfetto), flat metrics dumps, and OpenMetrics/Prometheus text;
* :mod:`repro.obs.report`  — Table 6-style phase breakdown tables;
* :mod:`repro.obs.flight`  — the one event record and its one write
  (:func:`emit_event`), and the bounded per-node flight recorder whose
  rings hold the same records as the infra EventLog and become
  black-box dumps when a node dies;
* :mod:`repro.obs.forensics` — incident files and the recovery
  timeline reconstructor (``python -m repro.tools.forensics``);
* :mod:`repro.obs.health`  — fleet health gauges (replica coverage,
  drain backlog, durable lag, checkpoint cadence);
* :mod:`repro.obs.catalog` — the documented metric-name families.

Tracing is off by default (the null tracer); scope it on with::

    from repro.obs import Tracer, use_tracer, breakdown_report

    with use_tracer(Tracer()) as tracer:
        drms_checkpoint(pfs, "ckpt", segment, arrays)
        drms_restart(pfs, "ckpt", ntasks=12)
    print(breakdown_report(tracer))

or run ``python -m repro.tools.trace`` for a full traced
checkpoint/restart cycle of a NAS proxy application.
"""

from repro.obs.catalog import METRIC_FAMILIES, match_family
from repro.obs.invariants import span_tree_violations
from repro.obs.export import (
    chrome_trace,
    metrics_dump,
    openmetrics_text,
    write_chrome_trace,
    write_metrics,
    write_openmetrics,
)
from repro.obs.flight import (
    GLOBAL_NODE,
    NULL_FLIGHT,
    Event,
    FlightRecorder,
    NullFlightRecorder,
    emit_event,
    get_flight,
    set_flight,
    use_flight,
)
from repro.obs.forensics import (
    INCIDENT_SCHEMA,
    ForensicTimeline,
    TimelinePhase,
    diff_incidents,
    load_events,
    load_incident,
    make_incident,
    reconstruct_timeline,
    render_diff,
    render_timeline,
    write_incident,
)
from repro.obs.health import HealthRegistry
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.report import (
    breakdown_report,
    mlck_summary,
    op_summary,
    phase_rows,
    plancache_summary,
)
from repro.obs.spans import (
    NULL_TRACER,
    Mark,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Span",
    "Mark",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_dump",
    "write_metrics",
    "openmetrics_text",
    "write_openmetrics",
    "Event",
    "emit_event",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "GLOBAL_NODE",
    "get_flight",
    "set_flight",
    "use_flight",
    "HealthRegistry",
    "INCIDENT_SCHEMA",
    "ForensicTimeline",
    "TimelinePhase",
    "load_events",
    "load_incident",
    "make_incident",
    "write_incident",
    "reconstruct_timeline",
    "render_timeline",
    "diff_incidents",
    "render_diff",
    "METRIC_FAMILIES",
    "match_family",
    "breakdown_report",
    "plancache_summary",
    "mlck_summary",
    "op_summary",
    "phase_rows",
    "span_tree_violations",
]
