"""The metrics catalog: every published metric name belongs to a
documented family.

DESIGN.md §9 fixes the naming convention (dotted lowercase paths,
``<layer>.<operation>.<unit>``, per-entity series in brackets); this
module fixes the *families* — the set of name shapes the codebase is
allowed to publish.  A static test (``tests/obs/test_catalog.py``)
extracts every ``counter("...")`` / ``gauge("...")`` /
``histogram("...")`` literal under ``src/repro/`` and asserts it
matches one family, so a typo'd metric name (``mlck.drian.pending``)
fails CI instead of silently forking a new series.

Families are full-match regular expressions over the *published* name
(before :meth:`~repro.obs.metrics.MetricsRegistry.flat` expands
histogram summaries).  Dynamic segments that instrumentation fills at
runtime (the PFS operation, the failure domain, the job state) are
constrained to the character class the convention allows.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

__all__ = ["METRIC_FAMILIES", "match_family"]

#: one dynamic dotted segment (job states, tiers, ...)
_SEG = r"[a-z0-9_]+"
#: bracketed per-entity suffix (file names, domains; dots allowed)
_ENT = r"\[[A-Za-z0-9_.{}\- ]+\]"

#: (family, full-match regex, one-line description)
METRIC_FAMILIES: List[Tuple[str, str, str]] = [
    (
        "breakdown",
        rf"(checkpoint|restart)\.(count|(segment|arrays|other|total)\.(seconds|bytes))",
        "per-operation phase breakdown totals published by the engines",
    ),
    (
        "flight",
        r"flight\.(recorded|blackboxes)",
        "flight-recorder volume counters (obs.flight instrumentation)",
    ),
    (
        "health",
        rf"health\.(nodes|pools|jobs|l1|drain|durable|checkpoint|fleet)\.{_SEG}({_ENT})?",
        "fleet health gauges computed by obs.health.HealthRegistry",
    ),
    ("jsa", r"jsa\.recoveries", "Job Scheduler recovery tally"),
    ("rc", r"rc\.failures", "Resource Coordinator failure-protocol tally"),
    (
        "mlck",
        rf"mlck\.(l1|l2|drain|recover|restore|localized)\.{_SEG}(\.{_SEG})?",
        "multi-level checkpoint store: captures, drains, tier hits, "
        "bytes hashed (mlck.l1.verified.bytes), localized-recovery "
        "scope/re-replication accounting",
    ),
    (
        "pfs",
        rf"pfs\.(create|unlink|rename|write|read|phase|faults)\.{_SEG}(\.{_SEG})?({_ENT})?",
        "parallel-file-system operation/phase/fault accounting",
    ),
    (
        "fleet",
        rf"fleet\.{_SEG}(\.{_SEG})?",
        "fleet-simulation outcome totals (infra.fleet): completions, "
        "injected failures, lost work, recovery latency",
    ),
    (
        "workflow",
        rf"workflow\.{_SEG}(\.{_SEG})?",
        "coupled-workflow coordination: exchange/steering tallies, "
        "coupling wire bytes, committed/rejected/fallback line counts, "
        "per-line ensemble checkpoint seconds, and member restore tiers",
    ),
    (
        "plancache",
        rf"plancache\.(hit|miss|eviction|saved_seconds|resident_bytes)"
        rf"({_ENT})?",
        "plan-cache hit/miss/eviction accounting and resident plan bytes",
    ),
    (
        "recover",
        r"recover\.(verified|rejected|fallback)",
        "restart-state walk outcomes (checkpoint.recover, mlck.recovery)",
    ),
    (
        "stream",
        r"stream\.(out|in|redistribution)\.(bytes|pieces)",
        "streaming-engine byte/piece totals (StreamStats.publish)",
    ),
    (
        "validate",
        r"validate\.(count|failed|files|bytes_hashed)",
        "checkpoint integrity validation tallies",
    ),
]

_COMPILED = [
    (family, re.compile(pattern), doc) for family, pattern, doc in METRIC_FAMILIES
]


def match_family(name: str) -> Optional[str]:
    """The family that documents ``name``, or None if the name is
    outside every documented family (a typo, or a new family that must
    be added here with a description)."""
    for family, regex, _ in _COMPILED:
        if regex.fullmatch(name):
            return family
    return None
