"""Metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` collects every numeric series the pipeline
produces — bytes moved by the streaming engines, PIOFS operation and
fault counters, phase-duration histograms.  The registry is the single
sink: producers that used to keep private accounting (``StreamStats``)
feed the same names here, so one flat dump carries the whole story.

Instruments are cheap and lock-protected; ``counter()`` / ``gauge()`` /
``histogram()`` get-or-create by name, so producers never coordinate.
:class:`NullMetricsRegistry` is the no-op twin used by the default
:class:`~repro.obs.spans.NullTracer` — instrumented hot paths pay one
attribute lookup and a no-op call when observability is off.

Naming convention (see DESIGN.md §9): dotted lowercase paths,
``<layer>.<operation>.<unit>`` — e.g. ``pfs.write.bytes``,
``checkpoint.drms.segment.seconds``, ``stream.redistribution.bytes``.
Per-file counters append the file name in brackets:
``pfs.write.bytes[ckpt.segment]``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
]

#: raw samples kept per histogram; beyond this only the running
#: count/sum/min/max stay exact and percentiles reflect the prefix
_HISTOGRAM_CAPACITY = 65536


class Counter:
    """Monotone accumulator (float-valued: seconds count too)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> float:
        """Add ``amount`` (must be >= 0); returns the new value."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        return self.value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> float:
        """Record the current value; returns it."""
        self.value = float(value)
        return self.value


class Histogram:
    """Value distribution with exact count/sum/min/max and
    percentile summaries over the retained samples."""

    __slots__ = ("name", "values", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample (retained up to the sample capacity)."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self.values) < _HISTOGRAM_CAPACITY:
            self.values.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) of the retained samples,
        by nearest-rank on the sorted values.  The extremes are exact:
        ``p=0`` returns the true min and ``p=100`` the true max (tracked
        over *all* observations, beyond the retained-sample capacity).
        An empty histogram returns 0.0 for any ``p`` — never NaN, never
        an exception."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside 0..100")
        if self.count == 0:
            return 0.0
        if p == 0.0:
            return self.min if self.min is not None else 0.0
        if p == 100.0:
            return self.max if self.max is not None else 0.0
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        idx = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    def summary(self) -> Dict[str, float]:
        """count/sum/mean/min/max plus p0/p50/p90/p99/p100.

        Well-defined for every histogram state: an empty histogram
        yields ``count=0`` and zeros throughout (no NaN, no raise), and
        ``p0``/``p100`` equal ``min``/``max`` exactly by construction.
        """
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p0": self.percentile(0),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p100": self.percentile(100),
        }


class MetricsRegistry:
    """Named instruments, get-or-create, safe under task threads."""

    #: hot paths branch on this to skip optional (e.g. per-file) series
    enabled = True

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        # a library caller's own thread counts without the baton
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """Get or create the counter named ``name``."""
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge named ``name``."""
        g = self.gauges.get(name)
        if g is None:
            with self._lock:
                g = self.gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram named ``name``."""
        h = self.histograms.get(name)
        if h is None:
            with self._lock:
                h = self.histograms.setdefault(name, Histogram(name))
        return h

    def to_dict(self) -> Dict[str, Dict]:
        """Structured dump: counters, gauges, histogram summaries."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
        }

    def flat(self) -> Dict[str, float]:
        """Flat ``name -> number`` dump (the ``BENCH_*.json``-style
        format benchmarks consume): counters and gauges verbatim,
        histograms expanded as ``name.count`` / ``name.mean`` /
        ``name.p50`` et al.  Key order is guaranteed deterministic —
        lexicographic over the full expanded key set, independent of
        instrument creation order — so dumps diff cleanly across runs.
        """
        out: Dict[str, float] = {}
        for n, c in self.counters.items():
            out[n] = c.value
        for n, g in self.gauges.items():
            out[n] = g.value
        for n, h in self.histograms.items():
            for k, v in h.summary().items():
                out[f"{n}.{k}"] = v
        return dict(sorted(out.items()))


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "<null>"
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0
    min = None
    max = None

    def inc(self, amount: float = 1.0) -> float:
        return 0.0

    def set(self, value: float) -> float:
        return 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """No-op registry: every lookup returns one shared null instrument."""

    enabled = False

    def __init__(self):  # no dicts, no lock
        pass

    def counter(self, name: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str):
        return _NULL_INSTRUMENT

    def histogram(self, name: str):
        return _NULL_INSTRUMENT

    def to_dict(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def flat(self) -> Dict[str, float]:
        return {}


#: the shared no-op registry used by the default NullTracer
NULL_METRICS = NullMetricsRegistry()
