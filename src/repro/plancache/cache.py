"""The plan cache: a bounded LRU memo for pure plan computations.

The parstream pipeline recomputes the same pure artifacts on every
checkpoint: the transfer schedule of the canonical redistribution, the
recursive Fig. 5a partition of the streamed section, the running-sum
piece offsets, the per-task index plans.  All of them are functions of
*structural* inputs only — distribution geometry, slices, scalar
parameters — so an application that checkpoints the same arrays every
few minutes pays the full planning cost each time for an identical
answer.  :class:`PlanCache` memoizes those answers.

Keying discipline (see DESIGN.md §11):

* every key starts with a ``kind`` tag (``"schedule"``, ``"plan"``,
  ``"indexplan"``, ``"parstream"``) so unrelated plans never collide;
* distributions enter keys only through
  :meth:`~repro.arrays.distributions.Distribution.fingerprint` — a
  structural digest of the ``(a, m)`` geometry — so two distribution
  objects with the same geometry share entries and *any* geometric
  change produces a fresh key (stale plans are unreachable by
  construction);
* slices and scalars enter keys directly (:class:`~repro.arrays.slices.
  Slice` is immutable and hashable).

Eviction is LRU with a bounded entry count.  Nothing is ever
invalidated: keys are structural, so a changed geometry never meets a
stale entry, and an unused one ages out.

Every lookup feeds the active :mod:`repro.obs` metrics registry:
``plancache.hit`` / ``plancache.miss`` / ``plancache.eviction``
counters (plus per-kind ``plancache.hit[<kind>]`` series under a live
tracer), the ``plancache.resident_bytes`` gauge and
``plancache.saved_seconds`` — the wall-clock cost of the
original computation, credited on every hit — so ``breakdown_report``
can attribute the planning time the cache saved.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.obs import get_tracer

__all__ = [
    "PlanCache",
    "NullPlanCache",
    "get_plan_cache",
    "set_plan_cache",
    "use_plan_cache",
]

#: default entry bound — plans are small (slices + offsets), so this is
#: generous for any realistic working set of arrays x distributions
DEFAULT_MAXSIZE = 512


class PlanCache:
    """Bounded LRU memo mapping structural plan keys to plan values.

    Values are treated as immutable by contract: callers of the cached
    plan functions (:mod:`repro.plancache.plans`) receive either the
    cached object or a shallow copy, and must not mutate entries.
    Thread-safe: streaming ops on different threads (async drains,
    workflow members) may plan concurrently.
    """

    enabled = True

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError(f"plan cache needs maxsize >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        #: key -> (value, compute_seconds)
        self._entries: "OrderedDict[tuple, Tuple[object, float]]" = OrderedDict()
        # a library caller's own thread plans without the baton
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: wall seconds of original computations credited back on hits
        self.saved_seconds = 0.0

    # -- core --------------------------------------------------------------

    def get_or_compute(
        self, kind: str, key: tuple, compute: Callable[[], object]
    ) -> object:
        """The memoized value for ``(kind, *key)``, computing (and
        timing) it on a miss."""
        full_key = (kind,) + key
        with self._lock:
            entry = self._entries.get(full_key)
            if entry is not None:
                self._entries.move_to_end(full_key)
                self.hits += 1
                self.saved_seconds += entry[1]
        m = get_tracer().metrics
        if entry is not None:
            m.counter("plancache.hit").inc()
            m.counter("plancache.saved_seconds").inc(entry[1])
            if m.enabled:
                m.counter(f"plancache.hit[{kind}]").inc()
            return entry[0]
        # Compute outside the lock: plans are pure, so a racing duplicate
        # computation is wasted work, never a wrong answer.
        t0 = time.perf_counter()
        value = compute()
        cost = time.perf_counter() - t0
        evicted = 0
        with self._lock:
            self.misses += 1
            self._entries[full_key] = (value, cost)
            self._entries.move_to_end(full_key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
            resident = self._resident_bytes()
        m.counter("plancache.miss").inc()
        m.gauge("plancache.resident_bytes").set(resident)
        if m.enabled:
            m.counter(f"plancache.miss[{kind}]").inc()
        if evicted:
            m.counter("plancache.eviction").inc(evicted)
        return value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    # -- introspection -----------------------------------------------------

    def _resident_bytes(self) -> int:
        """Bytes the cached values hold, by their own ``nbytes`` (index
        plans; 0 for a value without one) — the entry
        bound says nothing about memory.  Caller holds the lock."""
        return sum(int(getattr(v[0], "nbytes", 0)) for v in self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters snapshot (the shape the benchmarks persist)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
                "saved_seconds": self.saved_seconds,
                "resident_bytes": self._resident_bytes(),
            }

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self)}/{self.maxsize} entries, "
            f"hits={self.hits}, misses={self.misses})"
        )


class NullPlanCache(PlanCache):
    """Caching disabled: every lookup computes.  Used to benchmark the
    uncached baseline and by tests that need cold-path behaviour."""

    enabled = False

    def __init__(self):  # a store that stays empty
        super().__init__()
        self.maxsize = 0

    def get_or_compute(self, kind, key, compute):
        self.misses += 1
        return compute()

    def __repr__(self) -> str:
        return "NullPlanCache()"


#: the process-wide default cache the plan functions consult
_default = PlanCache()
_current: PlanCache = _default


def get_plan_cache() -> PlanCache:
    """The active plan cache (a process-wide LRU by default)."""
    return _current


def set_plan_cache(cache: Optional[PlanCache]) -> PlanCache:
    """Install ``cache`` as the active plan cache (None restores the
    process default); returns the cache now active."""
    global _current
    _current = cache if cache is not None else _default
    return _current


@contextmanager
def use_plan_cache(cache: PlanCache) -> Iterator[PlanCache]:
    """Scope a plan cache: install on entry, restore the previous on
    exit.  Benchmarks use this to compare cold, warm, and disabled
    caching without touching the process default."""
    previous = _current
    set_plan_cache(cache)
    try:
        yield cache
    finally:
        set_plan_cache(previous)
