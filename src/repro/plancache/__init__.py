"""repro.plancache — memoized plans for the parstream hot path.

Checkpointing the same arrays repeatedly recomputes identical pure
artifacts every time: redistribution transfer schedules, Fig. 5a
stream-order partitions, piece byte offsets, per-task index plans.
This package amortizes them (the Plaat et al. observation from
PAPERS.md that real checkpoint throughput comes from amortizing plan
work and overlapping I/O):

* :mod:`repro.plancache.cache` — the bounded LRU
  (:class:`PlanCache`), its no-op twin (:class:`NullPlanCache`), and
  the process-default/scoping API;
* :mod:`repro.plancache.plans` — cached front-ends for the pure plan
  functions, keyed by structural fingerprints.

Hot paths (``streaming.serial``/``parallel``, ``arrays.assignment``)
consult the active cache via these
front-ends; ``plancache.hit`` / ``plancache.miss`` /
``plancache.eviction`` / ``plancache.saved_seconds`` metrics record
what caching bought (see DESIGN.md §11).
"""

from repro.plancache.cache import (
    NullPlanCache,
    PlanCache,
    get_plan_cache,
    set_plan_cache,
    use_plan_cache,
)
from repro.plancache.plans import (
    streaming_plan,
    transfer_schedule,
)

__all__ = [
    "PlanCache",
    "NullPlanCache",
    "get_plan_cache",
    "set_plan_cache",
    "use_plan_cache",
    "transfer_schedule",
    "streaming_plan",
]
