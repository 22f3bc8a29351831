"""Cached front-ends for the pure plan computations.

Each function here wraps one expensive pure computation from the
streaming/redistribution hot path with the active :class:`~repro.
plancache.cache.PlanCache`:

* :func:`transfer_schedule` — the point-to-point schedule of an array
  assignment (``arrays/assignment.py``), keyed by the two distribution
  fingerprints;
* :func:`section_index_plan` — a section's per-task gather / scatter
  plan, whose index arrays are read-only because the cached plan is
  shared between callers;
* :func:`streaming_plan` — the Fig. 5a stream-order partition
  (``streaming/partition.py``) and its running-sum byte offsets, the
  (pieces, offsets) pair streaming needs, as one composite entry;
* :func:`parstream_schedule` — everything a bulk parstream plans, one entry.

The wrapped functions stay pure and uncached in their home modules;
callers that want memoization import from here.  Results that callers
could mutate (lists) are returned as shallow copies of the cached
tuples; :class:`~repro.arrays.slices.Slice` and
:class:`~repro.arrays.assignment.Transfer` elements are immutable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.arrays.distributions import Distribution
from repro.arrays.slices import Slice
from repro.plancache.cache import get_plan_cache
from repro.streaming.order import check_order
from repro.streaming.partition import (
    partition_for_target as _partition_for_target,
)
from repro.streaming.partition import piece_offsets as _piece_offsets

__all__ = [
    "transfer_schedule",
    "section_index_plan",
    "streaming_plan",
    "parstream_schedule",
]


def transfer_schedule(src: Distribution, dst: Distribution) -> List:
    """Memoized :func:`repro.arrays.assignment.build_schedule` for an
    assignment ``dst <- src``."""
    # local import: arrays.assignment must stay importable without
    # plancache (the cache layer sits above the pure layer)
    from repro.arrays.assignment import build_schedule

    sched = get_plan_cache().get_or_compute(
        "schedule",
        (src.fingerprint(), dst.fingerprint()),
        lambda: tuple(build_schedule(src, dst)),
    )
    return list(sched)


def section_index_plan(
    dist: Distribution,
    section: Slice,
    order: str = "F",
    kind: str = "assigned",
):
    """Memoized :func:`repro.streaming.vectorized.
    build_section_index_plan` — the per-task strided boxes (with a
    position list per irregular axis) of a bulk gather (kind
    ``"assigned"``) or scatter (kind ``"mapped"``).  The distribution
    enters the key only via its fingerprint.  The plan's position lists
    are **read-only** (shared by every caller of the same key)."""
    # local import: the pure kernel module must stay importable without
    # plancache (the cache layer sits above the pure layer)
    from repro.streaming.vectorized import build_section_index_plan

    return get_plan_cache().get_or_compute(
        "indexplan",
        (dist.fingerprint(), section, check_order(order), str(kind)),
        lambda: build_section_index_plan(dist, section, order=order, kind=kind),
    )


def streaming_plan(
    section: Slice,
    itemsize: int,
    target_bytes: int = 1 << 20,
    min_pieces: int = 1,
    order: str = "F",
) -> Tuple[Tuple[Slice, ...], Tuple[int, ...]]:
    """The (pieces, offsets) pair of one parstream operation, memoized
    as a single composite entry so a warm checkpoint pays one lookup."""

    def compute() -> Tuple[Tuple[Slice, ...], Tuple[int, ...]]:
        pieces = tuple(
            _partition_for_target(
                section, itemsize, target_bytes=target_bytes,
                min_pieces=min_pieces, order=order,
            )
        )
        return pieces, tuple(_piece_offsets(list(pieces), itemsize))

    return get_plan_cache().get_or_compute(
        "plan",
        (section, int(itemsize), int(target_bytes), int(min_pieces),
         check_order(order)),
        compute,
    )


def parstream_schedule(
    dist: Distribution, section: Optional[Slice], itemsize: int,
    target_bytes: int, P: int, order: str,
):
    """Memoized :func:`repro.streaming.parallel.build_parstream_schedule`
    of a data-bearing array: a warm parstream is one lookup.  ``section``
    None is the whole array (the fingerprint encodes the shape), so the
    lookup builds and hashes no :class:`Slice`."""
    from repro.streaming.parallel import build_parstream_schedule

    def compute():
        sec = section or Slice.full(dist.shape)
        return build_parstream_schedule(
            sec, itemsize, target_bytes, P, order, section_index_plan(dist, sec, order)
        )

    return get_plan_cache().get_or_compute(
        "parstream",
        (dist.fingerprint(), section, itemsize, target_bytes, P, order),
        compute,
    )
