"""Vectorized bulk gather/scatter over precomputed section plans.

The scalar hot path assembled every piece with nested Python loops:
for each owner task, intersect, build an ``np.ix_`` mesh, copy a small
block.  At bench piece sizes (KB-scale) the interpreter overhead of
those loops — not the byte copies — dominated parallel streaming.

This module replaces the loops with one numpy copy per overlapping task,
driven by a **section index plan**: for a (distribution, section,
order) triple and a coverage kind, one entry per task whose section
meets the section.  What an entry holds is read off its geometry
(:func:`repro.arrays.slices.arithmetic_slice`, per axis, both sides):

* a :class:`BoxEntry` when the overlap's positions are arithmetic on
  every axis, within the section's own mesh *and* within the task's
  local array (BLOCK, CYCLIC, GENBLOCK, replicated axes, any shadows):
  one tuple of ``slice``s per side, and gather is ``mesh[sbox] =
  local[lbox]`` on ``mesh = flat.reshape(section.shape, order)``, a
  view of the flat stream buffer — a strided copy, O(rank) metadata;
* a :class:`VectorEntry` when some axis is irregular (INDEXED index
  lists, multi-block BLOCK(k)): int64 vectors ``spos`` (stream
  positions within the section) and ``lflat`` (flat positions within
  the task's C-contiguous local array), both enumerating the overlap in
  its own ``order``-major stream, so gather is ``flat[spos] =
  local_flat[lflat]`` — 24 B of index per element, sorted copy included.

Scatter is the transposed assignment per mapping task (kind
``"mapped"``; overlapping copies all receive the same value); gather
runs over owners (kind ``"assigned"``; pairwise disjoint).  Plans depend
only on distribution geometry, so they are cached in
:mod:`repro.plancache` (kind ``"indexplan"``, keyed by the distribution
fingerprint, ``nbytes`` summed into ``plancache.resident_bytes``).
Pieces of the Fig. 5a partition are stream-contiguous, so a piece is a
stream-position interval and its redistribution accounting
(:func:`range_redistribution_bytes`) counts each owner's elements
inside it: a box in closed form, a vector entry by binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Distribution
from repro.arrays.slices import Slice
from repro.errors import StreamingError
from repro.streaming.order import check_order

__all__ = [
    "BoxEntry",
    "VectorEntry",
    "SectionIndexPlan",
    "build_section_index_plan",
    "gather_section_flat",
    "scatter_section_flat",
    "range_redistribution_bytes",
]

#: coverage kinds: "assigned" drives gather (ownership; disjoint),
#: "mapped" drives scatter (delivery; may overlap across tasks)
_KINDS = ("assigned", "mapped")


@dataclass(frozen=True)
class BoxEntry:
    """One task's share of a plan, as a strided box on both sides."""

    task: int
    size: int
    #: slices into the section's mesh / into the task's local array
    sbox: Tuple[slice, ...]
    lbox: Tuple[slice, ...]
    #: ``sbox`` in stream terms, slowest axis first: per axis (stream
    #: stride, first index, step, count, box elements in the faster axes)
    walk: Tuple[Tuple[int, int, int, int, int], ...]

    @property
    def nbytes(self) -> int:
        return 88 * len(self.sbox)  # eleven integers per axis

    def gather(self, flat, mesh, darray: DistributedArray) -> None:
        mesh[self.sbox] = darray.local(self.task)[self.lbox]

    def scatter(self, flat, mesh, darray: DistributedArray) -> None:
        darray.local(self.task)[self.lbox] = mesh[self.sbox]

    def _count_below(self, pos: int) -> int:
        """Box elements at stream positions ``< pos``: per axis, every
        box index below the position's digit contributes the box
        elements of the faster axes; descend while the digit itself is
        a box index."""
        count = 0
        for stride, first, step, n, inner in self.walk:
            digit, pos = divmod(pos, stride)
            k, off = divmod(digit - first, step)
            if k < 0:
                return count
            if k >= n:
                return count + n * inner
            count += (k + (off > 0)) * inner
            if off:
                break
        return count

    def count_between(self, lo: int, hi: int) -> int:
        """Box elements at stream positions in ``[lo, hi)``."""
        return self._count_below(hi) - self._count_below(lo)

    def runs(self) -> List[Tuple[int, int]]:
        """Stream-position intervals ``[start, stop)`` covering the box:
        the fastest axes fold into one run while each has step 1 (a
        single index does) and all faster ones span their full extent;
        the run starts are the outer product of the remaining axes."""
        outer = list(self.walk)
        run, base = 1, 0
        while outer:
            stride, first, step, n, _ = outer[-1]
            if stride != run or step != 1:
                break
            outer.pop()
            run, base = n * stride, base + first * stride
        starts = np.full(1, base, dtype=np.int64)
        for stride, first, step, n, _ in outer:
            axis = (first + step * np.arange(n, dtype=np.int64)) * stride
            starts = np.add.outer(starts, axis).ravel()
        return [(s, s + run) for s in starts.tolist()]


@dataclass(frozen=True)
class VectorEntry:
    """One task's share of a plan with an irregular axis, as index
    vectors (all read-only)."""

    task: int
    size: int
    #: stream positions within the section, in the overlap's own stream
    spos: np.ndarray
    #: flat positions within the task's C-contiguous local array, in the
    #: same enumeration — positional correspondence with ``spos``
    lflat: np.ndarray
    #: ``np.sort(spos)`` — interval counting for accounting
    spos_sorted: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.spos.nbytes + self.lflat.nbytes + self.spos_sorted.nbytes

    def gather(self, flat, mesh, darray: DistributedArray) -> None:
        flat[self.spos] = darray.local_flat(self.task)[self.lflat]

    def scatter(self, flat, mesh, darray: DistributedArray) -> None:
        darray.local_flat(self.task)[self.lflat] = flat[self.spos]

    def count_between(self, lo: int, hi: int) -> int:
        a, b = np.searchsorted(self.spos_sorted, (lo, hi))
        return int(b - a)

    def runs(self) -> List[Tuple[int, int]]:
        """Maximal contiguous intervals of the sorted stream positions."""
        sp = self.spos_sorted
        breaks = np.flatnonzero(np.diff(sp) != 1)
        starts = sp[np.concatenate(([0], breaks + 1))]
        stops = sp[np.concatenate((breaks, [sp.size - 1]))] + 1
        return list(zip(starts.tolist(), stops.tolist()))


@dataclass(frozen=True)
class SectionIndexPlan:
    """Cached per-task entries for one (distribution, section, order,
    kind)."""

    section_size: int
    kind: str
    entries: Tuple[Union[BoxEntry, VectorEntry], ...]
    #: total overlap elements; exact coverage for "assigned" (owners are
    #: pairwise disjoint), an upper bound for "mapped"
    covered: int

    @property
    def nbytes(self) -> int:
        return sum(e.nbytes for e in self.entries)


def _stream_walk(sbox: Tuple[slice, ...], counts, shape: Tuple[int, ...], order: str):
    """:attr:`BoxEntry.walk` of a box of ``counts`` elements per axis
    within a (nonempty) section mesh of ``shape``."""
    stride, inner = math.prod(shape), math.prod(counts)
    walk = []
    # slowest stream axis first: the last for "F", the first for "C"
    for i in range(len(shape))[:: -1 if order == "F" else 1]:
        stride //= shape[i]
        inner //= counts[i]
        walk.append((stride, sbox[i].start, sbox[i].step, counts[i], inner))
    return tuple(walk)


def build_section_index_plan(
    dist: Distribution,
    section: Slice,
    order: str = "F",
    kind: str = "assigned",
) -> SectionIndexPlan:
    """Compute the plan (pure; cached via
    :func:`repro.plancache.plans.section_index_plan`)."""
    check_order(order)
    if kind not in _KINDS:
        raise StreamingError(
            f"unknown index-plan kind {kind!r}; expected one of {_KINDS}"
        )
    entries = []
    owners = kind == "assigned"
    for t in dist.owner_tasks(section) if owners else dist.mapped_tasks(section):
        mapped = dist.mapped(t)
        sec = (dist.assigned(t) if owners else mapped).intersect(section)
        if sec.is_empty:
            continue
        sbox, lbox = sec.box_within(section), sec.box_within(mapped)
        if sbox is not None and lbox is not None:
            walk = _stream_walk(sbox, sec.shape, section.shape, order)
            entries.append(BoxEntry(t, sec.size, sbox, lbox, walk))
            continue
        spos = sec.flat_positions_within(
            section, enum_order=order, address_order=order
        )
        lflat = sec.flat_positions_within(
            mapped, enum_order=order, address_order="C"
        )
        spos_sorted = np.sort(spos)
        for v in (spos, lflat, spos_sorted):
            v.setflags(write=False)
        entries.append(VectorEntry(t, sec.size, spos, lflat, spos_sorted))
    return SectionIndexPlan(
        section_size=section.size,
        kind=kind,
        entries=tuple(entries),
        covered=sum(e.size for e in entries),
    )


def _cached_index_plan(
    dist: Distribution, section: Slice, order: str, kind: str
) -> SectionIndexPlan:
    """Plan via the active cache.  Imported lazily: the cache layer
    sits above the pure streaming layer."""
    from repro.plancache.plans import section_index_plan

    return section_index_plan(dist, section, order=order, kind=kind)


def gather_section_flat(
    darray: DistributedArray,
    section: Slice,
    order: str = "F",
    strict: bool = False,
    plan: SectionIndexPlan | None = None,
) -> np.ndarray:
    """The section's elements as one 1-D array in stream order, copied
    from the owner tasks with one strided (or, for an irregular entry,
    fancy-indexed) assignment per owner.  Elements assigned to no task
    are zeros, or raise under ``strict`` (the
    :func:`repro.streaming.serial.strict_gather` semantics)."""
    check_order(order)
    if plan is None:
        plan = _cached_index_plan(darray.distribution, section, order, "assigned")
    if strict and plan.covered < plan.section_size:
        raise StreamingError(
            f"strict gather: section {section} has "
            f"{plan.section_size - plan.covered} undefined element(s) "
            f"(no owning task) in array {darray.name!r}"
        )
    # owners are disjoint: a fully covered section needs no zero fill
    exact = plan.kind == "assigned" and plan.covered == plan.section_size
    flat = (np.empty if exact else np.zeros)(plan.section_size, dtype=darray.dtype)
    mesh = flat.reshape(section.shape, order=order)
    for e in plan.entries:
        e.gather(flat, mesh, darray)
    return flat


def scatter_section_flat(
    darray: DistributedArray,
    section: Slice,
    flat: np.ndarray,
    order: str = "F",
    plan: SectionIndexPlan | None = None,
) -> None:
    """Deliver a stream-ordered 1-D value vector into every task whose
    mapped section overlaps ``section`` — all copies of every element
    are updated consistently, one strided (or fancy-indexed) assignment
    per task."""
    check_order(order)
    if plan is None:
        plan = _cached_index_plan(darray.distribution, section, order, "mapped")
    flat = np.asarray(flat)
    if flat.size != plan.section_size:
        raise StreamingError(
            f"scatter of {flat.size} values into a section of "
            f"{plan.section_size} elements"
        )
    mesh = flat.reshape(section.shape, order=order)
    for e in plan.entries:
        e.scatter(flat, mesh, darray)


def range_redistribution_bytes(
    plan: SectionIndexPlan, lo: int, hi: int, io_task: int, itemsize: int
) -> int:
    """Bytes of stream interval ``[lo, hi)`` (element positions) owned
    by tasks other than ``io_task`` — the redistribution cost of that
    interval reaching I/O task ``io_task``.  Requires an "assigned"
    plan; undefined elements (no owner) move nothing, matching the
    scalar accounting."""
    return itemsize * sum(
        e.count_between(lo, hi) for e in plan.entries if e.task != io_task
    )
