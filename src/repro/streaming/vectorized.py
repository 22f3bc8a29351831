"""Vectorized bulk gather/scatter over precomputed section plans.

The scalar hot path assembled every piece with nested Python loops:
for each owner task, intersect, build an ``np.ix_`` mesh, copy a small
block.  At bench piece sizes (KB-scale) the interpreter overhead of
those loops — not the byte copies — dominated parallel streaming.

This module replaces the loops with one numpy copy per overlapping task,
driven by a **section index plan**: for a (distribution, section,
order) triple and a coverage kind, one :class:`BoxEntry` per task whose
section meets the section.  An overlap is a product of per-axis sets,
and an entry keeps it as one: per axis, on both sides (within the
section's own mesh and within the task's local array), the basic
``slice`` selecting its positions when they are arithmetic
(:func:`repro.arrays.slices.arithmetic_slice`), else a read-only int64
list of them (INDEXED rows, a BLOCK(k) owner with several blocks, an
index-list section).  Gather is ``mesh[sbox] = local[lbox]`` on ``mesh
= flat.reshape(section.shape, order)``, a view of the flat stream
buffer: a strided copy when every axis is a slice, one advanced index
per list axis otherwise.  A lone list axis may face a slice on the
other side (numpy keeps one advanced index in place); two or more are
lists on both sides, reshaped as one open mesh, so numpy lays out (and,
past a slice, reorders) the dimensions of both sides alike.  Plan
memory is O(rank) integers plus 8 B per listed position, O(sum of axis
extents).  The flat ``spos`` / ``lflat`` / sorted-``spos`` vectors this
replaced held 24 B per element, built in O(size) by every cold plan; a
warm-gather micro-benchmark had favoured them, but it timed ``np.ix_``
on every axis and counted neither that build nor that residency.

Scatter is the transposed assignment per mapping task (kind
``"mapped"``; overlapping copies all receive the same value), and the
one writer of task locals from a stream or a global: every restore,
``DistributedArray.set_global`` and steering write.  The plan's boxes
index the section's mesh whatever its memory layout, so a section-shaped
array scatters through the default-order plan; a basic-slice box out of
a row-major mesh into the column-major locals is a transpose, copied in
cache-sized tiles, and out of a column-major one a copy per column.  Gather
runs over owners (kind ``"assigned"``; pairwise disjoint).  Plans depend
only on distribution geometry, so they are cached in
:mod:`repro.plancache` (kind ``"indexplan"``, keyed by the distribution
fingerprint, ``nbytes`` summed into ``plancache.resident_bytes``).
Pieces of the Fig. 5a partition are stream-contiguous, so a piece is a
stream-position interval and its redistribution accounting
(:func:`range_redistribution_bytes`) counts each owner's elements
inside it in closed form, with a binary search per list axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Distribution
from repro.arrays.slices import Slice, arithmetic_slice
from repro.errors import StreamingError
from repro.streaming.order import check_order

__all__ = [
    "BoxEntry",
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
    """One task's share of a plan: per axis and side, a ``slice`` or a
    read-only int64 position list (two or more list axes are lists on
    both sides, reshaped as one open mesh)."""

    task: int
    size: int
    #: per-axis indices into the section's mesh / the task's local array
    sbox: Tuple[Union[slice, np.ndarray], ...]
    lbox: Tuple[Union[slice, np.ndarray], ...]
    #: ``sbox`` in stream terms, slowest axis first: per axis (stream
    #: stride, first index, step, count, box elements in the faster
    #: axes, sorted positions or None where first and step say them)
    walk: Tuple[Tuple[int, int, int, int, int, Optional[np.ndarray]], ...]

    @property
    def nbytes(self) -> int:
        lists = [i for i in self.sbox + self.lbox if isinstance(i, np.ndarray)]
        # eleven integers per axis, plus the position lists
        return 88 * len(self.sbox) + sum(i.nbytes for i in lists)

    def gather(self, mesh, darray: DistributedArray) -> None:
        mesh[self.sbox] = darray.local(self.task)[self.lbox]

    def scatter(self, mesh, darray: DistributedArray) -> None:
        """Write this task's box from ``mesh``; a box of basic slices
        out of a mesh that is not column-major like the local is a
        transpose, copied in tiles."""
        local = darray.local(self.task)
        if mesh.flags.f_contiguous or not all(
            isinstance(ix, slice) for ix in self.sbox + self.lbox
        ):
            local[self.lbox] = mesh[self.sbox]
        else:
            _copy_tiled(local[self.lbox], mesh[self.sbox])

    def _count_below(self, pos: int) -> int:
        """Box elements at stream positions ``< pos``: per axis, every
        box index below the position's digit contributes the box
        elements of the faster axes; descend while the digit itself is
        a box index."""
        count = 0
        for stride, first, step, n, inner, at in self.walk:
            digit, pos = divmod(pos, stride)
            if at is None:
                k, off = divmod(digit - first, step)
                if k < 0:
                    return count
                if k >= n:
                    return count + n * inner
                k, off = k + (off > 0), off > 0
            else:
                k = int(at.searchsorted(digit))
                off = k == n or at[k] != digit
            count += k * inner
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
            stride, first, step, n, _, at = outer[-1]
            if stride != run or step != 1:
                break
            outer.pop()
            run, base = n * stride, base + first * stride
        starts = np.full(1, base, dtype=np.int64)
        for stride, first, step, n, _, at in outer:
            if at is None:
                at = first + step * np.arange(n, dtype=np.int64)
            starts = np.add.outer(starts, at * stride).ravel()
        return [(s, s + run) for s in starts.tolist()]


@dataclass(frozen=True)
class SectionIndexPlan:
    """Cached per-task entries for one (distribution, section, order,
    kind)."""

    section_size: int
    kind: str
    entries: Tuple[BoxEntry, ...]
    #: total overlap elements; exact coverage for "assigned" (owners are
    #: pairwise disjoint), an upper bound for "mapped"
    covered: int

    @property
    def nbytes(self) -> int:
        return sum(e.nbytes for e in self.entries)


def _copy_tiled(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` in 64-square tiles of the first and last axes:
    a row-major block into a column-major one is a transpose, two to
    three times faster in tiles that stay in cache than whole."""
    dst, src = np.atleast_2d(dst, src)
    for i in range(0, dst.shape[0], 64):
        for j in range(0, dst.shape[-1], 64):
            dst[i:i + 64, ..., j:j + 64] = src[i:i + 64, ..., j:j + 64]


def _frozen(ix: np.ndarray) -> np.ndarray:
    ix.setflags(write=False)
    return ix


def _axis_indices(sec: Slice, outer: Slice) -> list:
    """Per axis, the basic slice selecting ``sec``'s positions within
    ``outer`` or, where they are not arithmetic, those positions as a
    read-only int64 list (sorted: ranges are increasing)."""
    return [
        arithmetic_slice(r, o) or _frozen(o.positions_of(r))
        for r, o in zip(sec, outer)
    ]


def _stream_walk(sbox, counts, shape: Tuple[int, ...], order: str):
    """:attr:`BoxEntry.walk` of a box of ``counts`` elements per axis
    within a (nonempty) section mesh of ``shape``."""
    stride, inner = math.prod(shape), math.prod(counts)
    walk = []
    # slowest stream axis first: the last for "F", the first for "C"
    for i in range(len(shape))[:: -1 if order == "F" else 1]:
        stride //= shape[i]
        inner //= counts[i]
        ix = sbox[i]
        if isinstance(ix, slice):
            walk.append((stride, ix.start, ix.step, counts[i], inner, None))
        else:
            walk.append((stride, None, None, counts[i], inner, ix))
    return tuple(walk)


def _open_mesh(box: list, axes: List[int]) -> Tuple:
    """``box`` with every axis in ``axes`` a list shaped for an open
    mesh over those axes (one list axis stays as it is: numpy keeps a
    lone advanced index in place, beside slices on either side)."""
    for j, i in enumerate(axes if len(axes) > 1 else ()):
        ix = box[i]
        if isinstance(ix, slice):
            ix = _frozen(np.arange(ix.start, ix.stop, ix.step, dtype=np.int64))
        box[i] = ix.reshape([-1 if k == j else 1 for k in range(len(axes))])
    return tuple(box)


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
        sbox, lbox = _axis_indices(sec, section), _axis_indices(sec, mapped)
        walk = _stream_walk(sbox, sec.shape, section.shape, order)
        axes = [i for i, pair in enumerate(zip(sbox, lbox))
                if not all(isinstance(ix, slice) for ix in pair)]
        entries.append(BoxEntry(
            t, sec.size, _open_mesh(sbox, axes), _open_mesh(lbox, axes), walk
        ))
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
        e.gather(mesh, darray)
    return flat


def scatter_section_flat(
    darray: DistributedArray,
    section: Slice,
    values: np.ndarray,
    order: str = "F",
    plan: SectionIndexPlan | None = None,
) -> None:
    """Deliver the section's values into every task whose mapped section
    overlaps ``section`` — all copies of every element are updated
    consistently, one strided (or fancy-indexed) assignment per task.
    ``values`` is a 1-D vector in stream ``order`` or an array shaped
    like the section, in any memory layout; a basic-slice box out of a
    layout that is not column-major is copied in tiles."""
    check_order(order)
    if plan is None:
        plan = _cached_index_plan(darray.distribution, section, order, "mapped")
    values = np.asarray(values)
    if values.size != plan.section_size:
        raise StreamingError(
            f"scatter of {values.size} values into a section of "
            f"{plan.section_size} elements"
        )
    mesh = (
        values if values.shape == section.shape
        else values.reshape(section.shape, order=order)
    )
    for e in plan.entries:
        e.scatter(mesh, darray)


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
