"""Slices: ordered tuples of ranges describing array sections.

A *slice* (paper Section 3.1) of rank ``d`` is an ordered set of ``d``
ranges ``s = (r_1, ..., r_d)``; it describes a (generally non-contiguous)
section of a ``d``-dimensional array.  ``|s|`` is the rank and the number
of elements is ``prod(|r_i|)``.  Slice intersection is range-wise.

Slices also carry the lo/hi split functions of the streaming partition
algorithm (paper Fig. 5a): for FORTRAN-style column-major streaming the
*last* axis varies slowest, so a slice is split along the highest axis
whose range has more than one element; for C-style row-major order the
first axis is split first.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.ranges import Range
from repro.errors import RangeError, SliceError

__all__ = ["Slice", "arithmetic_slice"]


def arithmetic_slice(sub: Range, outer: Optional[Range] = None) -> Optional[slice]:
    """The basic ``slice`` selecting ``sub``'s positions within ``outer``
    (default: within the index space itself), or None when those
    positions are not an arithmetic progression — the one rule that
    decides whether a section meets numpy as a strided box or as index
    vectors.  ``sub`` must be a subset of ``outer``.  Two triplets
    answer in O(1); anything else is checked on
    :meth:`Range.positions_of`, O(extent)."""
    if sub.is_empty:
        return slice(0, 0, 1)
    if outer is None:
        outer = Range.regular(0, sub.last)
    n = sub.size
    if sub.is_regular and outer.is_regular and not outer.is_empty:
        first, off = divmod(sub.first - outer.first, outer.step)
        step, odd = divmod(sub.step, outer.step) if n > 1 else (1, 0)
        if off or odd or first < 0 or sub.last > outer.last:
            raise RangeError(f"{sub!r} is not a subset of {outer!r}")
    else:
        pos = outer.positions_of(sub)
        first = int(pos[0])
        step = (int(pos[-1]) - first) // (n - 1) if n > 1 else 1
        if n > 2 and not bool(np.all(np.diff(pos) == step)):
            return None
    return slice(first, first + (n - 1) * step + 1, step)


class Slice:
    """An ordered tuple of :class:`Range`, i.e., an array section."""

    __slots__ = ("_ranges",)

    def __init__(self, ranges: Iterable):
        rs = []
        for r in ranges:
            if isinstance(r, Range):
                rs.append(r)
            else:
                rs.append(Range(r))
        if not rs:
            raise SliceError("a slice needs at least one range")
        self._ranges: Tuple[Range, ...] = tuple(rs)

    @classmethod
    def full(cls, shape: Sequence[int]) -> "Slice":
        """The slice covering an entire array of the given shape."""
        return cls([Range.of_size(int(n)) for n in shape])

    @classmethod
    def empty(cls, rank: int) -> "Slice":
        """A rank-``rank`` slice with no elements."""
        return cls([Range.empty() for _ in range(rank)])

    # -- protocol -------------------------------------------------------

    @property
    def rank(self) -> int:
        """``|s|`` in the paper: the number of ranges."""
        return len(self._ranges)

    @property
    def ranges(self) -> Tuple[Range, ...]:
        return self._ranges

    @property
    def size(self) -> int:
        """Number of elements: the product of the range sizes."""
        n = 1
        for r in self._ranges:
            n *= r.size
            if n == 0:
                return 0
        return n

    @property
    def shape(self) -> Tuple[int, ...]:
        """Per-axis element counts — the shape of the local array that
        holds this section."""
        return tuple(r.size for r in self._ranges)

    @property
    def is_empty(self) -> bool:
        return any(r.is_empty for r in self._ranges)

    def __len__(self) -> int:
        return self.rank

    def __getitem__(self, axis: int) -> Range:
        return self._ranges[axis]

    def __iter__(self) -> Iterator[Range]:
        return iter(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Slice):
            return NotImplemented
        if self.rank != other.rank:
            return False
        if self.is_empty and other.is_empty:
            return True
        return self._ranges == other._ranges

    def __hash__(self) -> int:
        if self.is_empty:
            return hash(("Slice", self.rank, "empty"))
        return hash(("Slice", self._ranges))

    def __repr__(self) -> str:
        return "Slice(" + ", ".join(repr(r) for r in self._ranges) + ")"

    # -- algebra ---------------------------------------------------------

    def intersect(self, other: "Slice") -> "Slice":
        """Range-wise intersection ``s * t`` (paper's ``*`` operator).

        An empty result is *normalized* to the canonical empty slice
        (every axis empty).  Without normalization the result of, say,
        ``(0:1, 5:7) * (0:1, 0:3)`` would keep a non-empty range on
        axis 0 while axis 1 is empty — a zero-element section whose
        per-axis ranges are not subsets of either operand's, which
        breaks downstream local addressing.  Empty slices of equal rank
        compare equal, so normalizing preserves slice-level semantics.
        """
        if self.rank != other.rank:
            raise SliceError(
                f"rank mismatch: {self.rank} vs {other.rank} in intersection"
            )
        out = Slice(a.intersect(b) for a, b in zip(self._ranges, other._ranges))
        if out.is_empty:
            return Slice.empty(self.rank)
        return out

    def __mul__(self, other: "Slice") -> "Slice":
        if not isinstance(other, Slice):
            return NotImplemented
        return self.intersect(other)

    def issubset(self, other: "Slice") -> bool:
        """True when the section lies entirely inside ``other``: per
        axis, the range within ``other``'s (an empty section is inside
        any of equal rank)."""
        if self.rank != other.rank:
            raise SliceError(
                f"rank mismatch: {self.rank} vs {other.rank} in subset test"
            )
        return self.is_empty or all(
            a.issubset(b) for a, b in zip(self._ranges, other._ranges)
        )

    def contains_point(self, point: Sequence[int]) -> bool:
        """True when the d-dimensional point lies in the section."""
        if len(point) != self.rank:
            raise SliceError("point rank mismatch")
        return all(int(p) in r for p, r in zip(point, self._ranges))

    def replace(self, axis: int, r: Range) -> "Slice":
        """A copy with the range on ``axis`` replaced."""
        rs = list(self._ranges)
        rs[axis] = r
        return Slice(rs)

    def shift(self, offsets: Sequence[int]) -> "Slice":
        """The slice with per-axis offsets added to every range."""
        if len(offsets) != self.rank:
            raise SliceError("offset rank mismatch")
        return Slice(r.shift(int(o)) for r, o in zip(self._ranges, offsets))

    def clip(self, shape: Sequence[int]) -> "Slice":
        """Restrict every axis to ``[0, shape[i]-1]``."""
        if len(shape) != self.rank:
            raise SliceError("shape rank mismatch")
        return Slice(r.clip(0, int(n) - 1) for r, n in zip(self._ranges, shape))

    # -- streaming order (paper Section 3.2) -----------------------------

    def split_axis(self, order: str = "F") -> int:
        """The axis along which :meth:`lo`/:meth:`hi` split, i.e., the
        slowest-varying axis (among axes with >1 element) for the given
        streaming order: last axis for FORTRAN column-major ``"F"``,
        first axis for C row-major ``"C"``.  Returns -1 for singleton or
        empty slices (nothing to split)."""
        if self.is_empty or self.size <= 1:
            return -1
        axes = range(self.rank - 1, -1, -1) if order == "F" else range(self.rank)
        for ax in axes:
            if self._ranges[ax].size > 1:
                return ax
        return -1

    def lo(self, order: str = "F") -> "Slice":
        """Lower half in streaming order: every element of ``lo`` comes
        before every element of :meth:`hi` in the stream."""
        ax = self.split_axis(order)
        if ax < 0:
            return self
        return self.replace(ax, self._ranges[ax].lo())

    def hi(self, order: str = "F") -> "Slice":
        """Upper half in streaming order (may be empty for size-1)."""
        ax = self.split_axis(order)
        if ax < 0:
            return Slice.empty(self.rank)
        return self.replace(ax, self._ranges[ax].hi())

    # -- numpy interop ----------------------------------------------------

    def np_index(self) -> tuple:
        """An index selecting this section from a global numpy array: a
        tuple of basic ``slice``s (a strided view) when every range is
        arithmetic, an ``np.ix_`` open mesh (a copy) otherwise."""
        box = tuple(arithmetic_slice(r) for r in self._ranges)
        return np.ix_(*[r.indices() for r in self._ranges]) if None in box else box

    def box_within(self, outer: "Slice") -> Optional[Tuple[slice, ...]]:
        """The strided box this section occupies in the array that
        stores ``outer`` — one basic ``slice`` per axis, O(rank) to keep
        — or None when the positions on some axis are not arithmetic.
        ``self`` must be a subset of ``outer``.

        An empty section selects nothing regardless of its per-axis
        ranges (a zero-extent slice may carry non-empty ranges on other
        axes that are not per-axis subsets of ``outer``)."""
        if self.rank != outer.rank:
            raise SliceError("rank mismatch")
        if self.is_empty:
            return (slice(0, 0, 1),) * self.rank
        box = tuple(
            arithmetic_slice(r, o) for r, o in zip(self._ranges, outer._ranges)
        )
        return None if None in box else box

    def local_index_within(self, outer: "Slice") -> tuple:
        """An index selecting this section from the *local* array that
        stores the ``outer`` section: :meth:`box_within` (a strided
        view) when there is one, an ``np.ix_`` open mesh (a copy)
        otherwise."""
        return self.box_within(outer) or np.ix_(
            *[o.positions_of(r) for r, o in zip(self._ranges, outer._ranges)]
        )

    def flat_positions_within(
        self,
        outer: "Slice",
        enum_order: str = "F",
        address_order: str = "C",
    ) -> np.ndarray:
        """Flat positions of this section's elements within the dense
        index mesh of ``outer``, as one int64 vector.

        ``address_order`` fixes how ``outer``'s mesh is linearized (the
        storage order of the array holding it); ``enum_order`` fixes the
        order in which this section's own elements are enumerated (its
        stream order).  With both set to the stream order this is the
        stream-position map of :func:`repro.streaming.order.
        section_stream_positions`; with ``address_order="C"`` it is the
        fancy index into a C-contiguous local array.

        ``self`` must be a per-axis subset of ``outer``; an empty
        section yields an empty vector regardless of its ranges."""
        if self.rank != outer.rank:
            raise SliceError("rank mismatch")
        if self.is_empty:
            return np.empty(0, dtype=np.int64)
        axis_pos = [
            o.positions_of(r) for r, o in zip(self._ranges, outer._ranges)
        ]
        mesh = np.meshgrid(*axis_pos, indexing="ij")
        shape = outer.shape
        # strides in elements of the chosen address order over outer's mesh
        strides = [1] * len(shape)
        acc = 1
        if address_order == "F":
            for i in range(len(shape)):
                strides[i] = acc
                acc *= shape[i]
        else:
            for i in range(len(shape) - 1, -1, -1):
                strides[i] = acc
                acc *= shape[i]
        flat = sum(m * s for m, s in zip(mesh, strides))
        return np.asarray(flat, dtype=np.int64).reshape(-1, order=enum_order)

    def enumerate_stream(self, order: str = "F") -> np.ndarray:
        """All points of the section in streaming order, as an
        ``(size, rank)`` int64 matrix.  Intended for tests and small
        sections — O(size) memory."""
        grids = [r.indices() for r in self._ranges]
        if order == "F":
            mesh = np.meshgrid(*grids, indexing="ij")
            cols = [m.reshape(-1, order="F") for m in mesh]
        else:
            mesh = np.meshgrid(*grids, indexing="ij")
            cols = [m.reshape(-1, order="C") for m in mesh]
        if not cols:
            return np.empty((0, 0), dtype=np.int64)
        return np.stack(cols, axis=1)
