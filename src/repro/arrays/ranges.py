"""Ranges: monotonically increasing ordered integer sets.

A *range* in DRMS (paper Section 3.1) is a monotonically increasing
ordered set of integers ``r = (r_1, ..., r_n)``.  Regular ranges — those
expressible as a Fortran-style triplet ``l:u:s`` — are the common case
and are stored without materializing their elements; general ranges are
stored as sorted numpy index vectors.

The operations required by the paper are:

* ``|r|`` — the number of elements (:attr:`Range.size`),
* intersection ``q * r`` (:meth:`Range.intersect`, also the ``*``
  operator), producing the ordered common elements,
* the lo/hi split used by the streaming partition algorithm
  (:meth:`Range.lo`, :meth:`Range.hi`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import RangeError

__all__ = ["Range"]


class Range:
    """A monotonically increasing ordered set of integers.

    Two internal representations are used:

    * *regular*: ``l:u:s`` triplet (first element ``l``, last element
      ``<= u``, stride ``s >= 1``), O(1) storage;
    * *indexed*: an explicit sorted ``numpy.ndarray`` of unique int64s.

    Ranges are immutable and hashable.
    """

    __slots__ = ("_lo", "_hi", "_step", "_indices", "_size")

    def __init__(self, spec: "Range | Iterable[int] | int | slice" = ()):
        """Build a range from another range, an int (singleton), a
        ``slice`` with concrete ``start``/``stop`` (stop exclusive, like
        Python), or an iterable of strictly increasing integers."""
        if isinstance(spec, Range):
            self._lo = spec._lo
            self._hi = spec._hi
            self._step = spec._step
            self._indices = spec._indices
            self._size = spec._size
            return
        if isinstance(spec, (int, np.integer)):
            self._init_regular(int(spec), int(spec), 1)
            return
        if isinstance(spec, slice):
            if spec.start is None or spec.stop is None:
                raise RangeError("slice spec needs concrete start and stop")
            step = 1 if spec.step is None else int(spec.step)
            if step < 1:
                raise RangeError(f"stride must be >= 1, got {step}")
            start, stop = int(spec.start), int(spec.stop)
            if stop <= start:
                self._init_empty()
            else:
                last = start + ((stop - 1 - start) // step) * step
                self._init_regular(start, last, step)
            return
        idx = np.asarray(list(spec), dtype=np.int64)
        if idx.size == 0:
            self._init_empty()
            return
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise RangeError("range elements must be strictly increasing")
        # Detect a regular pattern so that algebra stays O(1).
        if idx.size == 1:
            self._init_regular(int(idx[0]), int(idx[0]), 1)
        else:
            d = np.diff(idx)
            if np.all(d == d[0]):
                self._init_regular(int(idx[0]), int(idx[-1]), int(d[0]))
            else:
                self._lo = int(idx[0])
                self._hi = int(idx[-1])
                self._step = 0  # sentinel: indexed
                self._indices = idx
                self._indices.setflags(write=False)
                self._size = int(idx.size)

    # -- constructors -------------------------------------------------

    def _init_empty(self) -> None:
        self._lo = 0
        self._hi = -1
        self._step = 1
        self._indices = None
        self._size = 0

    def _init_regular(self, lo: int, hi: int, step: int) -> None:
        if step < 1:
            raise RangeError(f"stride must be >= 1, got {step}")
        if hi < lo:
            self._init_empty()
            return
        hi = lo + ((hi - lo) // step) * step
        self._lo = lo
        self._hi = hi
        # normalize: a singleton has no meaningful stride (keeps equality
        # and hashing representation-independent)
        self._step = 1 if hi == lo else step
        self._indices = None
        self._size = (hi - lo) // step + 1

    @classmethod
    def regular(cls, lo: int, hi: int, step: int = 1) -> "Range":
        """Fortran-style triplet ``lo:hi:step`` with *inclusive* ``hi``."""
        r = cls.__new__(cls)
        r._init_regular(int(lo), int(hi), int(step))
        return r

    @classmethod
    def empty(cls) -> "Range":
        r = cls.__new__(cls)
        r._init_empty()
        return r

    @classmethod
    def of_size(cls, n: int, offset: int = 0) -> "Range":
        """The contiguous range ``offset .. offset+n-1``."""
        if n <= 0:
            return cls.empty()
        return cls.regular(offset, offset + n - 1, 1)

    # -- basic protocol ------------------------------------------------

    @property
    def size(self) -> int:
        """Number of elements ``|r|``."""
        return self._size

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    @property
    def is_regular(self) -> bool:
        """True when representable as an ``l:u:s`` triplet."""
        return self._indices is None

    @property
    def is_contiguous(self) -> bool:
        """True when the range is ``l, l+1, ..., u``."""
        return self.is_regular and (self._step == 1 or self._size <= 1)

    @property
    def first(self) -> int:
        if self.is_empty:
            raise RangeError("empty range has no first element")
        return self._lo

    @property
    def last(self) -> int:
        if self.is_empty:
            raise RangeError("empty range has no last element")
        return self._hi

    @property
    def step(self) -> int:
        """Stride for regular ranges; raises for indexed ranges."""
        if not self.is_regular:
            raise RangeError("indexed range has no uniform stride")
        return self._step

    def indices(self) -> np.ndarray:
        """All elements as a (read-only) int64 vector."""
        if self._indices is not None:
            return self._indices
        if self._size == 0:
            return np.empty(0, dtype=np.int64)
        out = np.arange(self._lo, self._hi + 1, self._step, dtype=np.int64)
        out.setflags(write=False)
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(int(i) for i in self.indices())

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < self._size:
            raise IndexError(k)
        if self.is_regular:
            return self._lo + k * self._step
        return int(self._indices[k])

    def __contains__(self, value: int) -> bool:
        v = int(value)
        if self.is_empty or v < self._lo or v > self._hi:
            return False
        if self.is_regular:
            return (v - self._lo) % self._step == 0
        i = int(np.searchsorted(self._indices, v))
        return i < self._size and int(self._indices[i]) == v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Range):
            return NotImplemented
        if self._size != other._size:
            return False
        if self._size == 0:
            return True
        if self.is_regular and other.is_regular:
            return (self._lo, self._hi, self._step) == (
                other._lo,
                other._hi,
                other._step,
            )
        return bool(np.array_equal(self.indices(), other.indices()))

    def __hash__(self) -> int:
        if self._size == 0:
            return hash(("Range", 0))
        if self.is_regular:
            return hash(("Range", self._lo, self._hi, self._step))
        return hash(("Range", self.indices().tobytes()))

    def __repr__(self) -> str:
        if self.is_empty:
            return "Range(<empty>)"
        if self.is_regular:
            if self._step == 1:
                return f"Range({self._lo}:{self._hi})"
            return f"Range({self._lo}:{self._hi}:{self._step})"
        body = ",".join(str(int(i)) for i in self._indices[:8])
        more = ",..." if self._size > 8 else ""
        return f"Range([{body}{more}])"

    # -- algebra -------------------------------------------------------

    def intersect(self, other: "Range") -> "Range":
        """Ordered set intersection ``q * r`` (paper's ``*`` operator)."""
        if self.is_empty or other.is_empty:
            return Range.empty()
        if self._hi < other._lo or other._hi < self._lo:
            return Range.empty()
        if self.is_regular and other.is_regular:
            return _intersect_regular(self, other)
        common = np.intersect1d(self.indices(), other.indices(), assume_unique=True)
        return Range(common)

    def __mul__(self, other: "Range") -> "Range":
        if not isinstance(other, Range):
            return NotImplemented
        return self.intersect(other)

    def union(self, other: "Range") -> "Range":
        """Ordered set union (used for mapped-section bookkeeping)."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Range(np.union1d(self.indices(), other.indices()))

    def difference(self, other: "Range") -> "Range":
        """Elements of ``self`` not present in ``other``."""
        if self.is_empty or other.is_empty:
            return self
        return Range(np.setdiff1d(self.indices(), other.indices(), assume_unique=True))

    def shift(self, offset: int) -> "Range":
        """The range with ``offset`` added to every element."""
        if self.is_empty:
            return self
        if self.is_regular:
            return Range.regular(self._lo + offset, self._hi + offset, self._step)
        return Range(self.indices() + int(offset))

    def clip(self, lo: int, hi: int) -> "Range":
        """Restrict to the closed interval ``[lo, hi]``."""
        return self.intersect(Range.regular(lo, hi, 1))

    # -- streaming-order split (paper Fig. 5a helpers) -----------------

    def lo(self) -> "Range":
        """The lower half: the first ``ceil(|r|/2)`` elements."""
        return self.take(0, (self._size + 1) // 2)

    def hi(self) -> "Range":
        """The upper half: the remaining ``floor(|r|/2)`` elements."""
        return self.take((self._size + 1) // 2, self._size)

    def take(self, start: int, stop: int) -> "Range":
        """Elements with positions ``start <= k < stop``."""
        start = max(0, start)
        stop = min(self._size, stop)
        if stop <= start:
            return Range.empty()
        if self.is_regular:
            return Range.regular(
                self._lo + start * self._step,
                self._lo + (stop - 1) * self._step,
                self._step,
            )
        return Range(self._indices[start:stop])

    # -- local addressing ----------------------------------------------

    def positions_of(self, sub: "Range") -> np.ndarray:
        """Positions (0-based ordinals) of ``sub``'s elements within
        ``self``.  ``sub`` must be a subset of ``self``; this is how a
        global index subset is translated to local array offsets.

        An empty ``sub`` is a subset of every range (including the empty
        range) and yields an empty position vector rather than an
        error."""
        if sub.is_empty:
            return np.empty(0, dtype=np.int64)
        if self.is_empty:
            raise RangeError(f"{sub!r} is not a subset of {self!r}")
        if self.is_regular:
            v = sub.indices()
            pos = (v - self._lo) // self._step
            ok = (
                (v >= self._lo)
                & (v <= self._hi)
                & ((v - self._lo) % self._step == 0)
            )
            if not bool(np.all(ok)):
                raise RangeError(f"{sub!r} is not a subset of {self!r}")
            return pos
        pos = np.searchsorted(self._indices, sub.indices())
        if bool(np.any(pos >= self._size)) or not bool(
            np.array_equal(self._indices[pos], sub.indices())
        ):
            raise RangeError(f"{sub!r} is not a subset of {self!r}")
        return pos.astype(np.int64)

    def issubset(self, other: "Range") -> bool:
        """True when every element of ``self`` belongs to ``other``: O(1)
        unless an index vector is involved and the bounds cannot decide."""
        if self is other or self.is_empty:
            return True
        if self._lo < other._lo or self._hi > other._hi:  # an empty other: lo 0 > hi -1
            return False
        if other.is_contiguous:
            return True
        if self.is_regular and other.is_regular:  # stride congruence
            return (self._lo - other._lo) % other._step == 0 and (
                self._size == 1 or self._step % other._step == 0)
        return self.intersect(other).size == self.size


def _intersect_regular(q: Range, r: Range) -> Range:
    """Intersection of two regular ranges, solved as a linear congruence
    so no elements are materialized for the common stride-1 cases."""
    if q.step == 1 and r.step == 1:
        lo = max(q.first, r.first)
        hi = min(q.last, r.last)
        return Range.regular(lo, hi, 1) if lo <= hi else Range.empty()
    # General case: elements q.first + i*q.step == r.first + j*r.step.
    import math

    g = math.gcd(q.step, r.step)
    if (r.first - q.first) % g != 0:
        return Range.empty()
    lcm = q.step // g * r.step
    # Find the smallest element >= max(firsts) in both progressions via CRT.
    # Solve q.first + i*q.step ≡ r.first (mod r.step).
    a, m = q.step // g, r.step // g
    rhs = (r.first - q.first) // g
    i0 = (rhs * pow(a, -1, m)) % m if m > 1 else 0
    start = q.first + i0 * q.step
    lo_bound = max(q.first, r.first)
    if start < lo_bound:
        start += ((lo_bound - start + lcm - 1) // lcm) * lcm
    hi = min(q.last, r.last)
    if start > hi:
        return Range.empty()
    return Range.regular(start, hi, lcm)
