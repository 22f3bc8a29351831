"""Distribution specifications: mapping array sections to tasks.

A distribution (paper Section 3.1) of a rank-``d`` array over ``P``
tasks is a pair of slice vectors ``(a, m)``: ``a_i`` is the section
*assigned* to task ``i`` (element values defined by task ``i``) and
``m_i`` the section *mapped* into task ``i``'s address space.  Legality:

* assigned sections are pairwise disjoint: ``a_i * a_j = empty`` (i≠j);
* every assigned section is contained in its mapped section:
  ``a_i * m_i = a_i``.

Mapped sections typically extend assigned sections by *shadow regions*
(ghost cells) used for stencil communication; shadows are what make the
per-task state of an SPMD checkpoint larger than the global array
(paper Section 6).

Tasks are arranged in a ``d``-dimensional process grid; per-axis
distributions (BLOCK, CYCLIC, BLOCK(k), GENBLOCK, INDEXED) compose into
a full :class:`Distribution`.  ``adjust`` re-derives an analogous
distribution for a different number of tasks — the operation behind
``drms_adjust`` used on a reconfigured restart.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import DistributionError

__all__ = [
    "AxisDistribution",
    "Block",
    "Cyclic",
    "BlockCyclic",
    "GenBlock",
    "Indexed",
    "Replicated",
    "Distribution",
    "block_distribution",
    "process_grid",
]


class AxisDistribution:
    """How one array axis is partitioned across one process-grid axis."""

    def assigned(self, nprocs: int, extent: int) -> List[Range]:
        """Disjoint ranges, one per grid coordinate, covering
        ``0..extent-1``.  Coordinate ``c`` gets ``assigned(...)[c]``."""
        raise NotImplementedError

    def adjust(self, nprocs: int) -> "AxisDistribution":
        """The analogous axis distribution for a new grid extent; the
        default is the distribution itself (parameter-free kinds)."""
        return self

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Block(AxisDistribution):
    """Contiguous blocks of near-equal size (HPF ``BLOCK``)."""

    def assigned(self, nprocs: int, extent: int) -> List[Range]:
        _check_axis(nprocs, extent)
        bounds = np.linspace(0, extent, nprocs + 1).astype(np.int64)
        return [
            Range.regular(int(bounds[c]), int(bounds[c + 1]) - 1, 1)
            if bounds[c + 1] > bounds[c]
            else Range.empty()
            for c in range(nprocs)
        ]

    def describe(self) -> str:
        return "BLOCK"


@dataclass(frozen=True)
class Cyclic(AxisDistribution):
    """Round-robin single elements (HPF ``CYCLIC``)."""

    def assigned(self, nprocs: int, extent: int) -> List[Range]:
        _check_axis(nprocs, extent)
        out = []
        for c in range(nprocs):
            if c >= extent:
                out.append(Range.empty())
            else:
                out.append(Range.regular(c, extent - 1, nprocs))
        return out

    def describe(self) -> str:
        return "CYCLIC"


@dataclass(frozen=True)
class BlockCyclic(AxisDistribution):
    """Round-robin blocks of ``block`` elements (HPF ``CYCLIC(k)``)."""

    block: int

    def assigned(self, nprocs: int, extent: int) -> List[Range]:
        _check_axis(nprocs, extent)
        if self.block < 1:
            raise DistributionError(f"block must be >= 1, got {self.block}")
        out = []
        for c in range(nprocs):
            idx = []
            start = c * self.block
            stride = nprocs * self.block
            while start < extent:
                idx.extend(range(start, min(start + self.block, extent)))
                start += stride
            out.append(Range(idx))
        return out

    def describe(self) -> str:
        return f"CYCLIC({self.block})"


@dataclass(frozen=True)
class GenBlock(AxisDistribution):
    """Explicit per-coordinate block sizes (irregular block sizes for
    load balancing; HPF-2 ``GEN_BLOCK``)."""

    sizes: Tuple[int, ...]

    def __init__(self, sizes: Sequence[int]):
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))

    def assigned(self, nprocs: int, extent: int) -> List[Range]:
        _check_axis(nprocs, extent)
        if len(self.sizes) != nprocs:
            raise DistributionError(
                f"GenBlock has {len(self.sizes)} sizes for {nprocs} coords"
            )
        if any(s < 0 for s in self.sizes):
            raise DistributionError("GenBlock sizes must be >= 0")
        if sum(self.sizes) != extent:
            raise DistributionError(
                f"GenBlock sizes sum to {sum(self.sizes)}, extent is {extent}"
            )
        out, pos = [], 0
        for s in self.sizes:
            out.append(Range.of_size(s, pos))
            pos += s
        return out

    def adjust(self, nprocs: int) -> "AxisDistribution":
        # Irregular sizes cannot be meaningfully re-derived; fall back to
        # near-equal blocks, which is what DRMS does for a plain adjust.
        return Block()

    def describe(self) -> str:
        return f"GENBLOCK{self.sizes}"


@dataclass(frozen=True)
class Indexed(AxisDistribution):
    """Fully general: an explicit :class:`Range` per coordinate.  This is
    the mechanism behind the paper's claim of supporting sparse and
    unstructured non-uniform data (index-list sections)."""

    ranges: Tuple[Range, ...]

    def __init__(self, ranges: Sequence):
        object.__setattr__(
            self, "ranges", tuple(r if isinstance(r, Range) else Range(r) for r in ranges)
        )

    def assigned(self, nprocs: int, extent: int) -> List[Range]:
        _check_axis(nprocs, extent)
        if len(self.ranges) != nprocs:
            raise DistributionError(
                f"Indexed has {len(self.ranges)} ranges for {nprocs} coords"
            )
        full = Range.of_size(extent)
        for r in self.ranges:
            if not r.issubset(full):
                raise DistributionError(f"{r!r} outside axis extent {extent}")
        return list(self.ranges)

    def adjust(self, nprocs: int) -> "AxisDistribution":
        return Block()

    def describe(self) -> str:
        return "INDEXED"


@dataclass(frozen=True)
class Replicated(AxisDistribution):
    """The axis is not partitioned (grid extent must be 1); every task
    holds the whole axis."""

    def assigned(self, nprocs: int, extent: int) -> List[Range]:
        if nprocs != 1:
            raise DistributionError(
                "Replicated axis requires process-grid extent 1"
            )
        return [Range.of_size(extent)]

    def describe(self) -> str:
        return "*"


def _range_canon(r: Range) -> tuple:
    """Exact canonical encoding of a range for fingerprint digests
    (``repr`` truncates long indexed ranges, so it cannot be used)."""
    if r.is_empty:
        return ("e",)
    if r.is_regular:
        return ("r", r.first, r.last, r.step)
    return ("i", r.indices().tobytes())


def _slice_canon(s: Slice) -> tuple:
    return tuple(_range_canon(r) for r in s.ranges)


def _check_axis(nprocs: int, extent: int) -> None:
    if nprocs < 1:
        raise DistributionError(f"grid extent must be >= 1, got {nprocs}")
    if extent < 0:
        raise DistributionError(f"axis extent must be >= 0, got {extent}")


def process_grid(ntasks: int, rank: int, fixed: Optional[Sequence[int]] = None) -> Tuple[int, ...]:
    """A near-square ``rank``-dimensional grid with ``prod == ntasks``.

    ``fixed`` may pin axes (entries > 0 are kept, 0/None entries are
    derived).  Axes are filled from the last axis first, matching the
    FORTRAN convention of distributing the slowest-varying axis.
    """
    if ntasks < 1:
        raise DistributionError(f"ntasks must be >= 1, got {ntasks}")
    grid = [0] * rank
    remaining = ntasks
    if fixed is not None:
        if len(fixed) != rank:
            raise DistributionError("fixed grid rank mismatch")
        for i, f in enumerate(fixed):
            if f:
                if remaining % int(f) != 0:
                    raise DistributionError(
                        f"fixed grid axis {i}={f} does not divide {ntasks}"
                    )
                grid[i] = int(f)
                remaining //= int(f)
    free = [i for i in range(rank) if grid[i] == 0]
    for k, i in enumerate(reversed(free)):
        nfree = len(free) - k
        target = remaining ** (1.0 / nfree)
        # smallest divisor of `remaining` >= the balanced target, so the
        # later (slower-varying) axes carry the larger factors
        f = remaining
        for cand in range(1, remaining + 1):
            if remaining % cand == 0 and cand + 1e-9 >= target:
                f = cand
                break
        grid[i] = f
        remaining //= f
    if remaining != 1:
        if free:
            grid[free[0]] *= remaining
        else:
            raise DistributionError(
                f"fixed grid axes do not account for all {ntasks} tasks"
            )
    if math.prod(grid) != ntasks:
        raise DistributionError(f"cannot factor {ntasks} into grid {grid}")
    return tuple(grid)


class Distribution:
    """A full distribution: per-axis kinds + process grid + shadows.

    Produces, for each task ``0..ntasks-1`` (row-major over the process
    grid), the assigned :class:`Slice` and the mapped :class:`Slice`
    (assigned expanded by per-axis shadow widths, clipped to the array
    bounds) — the ``(a, m)`` vectors of the paper.
    """

    def __init__(
        self,
        shape: Sequence[int],
        axes: Sequence[AxisDistribution],
        ntasks: int,
        grid: Optional[Sequence[int]] = None,
        shadow: Optional[Sequence[int]] = None,
        mapped: Optional[Sequence[Slice]] = None,
    ):
        """``mapped`` optionally overrides the mapped sections with
        explicit slices (one per task) — irregular ghost sets for
        sparse/unstructured data, where shadow-width expansion cannot
        express the halo.  Each override must contain the task's
        assigned section (the paper's legality condition)."""
        self.shape: Tuple[int, ...] = tuple(int(n) for n in shape)
        if len(axes) != len(self.shape):
            raise DistributionError(
                f"{len(axes)} axis kinds for rank-{len(self.shape)} shape"
            )
        self.axes: Tuple[AxisDistribution, ...] = tuple(axes)
        self.ntasks = int(ntasks)
        if self.ntasks < 1:
            raise DistributionError("ntasks must be >= 1")
        if grid is None:
            fixed = [1 if isinstance(a, Replicated) else 0 for a in self.axes]
            self.grid = process_grid(self.ntasks, len(self.shape), fixed)
        else:
            self.grid = tuple(int(g) for g in grid)
            if len(self.grid) != len(self.shape) or math.prod(self.grid) != self.ntasks:
                raise DistributionError(
                    f"grid {self.grid} is not a rank-{len(self.shape)} grid of {self.ntasks} tasks"
                )
        self.shadow: Tuple[int, ...] = (
            tuple(int(s) for s in shadow) if shadow is not None else (0,) * len(self.shape)
        )
        if len(self.shadow) != len(self.shape):
            raise DistributionError("shadow rank mismatch")
        if any(s < 0 for s in self.shadow):
            raise DistributionError("shadow widths must be >= 0")
        self._per_axis: List[List[Range]] = [
            ax.assigned(self.grid[i], self.shape[i]) for i, ax in enumerate(self.axes)
        ]
        if mapped is not None and len(mapped) != self.ntasks:
            raise DistributionError(
                f"{len(mapped)} mapped overrides for {self.ntasks} tasks"
            )
        self.mapped_overridden = mapped is not None
        # Per axis and grid coordinate, the mapped column: the assigned
        # range widened by the shadow, clipped to the axis (an override
        # does not factor by axis, so its columns are the assigned ones).
        self._columns: List[List[Range]] = self._per_axis if mapped is not None else [
            [
                r
                if w == 0 or r.is_empty or not r.is_contiguous
                else Range.regular(max(0, r.first - w), min(n - 1, r.last + w))
                for r in col
            ]
            for col, w, n in zip(self._per_axis, self.shadow, self.shape)
        ]
        # Row-major over the grid, as task_coords numbers the tasks.
        self._assigned: List[Slice] = [Slice(rs) for rs in product(*self._per_axis)]
        self._mapped: List[Slice] = (
            list(mapped) if mapped is not None
            else [Slice(rs) for rs in product(*self._columns)]
        )
        self._fingerprint: Optional[str] = None
        self.validate()

    # -- geometry --------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.shape)

    def task_coords(self, task: int) -> Tuple[int, ...]:
        """Row-major coordinates of ``task`` in the process grid."""
        if not 0 <= task < self.ntasks:
            raise DistributionError(f"task {task} outside 0..{self.ntasks - 1}")
        coords = []
        for g in reversed(self.grid):
            coords.append(task % g)
            task //= g
        return tuple(reversed(coords))

    def task_of_coords(self, coords: Sequence[int]) -> int:
        """Row-major task id of a process-grid coordinate."""
        t = 0
        for c, g in zip(coords, self.grid):
            if not 0 <= c < g:
                raise DistributionError(f"coords {coords} outside grid {self.grid}")
            t = t * g + c
        return t

    # -- the (a, m) vectors ------------------------------------------------

    def assigned(self, task: int) -> Slice:
        """Slice assigned to ``task`` (the paper's ``a_task``)."""
        return self._assigned[task]

    def mapped(self, task: int) -> Slice:
        """Slice mapped into ``task``'s address space (``m_task``)."""
        return self._mapped[task]

    def owner_tasks(self, section: Slice) -> List[int]:
        """Tasks whose assigned section intersects ``section``."""
        return [
            t
            for t in range(self.ntasks)
            if not self._assigned[t].intersect(section).is_empty
        ]

    def mapped_tasks(self, section: Slice) -> List[int]:
        """Tasks whose mapped section (assigned plus shadows) intersects
        ``section`` — the delivery set of a scatter."""
        return [
            t
            for t in range(self.ntasks)
            if not self._mapped[t].intersect(section).is_empty
        ]

    # -- legality (paper's two conditions) ----------------------------------

    def validate(self) -> None:
        """Raise :class:`DistributionError` unless the distribution is
        legal: disjoint assigned sections, assigned ⊆ mapped, and the
        assigned sections tile the whole index space.

        Checked per axis: a task's sections are the product of one
        assigned and one mapped range per axis, so ``a_t ⊆ m_t ⊆
        array`` for every task is ``assigned ⊆ mapped ⊆ [0, n)`` for
        every axis and coordinate.  Only mapped overrides, which do not
        factor by axis, are checked task by task."""
        if self.mapped_overridden:
            full_slice = Slice.full(self.shape)
            for t, (a, m) in enumerate(zip(self._assigned, self._mapped)):
                if m.rank != self.rank:
                    raise DistributionError(f"task {t}: mapped rank {m.rank} != array rank {self.rank}")
                if not m.issubset(full_slice):
                    raise DistributionError(f"task {t}: mapped section outside the array bounds")
                if a.intersect(m) != a:
                    raise DistributionError(f"task {t}: assigned section not contained in mapped")
        for i in range(self.rank):
            total = 0
            full = Range.of_size(self.shape[i])
            for c in range(self.grid[i]):
                r, m = self._per_axis[i][c], self._columns[i][c]
                if not (r.issubset(m) and m.issubset(full)):
                    raise DistributionError(
                        f"axis {i} coord {c}: range outside array bounds"
                    )
                total += r.size
                for c2 in range(c + 1, self.grid[i]):
                    if not r.intersect(self._per_axis[i][c2]).is_empty:
                        raise DistributionError(
                            f"axis {i}: coords {c}/{c2} assigned ranges overlap"
                        )
            # Indexed distributions may be partial: elements assigned to
            # no task are simply undefined (paper Section 3.1).  The
            # algorithmic kinds must tile the axis exactly.
            if (
                total != self.shape[i]
                and not isinstance(self.axes[i], (Replicated, Indexed))
            ):
                raise DistributionError(
                    f"axis {i}: assigned ranges cover {total} of {self.shape[i]}"
                )

    # -- sizes (Tables 3/4/6 inputs) ----------------------------------------

    def total_local_elements(self) -> int:
        """Sum over tasks of mapped elements; exceeds the global element
        count when shadows are present (paper Section 6)."""
        return sum(s.size for s in self._mapped)

    def global_elements(self) -> int:
        return math.prod(self.shape)

    # -- reconfiguration ------------------------------------------------------

    def adjust(self, ntasks: int, grid: Optional[Sequence[int]] = None) -> "Distribution":
        """The DRMS ``drms_adjust`` operation: an analogous distribution
        of the same array over a different number of tasks.

        Deliberately *undistributed* axes (grid extent 1) stay
        undistributed — an LU-style pencil decomposition adjusted to a
        new task count remains a pencil decomposition — unless the task
        count cannot be factored that way, in which case all non-
        replicated axes become eligible.

        An analogue with this task count, grid, axis kinds and shadow
        is this distribution (unless it has a mapped override): it is
        returned itself and nothing is constructed.
        """
        if grid is None:
            fixed = [1 if g == 1 else 0 for g in self.grid]
            try:
                grid = process_grid(ntasks, self.rank, fixed)
            except DistributionError:
                grid = None
        axes = tuple(ax.adjust(ntasks) for ax in self.axes)
        if (ntasks, axes) == (self.ntasks, self.axes) and not self.mapped_overridden:
            if grid is not None and tuple(int(g) for g in grid) == self.grid:
                return self
        return Distribution(self.shape, axes, ntasks, grid=grid, shadow=self.shadow)

    def fingerprint(self) -> str:
        """Structural digest of the ``(a, m)`` geometry — the plan-cache
        key component for this distribution (see :mod:`repro.plancache`).

        Equal fingerprints imply ``==``: the digest canonically encodes
        the fields equality covers (shape, grid, shadow, every assigned
        and mapped slice), so BLOCK-over-8 and a GENBLOCK spelling the
        same blocks share one.  Not the converse: equality treats every
        empty slice alike, so equal distributions with an extent-0 axis
        may differ (a plan-cache miss, nothing worse).  Computed once
        per instance (distributions are immutable after construction)."""
        if self._fingerprint is None:
            canon = (
                self.shape,
                self.grid,
                self.shadow,
                tuple(_slice_canon(s) for s in self._assigned),
                tuple(_slice_canon(s) for s in self._mapped),
            )
            self._fingerprint = hashlib.sha1(repr(canon).encode()).hexdigest()
        return self._fingerprint

    def describe(self) -> str:
        axes = ", ".join(a.describe() for a in self.axes)
        return f"Distribution(shape={self.shape}, axes=[{axes}], grid={self.grid}, shadow={self.shadow})"

    __repr__ = describe

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.grid == other.grid
            and self.shadow == other.shadow
            and self._assigned == other._assigned
            and self._mapped == other._mapped
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.grid, self.shadow))


def block_distribution(
    shape: Sequence[int],
    ntasks: int,
    shadow: Optional[Sequence[int]] = None,
    grid: Optional[Sequence[int]] = None,
) -> Distribution:
    """Convenience: BLOCK along every axis (the paper's running example:
    the BT array ``u`` is block-distributed along all three dimensions)."""
    return Distribution(
        shape, [Block() for _ in shape], ntasks, grid=grid, shadow=shadow
    )
