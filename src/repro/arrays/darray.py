"""DistributedArray: the DRMS global-view array abstraction.

A distributed array (paper Section 3.1) is an abstract Cartesian index
space whose *sections* are concretely present in tasks.  In this
reproduction the simulated machine is in-process, so the
:class:`DistributedArray` object holds every task's local array (shaped
like that task's *mapped* section, column-major like the paper's Fortran
arrays and the default stream order, so that a default-order gather or
scatter copies a local one contiguous column at a time); SPMD task code
only ever touches its own local array through :meth:`local`.

Two storage modes:

* ``store_data=True`` (default): local numpy arrays are allocated and
  all data operations work — used by functional tests and examples.
* ``store_data=False`` ("virtual"): only geometry is kept; size and
  byte accounting still work, which is what the Class-A benchmark
  reproductions need without allocating gigabytes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.arrays.distributions import Distribution
from repro.arrays.slices import Slice
from repro.errors import ArrayError

__all__ = ["DistributedArray"]


class DistributedArray:
    """A global array distributed over the tasks of an application."""

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        dtype=np.float64,
        distribution: Optional[Distribution] = None,
        store_data: bool = True,
    ):
        self.name = str(name)
        self.shape = tuple(int(n) for n in shape)
        self.dtype = np.dtype(dtype)
        if distribution is None:
            raise ArrayError(f"array {self.name!r} needs a distribution")
        if distribution.shape != self.shape:
            raise ArrayError(
                f"array {self.name!r}: distribution shape {distribution.shape} "
                f"!= array shape {self.shape}"
            )
        self.distribution = distribution
        self.store_data = bool(store_data)
        self._locals: List[Optional[np.ndarray]] = []
        self._alloc_locals()

    def _alloc_locals(self) -> None:
        self._locals = [
            np.zeros(self.distribution.mapped(t).shape, self.dtype, order="F")
            if self.store_data else None
            for t in range(self.distribution.ntasks)
        ]

    # -- geometry ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def ntasks(self) -> int:
        return self.distribution.ntasks

    @property
    def size(self) -> int:
        """Global element count."""
        return math.prod(self.shape)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes_global(self) -> int:
        """Bytes of the global index space — what a DRMS checkpoint
        writes for this array (distribution independent)."""
        return self.size * self.itemsize

    def nbytes_local(self, task: int) -> int:
        """Bytes of ``task``'s mapped section (includes shadows) — what
        an SPMD checkpoint carries per task for this array."""
        return self.distribution.mapped(task).size * self.itemsize

    @property
    def nbytes_total_local(self) -> int:
        """Sum of per-task local storage; >= :attr:`nbytes_global` when
        shadow regions are present (paper Section 6)."""
        return self.distribution.total_local_elements() * self.itemsize

    # -- local access -------------------------------------------------------

    def local(self, task: int) -> np.ndarray:
        """The local array of ``task`` (shaped as its mapped section)."""
        self._need_data()
        return self._locals[task]

    def assigned_view(self, task: int) -> np.ndarray:
        """The task's *assigned* (owned) elements within its local
        array: a strided view that writes through to local storage when
        the assigned section is a box within the mapped one, a copy when
        an axis is irregular (INDEXED) — callers that keep or mutate the
        result copy it."""
        self._need_data()
        d = self.distribution
        idx = d.assigned(task).local_index_within(d.mapped(task))
        return self._locals[task][idx]

    def set_assigned(self, task: int, values: np.ndarray) -> None:
        """Write the task's assigned elements (owner write)."""
        self._need_data()
        d = self.distribution
        idx = d.assigned(task).local_index_within(d.mapped(task))
        self._locals[task][idx] = values

    def _section_index(self, task: int, section: Slice) -> tuple:
        """The index of ``section`` (within the mapped slice) in the local."""
        self._need_data()
        m = self.distribution.mapped(task)
        if not section.issubset(m):
            raise ArrayError(
                f"section {section!r} not within mapped slice of task {task}"
            )
        return section.local_index_within(m)

    def section_from_task(self, task: int, section: Slice) -> np.ndarray:
        """Copy ``section`` out of the task's local array, column-major
        like it and never its memory, also when it is the whole local."""
        idx = self._section_index(task, section)
        local = self._locals[task]
        if not idx or isinstance(idx[0], slice):
            return local[idx].copy(order="K")
        # an np.ix_ mesh: take each partial axis from the row-major
        # transpose, whose result transposes back to column-major
        out = local.T
        for axis, ix in enumerate(idx):
            if ix.size < local.shape[axis]:
                out = out.take(ix.ravel(), axis=local.ndim - 1 - axis)
        return out.T

    def section_to_task(self, task: int, section: Slice, values: np.ndarray) -> None:
        """Write ``section`` into the task's local array."""
        idx = self._section_index(task, section)
        values = values.reshape(section.shape)
        if not idx or isinstance(idx[0], slice):
            self._locals[task][idx] = values
        else:  # a mesh writes through the row-major transpose in memory order
            self._locals[task].T[tuple(ix.T for ix in reversed(idx))] = values.T

    # -- global access (drivers and tests) -----------------------------------

    def set_global(self, values: np.ndarray) -> None:
        """Scatter a global numpy array, in any memory layout, into every
        task's mapped section
        (:func:`~repro.streaming.vectorized.scatter_section_flat`)."""
        from repro.streaming.vectorized import scatter_section_flat

        self._need_data()
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != self.shape:
            raise ArrayError(
                f"global values shape {values.shape} != array shape {self.shape}"
            )
        scatter_section_flat(self, Slice.full(self.shape), values)

    def to_global(self, fill=0) -> np.ndarray:
        """Gather the defined (assigned) elements into a global array.
        Elements assigned to no task are set to ``fill``."""
        self._need_data()
        out = np.full(self.shape, fill, dtype=self.dtype)
        for t in range(self.ntasks):
            a = self.distribution.assigned(t)
            if a.is_empty:
                continue
            out[a.np_index()] = self.assigned_view(t).reshape(a.shape)
        return out

    def defined_mask(self) -> np.ndarray:
        """Boolean global mask of elements assigned to some task."""
        mask = np.zeros(self.shape, dtype=bool)
        for t in range(self.ntasks):
            a = self.distribution.assigned(t)
            if not a.is_empty:
                mask[a.np_index()] = True
        return mask

    def update_shadows(self) -> int:
        """Refresh every mapped copy from its owner (halo exchange).
        Returns the number of elements copied between distinct tasks —
        the communication volume of one shadow update."""
        self._need_data()
        from repro.arrays.assignment import apply_schedule
        from repro.plancache.plans import transfer_schedule

        sched = transfer_schedule(self.distribution, self.distribution)
        apply_schedule(self, self, sched)
        return sum(tr.section.size for tr in sched if tr.src_task != tr.dst_task)

    def is_consistent(self) -> bool:
        """True when every mapped copy of every element equals the
        owner's value (the invariant the assignment operation maintains)."""
        self._need_data()
        ref = self.to_global()
        mask = self.defined_mask()
        for t in range(self.ntasks):
            m = self.distribution.mapped(t)
            if m.is_empty:
                continue
            sub_ref = ref[m.np_index()].reshape(m.shape)
            sub_mask = mask[m.np_index()].reshape(m.shape)
            if not np.array_equal(
                np.asarray(self._locals[t])[sub_mask], sub_ref[sub_mask]
            ):
                return False
        return True

    # -- redistribution --------------------------------------------------------

    def redistributed(self, new_distribution: Distribution) -> "DistributedArray":
        """A new array with the same global content under a different
        distribution — the data-movement core of reconfiguration."""
        if new_distribution.shape != self.shape:
            raise ArrayError("redistribution must preserve the global shape")
        out = DistributedArray(
            self.name,
            self.shape,
            self.dtype,
            new_distribution,
            store_data=self.store_data,
        )
        if self.store_data:
            from repro.arrays.assignment import array_assign

            array_assign(out, self)
        return out

    # -- misc ---------------------------------------------------------------

    def _need_data(self) -> None:
        if not self.store_data:
            raise ArrayError(
                f"array {self.name!r} is virtual (store_data=False); "
                "data operations are unavailable"
            )

    def __repr__(self) -> str:
        mode = "data" if self.store_data else "virtual"
        return (
            f"DistributedArray({self.name!r}, shape={self.shape}, "
            f"dtype={self.dtype.name}, ntasks={self.ntasks}, {mode})"
        )
