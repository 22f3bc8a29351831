"""NPBProxy: common machinery of the BT/LU/SP proxy applications.

Each proxy is a DRMS-conforming SPMD program with the Fig. 1 structure:
declare and distribute the field inventory, then iterate the solver,
checkpointing every ``checkpoint_every`` iterations; after a restart
with ``delta != 0`` the arrays are adjusted and redistributed.  The
numerical kernels are small Jacobi-style relaxations — chosen because
they are *distribution independent* (bitwise-identical results for any
task count), which is what lets the test suite assert exact state
equality across reconfigured restarts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.apps.meta import FieldSpec, npb_class_n
from repro.arrays.distributions import Block, Distribution, Replicated
from repro.checkpoint.segment import SYSTEM_SEGMENT_BYTES, SegmentProfile
from repro.drms.app import DRMSApplication
from repro.drms.context import CheckpointStatus, DRMSContext, TaskArrayView
from repro.drms.soq import SOQSpec

__all__ = ["NPBProxy"]


class NPBProxy:
    """Base class for the three NPB proxy applications."""

    benchmark: str = "base"
    #: the distributed-array inventory (subclasses set this)
    fields: Tuple[FieldSpec, ...] = ()
    #: shadow (ghost) width on decomposed spatial axes
    shadow_width: int = 1
    #: spatial axes that may be decomposed (3 = 3D blocks; 2 = the LU
    #: style where the z axis stays whole)
    decomp_dims: int = 3
    #: private/replicated segment bytes at Class A (paper Table 4)
    private_bytes_class_a: int = 0
    #: paper Table 1 context (source-line counts of the Fortran codes)
    paper_total_lines: int = 0
    paper_added_lines: int = 0
    #: the codes were compiled for a minimum of 4 tasks; local-section
    #: storage is fixed at that size (paper Section 5)
    compiled_min_tasks: int = 4
    #: field updated by the kernel / checked by tests
    main_field: str = "u"
    #: nominal kernel work per grid point per iteration (flops)
    flops_per_point: float = 400.0

    def __init__(self, klass: str = "A", store_data: Optional[bool] = None):
        self.klass = klass
        self.n = npb_class_n(klass)
        # real data for test-sized grids, virtual payloads at bench scale
        self.store_data = store_data if store_data is not None else self.n <= 24
        self.dt = 0.05

    # -- geometry -------------------------------------------------------------

    @property
    def array_bytes_total(self) -> int:
        """Total distributed-array bytes (the Table 3 'array' column)."""
        return sum(f.nbytes(self.n) for f in self.fields)

    def grid_fixed(self) -> Tuple[int, ...]:
        """Process-grid pinning: component axis is never distributed;
        with ``decomp_dims == 2`` the z axis also stays whole."""
        if self.decomp_dims == 3:
            return (1, 0, 0, 0)
        return (1, 1, 0, 0)

    def field_distribution(self, field: FieldSpec, ntasks: int) -> Distribution:
        """The distribution of one field over ``ntasks`` (grid + shadows)."""
        from repro.arrays.distributions import process_grid

        grid = process_grid(ntasks, 4, fixed=self.grid_fixed())
        s = self.shadow_width
        shadow = (0,) + tuple(
            s if grid[i + 1] > 1 else 0 for i in range(3)
        )
        axes = [Replicated() if grid[0] == 1 else Block()] + [Block()] * 3
        return Distribution(
            field.shape(self.n), axes, ntasks, grid=grid, shadow=shadow
        )

    def local_section_bytes(self, ntasks: Optional[int] = None) -> int:
        """Per-task storage for the local sections of every field at the
        compile-time minimum task count (Table 4 'Local sections').

        Fortran codes allocate the full halo pad on every decomposed
        axis regardless of position in the process grid (``1-s : n+s``),
        so the compile-time storage uses the *unclipped* shadow width —
        slightly more than the runtime mapped sections, which clip at
        the array bounds.
        """
        nt = ntasks or self.compiled_min_tasks
        total = 0
        for f in self.fields:
            dist = self.field_distribution(f, nt)
            elems = 1
            for ax in range(4):
                extent = dist.assigned(0)[ax].size
                if dist.grid[ax] > 1:
                    extent += 2 * dist.shadow[ax]
                elems *= extent
            total += elems * np.dtype(f.dtype).itemsize
        return total

    def private_bytes(self) -> int:
        """Private/replicated component, scaled with the grid volume for
        non-A classes (it is dominated by grid-sized scratch arrays)."""
        scale = (self.n / npb_class_n("A")) ** 3
        return int(self.private_bytes_class_a * scale)

    def system_bytes(self) -> int:
        """System-related component: constant ~33 MB of library buffers
        for real classes; scaled down for the test-only toy class so toy
        runs do not drag benchmark-scale padding around."""
        if self.n >= npb_class_n("A"):
            return SYSTEM_SEGMENT_BYTES
        return int(SYSTEM_SEGMENT_BYTES * (self.n / npb_class_n("A")) ** 3)

    def segment_profile(self) -> SegmentProfile:
        """The Table 4 composition of one task's data segment."""
        return SegmentProfile(
            local_section_bytes=self.local_section_bytes(),
            system_bytes=self.system_bytes(),
            private_bytes=self.private_bytes(),
        )

    @property
    def spmd_segment_bytes(self) -> int:
        """Per-task file size of the conventional (SPMD) checkpoint —
        the whole data segment, independent of the run's task count."""
        return self.segment_profile().total_bytes

    def drms_state_bytes(self) -> Dict[str, int]:
        """Predicted DRMS saved-state composition (Table 3, DRMS)."""
        seg = self.spmd_segment_bytes
        arr = self.array_bytes_total
        return {"data": seg, "array": arr, "total": seg + arr}

    def spmd_state_bytes(self, ntasks: int) -> int:
        """Predicted SPMD saved-state size at ``ntasks`` (Table 3)."""
        return self.spmd_segment_bytes * ntasks

    # -- initial data ------------------------------------------------------------

    def initial_field(self, name: str, shape: Sequence[int]) -> np.ndarray:
        """Deterministic smooth-ish initial condition (cheap integer
        hash of the index mesh, distinct per field).  Uses a stable
        content hash: Python's ``hash`` is randomized per process and
        would break cross-run verification."""
        import zlib

        seed = (zlib.crc32(name.encode()) & 0xFFFF) or 1
        grids = np.meshgrid(*[np.arange(s) for s in shape], indexing="ij")
        acc = np.zeros(shape, dtype=np.float64)
        for i, g in enumerate(grids):
            acc += (i + 2) * g * (seed % (i + 3) + 1)
        return 1.0 + (acc % 17) / 17.0

    # -- the DRMS-conforming SPMD program (the Fig. 1 skeleton) --------------------

    def spmd_main(
        self,
        ctx: DRMSContext,
        niter: int,
        prefix: str,
        checkpoint_every: int = 10,
        enable_mode: bool = False,
    ) -> float:
        """Run ``niter`` solver iterations with the Fig. 1 cadence:
        checkpoint at iterations 1, 1 + every, ... (see
        :meth:`~repro.drms.context.DRMSContext.checkpoint_due`).
        ``enable_mode`` uses the enabling (system-initiated) checkpoint
        variant, so the JSA's signal gates the write at those SOPs."""
        ctx.initialize()
        views: Dict[str, TaskArrayView] = {}
        for f in self.fields:
            dist = self.field_distribution(f, ctx.size)
            views[f.name] = ctx.distribute(
                f.name,
                dist,
                dtype=np.dtype(f.dtype),
                init_global=(
                    (lambda shape, _n=f.name: self.initial_field(_n, shape))
                    if self.store_data
                    else None
                ),
            )
        ctx.set_replicated("dt", self.dt)
        ctx.set_replicated("niter", niter)
        ctx.set_control("checkpoint_every", checkpoint_every)

        for it in ctx.iterations(1, niter + 1):
            if ctx.checkpoint_due(checkpoint_every):
                if enable_mode:
                    status, delta = ctx.reconfig_chkenable(prefix)
                else:
                    status, delta = ctx.reconfig_checkpoint(prefix)
                if status is CheckpointStatus.RESTARTED and delta != 0:
                    for f in self.fields:
                        views[f.name] = ctx.distribute(f.name, ctx.adjust(f.name))
            self.step(ctx, views, it)
        return self.residual(ctx, views)

    def step(self, ctx: DRMSContext, views: Dict[str, TaskArrayView], it: int) -> None:
        """One solver iteration: subclasses implement ``kernel``; every
        mode charges the nominal compute time."""
        ctx.compute(self.iter_seconds(ctx.size))
        if self.store_data:
            self.kernel(ctx, views, it)

    def kernel(self, ctx: DRMSContext, views: Dict[str, TaskArrayView], it: int) -> None:
        raise NotImplementedError

    def residual(self, ctx: DRMSContext, views: Dict[str, TaskArrayView]) -> float:
        """Sum of the task's owned main-field values (a cheap, exactly
        reproducible figure tests can compare)."""
        if not self.store_data:
            return 0.0
        return float(views[self.main_field].assigned.sum())

    def iter_seconds(self, ntasks: int) -> float:
        """Nominal per-iteration compute time on the 67 MHz nodes."""
        total_flops = self.n ** 3 * self.flops_per_point
        return total_flops / (67e6 * max(1, ntasks))

    # -- stencil helper shared by the kernels ------------------------------------

    def jacobi_update(
        self, ctx: DRMSContext, view: TaskArrayView, weight: float, axes: Sequence[int]
    ) -> None:
        """One clamped-boundary Jacobi relaxation of the view's field
        along the given spatial axes (1..3).  Reads the mapped section
        (which must hold fresh shadows), writes the assigned section;
        element results do not depend on the decomposition."""
        arr = view.array
        dist = arr.distribution
        t = ctx.rank
        a, m = dist.assigned(t), dist.mapped(t)
        if a.is_empty:
            return
        loc = view.local
        nmax = self.n
        base_pos = []
        for ax in range(4):
            mr = m[ax]
            base_pos.append(a[ax].indices() - mr.first)
        center = loc[np.ix_(*base_pos)]
        acc = np.zeros_like(center)
        for ax in axes:
            for delta in (-1, 1):
                pos = list(base_pos)
                shifted = np.clip(a[ax].indices() + delta, 0, nmax - 1)
                pos[ax] = shifted - m[ax].first
                acc += loc[np.ix_(*pos)]
        k = 2 * len(axes)
        view.set_assigned((1.0 - weight) * center + (weight / k) * acc)

    # -- application factory -----------------------------------------------------

    def soq_spec(self) -> SOQSpec:
        """Resource section: at least ``compiled_min_tasks`` tasks for
        real classes (the paper compiled the codes for >= 4)."""
        min_tasks = 1 if self.n <= 24 else self.compiled_min_tasks
        return SOQSpec(min_tasks=min_tasks, name=self.benchmark)

    def build_application(self, machine=None, pfs=None, **options) -> DRMSApplication:
        """A DRMSApplication wrapping this proxy's SPMD program."""
        options.setdefault("segment_profile", self.segment_profile())
        options.setdefault("store_data", self.store_data)
        return DRMSApplication(
            self.spmd_main,
            name=f"{self.benchmark}.{self.klass}",
            machine=machine,
            pfs=pfs,
            soq=self.soq_spec(),
            **options,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(class={self.klass}, n={self.n}, "
            f"fields={len(self.fields)}, arrays={self.array_bytes_total / 2**20:.1f}MB)"
        )
