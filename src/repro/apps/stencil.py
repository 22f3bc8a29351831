"""A small generic grid application for examples and tests.

``StencilApp`` is the simplest DRMS-conforming program: one distributed
2D/3D field relaxed by a clamped Jacobi stencil, checkpointing on a
fixed cadence.  It exists so examples and tests can exercise the full
checkpoint / reconfigured-restart / failure-recovery machinery without
dragging in the NPB inventories.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.arrays.distributions import Block, Distribution
from repro.drms.app import DRMSApplication
from repro.drms.context import CheckpointStatus, DRMSContext
from repro.drms.soq import SOQSpec

__all__ = ["StencilApp"]


class StencilApp:
    """Jacobi relaxation of one block-distributed field."""

    def __init__(
        self,
        shape: Sequence[int] = (24, 24),
        weight: float = 0.4,
        checkpoint_every: int = 5,
        field: str = "grid",
    ):
        self.shape = tuple(int(s) for s in shape)
        self.weight = float(weight)
        self.checkpoint_every = int(checkpoint_every)
        self.field = field

    def initial(self, shape) -> np.ndarray:
        """Initial condition: a hot corner relaxing into a cold domain."""
        out = np.zeros(shape)
        # a hot spot in the corner relaxing into the domain
        hot = tuple(slice(0, max(1, s // 4)) for s in shape)
        out[hot] = 100.0
        return out

    def main(self, ctx: DRMSContext, niter: int, prefix: str) -> float:
        """The SPMD program: Fig. 1 loop over one distributed field."""
        ctx.initialize()
        dist = ctx.create_distribution(
            self.shape, shadow=(1,) * len(self.shape)
        )
        g = ctx.distribute(
            self.field, dist, dtype=np.float64, init_global=self.initial
        )
        for it in ctx.iterations(1, niter + 1):
            if ctx.checkpoint_due(self.checkpoint_every):
                status, delta = ctx.reconfig_checkpoint(prefix)
                if status is CheckpointStatus.RESTARTED and delta != 0:
                    g = ctx.distribute(self.field, ctx.adjust(self.field))
            ctx.update_shadows(self.field)
            self._relax(ctx, g)
            ctx.barrier()
        return float(g.assigned.sum())

    def _relax(self, ctx: DRMSContext, view) -> None:
        arr = view.array
        dist = arr.distribution
        a, m = dist.assigned(ctx.rank), dist.mapped(ctx.rank)
        if a.is_empty:
            return
        loc = view.local
        base = [a[ax].indices() - m[ax].first for ax in range(len(self.shape))]
        center = loc[np.ix_(*base)]
        acc = np.zeros_like(center)
        for ax in range(len(self.shape)):
            for delta in (-1, 1):
                pos = list(base)
                shifted = np.clip(a[ax].indices() + delta, 0, self.shape[ax] - 1)
                pos[ax] = shifted - m[ax].first
                acc += loc[np.ix_(*pos)]
        k = 2 * len(self.shape)
        view.set_assigned((1 - self.weight) * center + self.weight / k * acc)

    def build_application(self, machine=None, pfs=None, **options) -> DRMSApplication:
        """A DRMSApplication wrapping this stencil program."""
        return DRMSApplication(
            self.main,
            name="stencil",
            machine=machine,
            pfs=pfs,
            soq=SOQSpec(min_tasks=1, name="stencil"),
            **options,
        )
