"""Procedural aliases matching the paper's API names (Table 2).

These are thin wrappers over :class:`~repro.drms.context.DRMSContext`
methods so that ported code can read like the Fortran skeleton of
Fig. 1::

    status = drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (nx, ny, nz), shadow=(2, 2, 2))
    u = drms_distribute(ctx, "u", dist)
    ...
    status, delta = drms_reconfig_checkpoint(ctx, prefix)
    if status is CheckpointStatus.RESTARTED and delta != 0:
        dist = drms_adjust(ctx, "u")
        u = drms_distribute(ctx, "u", dist)
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.drms.context import CheckpointStatus, DRMSContext, TaskArrayView

__all__ = [
    "drms_initialize",
    "drms_create_distribution",
    "drms_distribute",
    "drms_adjust",
    "drms_reconfig_checkpoint",
    "drms_reconfig_chkenable",
]


def drms_initialize(ctx: DRMSContext) -> CheckpointStatus:
    """Initialize the run-time; at a restart the checkpointed state has
    been loaded and execution will continue from the checkpoint."""
    return ctx.initialize()


def drms_create_distribution(
    ctx: DRMSContext,
    shape: Sequence[int],
    axes: Optional[Sequence] = None,
    shadow: Optional[Sequence[int]] = None,
    grid: Optional[Sequence[int]] = None,
):
    """Declare how an array of ``shape`` is distributed over the tasks
    (default BLOCK along every dimension, as in Fig. 1)."""
    return ctx.create_distribution(shape, axes=axes, shadow=shadow, grid=grid)


def drms_distribute(
    ctx: DRMSContext,
    name: str,
    distribution,
    dtype: Any = float,
    init_global: Any = None,
    init_local: Any = None,
) -> TaskArrayView:
    """Distribute (or, after restart, redistribute) the named array."""
    return ctx.distribute(
        name,
        distribution,
        dtype=dtype,
        init_global=init_global,
        init_local=init_local,
    )


def drms_adjust(ctx: DRMSContext, name: str):
    """Adjust the stored distribution of ``name`` to the current task
    count (used after a reconfigured restart, when ``delta != 0``)."""
    return ctx.adjust(name)


def drms_reconfig_checkpoint(ctx: DRMSContext, prefix: str):
    """Mandatory checkpoint: always taken.  Returns ``(status, delta)``."""
    return ctx.reconfig_checkpoint(prefix)


def drms_reconfig_chkenable(ctx: DRMSContext, prefix: str):
    """Enabling checkpoint: taken only at system discretion (after
    :meth:`~repro.drms.app.DRMSApplication.enable_checkpoint`)."""
    return ctx.reconfig_chkenable(prefix)

