"""The recovery's geometry budget, in ``Distribution`` constructions per
array, held so it cannot creep back.

A reconfigured restart (paper Fig. 1) builds two distributions per
array: ``restore`` instantiates the stored geometry, which is what
checks the manifest's spec, and adjusts it to the new task count.  The
program then rebinds every array with ``drms_distribute(ctx, name,
drms_adjust(ctx, name))`` on every rank, once after ``drms_initialize``
and again when the re-executed checkpoint reports the restart.  Those
rebinds construct nothing: adjusting a distribution to the task count,
grid, axis kinds and shadow it already has returns the distribution
itself, so every rank's ``drms_adjust`` is the array's own
distribution object.

The ruler wraps ``Distribution.__init__`` on its class, so every
construction anywhere counts."""

import numpy as np
import pytest

from repro import CheckpointStatus, DRMSApplication
from repro.arrays.distributions import (
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    GenBlock,
    Indexed,
    Replicated,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.drms.api import (
    drms_adjust,
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)

PREFIX = "ck"
NAMES = tuple(f"a{i}" for i in range(6))
SHAPE = (16, 12)


@pytest.fixture
def constructions(monkeypatch):
    """Constructions so far, read as ``constructions()``."""
    count = [0]
    real = Distribution.__init__

    def spy(self, *args, **kwargs):
        count[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(Distribution, "__init__", spy)
    return lambda: count[0]


def _program(ctx, seen, constructions):
    """Fig. 1: declare, distribute and checkpoint six arrays; after a
    restart, rebind them twice as above, noting the construction count
    at each boundary and whether ``drms_adjust`` returned the array's
    own distribution."""
    if drms_initialize(ctx) is not CheckpointStatus.RESTARTED:
        for name in NAMES:
            dist = drms_create_distribution(ctx, SHAPE, shadow=(1, 1))
            drms_distribute(
                ctx, name, dist, init_global=np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE)
            )
        drms_reconfig_checkpoint(ctx, PREFIX)
        return
    ctx.barrier()
    if ctx.rank == 0:
        seen["restored"] = constructions()
    ctx.barrier()
    for name in NAMES:
        drms_distribute(ctx, name, drms_adjust(ctx, name))
    status, delta = drms_reconfig_checkpoint(ctx, PREFIX)
    assert status is CheckpointStatus.RESTARTED and delta == -1
    for name in NAMES:
        dist = drms_adjust(ctx, name)
        view = drms_distribute(ctx, name, dist)
        seen.setdefault("own", []).append(dist is view.array.distribution)
    ctx.barrier()
    if ctx.rank == 0:
        seen["rebound"] = constructions()


def test_a_restart_builds_two_distributions_per_array_and_the_rebind_none(constructions):
    seen = {}
    app = DRMSApplication(_program, name="geometry")
    app.start(4, args=(seen, constructions))
    before = constructions()
    report = app.restart(PREFIX, 3, args=(seen, constructions))
    assert seen["restored"] - before == 2 * len(NAMES)
    assert seen["rebound"] == seen["restored"]
    assert seen["own"] == [True] * (3 * len(NAMES))
    assert all(a.distribution.ntasks == 3 for a in report.arrays.values())


# -- adjust(ntasks) is the distribution itself when nothing changes -------------


@pytest.mark.parametrize("shadow", [(0, 0, 0), (1, 2, 0)])
@pytest.mark.parametrize(
    "axes, ntasks, grid",
    [
        ([Block(), Block(), Block()], 4, None),
        ([Cyclic(), Block(), Replicated()], 4, None),
        ([BlockCyclic(3), Cyclic(), Replicated()], 6, (2, 3, 1)),
        ([Replicated(), Block(), BlockCyclic(2)], 5, None),
    ],
)
def test_adjust_to_the_same_task_count_is_the_distribution_itself(
    constructions, axes, ntasks, grid, shadow
):
    d = Distribution((9, 7, 5), axes, ntasks, grid=grid, shadow=shadow)
    built = constructions()
    assert d.adjust(d.ntasks) is d
    assert d.adjust(d.ntasks, grid=d.grid) is d
    assert constructions() == built


def test_a_changed_task_count_or_grid_still_builds_the_analogue():
    d = Distribution((12, 12), [Block(), Block()], 4, grid=(4, 1), shadow=(1, 1))
    assert d.adjust(4, grid=(2, 2)) is not d
    assert d.adjust(4, grid=(2, 2)) == Distribution(
        (12, 12), [Block(), Block()], 4, grid=(2, 2), shadow=(1, 1)
    )
    three = d.adjust(3)
    assert three is not d and three.ntasks == 3 and three.grid == (3, 1)
    # the same task count, but not the grid its analogue would take
    e = Distribution((9, 7, 5), [Block(), Block(), Block()], 6, grid=(1, 3, 2))
    assert e.adjust(6) is not e and e.adjust(6).grid == (1, 2, 3)


@pytest.mark.parametrize(
    "axes, mapped",
    [
        ([GenBlock([2, 7, 3]), Block()], None),
        ([Indexed([Range([0, 5, 6]), Range([1, 2, 9]), Range([3, 4])]), Block()], None),
        (
            [Block(), Block()],
            [
                Slice([Range.regular(0, 4), Range.regular(0, 7)]),
                Slice([Range.regular(3, 8), Range.regular(0, 7)]),
                Slice([Range.regular(7, 11), Range.regular(0, 7)]),
            ],
        ),
    ],
    ids=["genblock", "indexed", "override"],
)
def test_irregular_and_overridden_distributions_get_a_new_block_analogue(axes, mapped):
    d = Distribution((12, 8), axes, 3, grid=(3, 1), shadow=(1, 0), mapped=mapped)
    analogue = d.adjust(3)
    assert analogue is not d
    assert analogue.axes == (Block(), Block())
    assert not analogue.mapped_overridden
    assert analogue == Distribution(
        (12, 8), [Block(), Block()], 3, grid=(3, 1), shadow=(1, 0)
    )
