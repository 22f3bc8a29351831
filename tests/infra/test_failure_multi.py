"""FailurePlan schedules: ordered multi-failure injection.

A single failure is a schedule of one: ``FailurePlan(iteration=i,
node_id=n)`` and ``FailurePlan(multi=[(i, n)])`` are the same plan.
"""

import sys

import numpy as np
import pytest

from repro.drms.api import (
    drms_adjust,
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)
from repro.drms.context import CheckpointStatus
from repro.infra import DRMSCluster
from repro.infra.failure import FailurePlan
from repro.runtime.machine import Machine, MachineParams
from repro.runtime.sched import SCHED

NITER = 8


def main(ctx, prefix):
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (8, 8))
    u = drms_distribute(ctx, "u", dist, init_global=np.zeros((8, 8)))
    for it in ctx.iterations(1, NITER + 1):
        if it % 2 == 1:
            status, delta = drms_reconfig_checkpoint(ctx, prefix)
            if status is CheckpointStatus.RESTARTED and delta != 0:
                u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


def test_schedule_must_be_ordered_and_nonempty():
    with pytest.raises(ValueError, match="ordered"):
        FailurePlan(multi=[(5, 0), (3, 1)])
    with pytest.raises(ValueError, match="empty"):
        FailurePlan(multi=[])
    # equal iterations are fine (two nodes die in the same SOP window)
    FailurePlan(multi=[(4, 0), (4, 1)])


def test_pending_tracks_the_first_unfired_entry():
    # multi= overrides the single-failure arguments
    plan = FailurePlan(iteration=99, node_id=99, multi=[(3, 7), (6, 1)])
    assert plan.pending == (3, 7)
    assert not plan.claim(3, 1)  # right iteration, wrong node
    assert plan.claim(3, 7)
    assert plan.pending == (6, 1)
    assert not plan.fired  # schedule not yet spent
    assert plan.claim(6, 1)
    assert plan.pending is None
    assert plan.fired
    assert plan.fired_nodes == [7, 1] and plan.fired_at == [3, 6]


def test_entries_fire_in_order_exactly_once():
    plan = FailurePlan(multi=[(2, 4), (2, 5), (8, 6)])
    assert not plan.claim(8, 6)  # cannot fire into the future of the schedule
    assert not plan.claim(2, 5)  # nor skip the pending same-iteration entry
    assert plan.claim(2, 4)
    assert plan.claim(2, 5)
    assert not plan.claim(2, 5)  # both iteration-2 entries spent
    assert not plan.should_fire(2)
    assert plan.claim(8, 6)
    assert plan.fired_nodes == [4, 5, 6]
    assert not plan.claim(8, 6)  # spent: disarmed for good


@pytest.mark.parametrize(
    "plan",
    [FailurePlan(iteration=5, node_id=2), FailurePlan(multi=[(5, 2)])],
    ids=["classic", "schedule"],
)
def test_single_plan_keeps_classic_behavior(plan):
    assert plan.schedule == [(5, 2)]
    assert plan.pending == (5, 2) and not plan.fired
    assert plan.should_fire(5) and not plan.should_fire(4)
    assert plan.claim(5, 2)
    assert plan.fired_nodes == [2]
    assert plan.pending is None and plan.fired
    assert not plan.claim(5, 2)
    assert plan.drain_simultaneous() == []


def test_drain_fires_the_entries_at_the_last_fired_iteration():
    plan = FailurePlan(multi=[(3, 0), (3, 1), (3, 2), (5, 3)])
    assert plan.drain_simultaneous() == []  # nothing fired yet
    assert plan.claim(3, 0)
    assert plan.drain_simultaneous() == [1, 2]
    assert plan.fired_at == [3, 3, 3]
    assert plan.pending == (5, 3)
    assert plan.drain_simultaneous() == []


def test_concurrent_claims_fire_each_entry_once():
    """Scheduled tasks racing to claim under the hardest preemption the
    host allows: the baton, not a lock, makes the claim atomic."""
    plan = FailurePlan(multi=[(3, 0), (3, 1)])
    nthreads = 16
    arrived, wins = [], []

    def racer(i):
        arrived.append(i)
        SCHED.wait("every racer", until=lambda: len(arrived) == nthreads)
        for node in (0, 1):
            if plan.claim(3, node):
                wins.append(node)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        SCHED.run([str(i) for i in range(nthreads)], racer)
    finally:
        sys.setswitchinterval(interval)
    # exactly one winner per schedule entry
    assert sorted(wins) == [0, 1]
    assert plan.fired_nodes == [0, 1]
    assert plan.fired


def test_full_recovery_of_a_multi_entry_schedule():
    """Regression: a full restart read ``fired`` (true only once the
    whole schedule is spent) and ``node_id`` (the *pending* entry), so a
    run killed by the first of two entries was not recovered when a
    sibling's failure echo surfaced instead of the victim's error."""
    cluster = DRMSCluster(machine=Machine(MachineParams(num_nodes=8)))
    plan = FailurePlan(multi=[(4, 2), (99, 5)])
    out = cluster.run_with_recovery(
        "j", cluster.build_app(main), 4, args=("ck",), prefix="ck", failure=plan
    )
    assert out.failed_nodes == [2] and out.failed_node == 2
    assert plan.pending == (99, 5)
    assert np.all(out.final_report.arrays["u"].to_global() == NITER)
