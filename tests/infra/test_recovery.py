"""End-to-end failure/recovery scenarios (paper Section 4, item 3)."""

import numpy as np
import pytest

from repro.drms import DRMSApplication
from repro.drms.api import (
    drms_adjust,
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)
from repro.drms.context import CheckpointStatus
from repro.infra import DRMSCluster, FailurePlan
from repro.infra.failure import NodeFailure
from repro.runtime.machine import Machine, MachineParams

N = 10
NITER = 12


def main(ctx, prefix):
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
    u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
    for it in ctx.iterations(1, NITER + 1):
        if it % 4 == 1:
            status, delta = drms_reconfig_checkpoint(ctx, prefix)
            if status is CheckpointStatus.RESTARTED and delta != 0:
                u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


@pytest.fixture
def cluster():
    return DRMSCluster(
        machine=Machine(MachineParams(num_nodes=8)), node_repair_s=600.0
    )


def test_no_failure_plain_run(cluster):
    app = cluster.build_app(main)
    out = cluster.run_with_recovery("j", app, 6, args=("ck",), prefix="ck")
    assert out.failed_node is None
    assert out.tasks_after == 6
    g = out.final_report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)


def test_failure_recovers_on_surviving_nodes(cluster):
    app = cluster.build_app(main)
    out = cluster.run_with_recovery(
        "j", app, 8, args=("ck",), prefix="ck",
        failure=FailurePlan(iteration=7, node_id=3),
    )
    assert out.failed_node == 3
    assert out.tasks_before == 8
    assert out.tasks_after == 7  # one node lost
    g = out.final_report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)  # correct final state despite failure


def test_recovery_does_not_wait_for_repair(cluster):
    app = cluster.build_app(main)
    out = cluster.run_with_recovery(
        "j", app, 8, args=("ck",), prefix="ck",
        failure=FailurePlan(iteration=6, node_id=0),
    )
    assert out.recovered_without_repair
    assert out.recovery_latency_s < 60.0
    assert out.node_repair_s == 600.0


def test_explicit_restart_size(cluster):
    app = cluster.build_app(main)
    out = cluster.run_with_recovery(
        "j", app, 8, args=("ck",), prefix="ck",
        failure=FailurePlan(iteration=7, node_id=2),
        restart_ntasks=4,
    )
    assert out.tasks_after == 4
    g = out.final_report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)


def test_events_tell_the_story(cluster):
    app = cluster.build_app(main)
    cluster.run_with_recovery(
        "j", app, 6, args=("ck",), prefix="ck",
        failure=FailurePlan(iteration=5, node_id=1),
    )
    kinds = [e.kind for e in cluster.events]
    for expected in (
        "job_submitted",
        "pool_formed",
        "tc_disconnected",
        "application_killed",
        "user_informed",
        "recovery_started",
        "job_restarted",
    ):
        assert expected in kinds, expected
    # failure precedes recovery precedes restart
    assert kinds.index("application_killed") < kinds.index("recovery_started")
    assert kinds.index("recovery_started") < kinds.index("job_restarted")


def test_failure_without_checkpoint_cannot_recover(cluster):
    def no_ckpt_main(ctx, prefix):
        drms_initialize(ctx)
        d = drms_create_distribution(ctx, (N,))
        drms_distribute(ctx, "u", d, init_global=np.ones(N))
        for it in ctx.iterations(1, 6):
            ctx.barrier()

    app = cluster.build_app(no_ckpt_main)
    from repro.errors import SchedulerError

    with pytest.raises(SchedulerError, match="no checkpoint"):
        cluster.run_with_recovery(
            "j", app, 4, args=("ck",), prefix="ck",
            failure=FailurePlan(iteration=3, node_id=1),
        )


def test_failure_plan_one_shot():
    plan = FailurePlan(iteration=2, node_id=0)
    assert plan.should_fire(2)
    plan.fire()
    assert not plan.should_fire(2)
    assert plan.fired


def test_failure_plan_claim_is_atomic_under_racing_threads():
    """Regression: should_fire()+fire() was a check-then-act race — two
    task threads on the doomed node could both 'fire' a one-shot plan.
    claim() must admit exactly one winner."""
    import threading

    plan = FailurePlan(iteration=3, node_id=0)
    nthreads = 16
    barrier = threading.Barrier(nthreads)
    wins = []

    def racer():
        barrier.wait()
        if plan.claim(3):
            wins.append(threading.get_ident())

    threads = [threading.Thread(target=racer) for _ in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1
    assert plan.fired
    assert not plan.claim(3)  # disarmed for good


def test_failure_plan_claim_wrong_iteration():
    plan = FailurePlan(iteration=5, node_id=0)
    assert not plan.claim(4)
    assert not plan.fired
    assert plan.claim(5)


def test_one_shot_plan_fires_once_with_tasks_sharing_the_doomed_node():
    """Two tasks placed on the failing node race to fire the plan under
    run_spmd; the claim() protocol guarantees a single shot, so the
    restarted run (same placement) survives."""
    from repro.drms import DRMSApplication
    from repro.errors import TaskFailure
    from repro.runtime.machine import Machine, MachineParams

    app = DRMSApplication(
        main, machine=Machine(MachineParams(num_nodes=4))
    )
    app.failure_plan = FailurePlan(iteration=3, node_id=0)
    with pytest.raises(TaskFailure):
        # tasks 0 and 1 both live on node 0 and reach iteration 3
        # together
        app.start(4, args=("ck",), nodes=[0, 0, 1, 1])
    assert app.failure_plan.fired
    assert not app.machine.nodes[0].up
    # recovery on the surviving nodes from the iteration-1 checkpoint
    app.machine.repair_node(0)
    report = app.restart("ck", 4, args=("ck",), nodes=[0, 0, 1, 1])
    g = report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)


def test_node_failure_exception_carries_node():
    exc = NodeFailure(7)
    assert exc.node_id == 7
    assert "7" in str(exc)


# -- corrupt-checkpoint fallback (crash-consistent recovery) ---------------


def rotating_main(ctx, base):
    """Like main(), but each checkpoint goes to a fresh rotation
    generation (base.000001, base.000002, ...)."""
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
    u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
    for it in ctx.iterations(1, NITER + 1):
        if it % 4 == 1:
            gen = f"{base}.{it // 4 + 1:06d}"
            status, delta = drms_reconfig_checkpoint(ctx, gen)
            if status is CheckpointStatus.RESTARTED and delta != 0:
                u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


@pytest.mark.crash_consistency
def test_recovery_falls_back_past_corrupt_newest_checkpoint(cluster):
    """Acceptance scenario: a silent short write corrupts the newest
    checkpoint generation; recovery must reject it, fall back to the
    previous generation, and still finish with the correct answer."""
    from repro.pfs.faults import FaultInjector

    app = cluster.build_app(rotating_main)
    inj = FaultInjector()
    # generation 3 is written at iteration 9; its array file silently
    # loses byte 80 onwards of the write that covers it
    inj.fail_write(match="ck.000003.array.u", offset=80, mode="short")
    app.pfs.attach_faults(inj)

    out = cluster.run_with_recovery(
        "j", app, 6, args=("ck",), prefix="ck",
        failure=FailurePlan(iteration=11, node_id=2),
    )
    assert out.failed_node == 2
    g = out.final_report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)
    # recovery restarted from generation 2, not the corrupt generation 3
    assert out.final_report.restarted_from == "ck.000002"

    kinds = [e.kind for e in cluster.events]
    assert "checkpoint_rejected" in kinds
    assert "checkpoint_verified" in kinds
    assert "restart_fallback" in kinds
    assert cluster.events.of_kind("checkpoint_rejected", prefix="ck.000003")
    (fallback,) = cluster.events.of_kind("restart_fallback", prefix="ck.000002")
    assert fallback.detail["skipped"] == ["ck.000003"]


@pytest.mark.crash_consistency
def test_bit_flip_in_newest_generation_falls_back_automatically(cluster):
    """Acceptance scenario, media-corruption variant: a bit flipped in
    generation N's array file while the job was down makes recovery
    reject N and restart from N-1, with the decision in the event log."""
    from repro.errors import TaskFailure
    from repro.pfs.faults import flip_stored_bit

    app = cluster.build_app(rotating_main)
    cluster.jsa.submit("j", app, args=("ck",), prefix="ck")
    app.failure_plan = FailurePlan(iteration=11, node_id=2)
    with pytest.raises(TaskFailure):
        cluster.jsa.run("j", ntasks=6)
    app.failure_plan = None
    cluster.rc.handle_processor_failure(2)

    # while the job is down, a stored bit of the newest generation rots
    flip_stored_bit(cluster.pfs, "ck.000003.array.u", 40, bit=6)

    report = cluster.jsa.recover("j")
    assert report.restarted_from == "ck.000002"
    g = report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)
    rejected = cluster.events.of_kind("checkpoint_rejected", prefix="ck.000003")
    assert rejected
    assert any("checksum mismatch" in e for e in rejected[0].detail["errors"])
    assert cluster.events.of_kind("restart_fallback")
    kinds = [e.kind for e in cluster.events]
    assert kinds.index("recovery_started") < kinds.index("checkpoint_rejected")
    assert kinds.index("checkpoint_rejected") < kinds.index("job_restarted")


@pytest.mark.crash_consistency
def test_recovery_on_an_all_corrupt_prefix_names_the_root_cause(cluster):
    """When every generation is corrupt, the scheduler's error says
    which generation was rejected first and why (it once said only
    that nothing passed validation)."""
    from repro.errors import SchedulerError, TaskFailure
    from repro.pfs.faults import flip_stored_bit

    app = cluster.build_app(rotating_main)
    cluster.jsa.submit("j", app, args=("ck",), prefix="ck")
    app.failure_plan = FailurePlan(iteration=11, node_id=2)
    with pytest.raises(TaskFailure):
        cluster.jsa.run("j", ntasks=6)
    app.failure_plan = None
    cluster.rc.handle_processor_failure(2)
    for gen in (1, 2, 3):
        flip_stored_bit(cluster.pfs, f"ck.{gen:06d}.array.u", 40, bit=6)

    with pytest.raises(SchedulerError) as exc:
        cluster.jsa.recover("j")
    message = str(exc.value)
    assert message.startswith("job 'j': no checkpoint under 'ck' passes validation")
    first = message.index("ck.000003: file 'ck.000003.array.u' checksum mismatch")
    assert first < message.index("ck.000002: file 'ck.000002.array.u' checksum")


def test_recovery_event_log_records_verification(cluster):
    """Healthy path: recovery verifies the chosen state and says so."""
    app = cluster.build_app(rotating_main)
    cluster.run_with_recovery(
        "j", app, 6, args=("ck",), prefix="ck",
        failure=FailurePlan(iteration=7, node_id=1),
    )
    assert cluster.events.of_kind("checkpoint_verified", prefix="ck.000002")
    assert not cluster.events.of_kind("restart_fallback")
