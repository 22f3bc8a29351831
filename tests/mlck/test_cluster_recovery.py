"""Failure recovery through the cluster daemons with tier="memory+pfs":
the JSA's restart-state walk upgrades to the tier-aware policy and the
restarted job is served from surviving memory replicas — or from the
drained PFS copy when a partner-loss schedule wipes the L1 generation."""

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
from repro.errors import TaskFailure
from repro.infra import DRMSCluster, FailurePlan
from repro.mlck.placement import select_partners
from repro.obs import FlightRecorder, Tracer, use_flight, use_tracer
from repro.obs.forensics import make_incident, reconstruct_timeline
from repro.runtime.clock import use_clock
from repro.runtime.machine import Machine, MachineParams

pytestmark = pytest.mark.mlck

N = 10
NITER = 12


def main(ctx, base):
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
    u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
    for it in ctx.iterations(1, NITER + 1):
        if it % 4 == 1:
            # under tier="memory+pfs" the base names a rotation: each
            # call captures a fresh L1 generation (ck.000001, ...)
            status, delta = drms_reconfig_checkpoint(ctx, base)
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


def test_recovery_is_served_from_memory_tier(cluster):
    app = cluster.build_app(main, tier="memory+pfs", mlck_drain="sync")
    with use_tracer(Tracer()) as tracer:
        out = cluster.run_with_recovery(
            "j", app, 8, args=("ck",), prefix="ck",
            failure=FailurePlan(iteration=7, node_id=3),
        )
        flat = tracer.metrics.flat()
    assert out.failed_node == 3
    g = out.final_report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)
    # the restart came out of node memory, not the PFS
    assert out.final_report.restarted_from == "ck.000002"
    assert out.final_report.restart_breakdown.kind == "mlck-l1"
    assert flat.get("mlck.recover.l1", 0) == 1
    verified = cluster.events.of_kind("checkpoint_verified", prefix="ck.000002")
    assert verified and verified[-1].detail["tier"] == "l1"
    assert out.recovered_without_repair


def test_partner_loss_schedule_falls_back_to_pfs(cluster):
    """Satellite scenario: a FailurePlan ``multi=`` schedule kills a
    replica owner and then its partner.  With both copies of an L1
    piece gone the tier-aware walk must reject the memory tier and
    restart from the generation's drained PFS copy."""
    machine = cluster.machine
    owner = 0  # piece round-robin starts at the first up node
    partner = select_partners(machine, owner, k=1)[0]
    app = cluster.build_app(main, tier="memory+pfs", mlck_drain="sync")
    plan = FailurePlan(multi=[(10, owner), (11, partner)])

    cluster.jsa.submit("j", app, args=("ck",), prefix="ck")
    app.failure_plan = plan
    with pytest.raises(TaskFailure):
        cluster.jsa.run("j", ntasks=8)
    assert plan.fired_nodes == [owner]
    cluster.rc.handle_processor_failure(owner)
    app.on_node_failure(owner)

    # generation 3 (iteration 9) replicated its first piece exactly onto
    # the doomed pair
    store = app.l1_store_for("ck")
    assert next(store.gen("ck.000003").pieces()).replicas == [owner, partner]

    # first recovery restarts from surviving memory, resumes at
    # iteration 9, and the schedule's second entry kills the partner
    with pytest.raises(TaskFailure):
        cluster.jsa.recover("j")
    assert plan.fired_nodes == [owner, partner]
    assert plan.fired and plan.pending is None
    cluster.rc.handle_processor_failure(partner)
    app.on_node_failure(partner)

    with use_tracer(Tracer()) as tracer:
        report = cluster.jsa.recover("j")
        flat = tracer.metrics.flat()
    # both replicas of the first piece are gone: generation 3 is served
    # by its drained PFS copy, newest state preserved
    assert report.restarted_from == "ck.000003"
    assert report.restart_breakdown.kind == "drms"
    assert flat.get("mlck.recover.l2", 0) == 1
    assert flat.get("mlck.l2.fallbacks", 0) == 1
    g = report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)
    verified = cluster.events.of_kind("checkpoint_verified", prefix="ck.000003")
    assert verified[-1].detail["tier"] == "l2"


def test_localized_recovery_records_carry_the_incident_clock(cluster):
    """The rebuild and every re-placed replica are stamped with the RC
    clock of the recovery that caused them — not 0.0, which sorts them
    before the failure in the reconstructed incident timeline."""
    app = cluster.build_app(main, tier="memory+pfs", mlck_drain="sync")
    with use_flight(FlightRecorder()) as fr:
        out = cluster.run_with_localized_recovery(
            "j", app, 6, args=("ck",), prefix="ck",
            failure=FailurePlan(iteration=7, node_id=0),
        )
        assert out.final_report.restart_breakdown.kind == "mlck-l1-localized"
        (started,) = cluster.events.of_kind("recovery_started")
        (restarted,) = cluster.events.of_kind("job_restarted")
        records = [
            e for e in fr.events()
            if e.kind in ("localized_rebuilt", "replica_replaced")
        ]
        assert {e.kind for e in records} == {"localized_rebuilt", "replica_replaced"}
        assert started.time > 0.0
        for e in records:
            assert started.time <= e.time <= restarted.time
        # dump the rings the records sit on and rebuild the timeline
        for node in sorted({e.node for e in records}):
            with use_clock(cluster.rc):
                fr.blackbox(node, reason="post-recovery")
        tl = reconstruct_timeline(make_incident(cluster.events, flight=fr, job="j"))
    kinds = [e.kind for e in tl.entries]
    after = kinds.index("recovery_started")
    assert kinds.index("failure_injected") < after
    for kind in ("localized_rebuilt", "replica_replaced"):
        assert kind in kinds and kinds.index(kind) > after
