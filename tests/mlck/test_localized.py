"""Localized recovery end to end: survivors keep running, only the dead
nodes' sections are rebuilt, replicas are re-placed, and the degenerate
rebuild scopes (zero-piece nodes, whole-replica-set loss, simultaneous
multi-node failure, failure mid-drain) all resolve correctly."""

import numpy as np
import pytest

from repro.checkpoint.recover import open_latest_valid
from repro.drms.api import (
    drms_adjust,
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)
from repro.drms.context import CheckpointStatus
from repro.errors import SchedulerError
from repro.infra import DRMSCluster, FailurePlan
from repro.infra.events import EventLog
from repro.mlck.checkpointer import MultiLevelCheckpointer
from repro.mlck.drain import DrainState
from repro.mlck.localized import (
    compute_rebuild_scope,
    localized_opener,
    localized_restart,
)
from repro.mlck.placement import select_partners
from repro.mlck.store import L1Store
from repro.obs import FlightRecorder, Tracer, use_flight, use_tracer
from repro.pfs.faults import FaultInjector
from repro.pfs.piofs import PIOFS
from repro.runtime.clock import SimClock, use_clock
from repro.runtime.machine import Machine, MachineParams

pytestmark = pytest.mark.localized

N = 10
NITER = 12
NTASKS = 6


def main(ctx, base):
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
    u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
    for it in ctx.iterations(1, NITER + 1):
        if it % 4 == 1:
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


def test_survivors_keep_running_and_only_lost_sections_move(cluster):
    """The tentpole scenario: node 0 (a replica owner) dies at
    iteration 7; the pool is patched in place, everyone rolls back to
    ck.000002 with survivor-local data movement, the lost replicas are
    re-placed, and the run finishes on the same task count."""
    app = cluster.build_app(main, tier="memory+pfs", mlck_drain="sync")
    with use_tracer(Tracer()) as tracer:
        out = cluster.run_with_localized_recovery(
            "j", app, NTASKS, args=("ck",), prefix="ck",
            failure=FailurePlan(iteration=7, node_id=0),
        )
        flat = tracer.metrics.flat()
    assert out.failed_nodes == [0]
    assert out.tasks_before == out.tasks_after == NTASKS
    g = out.final_report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)
    # served locally from the memory tier, not the PFS
    assert out.final_report.restarted_from == "ck.000002"
    assert out.final_report.restart_breakdown.kind == "mlck-l1-localized"
    assert flat.get("mlck.localized.restores", 0) == 1
    assert flat.get("mlck.localized.pfs_fallbacks", 0) == 0
    assert out.recovered_without_repair

    # the scope is exactly rank 0 (the rank placed on node 0)
    scope = out.rebuild_scope
    assert scope.lost_ranks == (0,)
    repl = scope.replacements[0]
    assert repl != 0 and cluster.machine.node(repl).up
    assert 0 < scope.lost_bytes < scope.total_bytes
    assert flat.get("mlck.localized.lost.bytes", 0) > 0
    assert flat.get("mlck.localized.survivor.bytes", 0) > 0

    # node 0 owned L1 pieces, so re-replication placed fresh copies —
    # and no piece of the restored generation still lists the dead node
    assert flat.get("mlck.localized.rereplicate.copies", 0) > 0
    store = app.l1_store_for("ck")
    gen = store.gen("ck.000002")
    for pieces in gen.files.values():
        for p in pieces:
            assert 0 not in p.replicas

    # the survivors were quiesced at the last SOP crossing (iteration 5)
    (quiesced,) = [e for e in out.events if e.kind == "survivors_quiesced"]
    assert quiesced.detail["iteration"] == 5
    assert 0 not in quiesced.detail["nodes"]
    # only the replacement TC restarted; survivors stayed connected
    (restarted,) = [e for e in out.events if e.kind == "tcs_restarted"]
    assert restarted.detail["localized"] is True
    assert restarted.detail["replacements"] == {0: repl}


def test_failed_node_holding_zero_pieces_still_rebuilds_its_rank(cluster):
    """Degenerate scope: node 3 hosts rank 3 but owns no L1 replicas at
    all (piece placement round-robins over the first nodes).  There is
    nothing to re-replicate, yet the rank's section must be rebuilt."""
    app = cluster.build_app(main, tier="memory+pfs", mlck_drain="sync")
    with use_tracer(Tracer()) as tracer:
        out = cluster.run_with_localized_recovery(
            "j", app, NTASKS, args=("ck",), prefix="ck",
            failure=FailurePlan(iteration=7, node_id=3),
        )
        flat = tracer.metrics.flat()
    store = app.l1_store_for("ck")
    held = [
        p
        for prefix in store.generations()
        for pieces in store.gen(prefix).files.values()
        for p in pieces
        if 3 in p.replicas
    ]
    assert held == []  # the premise: node 3 held no replica copies
    assert flat.get("mlck.localized.rereplicate.copies", 0) == 0
    assert flat.get("mlck.localized.rereplicate.bytes", 0) == 0
    assert out.rebuild_scope.lost_ranks == (3,)
    assert out.final_report.restart_breakdown.kind == "mlck-l1-localized"
    g = out.final_report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)


def test_empty_rebuild_scope_when_failed_node_hosts_no_rank():
    """A failure outside the placement loses zero ranks: the scope is
    empty."""
    from repro.arrays.distributions import block_distribution

    shape = (6, 4)
    dist = block_distribution(shape, 2)
    ref = np.arange(24.0).reshape(shape)
    manifest = {
        "prefix": "ck.000001",
        "segment_bytes": 64,
        "arrays": [{
            "name": "A", "shape": list(shape), "dtype": "float64",
            "nbytes": ref.nbytes,
            # never decoded: the override below supplies the distribution
            "distribution": None,
        }],
    }
    scope = compute_rebuild_scope(
        manifest, 2, placement={0: 0, 1: 1}, failed_nodes=[7],
        distribution_overrides={"A": dist},
    )
    assert scope.lost_ranks == ()
    assert scope.survivor_ranks == (0, 1)
    assert scope.lost_bytes == 0 and scope.lost_fraction == 0.0
    assert all(a.lost_intervals == () for a in scope.arrays)


def test_whole_replica_set_loss_falls_back_to_pfs(cluster):
    """When one incident takes every copy of an L1 piece — the owner
    and its partner struck simultaneously — the survivors' own state of
    that generation is gone too, and localized recovery degrades to a
    full, metered read of the newest byte-valid PFS generation."""
    owner = 0
    partner = select_partners(cluster.machine, owner, k=1)[0]
    app = cluster.build_app(main, tier="memory+pfs", mlck_drain="sync")
    with use_tracer(Tracer()) as tracer:
        out = cluster.run_with_localized_recovery(
            "j", app, NTASKS, args=("ck",), prefix="ck",
            failure=FailurePlan(multi=[(10, owner), (10, partner)]),
        )
        flat = tracer.metrics.flat()
    assert sorted(out.failed_nodes) == sorted([owner, partner])
    # generation 3 (iteration 9) replicated a piece exactly onto the
    # doomed pair, so the L1 tier cannot serve it; the drained PFS copy
    # preserves the newest state
    assert out.final_report.restarted_from == "ck.000003"
    assert out.final_report.restart_breakdown.kind == "drms"
    assert flat.get("mlck.localized.pfs_fallbacks", 0) == 1
    assert flat.get("mlck.localized.restores", 0) == 0
    g = out.final_report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)
    # the scope still names every rank the incident lost
    lost = tuple(
        r for r in range(NTASKS)
        if r in (owner, partner)  # rank r was placed on node r
    )
    assert out.rebuild_scope.lost_ranks == lost


def test_simultaneous_multi_node_failure_is_one_incident(cluster):
    """Two same-iteration ``multi=`` entries strike as one incident:
    both nodes leave the pool at once, both ranks land on replacements,
    and the restored run still serves from the memory tier (the doomed
    nodes held no common piece)."""
    app = cluster.build_app(main, tier="memory+pfs", mlck_drain="sync")
    with use_tracer(Tracer()) as tracer:
        out = cluster.run_with_localized_recovery(
            "j", app, NTASKS, args=("ck",), prefix="ck",
            failure=FailurePlan(multi=[(7, 3), (7, 4)]),
        )
        flat = tracer.metrics.flat()
    assert sorted(out.failed_nodes) == [3, 4]
    assert not cluster.machine.node(3).up and not cluster.machine.node(4).up
    assert out.tasks_after == NTASKS
    assert out.final_report.restart_breakdown.kind == "mlck-l1-localized"
    assert flat.get("mlck.localized.pfs_fallbacks", 0) == 0
    scope = out.rebuild_scope
    assert scope.lost_ranks == (3, 4)
    repls = scope.replacements
    assert sorted(repls) == [3, 4]
    assert len({repls[3], repls[4]}) == 2  # distinct spares
    assert all(cluster.machine.node(n).up for n in repls.values())
    g = out.final_report.arrays["u"].to_global()
    assert np.all(g == 1.0 + NITER)


def test_localized_recovery_without_a_spare_is_refused():
    """Every node hosts a task: there is no idle processor to adopt the
    lost rank, and the RC refuses the localized protocol (callers fall
    back to the full kill-and-restart path)."""
    cluster = DRMSCluster(machine=Machine(MachineParams(num_nodes=4)))
    app = cluster.build_app(main, tier="memory+pfs", mlck_drain="sync")
    with pytest.raises(SchedulerError, match="no idle processor"):
        cluster.run_with_localized_recovery(
            "j", app, 4, args=("ck",), prefix="ck",
            failure=FailurePlan(iteration=7, node_id=1),
        )


def test_failure_mid_drain_holds_the_pin_interlock(workload):
    """A failure striking while a drain is in flight must not corrupt
    retention: the newest durable generation was pinned for the drain's
    duration, the failed drain unpins it on the way out, and localized
    recovery falls back past the undrained generation to it."""
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)
    ck = MultiLevelCheckpointer(pfs, "ck", machine=machine, k=1, keep=1)
    seg1, arrays1 = workload(ntasks=2, iteration=1)
    refs = {a.name: a.to_global(fill=0) for a in arrays1}
    ck.checkpoint(seg1, arrays1)  # ck.000001: captured + drained durable
    ck.wait_for_drains()
    assert ck.store.gen("ck.000001").drain_state == DrainState.DURABLE

    # generation 2's drain dies mid-write (the node failure hit the
    # drain): no manifest commits, the half-written state is invisible
    seg2, arrays2 = workload(ntasks=2, iteration=2, fill=100.0)
    inj = FaultInjector()
    inj.fail_write(mode="fail")
    pfs.attach_faults(inj)
    try:
        ck.checkpoint(seg2, arrays2)
        ck.wait_for_drains()
    finally:
        pfs.attach_faults(None)
    gen2 = ck.store.gen("ck.000002")
    assert gen2.drain_state == DrainState.FAILED
    # the interlock released: nothing stays pinned after the drain ends,
    # and keep=1 retention never deleted the only durable fallback
    assert ck.rotation.pinned == frozenset()
    assert ck.rotation.latest() == "ck.000001"

    # the same incident takes every L1 copy of a generation-2 piece;
    # with its L2 copy never committed, recovery must land on ck.000001
    failed = list(gen2.files[gen2.manifest["segment_file"]][0].replicas)
    for node in failed:
        machine.fail_node(node)
        ck.on_node_failure(node)
    survivor = next(n for n in machine.up_nodes() if n not in failed)
    placement = {0: failed[0], 1: survivor}
    spare = next(
        n
        for n in machine.up_nodes()
        if n not in placement.values() and n not in failed
    )
    opened, decision = open_latest_valid(
        pfs, "ck",
        localized_opener(
            pfs, 2, placement, failed, {failed[0]: spare}, l1=ck.store
        ),
        l1=ck.store,
    )
    assert decision.prefix == "ck.000001"
    assert opened.scope.lost_ranks == (0,)
    for name, arr in opened.state.arrays.items():
        np.testing.assert_array_equal(arr.to_global(fill=0), refs[name])


def test_opening_a_named_generation_stamps_the_node_drop_with_its_clock(
    workload,
):
    """A node died and nobody dropped its memory yet: opening a named
    generation does, and the three records of that drop carry the
    incident's clock, not 0 — as every other record of the recovery."""
    machine = Machine(MachineParams(num_nodes=8, failure_domains=4))
    events = EventLog()
    store = L1Store(machine, k=1, events=events)
    seg, arrays = workload(ntasks=2)
    store.capture_drms("ck.000001", seg, arrays)
    dead = 1
    assert any(dead in p.replicas for p in store.gen("ck.000001").pieces())
    machine.fail_node(dead)
    with use_flight(FlightRecorder()) as fr, use_clock(SimClock(7.5)):
        localized_restart(
            PIOFS(machine=machine), "ck.000001", 2, {0: 0, 1: dead},
            failed_nodes=[dead], replacements={1: 2}, l1=store,
        )
    (lost,) = events.of_kind("mlck_replicas_lost")
    (dropped,) = [e for e in fr.events() if e.kind == "mlck_replicas_lost"]
    (blackbox,) = fr.blackboxes
    assert (lost.time, dropped.time, blackbox["time"]) == (7.5, 7.5, 7.5)
