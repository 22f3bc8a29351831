"""Ensemble restart tests: the walk picks the newest line whose every
member opens, torn lines fall back as a unit, members come back on new
task counts (and mixed tiers), and generation numbers are never
reused."""

import numpy as np
import pytest

from repro.checkpoint.format import array_name, manifest_name
from repro.checkpoint.rotation import generations
from repro.drms.context import CheckpointStatus
from repro.errors import WorkflowError
from repro.infra.events import EventLog
from repro.obs import FlightRecorder, use_flight
from repro.pfs.faults import flip_stored_bit
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.workflow import WorkflowCoordinator
from repro.workflow.manifest import walk_workflow_lines

pytestmark = pytest.mark.workflow

N = 8
NITER = 3
TASKS1 = {"m0": 3, "m1": 2}
TASKS2 = {"m0": 2, "m1": 4}


def member_main(ctx, base, niter=NITER):
    ctx.initialize()
    d = ctx.create_distribution((N, N))
    u = ctx.distribute("u", d, init_global=np.full((N, N), float(base)))
    ctx.distribute("inbox", d, init_global=np.zeros((N, N)))
    for it in ctx.iterations(1, niter + 1):
        status, delta = ctx.workflow_exchange()
        if status is CheckpointStatus.RESTARTED and delta != 0:
            u = ctx.distribute("u", ctx.adjust("u"))
            ctx.distribute("inbox", ctx.adjust("inbox"))
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


def build(tier_m1="pfs", niter=NITER, events=None):
    machine = Machine(MachineParams(num_nodes=12))
    coord = WorkflowCoordinator(
        "wf", machine=machine, pfs=PIOFS(machine=machine), events=events
    )
    coord.add_member("m0", member_main, args=(1.0, niter))
    coord.add_member(
        "m1", member_main, args=(5.0, niter), tier=tier_m1,
        mlck_drain="sync" if tier_m1 == "memory+pfs" else "async",
    )
    coord.couple("m0", "u", "m1", "inbox")
    return coord


def final_u(rep, name):
    return rep.members[name].arrays["u"].to_global(fill=0)


def test_restart_newest_line_on_new_task_counts():
    coord = build()
    ref = coord.run(TASKS1)
    rep = coord.restart_workflow(TASKS2)
    assert rep.decision.generation == NITER
    assert not rep.decision.fell_back
    for name, ntasks in TASKS2.items():
        assert rep.members[name].ntasks == ntasks
        # replaying from the newest line reproduces the original run
        assert np.array_equal(final_u(rep, name), final_u(ref, name))


def test_torn_line_falls_back_as_a_unit():
    coord = build()
    ref = coord.run(TASKS1)
    # silently corrupt ONE member's newest state: the peer's gen-NITER
    # state is intact, but must never pair with an older m1 state
    flip_stored_bit(coord.pfs, array_name(f"wf.m1.{NITER:06d}", "u"), 11, 2)
    rep = coord.restart_workflow(TASKS2)
    assert rep.decision.generation == NITER - 1
    assert rep.decision.fell_back
    ((gen, (reason,)),) = rep.decision.rejected
    assert gen == NITER
    # m1 is the line's second member: m0's state opened, then was dropped
    assert reason.startswith("m1: ") and "checksum mismatch" in reason
    for name in TASKS2:
        # no member was launched from the torn line
        assert rep.members[name].restarted_from == f"wf.{name}.{NITER - 1:06d}"
        assert np.array_equal(final_u(rep, name), final_u(ref, name))
    # the rejected open left no PIOFS phase behind
    coord.pfs.begin_phase(IOKind.READ_SHARED)
    coord.pfs.end_phase()


def test_recovery_records_follow_the_lines_they_choose_between():
    """The walk, the member opens and ``workflow_restarted`` are stamped
    with the newest committed line's clock, not t = 0 — so they sort
    after the commits they choose between."""
    events = EventLog()
    coord = build(events=events)
    coord.run(TASKS1)
    committed = events.of_kind("workflow_line_committed")[-1].time
    assert committed > 0.0
    flip_stored_bit(coord.pfs, array_name(f"wf.m1.{NITER:06d}", "u"), 11, 2)
    with use_flight(FlightRecorder()) as fr:
        coord.restart_workflow(TASKS2)
    for kind in (
        "workflow_line_rejected", "workflow_line_verified",
        "workflow_restart_fallback",
    ):
        (event,) = events.of_kind(kind)
        assert event.time >= committed
    (restarted,) = [e for e in fr.events() if e.kind == "workflow_restarted"]
    assert restarted.time >= committed


def test_lost_member_generation_tears_the_line():
    coord = build()
    coord.run(TASKS1)
    coord.pfs.unlink(manifest_name(f"wf.m0.{NITER:06d}"))
    rep = coord.restart_workflow(TASKS2)
    assert rep.decision.generation == NITER - 1
    assert [g for g, _ in rep.decision.rejected] == [NITER]


def test_no_valid_line_raises():
    coord = build()
    coord.run(TASKS1)
    for gen in range(1, NITER + 1):
        flip_stored_bit(coord.pfs, array_name(f"wf.m0.{gen:06d}", "u"), 3, 1)
    with pytest.raises(WorkflowError, match="every member byte-valid"):
        coord.restart_workflow(TASKS2)


def test_explicit_generation_still_validated():
    coord = build()
    coord.run(TASKS1)
    flip_stored_bit(coord.pfs, array_name("wf.m1.000002", "u"), 7, 4)
    with pytest.raises(WorkflowError, match="every member byte-valid"):
        coord.restart_workflow(TASKS2, generation=2)


def test_generation_numbers_never_reused():
    coord = build()
    coord.run(TASKS1)
    flip_stored_bit(coord.pfs, array_name(f"wf.m1.{NITER:06d}", "u"), 11, 2)
    rep = coord.restart_workflow(TASKS2)
    # the resumed run replays iterations NITER-1..NITER and commits new
    # lines — numbered past the torn line, which keeps its number even
    # though it was rejected
    new_gens = [line.generation for line in rep.lines]
    assert new_gens and all(g > NITER for g in new_gens)
    assert coord.committed_generations() == sorted(
        set(range(1, NITER + 1)) | set(new_gens)
    )


def test_mixed_tier_restart_serves_memory_member_from_l1():
    coord = build(tier_m1="memory+pfs")
    ref = coord.run(TASKS1)
    rep = coord.restart_workflow(TASKS2)
    # the memory-tier member restores from its L1 replicas, the PFS
    # member from the file system — a mixed-tier line is normal
    assert rep.decision.member_tiers["m1"] == "l1"
    assert rep.decision.member_tiers["m0"] == "l2"
    for name in TASKS2:
        assert np.array_equal(final_u(rep, name), final_u(ref, name))


def test_memory_member_keeps_every_generation_a_valid_line_names():
    """Retention now releases replica memory with the PFS copy
    (``mlck_keep=4`` for members): after more exchanges than that, the
    member's L1 store holds exactly its surviving PFS generations, and
    every line that still validates is served from memory."""
    niter = 6
    coord = build(tier_m1="memory+pfs", niter=niter)
    coord.run(TASKS1)
    store = coord.member("m1").l1_store_for(coord.member_base("m1"))
    assert store.generations() == generations(coord.pfs, coord.member_base("m1"))
    assert len(store.generations()) == 4 < niter
    valid = []
    for gen in coord.committed_generations():
        # the walk over that one line, as an explicit restart runs it
        line = walk_workflow_lines(
            coord.pfs, "wf", [gen],
            lambda m, p: coord.member(m).open(p, TASKS2[m]),
        )
        if line.generation is not None:
            valid.append(gen)
            assert line.member_tiers["m1"] == "l1"
    assert valid == [3, 4, 5, 6]
    assert coord.restart_workflow(TASKS2).decision.member_tiers["m1"] == "l1"


def test_memory_member_without_replicas_opens_its_pfs_copy():
    """A mixed-tier line whose memory member lost every replica is not
    torn: that member opens its (drained) PFS copy instead."""
    coord = build(tier_m1="memory+pfs")
    ref = coord.run(TASKS1)
    # every node fails and is repaired: no replica survives in memory
    for node in range(coord.machine.num_nodes):
        coord.machine.fail_node(node)
        coord.machine.repair_node(node)
    rep = coord.restart_workflow(TASKS2)
    assert rep.decision.generation == NITER and not rep.decision.rejected
    assert rep.decision.member_tiers == {"m0": "l2", "m1": "l2"}
    for name in TASKS2:
        assert np.array_equal(final_u(rep, name), final_u(ref, name))
