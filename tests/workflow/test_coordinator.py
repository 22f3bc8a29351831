"""End-to-end coordinator tests: coupled members align at exchange
boundaries, coupling bytes move before the line, every exchange
commits one line for all members, and member failures surface as the root
cause instead of wedging the ensemble."""

import threading
import time

import numpy as np
import pytest

from repro.drms.app import DRMSApplication
from repro.drms.context import CheckpointStatus
from repro.errors import CheckpointError, ReconfigurationError, WorkflowError
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.workflow import WorkflowCoordinator

pytestmark = pytest.mark.workflow

N = 8
NITER = 3


def member_main(ctx, base, niter=NITER):
    """An evolving field plus an inbox fed by the peer's field at every
    exchange boundary.  Returns the per-status exchange counts so tests
    can see the exchange outcomes from inside a member."""
    ctx.initialize()
    d = ctx.create_distribution((N, N))
    u = ctx.distribute("u", d, init_global=np.full((N, N), float(base)))
    ctx.distribute("inbox", d, init_global=np.zeros((N, N)))
    counts = {s: 0 for s in CheckpointStatus}
    for it in ctx.iterations(1, niter + 1):
        status, delta = ctx.workflow_exchange()
        counts[status] += 1
        if status is CheckpointStatus.RESTARTED and delta != 0:
            u = ctx.distribute("u", ctx.adjust("u"))
            ctx.distribute("inbox", ctx.adjust("inbox"))
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return {s.name: n for s, n in counts.items() if n}


@pytest.fixture
def coord():
    machine = Machine(MachineParams(num_nodes=8))
    c = WorkflowCoordinator("wf", machine=machine, pfs=PIOFS(machine=machine))
    c.add_member("m0", member_main, args=(1.0,))
    c.add_member("m1", member_main, args=(5.0,))
    c.couple("m0", "u", "m1", "inbox")
    return c


def test_run_commits_one_line_per_exchange(coord):
    rep = coord.run({"m0": 3, "m1": 2})
    assert coord.committed_generations() == list(range(1, NITER + 1))
    assert [line.generation for line in rep.lines] == list(range(1, NITER + 1))
    assert set(rep.members) == {"m0", "m1"}
    for line in rep.lines:
        assert set(line.members) == {"m0", "m1"}
        assert line.members["m0"]["ntasks"] == 3
        assert line.members["m1"]["ntasks"] == 2
        # members write concurrently behind the boundary
        assert line.seconds <= line.serial_seconds + 1e-9
    assert [line.members["m0"]["iteration"] for line in rep.lines] == [1, 2, 3]


def test_report_members_follow_add_member_order():
    """The run report lists members in ``add_member`` order, not in the
    order their threads finish: here the first-added member finishes
    last."""
    finished = threading.Event()

    def last(ctx, base):
        out = member_main(ctx, base)
        finished.wait(10.0)
        time.sleep(0.2)  # let the other member's report land first
        return out

    def first(ctx, base):
        out = member_main(ctx, base)
        finished.set()
        return out

    machine = Machine(MachineParams(num_nodes=8))
    c = WorkflowCoordinator("wf", machine=machine, pfs=PIOFS(machine=machine))
    c.add_member("slow", last, args=(1.0,))
    c.add_member("fast", first, args=(5.0,))
    rep = c.run({"slow": 2, "fast": 2})
    assert list(rep.members) == ["slow", "fast"]


def test_coupling_transfers_before_the_line(coord):
    rep = coord.run({"m0": 3, "m1": 2})
    # at the final exchange (iteration NITER) m0's field was
    # base + NITER - 1; that value landed in m1's inbox before the line
    inbox = rep.members["m1"].arrays["inbox"].to_global(fill=0)
    assert np.array_equal(inbox, np.full((N, N), 1.0 + NITER - 1))
    # nothing couples into m0
    assert np.array_equal(
        rep.members["m0"].arrays["inbox"].to_global(fill=0), np.zeros((N, N))
    )
    assert np.array_equal(
        rep.members["m0"].arrays["u"].to_global(fill=0),
        np.full((N, N), 1.0 + NITER),
    )


def test_every_exchange_commits_for_all_members(coord):
    rep = coord.run({"m0": 2, "m1": 2})
    assert coord.committed_generations() == list(range(1, NITER + 1))
    # every task of every member took every line
    for ret in (r for rep_m in rep.members.values() for r in rep_m.returns):
        assert ret == {"TAKEN": NITER}


def test_unknown_member_coupling_rejected(coord):
    with pytest.raises(WorkflowError, match="unknown workflow member"):
        coord.couple("m0", "u", "nope", "inbox")


def test_self_coupling_rejected(coord):
    with pytest.raises(WorkflowError, match="itself"):
        coord.couple("m0", "u", "m0", "inbox")


def test_coupling_to_unknown_array_fails_the_exchange(coord):
    coord.couple("m1", "ghost", "m0", "inbox")
    with pytest.raises(WorkflowError, match="no such array 'ghost'"):
        coord.run({"m0": 2, "m1": 2})


def test_member_names_are_namespace_checked(coord):
    for bad in ("m0", "a.b", "000001", "workflow"):
        with pytest.raises(CheckpointError):
            coord.add_member(bad, member_main, args=(0.0,))


def test_missing_task_counts_rejected(coord):
    with pytest.raises(ReconfigurationError, match="m1"):
        coord.run({"m0": 2})


def test_task_counts_for_unknown_members_rejected(coord):
    # a misspelt key used to be ignored, its member run on nothing
    with pytest.raises(ReconfigurationError, match=r"unknown.*'m2'"):
        coord.run({"m0": 2, "m1": 2, "m2": 1})
    assert coord.committed_generations() == []
    with pytest.raises(ReconfigurationError, match="M1"):
        coord.select_restart_line({"m0": 2, "m1": 2, "M1": 3})


def test_empty_workflow_rejected():
    coord = WorkflowCoordinator("wf")
    with pytest.raises(WorkflowError, match="no members"):
        coord.run({})


def test_member_crash_aborts_peers_and_surfaces_root_cause():
    machine = Machine(MachineParams(num_nodes=8))
    coord = WorkflowCoordinator("wf", machine=machine, pfs=PIOFS(machine=machine))

    def crashing_main(ctx, base):
        ctx.initialize()
        raise ValueError("member blew up before its first boundary")

    coord.add_member("good", member_main, args=(1.0,))
    coord.add_member("bad", crashing_main, args=(2.0,))
    # the peer parked at the exchange unwinds as the ensemble is killed;
    # the caller sees the member's own error, not the peer's echo
    with pytest.raises(ValueError, match="blew up"):
        coord.run({"good": 2, "bad": 2})


def test_workflow_exchange_outside_a_workflow_rejected():
    def lone_main(ctx):
        ctx.initialize()
        for _ in ctx.iterations(1, 2):
            ctx.workflow_exchange()

    app = DRMSApplication(lone_main)
    with pytest.raises(CheckpointError, match="outside a workflow"):
        app.start(2)
