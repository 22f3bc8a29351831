"""The scheduler: one runnable thread at a time, the least (simulated
clock, name) next, a crash surfacing its root cause at once from any
wait, and a deadlock raised at once with every waiter named."""

import pathlib
import re
import sys
import threading
import time

import numpy as np
import pytest

from repro.drms.app import DRMSApplication
from repro.errors import DeadlockError
from repro.mlck.drain import DrainController
from repro.mlck.store import L1Store
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.runtime.clock import SimClock, use_clock
from repro.runtime.executor import run_spmd
from repro.runtime.machine import Machine, MachineParams
from repro.runtime.sched import SCHED
from repro.workflow import WorkflowCoordinator

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class PeerDied(Exception):
    pass


def test_one_thread_runs_at_a_time():
    inside = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # preempt as hard as the host allows

    def prog(comm):
        for _ in range(20):
            inside.append(comm.rank)
            assert inside == [comm.rank]  # nobody else got in meanwhile
            sum(range(2000))
            inside.pop()
            comm.barrier()

    try:
        run_spmd(prog, 4)
    finally:
        sys.setswitchinterval(interval)


def test_the_least_clock_then_name_runs_next():
    """Waiters released together resume in (clock, name) order."""
    clocks = {"a": 0.0, "b": 3.0, "c": 1.0, "d": 2.0, "e": 1.0}
    names = list(clocks)
    waiting, flag, order = [], [], []

    def body(i):
        name = names[i]
        with use_clock(SimClock(clocks[name])):
            if name == "a":
                SCHED.wait("every peer to wait", until=lambda: len(waiting) == 4)
                flag.append(True)
                return
            waiting.append(name)
            SCHED.wait("the flag", until=lambda: bool(flag))
            order.append(name)

    SCHED.run(names, body)
    assert order == ["c", "e", "d", "b"]


# -- a crash surfaces at once from every kind of wait ---------------------


def _recv():
    def prog(comm):
        if comm.rank == 1:
            raise PeerDied("peer died")
        comm.recv(source=1)

    run_spmd(prog, 2)


def _barrier():
    def prog(comm):
        if comm.rank == 3:  # the last to run: its peers already wait
            raise PeerDied("peer died")
        comm.barrier()

    run_spmd(prog, 4)


def _phase():
    """A rank waits for a PFS phase another group holds; its peer dies."""
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)

    def holder():
        with pfs.phase(IOKind.WRITE_SERIAL):
            SCHED.wait("the test to end", until=lambda: False)

    def prog(comm):
        if comm.rank == 1:
            raise PeerDied("peer died")
        pfs.begin_phase(IOKind.READ_SHARED)

    def body(i):
        if i == 0:
            return holder()
        return run_spmd(prog, 2, machine=machine)

    SCHED.run(["holder", "spmd"], body)


def _member(ctx, delay, die_before_exchange):
    ctx.initialize()
    d = ctx.create_distribution((8, 8))
    ctx.distribute("u", d, init_global=np.ones((8, 8)))
    ctx.compute(delay)
    ctx.barrier()  # the member with less delay reaches its hub wait first
    if die_before_exchange:
        raise PeerDied("peer died")
    for it in ctx.iterations(1, 2):
        ctx.workflow_exchange(final=True)


def _workflow(die_at):
    machine = Machine(MachineParams(num_nodes=8))
    coord = WorkflowCoordinator("wf", machine=machine, pfs=PIOFS(machine=machine))
    coord.add_member("m0", _member, args=(0.0, False))
    if die_at == "exchange":
        coord.add_member("m1", _member, args=(1000.0, True))
    else:  # m1 dies in its checkpoint, after the exchange m0 left first

        def profile(runtime):
            raise PeerDied("peer died")

        coord.add_member("m1", _member, args=(1000.0, False), segment_profile=profile)
    coord.run({"m0": 2, "m1": 2})


def _drain():
    """A rank waits for its drain; the peer rank dies first (least clock)."""
    machine = Machine(MachineParams(num_nodes=8))
    store = L1Store(machine, k=1)
    drainer = DrainController(store, PIOFS(machine=machine))
    from repro.checkpoint.segment import DataSegment, SegmentProfile
    from repro.arrays.darray import DistributedArray
    from repro.arrays.distributions import block_distribution

    a = DistributedArray("a", (8,), np.float64, block_distribution((8,), 2))
    a.set_global(np.arange(8.0))
    store.capture_drms("ck.000001", DataSegment(SegmentProfile(64, 0, 0)), [a])

    def prog(comm):
        if comm.rank == 1:
            raise PeerDied("peer died")
        comm.compute(5.0)
        drainer.schedule("ck.000001")
        drainer.wait()

    run_spmd(prog, 2, machine=machine)


WAITS = {
    "recv": _recv,
    "barrier": _barrier,
    "phase_admission": _phase,
    "hub_exchange": lambda: _workflow("exchange"),
    "hub_commit": lambda: _workflow("commit"),
    "drain_wait": _drain,
}


@pytest.mark.parametrize("kind", list(WAITS))
def test_a_crash_surfaces_its_root_cause_from_every_wait(kind):
    t0 = time.monotonic()
    with pytest.raises(PeerDied, match="peer died"):
        WAITS[kind]()
    assert time.monotonic() - t0 < 1.0


# -- deadlocks ------------------------------------------------------------------


def test_a_member_that_never_reaches_the_exchange_is_a_deadlock():
    """A member that returns early leaves its peer at the hub: the run
    raises at once and names the waiter, not after a timeout."""

    def quitter(ctx):
        ctx.initialize()

    machine = Machine(MachineParams(num_nodes=8))
    coord = WorkflowCoordinator("wf", machine=machine, pfs=PIOFS(machine=machine))
    coord.add_member("m0", _member, args=(0.0, False))
    coord.add_member("m1", quitter)
    t0 = time.monotonic()
    with pytest.raises(DeadlockError, match=r"m0/0 waits for the workflow exchange of member 'm0'"):
        coord.run({"m0": 2, "m1": 2})
    assert time.monotonic() - t0 < 1.0


def test_waiting_for_nothing_outside_is_a_deadlock():
    """A thread the scheduler did not start that waits for what no
    thread can bring raises at once."""
    store = L1Store(Machine(MachineParams(num_nodes=4)), k=1)
    drainer = DrainController(store, PIOFS())
    drainer.wait()  # nothing in flight: returns
    with pytest.raises(DeadlockError, match="waits for the impossible"):
        SCHED.wait("the impossible", until=lambda: False)


def test_a_phase_held_outside_is_not_a_deadlock():
    """A rank waiting for a phase that a thread outside the scheduler
    holds waits, and runs once the phase closes."""
    pfs = PIOFS()
    pfs.begin_phase(IOKind.WRITE_SERIAL)
    box = {}

    def prog(comm):
        with pfs.phase(IOKind.READ_SHARED):
            pass
        return comm.rank

    launcher = threading.Thread(target=lambda: box.update(run=run_spmd(prog, 2)))
    launcher.start()
    time.sleep(0.05)
    assert "run" not in box  # still admitted behind our phase
    pfs.end_phase()
    launcher.join(timeout=10.0)
    assert not launcher.is_alive()
    assert box["run"].returns == [0, 1]


# -- what the scheduler replaced ------------------------------------------------

#: primitives a scheduled thread would block on outside the scheduler
_PRIMITIVES = re.compile(
    r"threading\.(Condition|Barrier|Event)\b|ThreadPoolExecutor|concurrent\.futures"
    r"|\bwait\(timeout=|\bjoin\(timeout="
)
#: the one exception: a steering client's wait, on a thread of its own
_ALLOWED = {
    ("drms/steering.py", "        self._event = threading.Event()"),
    ("drms/steering.py", "        if not self._event.wait(timeout=timeout):"),
}


def test_every_wait_is_a_scheduler_wait():
    found = {
        (path.relative_to(SRC).as_posix(), line)
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "sched.py"
        for line in path.read_text().splitlines()
        if _PRIMITIVES.search(line)
    }
    assert found == _ALLOWED


def test_the_wait_timeouts_are_gone():
    root = SRC.parents[1]
    knobs = re.compile("(comm|default|exchange)" + "_timeout")
    hits = [
        str(path.relative_to(root))
        for top in ("src", "tests", "benchmarks", "examples")
        for path in (root / top).rglob("*.py")
        if knobs.search(path.read_text())
    ]
    assert hits == []
    import inspect

    from repro.mlck.checkpointer import MultiLevelCheckpointer
    from repro.runtime.comm import CommWorld, Request, TaskComm

    for fn in (
        CommWorld, CommWorld.recv, TaskComm.recv, Request.wait, PIOFS.begin_phase,
        DrainController.wait, MultiLevelCheckpointer.wait_for_drains,
        DRMSApplication.wait_for_drains,
    ):
        assert "timeout" not in inspect.signature(fn).parameters, fn
    assert list(inspect.signature(run_spmd).parameters).count("timeout") == 1
