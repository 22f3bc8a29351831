"""Unit tests for the SPMD thread engine."""

import pytest

from repro.errors import CommunicationError, MachineError, TaskFailure
from repro.runtime.executor import run_spmd
from repro.runtime.machine import Machine, MachineParams


def test_returns_in_rank_order():
    res = run_spmd(lambda comm: comm.rank * 10, 4)
    assert res.returns == [0, 10, 20, 30]


def test_args_kwargs_forwarded():
    def prog(comm, a, b=0):
        return a + b + comm.rank

    res = run_spmd(prog, 2, args=(5,), kwargs={"b": 2})
    assert res.returns == [7, 8]


def test_elapsed_is_max_clock():
    def prog(comm):
        comm.compute(0.1 if comm.rank == 0 else 0.7)

    assert run_spmd(prog, 2).elapsed == pytest.approx(0.7)


def test_placement_recorded():
    m = Machine(MachineParams(num_nodes=8))
    res = run_spmd(lambda comm: None, 3, machine=m, nodes=[4, 5, 6])
    assert res.placement == {0: 4, 1: 5, 2: 6}


def test_placement_visible_to_tasks():
    def prog(comm):
        return comm.world.placement[comm.rank]

    res = run_spmd(prog, 3)
    assert res.returns == [0, 1, 2]


def test_machine_cleared_after_run():
    m = Machine(MachineParams(num_nodes=4))
    run_spmd(lambda comm: None, 4, machine=m)
    assert m.busy_fraction() == 0.0


def test_a_group_releases_only_its_own_placements():
    """Two groups on disjoint nodes of one machine (workflow members)
    both count as busy while both run, and a crashed run leaves no node
    busy."""
    from repro.workflow import WorkflowCoordinator

    m = Machine(MachineParams(num_nodes=8))
    seen = []

    def member(ctx):
        ctx.initialize()
        for it in ctx.iterations(1, 3):
            ctx.workflow_exchange()
            if it == 1:  # both members run here: each has an exchange left
                seen.append(m.busy_fraction())

    coord = WorkflowCoordinator("wf", machine=m)
    coord.add_member("m0", member)
    coord.add_member("m1", member)
    coord.run({"m0": 2, "m1": 3})
    assert seen == [5 / 8] * 5
    assert m.busy_fraction() == 0.0

    def crash(comm):
        if comm.rank == 1:
            raise KeyError("crash")
        comm.barrier()

    with pytest.raises(KeyError):
        run_spmd(crash, 3, machine=m)
    assert m.busy_fraction() == 0.0


def test_crash_propagates_original_exception():
    def prog(comm):
        if comm.rank == 2:
            raise KeyError("original")
        comm.recv(source=3)  # would block forever

    with pytest.raises(KeyError, match="original"):
        run_spmd(prog, 4)


def test_crash_unwinds_blocked_siblings_quickly():
    import time

    def prog(comm):
        if comm.rank == 0:
            raise RuntimeError("die")
        comm.barrier()

    t0 = time.monotonic()
    with pytest.raises(RuntimeError):
        run_spmd(prog, 4)
    assert time.monotonic() - t0 < 1.0


def test_taskfailure_surfaces_when_only_failure():
    def prog(comm):
        if comm.rank == 0:
            raise TaskFailure("node gone")
        comm.barrier()

    with pytest.raises(TaskFailure):
        run_spmd(prog, 2)


def test_too_many_tasks_for_machine():
    m = Machine(MachineParams(num_nodes=2))
    with pytest.raises(MachineError):
        run_spmd(lambda comm: None, 3, machine=m)


def test_single_task_runs_inline_semantics():
    res = run_spmd(lambda comm: comm.allreduce(5), 1)
    assert res.returns == [5]
