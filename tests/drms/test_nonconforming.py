"""Tests for checkpointing applications that do NOT conform to the
DRMS model (per-task SPMD checkpointing)."""

import numpy as np
import pytest

from repro.checkpoint.spmd import spmd_restart
from repro.drms.nonconforming import SPMDCheckpointer
from repro.errors import RestartError
from repro.pfs.piofs import PIOFS
from repro.runtime.executor import run_spmd
from repro.runtime.machine import Machine, MachineParams


@pytest.fixture
def env():
    m = Machine(MachineParams(num_nodes=8))
    return m, PIOFS(machine=m)


def test_in_run_checkpoint_and_driver_restore(env):
    machine, pfs = env
    ck = SPMDCheckpointer(pfs, segment_bytes=50_000, app_name="legacy")

    def main(comm):
        u = np.full(16, comm.rank, dtype=float)
        for it in range(1, 5):
            u += 1.0
            if it == 2:
                ck.checkpoint(comm, "leg", {"u": u.copy(), "it": it})
        return float(u.sum())

    res = run_spmd(main, 4, machine=machine)
    assert res.returns == [16.0 * (r + 4) for r in range(4)]

    state, bd = spmd_restart(pfs, "leg", 4)
    assert state.ntasks == 4
    for t, payload in enumerate(state.payloads):
        assert payload["it"] == 2
        assert np.array_equal(payload["u"], np.full(16, t + 2.0))
    assert bd.total_seconds > 0


def test_blocking_checkpoint_charges_all_clocks(env):
    machine, pfs = env
    ck = SPMDCheckpointer(pfs, segment_bytes=int(20e6))

    def main(comm):
        ck.checkpoint(comm, "t", {"r": comm.rank})
        return comm.clock.now

    res = run_spmd(main, 4, machine=machine)
    assert min(res.returns) > 1.0  # 80 MB through the write model
    assert max(res.returns) == pytest.approx(min(res.returns), rel=1e-9)


def test_reconfigured_restore_rejected(env):
    machine, pfs = env
    ck = SPMDCheckpointer(pfs, segment_bytes=1000)

    def main(comm):
        ck.checkpoint(comm, "x", comm.rank)

    run_spmd(main, 4, machine=machine)
    with pytest.raises(RestartError):
        spmd_restart(pfs, "x", 6)


def test_state_size_grows_with_tasks(env):
    machine, pfs = env
    ck = SPMDCheckpointer(pfs, segment_bytes=10_000)

    def main(comm):
        ck.checkpoint(comm, f"n{comm.size}", None)

    run_spmd(main, 2, machine=machine)
    run_spmd(main, 6, machine=machine)
    from repro.checkpoint.restart import saved_state_bytes

    assert (
        saved_state_bytes(pfs, "n6")["total"]
        == 3 * saved_state_bytes(pfs, "n2")["total"]
    )
