"""MultiLevelCheckpointer: the two-tier application façade."""

import numpy as np
import pytest

from repro.errors import ReconfigurationError, RestartError
from repro.mlck.checkpointer import MultiLevelCheckpointer
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams

pytestmark = pytest.mark.mlck


@pytest.fixture
def env():
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)
    return machine, pfs


def test_checkpoint_restart_roundtrip_l1(env, workload):
    machine, pfs = env
    ck = MultiLevelCheckpointer(pfs, "ck", machine=machine, drain="sync")
    seg, arrays = workload(iteration=4)
    refs = {a.name: a.to_global(fill=0) for a in arrays}
    mbd = ck.checkpoint(seg, arrays)
    assert mbd.prefix == "ck.000001"
    assert mbd.drain_state == "durable"  # sync mode drains inline
    assert mbd.blocking_seconds == mbd.capture.total_seconds

    state, bd, decision = ck.restart(ntasks=3)
    assert decision.tier == "l1"
    assert bd.kind == "mlck-l1"
    # the fixed restart init is charged even on the memory tier
    assert bd.other_seconds == pfs.params.restart_init_s
    for name, a in state.arrays.items():
        np.testing.assert_array_equal(a.to_global(fill=0), refs[name])


def test_next_prefix_reserves_undrained_generations(env, workload):
    machine, pfs = env
    ck = MultiLevelCheckpointer(pfs, "ck", machine=machine, drain="async")
    seg, arrays = workload()
    mbd1 = ck.checkpoint(seg, arrays)
    ck.wait_for_drains()
    seg2, arrays2 = workload(iteration=2)
    mbd2 = ck.checkpoint(seg2, arrays2)
    ck.wait_for_drains()
    assert (mbd1.prefix, mbd2.prefix) == ("ck.000001", "ck.000002")
    assert ck.drain_states() == {
        "ck.000001": "durable", "ck.000002": "durable",
    }


def test_node_failure_falls_back_to_durable_tier(env, workload):
    machine, pfs = env
    ck = MultiLevelCheckpointer(pfs, "ck", machine=machine, drain="sync")
    seg, arrays = workload(iteration=1)
    mbd = ck.checkpoint(seg, arrays)
    # lose every replica of the first piece
    gen = ck.store.gen(mbd.prefix)
    for node in list(gen.files[gen.manifest["segment_file"]][0].replicas):
        machine.fail_node(node)
        ck.on_node_failure(node)
    state, bd, decision = ck.restart(ntasks=2)
    assert decision.prefix == mbd.prefix
    assert decision.tier == "l2"
    assert bd.kind == "drms"
    assert state.segment.serialize() == seg.serialize()


def test_restart_with_nothing_valid_raises(env):
    machine, pfs = env
    ck = MultiLevelCheckpointer(pfs, "ck", machine=machine)
    with pytest.raises(RestartError, match="any tier"):
        ck.restart(ntasks=2)


def test_bad_drain_mode_refused(env):
    machine, pfs = env
    with pytest.raises(ValueError):
        MultiLevelCheckpointer(pfs, "ck", machine=machine, drain="lazy")


def test_application_rejects_unknown_tier():
    """An application reaches the memory tier only with its drain to
    the PFS (``"memory+pfs"``); a memory-only tier does not exist."""
    from repro.drms import DRMSApplication

    with pytest.raises(ReconfigurationError, match="unknown application"):
        DRMSApplication(lambda ctx: None, tier="memory")
