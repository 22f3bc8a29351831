"""MultiLevelCheckpointer: the two-tier application façade."""

import numpy as np
import pytest

from repro.checkpoint.recover import restart_latest_valid
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
    ck = MultiLevelCheckpointer(pfs, "ck", machine=machine)
    seg, arrays = workload(iteration=4)
    refs = {a.name: a.to_global(fill=0) for a in arrays}
    prefix, capture = ck.checkpoint(seg, arrays)
    assert prefix == "ck.000001"
    assert capture.kind == "mlck-l1"
    ck.wait_for_drains()
    assert ck.store.gen(prefix).drain_state == "durable"

    state, bd, decision = restart_latest_valid(pfs, "ck", 3, l1=ck.store)
    assert decision.tier == "l1"
    assert bd.kind == "mlck-l1"
    # the fixed restart init is charged even on the memory tier
    assert bd.other_seconds == pfs.params.restart_init_s
    for name, a in state.arrays.items():
        np.testing.assert_array_equal(a.to_global(fill=0), refs[name])


def test_next_prefix_reserves_undrained_generations(env, workload):
    machine, pfs = env
    ck = MultiLevelCheckpointer(pfs, "ck", machine=machine)
    seg, arrays = workload()
    first, _ = ck.checkpoint(seg, arrays)
    ck.wait_for_drains()
    seg2, arrays2 = workload(iteration=2)
    second, _ = ck.checkpoint(seg2, arrays2)
    ck.wait_for_drains()
    assert (first, second) == ("ck.000001", "ck.000002")
    assert [ck.store.gen(p).drain_state for p in ck.store.generations()] == [
        "durable", "durable",
    ]


def test_node_failure_falls_back_to_durable_tier(env, workload):
    machine, pfs = env
    ck = MultiLevelCheckpointer(pfs, "ck", machine=machine)
    seg, arrays = workload(iteration=1)
    prefix, _ = ck.checkpoint(seg, arrays)
    ck.wait_for_drains()
    # lose every replica of the first piece
    gen = ck.store.gen(prefix)
    for node in list(gen.files[gen.manifest["segment_file"]][0].replicas):
        machine.fail_node(node)
        ck.on_node_failure(node)
    state, bd, decision = restart_latest_valid(pfs, "ck", 2, l1=ck.store)
    assert decision.prefix == prefix
    assert decision.tier == "l2"
    assert bd.kind == "drms"
    assert state.segment.serialize() == seg.serialize()


def test_restart_with_nothing_valid_raises(env):
    machine, pfs = env
    ck = MultiLevelCheckpointer(pfs, "ck", machine=machine)
    with pytest.raises(RestartError, match="any tier"):
        restart_latest_valid(pfs, "ck", 2, l1=ck.store)


def test_application_rejects_unknown_tier():
    """An application reaches the memory tier only with its drain to
    the PFS (``"memory+pfs"``); a memory-only tier does not exist."""
    from repro.drms import DRMSApplication

    with pytest.raises(ReconfigurationError, match="unknown application"):
        DRMSApplication(lambda ctx: None, tier="memory")


def test_application_rejects_unknown_drain_mode():
    """The drain knob is checked where ``tier`` is, on either tier —
    not at the first memory-tier checkpoint, inside a rank."""
    from repro.drms import DRMSApplication

    for tier in ("pfs", "memory+pfs"):
        with pytest.raises(ReconfigurationError, match="drain mode 'bogus'"):
            DRMSApplication(lambda ctx: None, tier=tier, mlck_drain="bogus")


def test_a_sync_application_is_durable_when_each_checkpoint_returns(monkeypatch):
    """``mlck_drain="sync"`` waits for each generation's drain inside
    the checkpoint: every generation is durable when the engine returns
    to ``reconfig_checkpoint`` (by default it is still pending there),
    and the application is charged the same capture either way."""
    from repro.drms import DRMSApplication
    from repro.drms.api import (
        drms_create_distribution,
        drms_distribute,
        drms_initialize,
        drms_reconfig_checkpoint,
    )
    from repro.drms.app import AppRuntime

    states = []
    engine_checkpoint = AppRuntime.engine_checkpoint

    def probe(runtime, prefix, segment):
        bd = engine_checkpoint(runtime, prefix, segment)
        store = runtime.app.mlck_for(prefix).store
        states.append(store.gen(runtime.checkpoints[-1][0]).drain_state)
        return bd

    monkeypatch.setattr(AppRuntime, "engine_checkpoint", probe)

    def main(ctx, base):
        drms_initialize(ctx)
        dist = drms_create_distribution(ctx, (12, 12))
        u = drms_distribute(ctx, "u", dist, init_global=np.ones((12, 12)))
        for _ in ctx.iterations(1, 4):
            drms_reconfig_checkpoint(ctx, base)
            u.set_assigned(u.assigned + 1.0)
            ctx.barrier()

    def run(**knob):
        app = DRMSApplication(main, tier="memory+pfs", **knob)
        report = app.start(4, args=("ck",))
        app.wait_for_drains()
        return report.checkpoints

    behind = run()
    assert states == ["pending"] * 3
    del states[:]
    synced = run(mlck_drain="sync")
    assert states == ["durable"] * 3
    assert [p for p, _ in synced] == ["ck.000001", "ck.000002", "ck.000003"]
    assert synced == behind
