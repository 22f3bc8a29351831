"""Tier-aware recovery walk (repro.mlck.recovery)."""

import pytest

from repro.checkpoint.drms import drms_checkpoint
from repro.checkpoint.recover import select_restart_state
from repro.infra.events import EventLog
from repro.mlck.drain import DrainController
from repro.mlck.recovery import select_tiered_restart_state, tiered_candidates
from repro.mlck.store import L1Store
from repro.obs import Tracer, use_tracer
from repro.pfs.faults import FaultInjector
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams

pytestmark = pytest.mark.mlck


@pytest.fixture
def env():
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)
    store = L1Store(machine, k=1)
    return machine, pfs, store


def _take(store, pfs, workload, g, drained=True, crash=False):
    seg, arrays = workload(iteration=g)
    prefix = f"ck.{g:06d}"
    store.capture_drms(prefix, seg, arrays)
    if drained:
        drainer = DrainController(store, pfs)
        if crash:
            inj = FaultInjector()
            inj.fail_write(mode="fail")
            pfs.attach_faults(inj)
            try:
                drainer.schedule(prefix)
                drainer.wait()
            finally:
                pfs.attach_faults(None)
        else:
            drainer.schedule(prefix)
            drainer.wait()
    return prefix


def test_candidates_newest_first_with_tier_order(env, workload):
    machine, pfs, store = env
    _take(store, pfs, workload, 1)              # both tiers
    _take(store, pfs, workload, 2, drained=False)  # L1 only
    cands = tiered_candidates(pfs, "ck", store)
    assert cands[0] == ("ck.000002", ["l1"])
    assert cands[1] == ("ck.000001", ["l1", "l2"])


def test_newest_l1_generation_wins_without_pfs_reads(env, workload):
    machine, pfs, store = env
    _take(store, pfs, workload, 1)
    _take(store, pfs, workload, 2, drained=False)
    with use_tracer(Tracer()) as tracer:
        decision = select_tiered_restart_state(pfs, "ck", store)
        assert decision.prefix == "ck.000002"
        assert decision.tier == "l1"
        # candidate enumeration is name-only; the L1 walk never
        # touched the PFS
        assert tracer.metrics.flat().get("pfs.read.count", 0) == 0
        assert tracer.metrics.flat().get("mlck.recover.l1", 0) == 1


def test_lost_replicas_fall_back_to_l2(env, workload):
    machine, pfs, store = env
    _take(store, pfs, workload, 1)
    events = EventLog()
    # kill the newest generation's whole first replica set
    gen = store.gen("ck.000001")
    with use_tracer(Tracer()) as tracer:
        for node in list(gen.files[gen.manifest["segment_file"]][0].replicas):
            machine.fail_node(node)
            store.drop_node(node)
        decision = select_tiered_restart_state(pfs, "ck", store, events=events)
        assert decision.prefix == "ck.000001"
        assert decision.tier == "l2"
        assert tracer.metrics.flat().get("mlck.l2.fallbacks", 0) == 1
    # the L1 rejection is tier-tagged and on the event log
    assert any(err.startswith("l1:") for _, errs in decision.rejected for err in errs)
    assert events.of_kind("checkpoint_verified")[0].detail["tier"] == "l2"


def test_mid_drain_crash_serves_from_memory(env, workload):
    machine, pfs, store = env
    _take(store, pfs, workload, 1)
    _take(store, pfs, workload, 2, crash=True)  # drain dies: L2 absent
    decision = select_tiered_restart_state(pfs, "ck", store)
    assert decision.prefix == "ck.000002"
    assert decision.tier == "l1"


def test_nothing_valid_returns_none(env):
    machine, pfs, store = env
    decision = select_tiered_restart_state(pfs, "ck", store)
    assert decision.prefix is None
    assert decision.tier is None


def test_select_restart_state_delegates_when_l1_given(env, workload):
    machine, pfs, store = env
    _take(store, pfs, workload, 1, drained=False)
    decision = select_restart_state(pfs, "ck", l1=store)
    assert decision.prefix == "ck.000001"
    assert decision.tier == "l1"
    # without the store the walk sees nothing (no manifest committed)
    assert select_restart_state(pfs, "ck").prefix is None


def test_pfs_only_states_still_recoverable(env, workload):
    machine, pfs, store = env
    seg, arrays = workload(iteration=9)
    drms_checkpoint(pfs, "ck.000001", seg, arrays)
    decision = select_tiered_restart_state(pfs, "ck", store)
    assert decision.prefix == "ck.000001"
    assert decision.tier == "l2"


def test_tiered_walk_writes_the_same_flight_records(env, workload):
    """One walk, one set of records: the tier-aware walk leaves the
    kinds the PFS-only walk leaves, tier-tagged."""
    from repro.obs import FlightRecorder, use_flight

    machine, pfs, store = env
    _take(store, pfs, workload, 1)
    _take(store, pfs, workload, 2, drained=False)  # L1 only
    for node in range(machine.num_nodes):
        store.drop_node(node)  # every replica gone: only gen 1 on L2 left
    with use_flight(FlightRecorder()) as fr:
        decision = select_tiered_restart_state(pfs, "ck", store)
    assert (decision.prefix, decision.tier) == ("ck.000001", "l2")
    walk = fr.events()
    assert [(e.kind, e.detail.get("prefix"), e.detail.get("tier")) for e in walk] == [
        ("recovery_walk_started", None, None),
        ("checkpoint_rejected", "ck.000002", "l1"),
        ("checkpoint_rejected", "ck.000001", "l1"),
        ("checkpoint_verified", "ck.000001", "l2"),
        ("restart_fallback", "ck.000001", "l2"),
        ("recovery_walk_done", None, "l2"),
    ]
    assert walk[0].detail["candidates"] == 2
    assert walk[-1].detail == {
        "rejected": 2, "chosen": "ck.000001", "tier": "l2",
        "base": "ck", "job": None,
    }
