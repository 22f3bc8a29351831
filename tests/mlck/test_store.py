"""L1Store: capture, validation, replica-served restore (repro.mlck.store)."""

import numpy as np
import pytest

from repro.errors import CheckpointError, MemoryTierError
from repro.infra.events import EventLog
from repro.mlck.store import L1Store
from repro.obs import Tracer, use_tracer
from repro.runtime.machine import Machine, MachineParams

pytestmark = pytest.mark.mlck


@pytest.fixture
def machine():
    return Machine(MachineParams(num_nodes=8, failure_domains=4))


@pytest.fixture
def store(machine):
    return L1Store(machine, k=1)


def _globals(state):
    return {name: a.to_global(fill=0) for name, a in state.arrays.items()}


def test_capture_restore_roundtrip(store, workload):
    seg, arrays = workload(ntasks=2, iteration=3)
    refs = {a.name: a.to_global(fill=0) for a in arrays}
    gen, bd = store.capture_drms("ck.000001", seg, arrays)
    assert bd.kind == "mlck-l1"
    assert bd.total_seconds > 0.0
    assert gen.resident_bytes > 0

    state, rbd = store.restore_drms("ck.000001", ntasks=4)
    assert state.ntasks == 4 and state.checkpoint_ntasks == 2
    assert state.segment.serialize() == seg.serialize()
    assert state.manifest["tier"] == "l1"
    for name, got in _globals(state).items():
        np.testing.assert_array_equal(got, refs[name])


def test_every_piece_is_replicated_across_domains(store, machine, workload):
    seg, arrays = workload()
    gen, _ = store.capture_drms("ck.000001", seg, arrays)
    pieces = list(gen.pieces())
    assert pieces
    for p in pieces:
        assert len(p.replicas) == 2  # owner + k=1 partner
        domains = {machine.domain_of(n) for n in p.replicas}
        assert len(domains) == 2


def test_node_loss_served_by_partner(store, machine, workload):
    seg, arrays = workload(iteration=5)
    refs = {a.name: a.to_global(fill=0) for a in arrays}
    gen, _ = store.capture_drms("ck.000001", seg, arrays)
    owner = gen.files[gen.manifest["segment_file"]][0].owner
    with use_tracer(Tracer()) as tracer:
        machine.fail_node(owner)
        store.drop_node(owner)
        assert store.validate_generation("ck.000001").ok
        state, _ = store.restore_drms("ck.000001", ntasks=2)
        assert tracer.metrics.flat().get("mlck.l1.partner_serves", 0) > 0
    for name, got in _globals(state).items():
        np.testing.assert_array_equal(got, refs[name])


def test_losing_all_replicas_fails_validation(store, machine, workload):
    seg, arrays = workload()
    gen, _ = store.capture_drms("ck.000001", seg, arrays)
    events = EventLog()
    store.events = events
    for node in list(gen.files[gen.manifest["segment_file"]][0].replicas):
        machine.fail_node(node)
        store.drop_node(node)
    report = store.validate_generation("ck.000001")
    assert not report.ok
    assert "no surviving valid replica" in report.errors[0]
    with pytest.raises(MemoryTierError):
        store.restore_drms("ck.000001", ntasks=2)
    assert events.of_kind("mlck_replicas_lost")


def test_duplicate_prefix_capture_refused(store, workload):
    seg, arrays = workload()
    store.capture_drms("ck.000001", seg, arrays)
    with pytest.raises(CheckpointError):
        store.capture_drms("ck.000001", seg, arrays)


def test_unknown_generation_raises_memory_tier_error(store):
    with pytest.raises(MemoryTierError):
        store.gen("ck.999999")
    assert not store.has("ck.999999")


def test_discard_frees_resident_bytes(store, workload):
    seg, arrays = workload()
    store.capture_drms("ck.000001", seg, arrays)
    assert store.resident_bytes() > 0
    store.discard("ck.000001")
    assert store.resident_bytes() == 0
    assert store.generations() == []


def test_sized_payloads_charged_but_not_stored(store, workload):
    seg, arrays = workload()
    gen, bd = store.capture_drms("ck.000001", seg, arrays)
    # the sized segment pad is charged in the breakdown but the
    # resident bytes only hold the exact header + array streams
    assert bd.segment_bytes > 0
    header, pad = seg.serialize()
    assert pad > 0
    assert gen.resident_bytes < bd.total_bytes


@pytest.mark.localized
def test_fail_repair_cycle_does_not_resurrect_stale_replicas(
    store, machine, workload
):
    """Reproducer: a node fails and is repaired before any recovery
    pass scrubbed it.  The repair brought it back with empty memory, so
    the copies it held are gone — they must never serve a fetch."""
    seg, arrays = workload(ntasks=2, iteration=4)
    refs = {a.name: a.to_global(fill=0) for a in arrays}
    gen, _ = store.capture_drms("ck.000001", seg, arrays)
    piece = gen.files[gen.manifest["segment_file"]][0]
    owner = piece.owner
    machine.fail_node(owner)
    machine.repair_node(owner)  # up again, its memory empty
    assert owner in piece.replicas  # the entry still lingers...
    assert store._serve(piece)[0] != owner  # ...but never serves
    assert store.validate_generation("ck.000001").ok  # partner carries it
    state, _ = store.restore_drms("ck.000001", ntasks=2)
    for name, got in _globals(state).items():
        np.testing.assert_array_equal(got, refs[name])
    # the repaired node holds none of the generation's keys
    memory = machine.node(owner).memory
    assert not any(p.key in memory for p in gen.pieces())


@pytest.mark.localized
def test_replacement_capture_after_drop_does_not_revive_old_entries(
    store, machine, workload
):
    """drop_node followed by immediately re-registering the repaired
    node as a capture target must not resurrect the dropped
    generation's replica entries: the fresh capture is valid on the
    repaired node, the old generation still refuses it."""
    seg, arrays = workload(ntasks=2, iteration=1)
    refs = {a.name: a.to_global(fill=0) for a in arrays}
    gen, _ = store.capture_drms("ck.000001", seg, arrays)
    piece = gen.files[gen.manifest["segment_file"]][0]
    owner = piece.owner
    machine.fail_node(owner)
    store.drop_node(owner)
    machine.repair_node(owner)
    # the repaired node is immediately captured onto again
    seg2, arrays2 = workload(ntasks=2, iteration=2, fill=50.0)
    gen2, _ = store.capture_drms("ck.000002", seg2, arrays2)
    assert store.validate_generation("ck.000002").ok
    held = {
        p.key
        for pieces in gen2.files.values()
        for p in pieces
        if owner in p.replicas
    }
    assert held  # the node really does hold fresh generation-2 copies
    # generation 1's entry on the node stays dead despite the listing
    assert owner in piece.replicas
    assert not store._replica_valid(piece, owner)
    assert store._serve(piece)[0] != owner
    state, _ = store.restore_drms("ck.000001", ntasks=2)
    for name, got in _globals(state).items():
        np.testing.assert_array_equal(got, refs[name])
    # a repair pass scrubs the lingering listing without touching the
    # node's fresh generation-2 copies
    from repro.mlck.localized import rereplicate_after_failure

    rereplicate_after_failure(store, [])
    assert owner not in piece.replicas
    assert store.validate_generation("ck.000002").ok


def test_capture_faster_than_pfs_checkpoint(store, workload):
    from repro.checkpoint.drms import drms_checkpoint
    from repro.pfs.piofs import PIOFS

    seg, arrays = workload()
    _, l1_bd = store.capture_drms("ck.000001", seg, arrays)
    pfs_bd = drms_checkpoint(PIOFS(machine=store.machine), "pfs.ck", seg, arrays)
    assert l1_bd.total_seconds < pfs_bd.total_seconds
