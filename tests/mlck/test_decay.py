"""Replica decay: resident bytes that silently changed on a live node.

Node loss and repair are *liveness* faults; decay is the
fault only a hash can see.  The memory tier hashes a byte when it is
handed to someone — a restore, the drain, a new replica — so a decayed
replica must be caught exactly there: one bad copy is served by its
partner, a piece with no good copy left sends every reader to the PFS
tier (or fails the drain) with nothing of the L1 attempt left behind,
and a repair never copies from, or counts on the bytes of, a replica
it did not verify."""

import numpy as np
import pytest

from repro.checkpoint.drms import drms_restart, open_generation, restart_opener
from repro.mlck.checkpointer import MultiLevelCheckpointer
from repro.mlck.drain import DrainController, DrainState
from repro.mlck.localized import (
    localized_restart,
    localized_restore_drms,
    rereplicate_after_failure,
)
from repro.mlck.recovery import select_tiered_restart_state
from repro.mlck.store import L1Store
from repro.obs import FlightRecorder, Tracer, use_flight, use_tracer
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams

pytestmark = [pytest.mark.mlck, pytest.mark.localized]

PREFIX = "ck.000001"
PLACEMENT = {0: 0, 1: 1}


def _machine():
    return Machine(MachineParams(num_nodes=8, failure_domains=4))


def _decay(store, piece, node):
    """Flip one bit of ``node``'s replica of ``piece`` in place of the
    stored bytes (same key, same length: the replica stays *live*).
    Returns the original bytes."""
    memory = store.machine.node(node).memory
    good = memory[piece.key]
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 0x40
    memory[piece.key] = bytes(bad)
    return good


def _decay_every_replica(store, piece):
    return {node: _decay(store, piece, node) for node in piece.replicas}


def _array_piece(store, prefix, index):
    """The first piece of the ``index``-th array of generation ``prefix``."""
    gen = store.gen(prefix)
    return gen.files[gen.manifest["arrays"][index]["file"]][0]


def _files(pfs, prefix):
    return {
        name: pfs.read_at(name, 0, pfs.file_size(name))
        for name in sorted(pfs.listdir(prefix))
    }


def _assert_locals_equal(state, reference):
    """Every task's whole local block (assigned section and shadows)."""
    assert sorted(state.arrays) == sorted(reference.arrays)
    for name, arr in state.arrays.items():
        for t in range(state.ntasks):
            np.testing.assert_array_equal(
                arr.local(t), reference.arrays[name].local(t)
            )


def _l1_restart_traces(tracer):
    """Spans and breakdown counters an L1 restart would have left."""
    spans = [
        s for s in tracer.spans
        if str(s.attrs.get("kind", "")).startswith("mlck-l1")
        or s.name.startswith("l1_")
    ]
    counts = [k for k in tracer.metrics.flat() if k.startswith("restart.mlck-l1")]
    return spans, counts


@pytest.fixture
def captured(workload):
    """A store holding one undrained generation, beside an undecayed
    twin drained to its own PFS (the reference bytes)."""
    seg, arrays = workload(ntasks=2, iteration=4)
    machine = _machine()
    store = L1Store(machine, k=1)
    store.capture_drms(PREFIX, seg, arrays)
    twin_pfs = PIOFS(machine=_machine())
    twin = L1Store(twin_pfs.machine, k=1)
    twin.capture_drms(PREFIX, seg, arrays)
    drainer = DrainController(twin, twin_pfs)
    drainer.schedule(PREFIX)
    drainer.wait()
    return machine, store, twin, twin_pfs


def test_one_decayed_replica_is_served_by_its_partner(captured):
    machine, store, twin, twin_pfs = captured
    piece = _array_piece(store, PREFIX, 0)
    _decay(store, piece, piece.owner)
    assert store.replica_live(piece, piece.owner)
    assert not store._replica_valid(piece, piece.owner)
    assert store.validate_generation(PREFIX).ok  # the partner still serves

    pfs = PIOFS(machine=machine)
    with use_tracer(Tracer()) as tracer:
        def serves():
            return tracer.metrics.flat().get("mlck.l1.partner_serves", 0)

        full, _ = store.restore_drms(PREFIX, ntasks=3)
        assert serves() == 1
        local, _, _ = localized_restore_drms(
            store, PREFIX, 2, PLACEMENT, failed_nodes=[]
        )
        assert serves() == 2
        drainer = DrainController(store, pfs)
        drainer.schedule(PREFIX)
        drainer.wait()
        assert serves() == 3
    assert store.gen(PREFIX).drain_state == DrainState.DURABLE

    _assert_locals_equal(full, twin.restore_drms(PREFIX, ntasks=3)[0])
    _assert_locals_equal(local, twin.restore_drms(PREFIX, ntasks=2)[0])
    # the drained state — manifest included — is the undecayed run's
    assert _files(pfs, PREFIX) == _files(twin_pfs, PREFIX)


@pytest.fixture
def durable(workload):
    """A checkpointer whose one generation is resident in L1 *and*
    drained to the PFS, and the state a PFS restart of it yields."""
    seg, arrays = workload(ntasks=2, iteration=6)
    pfs = PIOFS(machine=_machine())
    ck = MultiLevelCheckpointer(pfs, "ck", k=1)
    assert ck.checkpoint(seg, arrays)[0] == PREFIX
    ck.wait_for_drains()
    return pfs, ck, (seg, arrays)


def _assert_served_by_the_pfs_tier(pfs, store):
    """Both ways of opening one named generation — a full restart (what
    ``DRMSApplication.restart(<name>)`` runs) and a localized one —
    fall back to the PFS copy and leave nothing of the L1 attempt
    behind."""
    reference = {n: drms_restart(pfs, PREFIX, n)[0] for n in (2, 3)}
    with use_tracer(Tracer()) as tracer:
        opened = open_generation(
            pfs, PREFIX, store, restart_opener(pfs, 3, store)
        )
        lstate, lbd, scope = localized_restart(
            pfs, PREFIX, 2, PLACEMENT, failed_nodes=[1], l1=store
        )
        assert _l1_restart_traces(tracer) == ([], [])
        assert tracer.metrics.flat().get("mlck.localized.pfs_fallbacks") == 1
    assert opened.breakdown.kind == lbd.kind == "drms"
    assert scope.lost_ranks == (1,)
    # never a corrupt element in any restored local
    _assert_locals_equal(opened.state, reference[3])
    _assert_locals_equal(lstate, reference[2])


def test_a_piece_with_no_good_replica_sends_readers_to_the_pfs(durable):
    pfs, ck, _ = durable
    store = ck.store
    piece = _array_piece(store, PREFIX, 1)
    _decay_every_replica(store, piece)

    report = store.validate_generation(PREFIX)
    assert not report.ok
    assert [piece.key in err for err in report.errors] == [True]
    decision = select_tiered_restart_state(pfs, "ck", store)
    assert (decision.prefix, decision.tier) == (PREFIX, "l2")
    _assert_served_by_the_pfs_tier(pfs, store)


def test_decay_between_the_walk_and_the_restore(durable):
    """The walk audits, accepts the memory tier — and then a piece
    decays.  The restore's own verifying fetch is what stands between
    those bytes and the arrays."""
    pfs, ck, _ = durable
    store = ck.store
    decision = select_tiered_restart_state(pfs, "ck", store)
    assert (decision.prefix, decision.tier) == (PREFIX, "l1")
    _decay_every_replica(store, _array_piece(store, PREFIX, 0))
    _assert_served_by_the_pfs_tier(pfs, store)


def test_drain_of_a_decayed_generation_fails_and_stays_retryable(durable):
    pfs, ck, (seg, arrays) = durable
    store = ck.store
    second = "ck.000002"
    store.capture_drms(second, seg, arrays)
    piece = _array_piece(store, second, 0)
    good = _decay_every_replica(store, piece)

    ck.drainer.schedule(second)
    ck.wait_for_drains()
    gen = store.gen(second)
    assert gen.drain_state == DrainState.FAILED
    assert piece.key in gen.drain_error
    assert not pfs.exists(f"{second}.manifest")
    assert pfs.listdir(second) == []  # not one byte of it was written

    # one replica comes good again (say, rewritten by its owner): the
    # failed generation is still there to drain
    store.machine.node(piece.owner).memory[piece.key] = good[piece.owner]
    ck.drainer.schedule(second)
    ck.wait_for_drains()
    assert store.gen(second).drain_state == DrainState.DURABLE
    _assert_locals_equal(
        drms_restart(pfs, second, 2)[0], drms_restart(pfs, PREFIX, 2)[0]
    )


def test_repair_verifies_its_source_and_scrubs_by_liveness(workload):
    """k=2: after one node dies, a piece it held has two live replicas.
    Decay the first of them — the repair must drop it, copy from the
    other, and bring the piece back to three *good* copies; a piece the
    dead node never held keeps its three live replicas untouched, even
    though one of them decayed (that is the next fetch's to find)."""
    seg, arrays = workload(ntasks=2)
    machine = _machine()
    store = L1Store(machine, k=2, target_bytes=256)
    gen, _ = store.capture_drms(PREFIX, seg, arrays)
    pieces = list(gen.pieces())
    hit = pieces[0]
    dead = hit.replicas[-1]  # a partner: the owner's copy survives
    spared = next(p for p in pieces if dead not in p.replicas)
    decayed_source = hit.replicas[0]
    _decay(store, hit, decayed_source)
    spared_before = list(spared.replicas)
    _decay(store, spared, spared.replicas[1])

    machine.fail_node(dead)
    store.drop_node(dead)
    with use_flight(FlightRecorder()) as fr, use_tracer(Tracer()) as tracer:
        repair = rereplicate_after_failure(store, [dead])
        hashed = tracer.metrics.flat()["mlck.l1.verified.bytes"]
    placed = [e for e in fr.events() if e.kind == "replica_replaced"]

    # the decayed replica was neither kept nor copied from
    assert decayed_source not in hit.replicas and dead not in hit.replicas
    assert len(hit.replicas) == 3
    assert all(store._replica_valid(hit, n) for n in hit.replicas)
    assert {e.detail["source"] for e in placed if e.detail["key"] == hit.key} == {
        hit.replicas[0]
    }
    # already at k+1 live replicas: no copy, no hash, list untouched
    assert spared.replicas == spared_before
    assert not [e for e in placed if e.detail["key"] == spared.key]
    assert not store._replica_valid(spared, spared.replicas[1])
    # what was hashed is what was handed on (plus the rejected source)
    degraded = [p for p in pieces if any(e.detail["key"] == p.key for e in placed)]
    assert repair.copies == len(placed) > 0
    assert hashed == sum(p.nbytes for p in degraded) + hit.nbytes
