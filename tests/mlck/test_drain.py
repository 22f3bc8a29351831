"""DrainController: async promotion, crash behavior, retention interlock."""

import numpy as np
import pytest

from repro.checkpoint.drms import drms_checkpoint, drms_restart
from repro.checkpoint.rotation import CheckpointRotation, generations
from repro.checkpoint.validate import validate_checkpoint
from repro.errors import CheckpointError
from repro.mlck.drain import DrainController, DrainState
from repro.mlck.store import L1Store
from repro.obs import FlightRecorder, Tracer, use_flight, use_tracer
from repro.pfs.faults import FaultInjector
from repro.pfs.piofs import PIOFS
from repro.runtime.clock import SimClock, use_clock
from repro.runtime.executor import run_spmd
from repro.runtime.machine import Machine, MachineParams

pytestmark = pytest.mark.mlck


@pytest.fixture
def env(workload):
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)
    store = L1Store(machine, k=1)
    return machine, pfs, store


def test_drained_state_is_byte_identical_to_direct_checkpoint(env, workload):
    machine, pfs, store = env
    seg, arrays = workload(iteration=2)
    store.capture_drms("ck.000001", seg, arrays)
    drainer = DrainController(store, pfs)
    drainer.schedule("ck.000001")
    drainer.wait()

    # the drained generation passes the ordinary PFS validation...
    assert validate_checkpoint(pfs, "ck.000001").ok
    # ...and equals a direct drms_checkpoint of the same state, byte
    # for byte, on every stored file
    pfs2 = PIOFS(machine=Machine(MachineParams(num_nodes=8)))
    drms_checkpoint(pfs2, "ck.000001", seg, arrays)
    for name in sorted(pfs.listdir("ck.000001")):
        if name.endswith(".manifest"):
            continue  # manifests may differ in recorded timing fields
        size = pfs.file_size(name)
        assert size == pfs2.file_size(name)
        if size:
            assert pfs.read_at(name, 0, size) == pfs2.read_at(name, 0, size)
    state, _ = drms_restart(pfs, "ck.000001", ntasks=3)
    assert state.segment.serialize() == seg.serialize()


def test_failed_drain_leaves_no_manifest_and_is_retryable(env, workload):
    machine, pfs, store = env
    seg, arrays = workload()
    store.capture_drms("ck.000001", seg, arrays)
    drainer = DrainController(store, pfs)

    inj = FaultInjector()
    inj.fail_write(mode="fail")
    pfs.attach_faults(inj)
    try:
        drainer.schedule("ck.000001")
        drainer.wait()
    finally:
        pfs.attach_faults(None)
    gen = store.gen("ck.000001")
    assert gen.drain_state == DrainState.FAILED
    assert gen.drain_error
    assert not pfs.exists("ck.000001.manifest")

    # the failure was recorded, not raised; a retry drains cleanly
    drainer.schedule("ck.000001")
    drainer.wait()
    assert store.gen("ck.000001").drain_state == DrainState.DURABLE
    assert validate_checkpoint(pfs, "ck.000001").ok


def test_draining_twice_is_refused(env, workload):
    machine, pfs, store = env
    seg, arrays = workload()
    store.capture_drms("ck.000001", seg, arrays)
    drainer = DrainController(store, pfs)
    drainer.schedule("ck.000001")
    drainer.wait()
    with pytest.raises(CheckpointError):
        drainer.schedule("ck.000001")


def test_prune_during_drain_keeps_newest_durable_fallback(env, workload):
    """Satellite regression: while a drain is in flight the newest
    durable generation is pinned — retention must not delete the only
    durable fallback, however the counts work out."""
    machine, pfs, store = env
    rot = CheckpointRotation(pfs, "ck", keep=1)

    # one durable generation on L2
    seg1, arrays1 = workload(iteration=1)
    store.capture_drms("ck.000001", seg1, arrays1)
    drainer = DrainController(store, pfs, rotation=rot)
    drainer.schedule("ck.000001")
    drainer.wait()
    assert generations(pfs, "ck") == ["ck.000001"]

    # a second generation's drain is "in flight": the controller has
    # pinned ck.000001 (the newest durable fallback).  keep=1 dooms it
    # the moment ck.000002 commits — but the pin must hold until the
    # drain's finally block releases it.
    seg2, arrays2 = workload(iteration=2)
    store.capture_drms("ck.000002", seg2, arrays2)
    rot.pin("ck.000001")
    try:
        drms_checkpoint(pfs, "ck.000002", seg2, arrays2)
        assert rot.prune() == []  # ck.000001 pinned: nothing deleted
        assert set(generations(pfs, "ck")) == {"ck.000001", "ck.000002"}
    finally:
        rot.unpin("ck.000001")
    # pin released (drain finished): retention applies normally again
    assert rot.prune() == ["ck.000001"]
    assert generations(pfs, "ck") == ["ck.000002"]


def test_sync_drain_applies_retention(env, workload):
    """Each drain waited for before the next capture: retention keeps
    the newest ``keep`` generations on the PFS."""
    machine, pfs, store = env
    rot = CheckpointRotation(pfs, "ck", keep=2)
    drainer = DrainController(store, pfs, rotation=rot)
    for g in (1, 2, 3):
        seg, arrays = workload(iteration=g)
        store.capture_drms(f"ck.{g:06d}", seg, arrays)
        drainer.schedule(f"ck.{g:06d}")
        drainer.wait()
    assert generations(pfs, "ck") == ["ck.000002", "ck.000003"]


def test_retention_releases_replica_memory_too(env, workload):
    """What the rotation prunes from the PFS leaves replica memory as
    well: ``keep`` is the budget of both tiers, so resident bytes stop
    growing once the budget is full."""
    machine, pfs, store = env
    rot = CheckpointRotation(pfs, "ck", keep=2)
    drainer = DrainController(store, pfs, rotation=rot)
    resident = []
    with use_tracer(Tracer()) as tracer:
        for g in range(1, 7):
            seg, arrays = workload(iteration=1)
            store.capture_drms(f"ck.{g:06d}", seg, arrays)
            drainer.schedule(f"ck.{g:06d}")
            drainer.wait()
            resident.append(tracer.metrics.flat()["mlck.l1.resident_bytes"])
    assert store.generations() == ["ck.000005", "ck.000006"]
    assert store.generations() == generations(pfs, "ck")
    assert resident[0] < resident[1] == store.resident_bytes()
    assert set(resident[2:]) == {resident[1]}  # flat from the third on


def test_retention_never_discards_an_undrained_or_pinned_generation(
    env, workload
):
    machine, pfs, store = env
    rot = CheckpointRotation(pfs, "ck", keep=1)
    drainer = DrainController(store, pfs, rotation=rot)
    for g in (1, 2, 3, 4):
        store.capture_drms(f"ck.{g:06d}", *workload(iteration=g))
    # ck.000001 is never scheduled: it exists in memory only
    drainer.schedule("ck.000002")
    drainer.wait()
    rot.pin("ck.000002")  # as a drain in flight elsewhere would
    try:
        drainer.schedule("ck.000003")
        drainer.wait()
        # keep=1 dooms ck.000002 the moment ck.000003 is durable, but
        # the pin holds it on the PFS, and so in memory
        assert store.generations() == [f"ck.{g:06d}" for g in (1, 2, 3, 4)]
    finally:
        rot.unpin("ck.000002")
    drainer.schedule("ck.000004")
    drainer.wait()
    # retention caught up with ck.000002 (ck.000003 was this drain's
    # pinned fallback); memory holds what the PFS holds — and the
    # undrained generation, still there, still drainable
    assert generations(pfs, "ck") == ["ck.000003", "ck.000004"]
    assert store.generations() == ["ck.000001", "ck.000003", "ck.000004"]
    assert store.gen("ck.000001").drain_state == DrainState.PENDING


def test_async_drains_commit_in_schedule_order(env, workload, monkeypatch):
    """Queued asynchronous drains commit in the order they were
    scheduled, even when a later one would run first: drains scheduled
    under falling clocks all become runnable at the rank's wait, the
    last one with the least clock."""
    machine, pfs, store = env
    drainer = DrainController(store, pfs)
    drained = []
    stored_streams = store.stored_streams

    def record(prefix):
        drained.append(prefix)
        return stored_streams(prefix)

    monkeypatch.setattr(store, "stored_streams", record)
    prefixes = [f"ck.{g:06d}" for g in range(1, 6)]
    for p in prefixes:
        store.capture_drms(p, *workload(iteration=1))

    def rank(comm):
        for p, clock in zip(prefixes, (5.0, 4.0, 3.0, 2.0, 1.0)):
            with use_clock(SimClock(clock)):
                drainer.schedule(p)
        assert drained == []  # nothing ran while the rank held the baton
        drainer.wait()

    run_spmd(rank, 1, machine=machine)
    assert drained == prefixes
    assert generations(pfs, "ck") == prefixes


def test_a_queued_drain_runs_while_the_rank_moves_on(env, workload):
    """A drain queued behind another waits for it at its own schedule
    time, so both run at the rank's next waits, not once the rank stops
    (the second once waited under the rank's live clock, and trailed it
    to the end of the run)."""
    machine, pfs, store = env
    drainer = DrainController(store, pfs)
    seen = []

    def rank(comm):
        for g in (1, 2):
            store.capture_drms(f"ck.{g:06d}", *workload(iteration=g))
            drainer.schedule(f"ck.{g:06d}")
        for _ in range(3):
            comm.compute(1.0)
            comm.barrier()
        seen.extend(store.gen(p).drain_state for p in ("ck.000001", "ck.000002"))

    run_spmd(rank, 1, machine=machine)
    assert seen == [DrainState.DURABLE, DrainState.DURABLE]


def test_async_drains_discard_only_what_is_durable_and_pruned(
    env, workload, monkeypatch
):
    machine, pfs, store = env
    rot = CheckpointRotation(pfs, "ck", keep=2)
    drainer = DrainController(store, pfs, rotation=rot)
    discarded = []
    discard = store.discard

    def spy(prefix):
        discarded.append(
            (prefix, store.gen(prefix).drain_state, pfs.exists(f"{prefix}.manifest"))
        )
        discard(prefix)

    monkeypatch.setattr(store, "discard", spy)
    for g in range(1, 6):
        store.capture_drms(f"ck.{g:06d}", *workload(iteration=g))
        drainer.schedule(f"ck.{g:06d}")
    drainer.wait()
    assert drainer.pending == 0
    # whatever the interleaving (a pin can hold one extra generation
    # past the last prune), both tiers hold the same generations...
    kept = store.generations()
    assert kept == generations(pfs, "ck")
    assert kept[-2:] == ["ck.000004", "ck.000005"] and len(kept) <= 3
    # ...and nothing left memory before it was durable and pruned
    assert sorted(p for p, _, _ in discarded) == [
        f"ck.{g:06d}" for g in range(1, 6 - len(kept))
    ]
    assert {(state, on_pfs) for _, state, on_pfs in discarded} == {
        (DrainState.DURABLE, False)
    }


def test_async_drain_overlaps_and_completes(env, workload):
    machine, pfs, store = env
    seg, arrays = workload()
    store.capture_drms("ck.000001", seg, arrays)
    drainer = DrainController(store, pfs)
    future = drainer.schedule("ck.000001")
    assert future is not None
    drainer.wait()
    assert store.gen("ck.000001").drain_state == DrainState.DURABLE
    assert drainer.pending == 0
    assert validate_checkpoint(pfs, "ck.000001").ok


@pytest.mark.parametrize("wait_each", [True, False], ids=["sync", "async"])
def test_drain_states_carry_the_scheduled_clock(env, workload, wait_each):
    """Every ``drain_state`` record is stamped with the clock its drain
    was scheduled at, not 0 — which sorted a drain before the capture
    that scheduled it in the forensic timeline.  Holds whether each
    drain is waited for before the next capture (``sync``) or both are
    queued and waited for together (``async``); either wait runs outside
    the schedule-time clock."""
    machine, pfs, store = env
    drainer = DrainController(store, pfs)
    with use_flight(FlightRecorder()) as fr:
        for gen, clock in ((1, 2.5), (2, 4.0)):
            seg, arrays = workload(iteration=gen)
            store.capture_drms(f"ck.{gen:06d}", seg, arrays)
            with use_clock(SimClock(clock)):
                drainer.schedule(f"ck.{gen:06d}")
            if wait_each:
                drainer.wait()
        drainer.wait()
    scheduled = {
        e.detail["prefix"]: e.time for e in fr.events() if e.kind == "drain_scheduled"
    }
    assert scheduled == {"ck.000001": 2.5, "ck.000002": 4.0}
    states = [e for e in fr.events() if e.kind == "drain_state"]
    assert [e.detail["state"] for e in states] == ["draining", "durable"] * 2
    for e in states:
        assert e.time == scheduled[e.detail["prefix"]]


def test_an_async_drain_keeps_its_schedule_time_while_the_rank_moves_on(
    env, workload
):
    """A drain runs under a clock frozen at its schedule time, never the
    live clock of the rank that scheduled it: the first drain runs only
    once the rank waits, after its clock moved on and a second capture
    ran, yet every ``drain_state`` and ``stream_op`` record of the first
    drain carries the first schedule time."""
    machine, pfs, store = env
    drainer = DrainController(store, pfs)

    def rank(comm):
        store.capture_drms("ck.000001", *workload(iteration=1))
        drainer.schedule("ck.000001")
        comm.compute(1.5)
        store.capture_drms("ck.000002", *workload(iteration=2))
        drainer.schedule("ck.000002")
        drainer.wait()

    with use_flight(FlightRecorder()) as fr, use_clock(SimClock(2.5)):
        run_spmd(rank, 1, machine=machine)
    events = fr.events()
    captured = {e.detail["prefix"]: e.time for e in events if e.kind == "l1_captured"}
    assert captured == {"ck.000001": 2.5, "ck.000002": 4.0}
    for prefix, at in captured.items():
        states = [
            e for e in events
            if e.kind == "drain_state" and e.detail["prefix"] == prefix
        ]
        assert [e.detail["state"] for e in states] == ["draining", "durable"]
        ops = [
            e for e in events
            if e.kind == "stream_op" and states[0].seq < e.seq < states[1].seq
        ]
        assert ops
        assert {e.time for e in states + ops} == {at}
    # the second capture ran before the first drain started
    first = next(e.seq for e in events if e.kind == "drain_state")
    assert [e.seq for e in events if e.kind == "l1_captured"][1] < first
