"""A generation is chosen by opening it.

A restart's recovery walk restores each candidate, and the restore
verifies exactly the bytes it delivers: the segment header as it is
read, each array's stream-in buffer before the scatter, each L1 piece
on the replica that serves it.  So a byte damaged on the restart's own
read is caught — the audit this walk replaced hashed a *different* read
from the one that was scattered — a failed open leaves no PFS phase
behind, and the opening walk decides exactly what the audit walk
decides over every fault the audit is tested against."""

import random

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import drms_checkpoint, restart_opener
from repro.checkpoint.format import array_name, segment_name
from repro.checkpoint.recover import (
    open_latest_valid,
    restart_latest_valid,
    select_restart_state,
)
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.errors import (
    CheckpointIntegrityError,
    IOFaultError,
    RestartError,
)
from repro.mlck.checkpointer import MultiLevelCheckpointer
from repro.pfs.faults import FaultInjector, flip_stored_bit
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams

pytestmark = pytest.mark.crash_consistency

N = 16
#: stream piece size: each 2 KiB array file is 4 pieces, which a restart
#: on 3 tasks reads as 2 bulk runs and the per-piece loop as 4 reads
TARGET = 512


def _state(it, ntasks=4):
    """A segment and two N x N arrays whose values say which
    generation (``it``) they belong to."""
    arrays = []
    for k, name in enumerate(("u", "v")):
        a = DistributedArray(
            name, (N, N), np.float64, block_distribution((N, N), ntasks)
        )
        a.set_global(np.arange(N * N, dtype=np.float64).reshape(N, N) * (k + 1) + it)
        arrays.append(a)
    segment = DataSegment(profile=SegmentProfile(4096, 0, 0), replicated={"it": it})
    return segment, arrays


def _take(pfs, prefix, it):
    segment, arrays = _state(it)
    drms_checkpoint(pfs, prefix, segment, arrays, target_bytes=TARGET)
    return {a.name: a.to_global() for a in arrays}


@pytest.fixture
def generations():
    """Three PFS generations of one job; the reference arrays of each."""
    pfs = PIOFS()
    refs = {g: _take(pfs, f"job.{g:06d}", g) for g in (1, 2, 3)}
    return pfs, refs


def _assert_restored(state, refs, gen):
    """Every restored element is the checkpointed one of ``gen``."""
    assert state.segment.replicated["it"] == gen
    for name, want in refs[gen].items():
        np.testing.assert_array_equal(state.arrays[name].to_global(), want)


def _read_edges(pfs, fname):
    """The first and last stored byte of every read a clean restart
    makes of ``fname``: the file's first byte, the bytes on either side
    of each run boundary, its last byte."""
    edges = set()
    read_at = pfs.read_at

    def spy(name, offset, nbytes, client=0):
        if name == fname:
            edges.update((offset, offset + nbytes - 1))
        return read_at(name, offset, nbytes, client=client)

    pfs.read_at = spy  # shadows the method for this one restart
    try:
        restart_latest_valid(pfs, "job", 3, target_bytes=TARGET)
    finally:
        del pfs.read_at
    return sorted(edges)


@pytest.mark.parametrize("component", ["segment", "array.u", "array.v"])
def test_a_flip_on_any_read_of_the_restart_never_reaches_an_array(
    generations, component, bulk_only
):
    """Flip, one recovery each, every stored byte at the edge of a read
    the recovery makes of one file of the newest generation: each flip
    is rejected — the walk falls back and names the file — or never
    reaches a local array, and no restored element ever differs from
    the checkpointed one."""
    pfs, refs = generations
    fname = f"job.000003.{component}"
    edges = _read_edges(pfs, fname)
    for offset in edges:
        inj = FaultInjector()
        plan = inj.flip_read(match=fname, offset=offset, bit=5)
        pfs.attach_faults(inj)
        try:
            state, _, decision = restart_latest_valid(
                pfs, "job", 3, target_bytes=TARGET
            )
        finally:
            pfs.attach_faults(None)
        assert plan.fired
        if decision.rejected:
            ((prefix, errors),) = decision.rejected
            assert (prefix, decision.prefix) == ("job.000003", "job.000002")
            assert fname in errors[0]
        else:
            assert decision.prefix == "job.000003"
        _assert_restored(state, refs, int(decision.prefix[-1]))
    # the segment is one header read; an array file one read per run of
    # its 4 pieces over 3 I/O tasks (2 runs)
    assert len(edges) == (2 if component == "segment" else 4)


def test_a_rejected_open_leaves_no_phase_open(generations):
    """Rejection by opening is the common fault path: an open that
    fails inside its read phase — the segment's (newest generation) or
    an array's (the next) — aborts that phase, so the walk's next open,
    and a second full restart of the same file system, start clean."""
    pfs, refs = generations
    flip_stored_bit(pfs, segment_name("job.000003"), 12)
    flip_stored_bit(pfs, array_name("job.000002", "v"), 100)
    open_one = restart_opener(pfs, 3)
    probed = []

    def open_and_probe(prefix, tier):
        try:
            return open_one(prefix, tier)
        except CheckpointIntegrityError:
            # raises "phases do not nest" if the failed open left its own
            pfs.begin_phase(IOKind.READ_SHARED)
            pfs.abort_phase()
            probed.append(prefix)
            raise

    opened, decision = open_latest_valid(pfs, "job", open_and_probe)
    assert probed == ["job.000003", "job.000002"]
    assert decision.prefix == opened.prefix == "job.000001"
    _assert_restored(opened.state, refs, 1)
    state, _, again = restart_latest_valid(pfs, "job", 2)
    assert (again.prefix, again.rejected) == (decision.prefix, decision.rejected)
    _assert_restored(state, refs, 1)


def test_when_nothing_opens_the_failure_names_the_root_cause(generations):
    pfs, _ = generations
    for g in (1, 2, 3):
        flip_stored_bit(pfs, array_name(f"job.{g:06d}", "u"), 40)
    with pytest.raises(RestartError) as exc:
        restart_latest_valid(pfs, "job", 3)
    message = str(exc.value)
    assert message.startswith("no checkpoint under 'job' passes validation")
    assert "job.000003: file 'job.000003.array.u' checksum mismatch" in message


# -- the opening walk decides what the audit walk decides ------------------------

#: what a first error says went wrong, by its wording
_ERROR_KINDS = (
    ("checksum mismatch", "checksum"),
    ("missing file", "missing"),
    ("manifest records", "size"),
    ("no surviving valid replica", "replica"),
    ("manifest", "manifest"),
)


def _rejections(decision):
    """``(prefix, tier, kind of the first error)`` per rejection."""
    out = []
    for prefix, errors in decision.rejected:
        tier, _, rest = errors[0].partition(": ")
        if tier not in ("l1", "l2"):
            tier, rest = None, errors[0]
        kind = next(k for text, k in _ERROR_KINDS if text in rest)
        out.append((prefix, tier, kind))
    return out


#: the stored byte a matrix cell's fault hits: a failed write's is its
#: file's first byte; a torn or short write's is half-way into the
#: 829-byte manifest, the 172-byte segment header, or the first 512-byte
#: run of the array stream
MATRIX_OFFSET = {"manifest": 414, "segment": 86, "array": 256}


def _faulted(pfs, prefix, it, write=None):
    """Take generation ``prefix`` with ``write`` = ``(match, offset,
    mode)`` armed; a fault that kills the checkpoint is swallowed."""
    inj = FaultInjector()
    if write is not None:
        match, offset, mode = write
        inj.fail_write(match=match, offset=offset, mode=mode)
    pfs.attach_faults(inj)
    try:
        _take(pfs, prefix, it)
    except (IOFaultError, CheckpointIntegrityError):
        pass
    finally:
        pfs.attach_faults(None)
    return inj


def _fault_matrix_case(target, mode):
    """test_integrity's acceptance matrix: a write fault of ``mode``
    in component ``target`` of generation 2."""
    pfs = PIOFS()
    _take(pfs, "job.000001", 1)
    offset = 0 if mode == "fail" else MATRIX_OFFSET[target]
    _faulted(pfs, "job.000002", 2, (f"job.000002.{target}", offset, mode))
    return pfs, None


def _durable_generation():
    """A multi-level checkpointer with one generation resident in L1
    and drained to the PFS (test_decay's fixture)."""
    pfs = PIOFS(machine=Machine(MachineParams(num_nodes=8, failure_domains=4)))
    ck = MultiLevelCheckpointer(pfs, "ck", k=1)
    segment, arrays = _state(1, ntasks=2)
    assert ck.checkpoint(segment, arrays)[0] == "ck.000001"
    ck.wait_for_drains()
    return pfs, ck


def _decay(store, piece, nodes):
    """Flip one bit of the replicas of ``piece`` on ``nodes`` (the
    replicas stay live: only a hash can tell)."""
    for node in nodes:
        memory = store.machine.node(node).memory
        bad = bytearray(memory[piece.key])
        bad[len(bad) // 2] ^= 0x40
        memory[piece.key] = bytes(bad)


def _decay_case(shape):
    """test_decay's scenarios (a)-(d) as states to walk."""
    pfs, ck = _durable_generation()
    store = ck.store
    gen = store.gen("ck.000001")
    if shape == "a":  # one decayed replica: its partner serves
        piece = gen.files[gen.manifest["arrays"][0]["file"]][0]
        _decay(store, piece, [piece.owner])
    elif shape == "b":  # a piece with no good replica: the PFS serves
        piece = gen.files[gen.manifest["arrays"][1]["file"]][0]
        _decay(store, piece, piece.replicas)
    elif shape == "c":  # decay after an audit accepted the memory tier
        assert select_restart_state(pfs, "ck", l1=store).tier == "l1"
        piece = gen.files[gen.manifest["arrays"][0]["file"]][0]
        _decay(store, piece, piece.replicas)
    else:  # an undrained newer generation decays: the older one serves
        segment, arrays = _state(2, ntasks=2)
        newer, _ = store.capture_drms("ck.000002", segment, arrays)
        piece = newer.files[newer.manifest["arrays"][0]["file"]][0]
        _decay(store, piece, piece.replicas)
    return pfs, store


@pytest.mark.mlck
@pytest.mark.parametrize(
    "case",
    [("matrix", t, m) for t in ("manifest", "segment", "array")
     for m in ("fail", "torn", "short")]
    + [("decay", s, None) for s in "abcd"],
    ids=lambda case: "-".join(filter(None, case)),
)
def test_the_opening_walk_decides_what_the_audit_walk_decides(case):
    """Over test_integrity's write-fault matrix and test_decay's
    scenarios (a)-(d), the walk a restart runs (each candidate opened)
    and the audit walk (each candidate validated, nothing restored)
    choose the same generation and tier and reject the same
    ``(prefix, tier)`` list, the first error of each of the same kind."""
    family, what, mode = case
    if family == "matrix":
        pfs, l1 = _fault_matrix_case(what, mode)
        base = "job"
    else:
        pfs, l1 = _decay_case(what)
        base = "ck"
    audit = select_restart_state(pfs, base, l1=l1)
    opened, decision = open_latest_valid(
        pfs, base, restart_opener(pfs, 3, l1=l1), l1=l1
    )
    assert audit.prefix is not None and opened is not None
    assert (decision.prefix, decision.tier) == (audit.prefix, audit.tier)
    assert _rejections(decision) == _rejections(audit)
    assert opened.state.segment.replicated["it"] == int(audit.prefix[-1])


# -- the bulk path and the per-piece loop decide alike ---------------------------


def _decide(write=None, read=None):
    """Three generations of a job, with ``write`` = ``(match, offset,
    mode)`` armed on generation 3's checkpoint and ``read`` = ``(match,
    offset)`` flipped during the walk: which plans fired, and the
    opening walk's generation, tier and rejections."""
    pfs = PIOFS()
    _take(pfs, "job.000001", 1)
    _take(pfs, "job.000002", 2)
    wrote = _faulted(pfs, "job.000003", 3, write)
    inj = FaultInjector()
    if read is not None:
        inj.flip_read(match=read[0], offset=read[1], bit=5)
    pfs.attach_faults(inj)
    _, decision = open_latest_valid(
        pfs, "job", restart_opener(pfs, 3, target_bytes=TARGET)
    )
    fired = [p.fired for p in wrote.write_faults + inj.read_faults]
    return fired, decision.prefix, decision.tier, _rejections(decision)


def _plans(family):
    """``(write, read)`` plans: the nine-cell matrix on generation 3,
    reads flipped at the edges of every run a restart reads, or a
    seeded sweep of both (some past their file's end, so inert)."""
    if family == "matrix":
        for target in ("manifest", "segment", "array"):
            for mode in ("fail", "torn", "short"):
                offset = 0 if mode == "fail" else MATRIX_OFFSET[target]
                yield (f"job.000003.{target}", offset, mode), None
        return
    pfs = PIOFS()
    for g in (1, 2, 3):
        _take(pfs, f"job.{g:06d}", g)
    if family == "reads":
        for component in ("segment", "array.u", "array.v"):
            fname = f"job.000003.{component}"
            for offset in _read_edges(pfs, fname):
                yield None, (fname, offset)
        return
    rng = random.Random(20261017)
    for _ in range(24):
        if rng.random() < 0.5:
            component = rng.choice(["manifest", "segment", "array.u", "array.v"])
            fname = f"job.000003.{component}"
            size = pfs.file_size(fname)
            mode = rng.choice(["fail", "torn", "short"])
            yield (fname, rng.randrange(size + size // 8), mode), None
        else:
            fname = f"job.000003.{rng.choice(['segment', 'array.u', 'array.v'])}"
            yield None, (fname, rng.randrange(pfs.file_size(fname)))


@pytest.mark.parametrize("family", ["matrix", "reads", "sweep"])
def test_bulk_and_per_piece_decide_alike(family, on_path):
    """The same stored-offset plans on the bulk path and on the forced
    per-piece loop fire alike and give the same opening-walk decision:
    generation, tier, ``(prefix, tier)`` rejections, and the kind of
    each first error.  (Here every write run is one piece.  Where a run
    spans several, a silent short write before the last piece of the
    last run truncates the file on the bulk path, a size rejection,
    and leaves a hole on the per-piece loop, a checksum rejection.)"""
    for write, read in _plans(family):
        bulk = _decide(write, read)
        with on_path("per-piece"):
            per_piece = _decide(write, read)
        assert bulk == per_piece, (write, read)
