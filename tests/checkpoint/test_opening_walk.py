"""A generation is chosen by opening it.

A restart's recovery walk restores each candidate, and the restore
verifies exactly the bytes it delivers: the segment header as it is
read, each array's stream-in buffer before the scatter, each L1 piece
on the replica that serves it.  So a byte damaged on the restart's own
read is caught — the audit this walk replaced hashed a *different* read
from the one that was scattered — a failed open leaves no PFS phase
behind, and the opening walk decides exactly what the audit walk
decides over every fault the audit is tested against."""

import itertools

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
#: stream-out piece size: each array file is several pieces, so the
#: per-piece stream-in under an armed fault plan makes several reads
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


@pytest.mark.parametrize("component", ["segment", "array.u", "array.v"])
def test_a_flip_on_any_read_of_the_restart_never_reaches_an_array(
    generations, component
):
    """Arm a bit flip on every read ordinal the recovery makes of one
    file of the newest generation, one ordinal per recovery: each flip
    is rejected — the walk falls back and names the file — or never
    reaches a local array, and no restored element ever differs from
    the checkpointed one."""
    pfs, refs = generations
    fname = f"job.000003.{component}"
    fired = 0
    for nth in itertools.count(1):
        inj = FaultInjector()
        plan = inj.flip_read(nth=nth, match=fname, offset=3, bit=5)
        pfs.attach_faults(inj)
        try:
            state, _, decision = restart_latest_valid(
                pfs, "job", 3, target_bytes=TARGET
            )
        finally:
            pfs.attach_faults(None)
        if not plan.fired:
            break  # past the last read the recovery makes of the file
        fired += 1
        if decision.rejected:
            ((prefix, errors),) = decision.rejected
            assert (prefix, decision.prefix) == ("job.000003", "job.000002")
            assert fname in errors[0]
        else:
            assert decision.prefix == "job.000003"
        _assert_restored(state, refs, int(decision.prefix[-1]))
    # the segment is one header read; an array file one read per piece
    assert fired >= (1 if component == "segment" else 2)


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


def _fault_matrix_case(target, mode):
    """test_integrity's acceptance matrix: a write fault of ``mode``
    in component ``target`` of generation 2."""
    pfs = PIOFS()
    _take(pfs, "job.000001", 1)
    inj = FaultInjector()
    inj.fail_write(nth=1, match=f"job.000002.{target}", mode=mode)
    pfs.attach_faults(inj)
    try:
        _take(pfs, "job.000002", 2)
    except (IOFaultError, CheckpointIntegrityError):
        pass
    pfs.abort_phase()  # a mid-phase write fault leaves the phase open
    pfs.attach_faults(None)
    return pfs, None


def _durable_generation():
    """A multi-level checkpointer with one generation resident in L1
    and drained to the PFS (test_decay's fixture)."""
    pfs = PIOFS(machine=Machine(MachineParams(num_nodes=8, failure_domains=4)))
    ck = MultiLevelCheckpointer(pfs, "ck", k=1, drain="sync")
    segment, arrays = _state(1, ntasks=2)
    assert ck.checkpoint(segment, arrays).prefix == "ck.000001"
    return pfs, ck


def _decay(store, piece, nodes):
    """Flip one bit of the replicas of ``piece`` on ``nodes`` (the
    replicas stay live: only a hash can tell)."""
    for node in nodes:
        bad = bytearray(store._mem[node][piece.key])
        bad[len(bad) // 2] ^= 0x40
        store._mem[node][piece.key] = bytes(bad)


def _decay_case(shape):
    """test_decay's scenarios (a)-(d) as states to walk."""
    pfs, ck = _durable_generation()
    store = ck.store
    gen = store.gen("ck.000001")
    if shape == "a":  # one decayed replica: its partner serves
        piece = gen.arrays[0].pieces[0]
        _decay(store, piece, [piece.owner])
    elif shape == "b":  # a piece with no good replica: the PFS serves
        piece = gen.arrays[1].pieces[0]
        _decay(store, piece, piece.replicas)
    elif shape == "c":  # decay after an audit accepted the memory tier
        assert ck.select_restart_state().tier == "l1"
        piece = gen.arrays[0].pieces[0]
        _decay(store, piece, piece.replicas)
    else:  # an undrained newer generation decays: the older one serves
        segment, arrays = _state(2, ntasks=2)
        newer, _ = store.capture_drms("ck.000002", segment, arrays)
        piece = newer.arrays[0].pieces[0]
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
