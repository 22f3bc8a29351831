"""The stream digest is a function of the stream alone: the SHA-1 of
the raw SHA-1 digests of its consecutive ``span_bytes`` spans, recorded
beside the span size.  It does not depend on the task count or on the
tier that took it — the Fig. 5a piece plan does — and a restore and
the audit reject a stored stream damaged at any span boundary, two
spans swapped, or a manifest whose span size was edited."""

import hashlib

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import PFSCheckpointSource, drms_checkpoint, drms_restart
from repro.checkpoint.format import read_manifest, write_manifest
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.checkpoint.validate import validate_checkpoint, verify_stored_sha1
from repro.errors import CheckpointIntegrityError
from repro.mlck.drain import DrainController
from repro.mlck.store import L1Store
from repro.pfs.faults import flip_stored_bit
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.streaming.order import stream_order_bytes

PREFIX = "ck.000001"
SPAN = 1024
TASKS = (1, 2, 3, 4, 8)


def _segment():
    return DataSegment(profile=SegmentProfile(1000, 200, 0), replicated={"it": 2})


def _state():
    """One global state: a float64 stream of 13 whole spans and an
    8-byte partial one, a float32 stream of 3 whole spans and a partial
    one."""
    rng = np.random.default_rng(26)
    return {
        "u": rng.standard_normal((45, 37)),
        "v": rng.standard_normal((30, 7, 4)).astype(np.float32),
    }


def _arrays(ntasks):
    """The global state distributed over ``ntasks`` tasks, beside a
    virtual array."""
    arrays = []
    for name, values in _state().items():
        a = DistributedArray(
            name, values.shape, values.dtype,
            block_distribution(values.shape, ntasks),
        )
        a.set_global(values)
        arrays.append(a)
    arrays.append(
        DistributedArray(
            "w", (16, 16), np.float64, block_distribution((16, 16), ntasks),
            store_data=False,
        )
    )
    return arrays


def _span_sha1(stream, span):
    """The stream digest, computed here independently of the library."""
    starts = range(0, max(len(stream), 1), span)
    return hashlib.sha1(
        b"".join(hashlib.sha1(stream[o:o + span]).digest() for o in starts)
    ).hexdigest()


def _digests(manifest):
    return {s["name"]: (s["sha1"], s["span_bytes"]) for s in manifest["arrays"]}


def _without_tier(manifest):
    return {k: v for k, v in manifest.items() if k != "tier"}


@pytest.mark.mlck
@pytest.mark.parametrize("order", ["F", "C"])
def test_the_digest_depends_on_neither_task_count_nor_tier(order):
    """Ten manifests of one state — five task counts, the PFS sink and
    the L1 sink at one ``target_bytes`` — record the same digest and
    span size per array, and each sync-drained manifest is the direct
    PFS checkpoint's, key for key."""
    recorded = []
    for t in TASKS:
        machine = Machine(MachineParams(num_nodes=8))
        pfs = PIOFS(machine=machine)
        drms_checkpoint(
            pfs, PREFIX, _segment(), _arrays(t), order=order, target_bytes=SPAN
        )
        direct = read_manifest(pfs, PREFIX)
        store = L1Store(machine, k=1, target_bytes=SPAN)
        gen, _ = store.capture_drms(PREFIX, _segment(), _arrays(t), order=order)
        recorded += [_digests(direct), _digests(gen.manifest)]
        drained_pfs = PIOFS(machine=machine)
        drainer = DrainController(store, drained_pfs, target_bytes=SPAN)
        drainer.schedule(PREFIX)
        drainer.wait()
        drained = read_manifest(drained_pfs, PREFIX)
        assert _without_tier(drained) == _without_tier(direct), t
    assert len(recorded) == 2 * len(TASKS)
    assert all(r == recorded[0] for r in recorded)
    want = {
        name: (_span_sha1(stream_order_bytes(values, order), SPAN), SPAN)
        for name, values in _state().items()
    }
    assert recorded[0] == dict(want, w=(None, None))


# -- negative controls at span boundaries ----------------------------------------

#: u's stream: 13 whole spans, then an 8-byte partial one
U_BYTES = 45 * 37 * 8
LAST = U_BYTES // SPAN * SPAN


def _flip(offset):
    def damage(pfs, file):
        flip_stored_bit(pfs, file, offset, bit=3)
    return damage


def _swap(pfs, file):
    """Spans 2 and 5 (both whole, so of equal length) trade places."""
    a = pfs.read_at(file, 2 * SPAN, SPAN)
    b = pfs.read_at(file, 5 * SPAN, SPAN)
    assert a != b
    pfs.write_at(file, 2 * SPAN, b)
    pfs.write_at(file, 5 * SPAN, a)


DAMAGE = {
    "first-span-first-byte": _flip(0),
    "first-span-last-byte": _flip(SPAN - 1),
    "middle-span-first-byte": _flip(6 * SPAN),
    "middle-span-last-byte": _flip(7 * SPAN - 1),
    "last-span-first-byte": _flip(LAST),
    "last-span-last-byte": _flip(U_BYTES - 1),
    "two-spans-swapped": _swap,
}


def _checkpointed():
    pfs = PIOFS()
    drms_checkpoint(pfs, PREFIX, _segment(), _arrays(4), target_bytes=SPAN)
    spec = read_manifest(pfs, PREFIX)["arrays"][0]
    assert (spec["name"], spec["nbytes"], spec["span_bytes"]) == ("u", U_BYTES, SPAN)
    assert U_BYTES - LAST == 8
    return pfs, spec


def _rejected(pfs, spec):
    """A PFS restore raises and leaves the array it loads into
    untouched; the audit and ``verify_stored_sha1`` reject the file."""
    with pytest.raises(CheckpointIntegrityError):
        drms_restart(pfs, PREFIX, 3)
    (target,) = [a for a in _arrays(3) if a.name == "u"]
    target.set_global(np.full(target.shape, 7.0))
    source = PFSCheckpointSource(pfs, PREFIX, None, SPAN)
    with pytest.raises(CheckpointIntegrityError, match="checksum mismatch"):
        source.load_array(target, spec, "F")
    np.testing.assert_array_equal(target.to_global(), np.full(target.shape, 7.0))
    report = validate_checkpoint(pfs, PREFIX)
    assert any(spec["file"] in e and "mismatch" in e for e in report.errors)
    m = read_manifest(pfs, PREFIX)["arrays"][0]
    with pytest.raises(CheckpointIntegrityError, match="checksum mismatch"):
        verify_stored_sha1(pfs, m["file"], m["sha1"], m["nbytes"], m["span_bytes"])


@pytest.mark.crash_consistency
@pytest.mark.parametrize("damage", DAMAGE)
def test_damage_at_a_span_boundary_is_rejected(damage):
    pfs, spec = _checkpointed()
    DAMAGE[damage](pfs, spec["file"])
    _rejected(pfs, spec)


@pytest.mark.crash_consistency
@pytest.mark.parametrize("span_bytes", [SPAN // 2, SPAN + 8, 2 * SPAN])
def test_an_edited_span_size_is_rejected(span_bytes):
    pfs, _ = _checkpointed()
    m = read_manifest(pfs, PREFIX)
    m["arrays"][0]["span_bytes"] = span_bytes
    write_manifest(pfs, PREFIX, m)
    _rejected(pfs, m["arrays"][0])


def test_the_undamaged_controls_restore():
    """The same checkpoint, undamaged, passes every check above."""
    pfs, spec = _checkpointed()
    state, _ = drms_restart(pfs, PREFIX, 3)
    np.testing.assert_array_equal(state.arrays["u"].to_global(), _state()["u"])
    assert validate_checkpoint(pfs, PREFIX).ok
    assert verify_stored_sha1(
        pfs, spec["file"], spec["sha1"], spec["nbytes"], spec["span_bytes"]
    ) == U_BYTES
