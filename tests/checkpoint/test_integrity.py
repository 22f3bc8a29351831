"""Crash-consistency tests: checksums, atomic manifest commit, fault
injection over the checkpoint write path, and fallback restart."""

import json

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import drms_checkpoint, drms_restart
from repro.checkpoint.format import (
    manifest_name,
    manifest_tmp_name,
    read_manifest,
    write_manifest,
)
from repro.checkpoint.incremental import IncrementalCheckpointer
from repro.checkpoint.recover import (
    restart_candidates,
    restart_latest_valid,
    select_restart_state,
)
from repro.checkpoint.rotation import CheckpointRotation, latest_checkpoint
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.checkpoint.spmd import spmd_checkpoint, spmd_restart
from repro.checkpoint.validate import (
    validate_checkpoint,
    verify_checkpoint,
    verify_stored_sha1,
)
from repro.errors import (
    CheckpointIntegrityError,
    IOFaultError,
    RestartError,
)
from repro.infra.events import EventLog
from repro.pfs.faults import FaultInjector, flip_stored_bit
from repro.pfs.piofs import PIOFS

N = 8


@pytest.fixture
def env():
    pfs = PIOFS()
    arr = DistributedArray("u", (N, N), np.float64, block_distribution((N, N), 2))
    arr.set_global(np.zeros((N, N)))
    seg = DataSegment(profile=SegmentProfile(1000, 0, 0), replicated={"it": 0})
    return pfs, arr, seg


def take(pfs, arr, seg, prefix, it):
    arr.set_global(np.full((N, N), float(it)))
    seg.replicated["it"] = it
    drms_checkpoint(pfs, prefix, seg, [arr])


class TestAtomicManifestCommit:
    """Satellite: the zero-byte / half-written manifest crash window."""

    def test_failed_manifest_write_leaves_no_manifest(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "job.000001", 1)
        inj = FaultInjector()
        inj.fail_write(match="job.000002.manifest", offset=0, mode="fail")
        pfs.attach_faults(inj)
        with pytest.raises(IOFaultError):
            take(pfs, arr, seg, "job.000002", 2)
        # regression: previously a crash here could leave a zero-byte
        # .manifest; now nothing but the staging file may exist
        assert not pfs.exists(manifest_name("job.000002"))
        assert latest_checkpoint(pfs, "job") == "job.000001"

    def test_torn_manifest_write_is_invisible(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "job.000001", 1)
        inj = FaultInjector()
        inj.fail_write(match="job.000002.manifest", offset=263, mode="torn")
        pfs.attach_faults(inj)
        with pytest.raises(IOFaultError):
            take(pfs, arr, seg, "job.000002", 2)
        assert not pfs.exists(manifest_name("job.000002"))
        # the half-written staging file exists but is never scanned
        assert pfs.exists(manifest_tmp_name("job.000002"))
        assert latest_checkpoint(pfs, "job") == "job.000001"

    def test_silent_short_manifest_write_detected(self, env):
        pfs, arr, seg = env
        inj = FaultInjector()
        inj.fail_write(match="job.000001.manifest", offset=263, mode="short")
        pfs.attach_faults(inj)
        with pytest.raises(CheckpointIntegrityError, match="torn write"):
            take(pfs, arr, seg, "job.000001", 1)
        assert not pfs.exists(manifest_name("job.000001"))

    def test_commit_removes_staging_file(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "job.000001", 1)
        assert pfs.exists(manifest_name("job.000001"))
        assert not pfs.exists(manifest_tmp_name("job.000001"))

    def test_stale_tmp_reserves_generation_number(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "job.000001", 1)
        inj = FaultInjector()
        inj.fail_write(match="job.000002.manifest", offset=263, mode="torn")
        pfs.attach_faults(inj)
        with pytest.raises(IOFaultError):
            take(pfs, arr, seg, "job.000002", 2)
        pfs.attach_faults(None)
        rot = CheckpointRotation(pfs, "job")
        assert rot.next_prefix() == "job.000003"


class TestValidation:
    def test_sound_state_validates(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "ck", 1)
        report = validate_checkpoint(pfs, "ck")
        assert report.ok and bool(report)
        assert report.files == 3  # manifest + segment + one array
        assert report.bytes_hashed > 0

    def test_bit_flip_in_array_detected(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "ck", 1)
        flip_stored_bit(pfs, "ck.array.u", 64, bit=5)
        report = validate_checkpoint(pfs, "ck")
        assert not report.ok
        assert any("checksum mismatch" in e for e in report.errors)
        with pytest.raises(CheckpointIntegrityError):
            verify_checkpoint(pfs, "ck")

    def test_bit_flip_in_segment_detected(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "ck", 1)
        flip_stored_bit(pfs, "ck.segment", 10, bit=0)
        assert not validate_checkpoint(pfs, "ck").ok

    def test_missing_component_detected(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "ck", 1)
        pfs.unlink("ck.array.u")
        report = validate_checkpoint(pfs, "ck")
        assert any("missing file" in e for e in report.errors)

    def test_size_mismatch_detected(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "ck", 1)
        pfs.create("ck.array.u")  # replaced by an empty file
        pfs.write_at("ck.array.u", 0, b"tiny")
        report = validate_checkpoint(pfs, "ck")
        assert any("manifest records" in e for e in report.errors)

    def test_unreadable_manifest_reported_not_raised(self, env):
        pfs, *_ = env
        report = validate_checkpoint(pfs, "ghost")
        assert not report.ok

    def test_checksumless_manifest_still_validates(self, env):
        """Backward compatibility: states whose manifests carry no
        digests (pre-v3 layout) fall back to existence/size checks."""
        pfs, arr, seg = env
        take(pfs, arr, seg, "ck", 1)
        m = read_manifest(pfs, "ck")
        for key in ("segment_sha1", "segment_sha1_bytes"):
            del m[key]
        for spec in m["arrays"]:
            del spec["sha1"]
        write_manifest(pfs, "ck", m)
        flip_stored_bit(pfs, "ck.array.u", 0)  # cannot be detected
        assert validate_checkpoint(pfs, "ck").ok
        state, _ = drms_restart(pfs, "ck", 2)  # no digest to check against
        assert state.segment.replicated["it"] == 1

    def test_verify_stored_sha1_reports_truncation(self, env):
        pfs, *_ = env
        pfs.create("f")
        pfs.write_at("f", 0, b"abc")
        with pytest.raises(CheckpointIntegrityError, match="torn or short"):
            verify_stored_sha1(pfs, "f", "0" * 40, 100)


class TestRestartVerification:
    def test_restart_rejects_corrupt_array(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "ck", 3)
        flip_stored_bit(pfs, "ck.array.u", 128)
        with pytest.raises(CheckpointIntegrityError):
            drms_restart(pfs, "ck", 4)

    def test_restart_rejects_corrupt_segment(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "ck", 3)
        flip_stored_bit(pfs, "ck.segment", 5)
        with pytest.raises(CheckpointIntegrityError):
            drms_restart(pfs, "ck", 4)

    def test_transient_read_corruption_detected(self, env, bulk_only):
        """A bit flipped on the wire (not in the store) is caught by the
        stream-in's digest of the very buffer it read, before the
        scatter — the restart's one read is the one that is hashed."""
        pfs, arr, seg = env
        take(pfs, arr, seg, "ck", 3)
        inj = FaultInjector()
        inj.flip_read(match="ck.array.u", offset=7, bit=2)
        pfs.attach_faults(inj)
        with pytest.raises(CheckpointIntegrityError):
            drms_restart(pfs, "ck", 4)

    def test_spmd_restart_rejects_corrupt_task_file(self, env):
        pfs, *_ = env
        spmd_checkpoint(pfs, "sp", 4, 4096, payloads=[{"t": t} for t in range(4)])
        assert validate_checkpoint(pfs, "sp").ok
        flip_stored_bit(pfs, "sp.task2", 12)
        assert not validate_checkpoint(pfs, "sp").ok
        with pytest.raises(CheckpointIntegrityError):
            spmd_restart(pfs, "sp", 4)
        flip_stored_bit(pfs, "sp.task2", 12)  # repair the flipped bit
        state, _ = spmd_restart(pfs, "sp", 4)
        assert state.payloads == [{"t": t} for t in range(4)]


class TestIncrementalChainValidation:
    def _chain(self, pfs, arr, seg):
        inc = IncrementalCheckpointer(pfs, "inc")
        arr.set_global(np.zeros((N, N)))
        inc.full(seg, [arr])
        arr.set_global(np.ones((N, N)))
        inc.incremental(seg, [arr])
        return inc

    def test_sound_chain_validates(self, env):
        pfs, arr, seg = env
        self._chain(pfs, arr, seg)
        report = validate_checkpoint(pfs, "inc.chain")
        assert report.ok
        assert report.bytes_hashed > 0

    def test_corrupt_delta_detected_and_restore_rejected(self, env):
        pfs, arr, seg = env
        inc = self._chain(pfs, arr, seg)
        flip_stored_bit(pfs, "inc.d1.array.u", 32)
        assert not validate_checkpoint(pfs, "inc.chain").ok
        with pytest.raises(CheckpointIntegrityError):
            inc.restore(2)

    def test_corrupt_base_detected_through_chain(self, env):
        pfs, arr, seg = env
        self._chain(pfs, arr, seg)
        flip_stored_bit(pfs, "inc.base.array.u", 8)
        report = validate_checkpoint(pfs, "inc.chain")
        assert any("inc.base" in e for e in report.errors)

    def test_cyclic_chain_reported_not_hung(self, env):
        pfs, *_ = env
        write_manifest(
            pfs, "loop", {"kind": "drms-chain", "base": "loop", "deltas": []}
        )
        report = validate_checkpoint(pfs, "loop")
        assert any("cycle" in e for e in report.errors)


class TestRecoverySelection:
    def _two_generations(self, env):
        pfs, arr, seg = env
        take(pfs, arr, seg, "job.000001", 1)
        take(pfs, arr, seg, "job.000002", 2)
        return pfs

    def test_candidates_newest_first_with_bare_base(self, env):
        pfs = self._two_generations(env)
        _, arr, seg = env
        take(pfs, arr, seg, "job", 0)  # un-rotated state under the base
        assert restart_candidates(pfs, "job") == [
            "job.000002", "job.000001", "job",
        ]

    def test_picks_newest_when_sound(self, env):
        pfs = self._two_generations(env)
        decision = select_restart_state(pfs, "job")
        assert decision.prefix == "job.000002"
        assert decision.rejected == []
        assert not decision.fell_back

    def test_falls_back_past_corrupt_newest(self, env):
        pfs = self._two_generations(env)
        flip_stored_bit(pfs, "job.000002.array.u", 100)
        events = EventLog()
        decision = select_restart_state(pfs, "job", events=events, job="j")
        assert decision.prefix == "job.000001"
        assert decision.fell_back
        assert [p for p, _ in decision.rejected] == ["job.000002"]
        kinds = [e.kind for e in events]
        assert kinds == [
            "checkpoint_rejected", "checkpoint_verified", "restart_fallback",
        ]
        assert events.of_kind("restart_fallback")[0].detail["skipped"] == [
            "job.000002"
        ]

    def test_pfs_only_walk_writes_flight_records(self, env):
        """The PFS-only walk once left no flight records at all; every
        walk now records start, each rejection, the verdict and the end."""
        from repro.obs import FlightRecorder, use_flight

        pfs = self._two_generations(env)
        flip_stored_bit(pfs, "job.000002.array.u", 100)
        with use_flight(FlightRecorder()) as fr:
            select_restart_state(pfs, "job", clock=7.0, job="j")
        events = fr.events()
        assert [e.kind for e in events] == [
            "recovery_walk_started", "checkpoint_rejected",
            "checkpoint_verified", "restart_fallback", "recovery_walk_done",
        ]
        assert all(e.time == 7.0 and e.detail["job"] == "j" for e in events)
        assert events[0].detail["candidates"] == 2
        assert events[1].detail["prefix"] == "job.000002"
        assert "checksum mismatch" in events[1].detail["errors"][0]
        assert events[2].detail["prefix"] == "job.000001"
        assert events[3].detail["skipped"] == ["job.000002"]
        assert events[4].detail["chosen"] == "job.000001"
        assert events[4].detail["rejected"] == 1

    def test_nothing_valid(self, env):
        pfs = self._two_generations(env)
        flip_stored_bit(pfs, "job.000001.array.u", 1)
        flip_stored_bit(pfs, "job.000002.array.u", 1)
        decision = select_restart_state(pfs, "job")
        assert decision.prefix is None
        assert len(decision.rejected) == 2

    def test_restart_latest_valid_round_trip(self, env):
        pfs = self._two_generations(env)
        flip_stored_bit(pfs, "job.000002.array.u", 100)
        state, _, decision = restart_latest_valid(pfs, "job", 4)
        assert decision.prefix == "job.000001"
        assert state.segment.replicated["it"] == 1
        assert np.all(state.arrays["u"].to_global() == 1.0)

    def test_restart_latest_valid_raises_when_dry(self, env):
        pfs, *_ = env
        with pytest.raises(RestartError, match="no checkpoint"):
            restart_latest_valid(pfs, "job", 2)


#: the stored byte each matrix cell's fault hits: a failed write's is
#: its file's first byte; a torn or short write's is half-way into the
#: 526-byte manifest, the 172-byte segment header, or I/O task 0's
#: 256-byte run of the array stream
MATRIX_OFFSET = {"manifest": 263, "segment": 86, "array": 128}


def matrix_fault(target, mode):
    """An injector armed with the matrix cell's write fault on
    generation 2."""
    inj = FaultInjector()
    offset = 0 if mode == "fail" else MATRIX_OFFSET[target]
    inj.fail_write(match=f"job.000002.{target}", offset=offset, mode=mode)
    return inj


@pytest.mark.crash_consistency
@pytest.mark.parametrize("mode", ["fail", "torn", "short"])
@pytest.mark.parametrize("target", ["manifest", "segment", "array"])
def test_fault_matrix_recovery_always_lands_on_good_state(
    env, target, mode, bulk_only
):
    """The acceptance matrix: inject every write-fault mode into every
    component of checkpoint generation 2; whatever happens, recovery
    selection must land on generation 1 and restore its exact state.
    The faulted write and every restore read take the bulk path."""
    pfs, arr, seg = env
    take(pfs, arr, seg, "job.000001", 1)

    inj = matrix_fault(target, mode)
    pfs.attach_faults(inj)
    try:
        take(pfs, arr, seg, "job.000002", 2)
        completed = True
    except (IOFaultError, CheckpointIntegrityError):
        completed = False
    pfs.attach_faults(None)
    assert inj.pending == 0, "the armed fault must have fired"

    if completed:
        # silent short write: the manifest committed, so the damaged
        # state is visible — validation is what rejects it
        assert latest_checkpoint(pfs, "job") == "job.000002"
        assert not validate_checkpoint(pfs, "job.000002").ok
    else:
        # observed crash: the manifest never committed, so the damaged
        # state is invisible to the rotation scan
        assert latest_checkpoint(pfs, "job") == "job.000001"

    decision = select_restart_state(pfs, "job")
    assert decision.prefix == "job.000001"
    state, _ = drms_restart(pfs, decision.prefix, 3)
    assert state.segment.replicated["it"] == 1
    assert np.all(state.arrays["u"].to_global() == 1.0)


@pytest.mark.crash_consistency
def test_fault_matrix_short_segment_write_caught_by_checksum(env):
    """The hardest case spelled out: a silent short write inside the
    segment file keeps the manifest-recorded *size* correct (the sparse
    pad still extends the file), so only the checksum catches it."""
    pfs, arr, seg = env
    inj = FaultInjector()
    inj.fail_write(match="job.000001.segment", offset=86, mode="short")
    pfs.attach_faults(inj)
    take(pfs, arr, seg, "job.000001", 1)
    pfs.attach_faults(None)
    m = read_manifest(pfs, "job.000001")
    assert pfs.file_size("job.000001.segment") == m["segment_bytes"]
    report = validate_checkpoint(pfs, "job.000001")
    assert any("checksum mismatch" in e for e in report.errors)


@pytest.mark.crash_consistency
@pytest.mark.parametrize("target", ["segment", "array"])
def test_a_faulted_checkpoint_leaves_no_phase_open(env, target):
    """A write fault kills a checkpoint inside its write phase; the next
    checkpoint in the same thread opens its own phase (no "phases do
    not nest") and recovery lands on it."""
    pfs, arr, seg = env
    inj = FaultInjector()
    inj.fail_write(match=f"job.000001.{target}", offset=0, mode="fail")
    pfs.attach_faults(inj)
    with pytest.raises(IOFaultError):
        take(pfs, arr, seg, "job.000001", 1)
    take(pfs, arr, seg, "job.000002", 2)
    assert select_restart_state(pfs, "job").prefix == "job.000002"
