"""One pass over the state per checkpoint: the manifest's per-array
``sha1`` is the digest the stream-out took from its gather buffer — the
same value the separate ``to_global`` -> ``stream_order_bytes`` ->
``sha1_hex`` pass used to produce (kept here, in tests only, as the
reference) — and the stored files own their bytes."""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import (
    Distribution,
    Indexed,
    Replicated,
    block_distribution,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.checkpoint.drms import drms_checkpoint, drms_restart
from repro.checkpoint.format import manifest_name, read_manifest, sha1_hex
from repro.checkpoint.segment import DataSegment, SegmentProfile
from repro.checkpoint.validate import validate_checkpoint
from repro.errors import IOFaultError
from repro.mlck.drain import DrainController
from repro.mlck.store import L1Store
from repro.pfs.faults import FaultInjector
from repro.pfs.hostfs import HostFS
from repro.pfs.piofs import PIOFS
from repro.plancache import PlanCache, use_plan_cache
from repro.runtime.machine import Machine, MachineParams
from repro.streaming import vectorized
from repro.streaming.order import stream_order_bytes
from repro.streaming.vectorized import gather_section_flat

#: the parstream paths: the per-piece (serial) loop and the bulk
#: (vectorized) path
PATHS = {"serial": "per-piece", "vectorized": "bulk"}


def _segment():
    return DataSegment(profile=SegmentProfile(1000, 200, 0), replicated={"it": 3})


def _zoo():
    """Block (shadowed), partial-INDEXED with undefined elements,
    single-element and zero-extent arrays, all on 4 tasks."""
    rng = np.random.default_rng(11)
    out = []
    for name, shape, dist in (
        ("blk", (12, 10), block_distribution((12, 10), 4, shadow=(1, 1))),
        # rows 3, 4 and 9 are assigned to no task: they stream as zeros
        ("holey", (10, 3), Distribution(
            (10, 3),
            [Indexed([Range([0, 1]), Range([2, 5]), Range([6, 7]), Range([8])]),
             Replicated()],
            ntasks=4,
        )),
        ("one", (1,), block_distribution((1,), 4)),
        ("zero", (0, 5), block_distribution((0, 5), 4)),
    ):
        a = DistributedArray(name, shape, np.float64, dist)
        a.set_global(rng.standard_normal(shape))
        out.append(a)
    return out


def _reference(a, order):
    return hashlib.sha1(stream_order_bytes(a.to_global(), order)).hexdigest()


# -- the manifest value -----------------------------------------------------------


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("order", ["F", "C"])
def test_manifest_sha1_is_the_reference_digest(order, path, on_path):
    pfs = PIOFS()
    arrays = _zoo()
    assert not arrays[1].defined_mask().all()
    with on_path(PATHS[path]):
        drms_checkpoint(
            pfs, "ck", _segment(), arrays, order=order, io_tasks=2,  # P < ntasks
            target_bytes=128,
        )
    recorded = {s["name"]: s["sha1"] for s in read_manifest(pfs, "ck")["arrays"]}
    assert recorded == {a.name: _reference(a, order) for a in arrays}
    assert recorded["zero"] == hashlib.sha1(b"").hexdigest()
    assert validate_checkpoint(pfs, "ck").ok


def test_virtual_arrays_record_no_digest():
    pfs = PIOFS()
    v = DistributedArray(
        "v", (8, 8), np.float64, block_distribution((8, 8), 2), store_data=False
    )
    drms_checkpoint(pfs, "ck", _segment(), [v])
    assert read_manifest(pfs, "ck")["arrays"][0]["sha1"] is None


@pytest.mark.crash_consistency
@pytest.mark.parametrize("mode", ["short", "torn", "fail"])
def test_write_faults_are_caught_against_the_intended_digest(mode):
    """The digest is a function of the intended stream, taken before
    any sink call: a silent short write commits a manifest whose
    ``sha1`` is still the reference (so validation rejects the file); a
    torn or failed write raises and commits nothing."""
    pfs = PIOFS()
    a = _zoo()[0]
    inj = FaultInjector()
    # the first byte of the array's second 96-byte piece, or half-way
    # into it: on the bulk path, both inside I/O task 0's run
    offset = 192 if mode == "fail" else 240
    inj.fail_write(match="ck.array.blk", offset=offset, mode=mode)
    pfs.attach_faults(inj)
    if mode == "short":
        drms_checkpoint(pfs, "ck", _segment(), [a], target_bytes=128)
        assert read_manifest(pfs, "ck")["arrays"][0]["sha1"] == _reference(a, "F")
        report = validate_checkpoint(pfs, "ck")
        assert any("checksum mismatch" in e for e in report.errors)
    else:
        with pytest.raises(IOFaultError):
            drms_checkpoint(pfs, "ck", _segment(), [a], target_bytes=128)
        assert not pfs.exists(manifest_name("ck"))
    assert inj.pending == 0
    assert not validate_checkpoint(pfs, "ck").ok


@pytest.mark.mlck
def test_l1_entry_and_drained_manifest_record_the_same_digest():
    machine = Machine(MachineParams(num_nodes=8))
    pfs = PIOFS(machine=machine)
    store = L1Store(machine, k=1, target_bytes=256)
    arrays = _zoo()
    gen, _ = store.capture_drms("ck.000001", _segment(), arrays, order="C")
    DrainController(store, pfs, synchronous=True, target_bytes=256).schedule(
        "ck.000001"
    )
    drained = {
        s["name"]: s["sha1"] for s in read_manifest(pfs, "ck.000001")["arrays"]
    }
    assert {e.name: e.sha1 for e in gen.arrays} == drained
    assert drained == {a.name: _reference(a, "C") for a in arrays}


# -- once only ----------------------------------------------------------------------


def test_one_gather_one_hash_pass_and_each_byte_written_once(monkeypatch):
    """During one drms_checkpoint of two data arrays the state is walked
    once: one bulk gather per array, no ``to_global`` / ``stream_order_bytes``
    second pass, one hash pass over the stream bytes (plus the segment
    header), and the file system is handed exactly the checkpoint's bytes."""
    calls = {"gather": 0, "to_global": 0, "order_bytes": 0}
    hashed, written = [], []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def sha1_spy(data, _fn=sha1_hex):
        hashed.append(len(data))
        return _fn(data)

    def write_spy(self, *args, _fn=PIOFS.write_at, **kwargs):
        n = _fn(self, *args, **kwargs)
        written.append(n)
        return n

    def replace_everywhere(original, wrapper):
        """As the e2e ruler does: in every loaded repro module that
        holds the function object, so ``from x import y`` sites count."""
        for name, module in list(sys.modules.items()):
            if name.startswith("repro."):
                for attr, held in list(vars(module).items()):
                    if held is original:
                        monkeypatch.setattr(module, attr, wrapper)

    replace_everywhere(
        gather_section_flat, counting("gather", gather_section_flat)
    )
    replace_everywhere(
        stream_order_bytes, counting("order_bytes", stream_order_bytes)
    )
    replace_everywhere(sha1_hex, sha1_spy)
    monkeypatch.setattr(
        DistributedArray, "to_global",
        counting("to_global", DistributedArray.to_global),
    )
    monkeypatch.setattr(PIOFS, "write_at", write_spy)

    pfs = PIOFS()
    arrays = []
    for name in ("u", "v"):
        a = DistributedArray(
            name, (64, 48), np.float64, block_distribution((64, 48), 4)
        )
        a.set_global(np.random.default_rng(5).standard_normal((64, 48)))
        arrays.append(a)
    segment = _segment()
    header, pad = segment.serialize()
    drms_checkpoint(pfs, "ck", segment, arrays, target_bytes=4096)

    stream_bytes = sum(a.nbytes_global for a in arrays)
    assert calls == {"gather": 2, "to_global": 0, "order_bytes": 0}
    assert sorted(hashed) == sorted(
        [len(header)] + [a.nbytes_global for a in arrays]
    )
    manifest_bytes = pfs.file_size(manifest_name("ck"))
    assert sum(written) == len(header) + pad + stream_bytes + manifest_bytes
    # header, pad, one coalesced run per I/O task per array, the manifest
    assert len(written) == 2 + 4 * len(arrays) + 1


def _checkpoint_restart_counting_vectors(monkeypatch, arrays, overrides=None):
    """checkpoint on 4 tasks -> restart on 3 under a cold plan cache;
    returns (``Slice.flat_positions_within`` calls, tracemalloc peaks of
    the cold section-plan builds, restored state)."""
    calls, peaks = [], []

    def positions_spy(self, *args, _fn=Slice.flat_positions_within, **kwargs):
        calls.append(self)
        return _fn(self, *args, **kwargs)

    def traced_build(*args, _fn=vectorized.build_section_index_plan, **kwargs):
        tracemalloc.start()
        try:
            plan = _fn(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return plan

    monkeypatch.setattr(Slice, "flat_positions_within", positions_spy)
    monkeypatch.setattr(vectorized, "build_section_index_plan", traced_build)
    pfs = PIOFS()
    with use_plan_cache(PlanCache()):
        drms_checkpoint(pfs, "ck", _segment(), arrays)
        state, _ = drms_restart(pfs, "ck", 3, distribution_overrides=overrides)
    return len(calls), peaks, state


def test_block_arrays_never_build_index_vectors(monkeypatch):
    """Two shadowed BLOCK arrays through checkpoint -> restart: every
    plan entry is a strided box, so no position vector is ever expanded
    and a cold plan build allocates O(axis extent), not O(elements)."""
    shape = (512, 512)
    rng = np.random.default_rng(7)
    arrays = []
    for name in ("u", "v"):
        a = DistributedArray(
            name, shape, np.float64, block_distribution(shape, 4, shadow=(1, 1))
        )
        a.set_global(rng.standard_normal(shape))
        arrays.append(a)
    want = {a.name: a.to_global() for a in arrays}
    ncalls, peaks, state = _checkpoint_restart_counting_vectors(monkeypatch, arrays)
    assert ncalls == 0
    # u and v share a geometry: assigned at t1=4, assigned + mapped at t2=3
    assert len(peaks) == 3
    assert max(peaks) < 0.01 * arrays[0].nbytes_global
    for name, arr in state.arrays.items():
        np.testing.assert_array_equal(arr.to_global(), want[name])


def test_indexed_arrays_keep_their_index_vectors(monkeypatch):
    """The same sequence over an [INDEXED, *] array, restarted under an
    irregular override: two position vectors per (section ∩ task) overlap
    of every plan built, exactly as before strided boxes existed."""
    def rows(ntasks):
        owner = np.random.default_rng(ntasks).permutation(np.arange(64) % ntasks)
        return Distribution(
            (64, 16),
            [Indexed([np.flatnonzero(owner == t) for t in range(ntasks)]),
             Replicated()],
            ntasks,
        )

    a = DistributedArray("w", (64, 16), np.float64, rows(4))
    a.set_global(np.random.default_rng(8).standard_normal((64, 16)))
    want = a.to_global()
    ncalls, peaks, state = _checkpoint_restart_counting_vectors(
        monkeypatch, [a], overrides={"w": rows(3)}
    )
    # assigned at t1=4 (4 overlaps), assigned + mapped at t2=3 (3 each)
    assert len(peaks) == 3
    assert ncalls == 2 * (4 + 3 + 3)
    np.testing.assert_array_equal(state.arrays["w"].to_global(), want)


# -- ownership, end to end ------------------------------------------------------------


@pytest.mark.parametrize("backend", ["piofs", "hostfs"])
def test_checkpoint_is_not_a_view_of_the_application_arrays(backend, tmp_path):
    """The sink is handed slices of the gather buffer, not copies: the
    store must have copied them, so computing on after the checkpoint
    does not reach into the saved state."""
    pfs = PIOFS() if backend == "piofs" else HostFS(tmp_path)
    arrays = _zoo()
    saved = {a.name: a.to_global() for a in arrays}
    drms_checkpoint(pfs, "ck", _segment(), arrays, target_bytes=128)
    for a in arrays:
        for t in range(a.ntasks):
            a.set_assigned(t, a.assigned_view(t) + 1.0)
    assert validate_checkpoint(pfs, "ck").ok
    state, _ = drms_restart(pfs, "ck", 3)
    for name, want in saved.items():
        np.testing.assert_array_equal(state.arrays[name].to_global(), want)
