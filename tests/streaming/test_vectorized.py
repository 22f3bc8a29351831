"""Vectorized gather/scatter kernels and the streaming-layer fixes.

The scalar per-owner/per-piece loops the vectorized kernels replaced are
kept here as test-only references (`_scalar_gather_piece`,
`_scalar_scatter_piece`): every kernel test asserts byte-identity
against them, including on degenerate geometry — zero-extent sections,
empty pieces, partially-covered INDEXED axes, single-element arrays.
"""

import hashlib
import threading
from contextlib import nullcontext

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import (
    Cyclic,
    Distribution,
    Indexed,
    block_distribution,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import IOFaultError, StreamingError
from repro.obs import Tracer, use_tracer
from repro.pfs.faults import FaultInjector
from repro.pfs.piofs import PIOFS
from repro.streaming.order import stream_order_bytes
from repro.streaming.parallel import stream_in_parallel, stream_out_parallel
from repro.streaming.serial import (
    _piece_redistribution_bytes,
    _strict_default,
    strict_gather,
)
from repro.streaming.streams import MemorySink, MemorySource, PFSSink, PFSSource
from repro.streaming.vectorized import (
    build_section_index_plan,
    gather_section_flat,
    range_redistribution_bytes,
    scatter_section_flat,
)


def _span_sha1(stream, span):
    """The stream digest, computed here independently of the library:
    SHA-1 over the raw SHA-1 of each ``span``-byte span (an empty
    stream is one empty span)."""
    stream = bytes(stream)
    starts = range(0, max(len(stream), 1), span)
    return hashlib.sha1(
        b"".join(hashlib.sha1(stream[o:o + span]).digest() for o in starts)
    ).hexdigest()


# -- scalar references (the pre-vectorization loops, verbatim shape) --------


def _scalar_gather_piece(darray, piece, order="F"):
    """The old per-owner loop: intersect, mesh-index, block copy."""
    buf = np.zeros(piece.shape, dtype=darray.dtype)
    dist = darray.distribution
    for owner in dist.owner_tasks(piece):
        sec = dist.assigned(owner).intersect(piece)
        if sec.is_empty:
            continue
        buf[sec.local_index_within(piece)] = darray.section_from_task(
            owner, sec
        ).reshape(sec.shape)
    return buf


def _scalar_scatter_piece(darray, piece, values):
    """The old per-task delivery loop."""
    dist = darray.distribution
    for t in range(dist.ntasks):
        sec = dist.mapped(t).intersect(piece)
        if sec.is_empty:
            continue
        darray.section_to_task(t, sec, values[sec.local_index_within(piece)])


def _arrays():
    """A zoo of (name, darray, global) over varied geometry."""
    out = []

    g = np.arange(6 * 7 * 5, dtype=np.float64).reshape(6, 7, 5)
    a = DistributedArray(
        "blk", (6, 7, 5), np.float64,
        block_distribution((6, 7, 5), 4, shadow=(1, 1, 0)),
    )
    a.set_global(g)
    out.append(a)

    g2 = np.arange(8 * 9, dtype=np.int32).reshape(8, 9)
    d2 = Distribution((8, 9), [Cyclic(), Cyclic()], 6)
    b = DistributedArray("cyc", (8, 9), np.int32, d2)
    b.set_global(g2)
    out.append(b)

    # partially covered INDEXED axis: elements 3, 4, 7 owned by no task
    d3 = Distribution((8,), [Indexed([Range([0, 1, 2]), Range([5, 6])])], ntasks=2)
    c = DistributedArray("holey", (8,), np.float64, d3)
    c.set_global(np.arange(1.0, 9.0))
    out.append(c)

    # single-element array
    e = DistributedArray("one", (1,), np.float64, block_distribution((1,), 1))
    e.set_global(np.array([42.0]))
    out.append(e)

    return out


SECTIONS = {
    "blk": [
        Slice.full((6, 7, 5)),
        Slice([Range([0, 2, 3]), Range.regular(1, 6, 2), Range([0, 4])]),
        Slice([Range.empty(), Range.regular(0, 7), Range.regular(0, 5)]),
    ],
    "cyc": [Slice.full((8, 9)), Slice([Range([1, 3, 6]), Range.regular(2, 9, 3)])],
    "holey": [Slice.full((8,)), Slice([Range([0, 1, 2])]), Slice([Range([3, 4])])],
    "one": [Slice.full((1,)), Slice([Range.empty()])],
}


# -- the two parstream paths (per-piece forced with the ``on_path`` fixture) --


#: stream-out sink per path: bulk into memory, per-piece into a PIOFS
SINKS = {
    "bulk": MemorySink,
    "per-piece": lambda: PFSSink(PIOFS(), "f"),
}


def _written(sink) -> bytes:
    if isinstance(sink, MemorySink):
        return sink.getvalue()
    return sink.pfs.open(sink.name).read_all()


def _source(path, data):
    """A stream-in source over ``data`` for ``path``: memory for bulk,
    a PIOFS file for per-piece."""
    if path == "bulk":
        return MemorySource(data)
    pfs = PIOFS()
    PFSSink(pfs, "f").write_at(0, data)
    return PFSSource(pfs, "f")


class TestKernels:
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_gather_matches_scalar_reference(self, order):
        for arr in _arrays():
            for sec in SECTIONS[arr.name]:
                want = stream_order_bytes(_scalar_gather_piece(arr, sec, order), order)
                got = gather_section_flat(arr, sec, order=order).tobytes()
                assert got == want, (arr.name, sec, order)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_scatter_matches_scalar_reference(self, order):
        for arr in _arrays():
            for sec in SECTIONS[arr.name]:
                if sec.is_empty:
                    continue
                rng = np.random.default_rng(7)
                vals = rng.integers(0, 100, size=sec.shape).astype(arr.dtype)
                via_scalar = arr.redistributed(arr.distribution)
                _scalar_scatter_piece(via_scalar, sec, vals)
                via_vec = arr.redistributed(arr.distribution)
                scatter_section_flat(
                    via_vec, sec, vals.reshape(-1, order=order), order=order
                )
                assert np.array_equal(
                    via_vec.to_global(fill=0), via_scalar.to_global(fill=0)
                ), (arr.name, sec, order)
                assert via_vec.is_consistent()

    def test_zero_extent_section_gathers_empty(self):
        arr = _arrays()[0]
        sec = Slice([Range.empty(), Range.regular(0, 7), Range.regular(0, 5)])
        flat = gather_section_flat(arr, sec)
        assert flat.size == 0

    def test_strict_checks_before_copying(self):
        holey = [a for a in _arrays() if a.name == "holey"][0]
        with pytest.raises(StreamingError, match="undefined element"):
            gather_section_flat(holey, Slice.full((8,)), strict=True)
        # fully covered sub-section passes strict
        out = gather_section_flat(holey, Slice([Range([0, 1, 2])]), strict=True)
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_scatter_size_mismatch_raises(self):
        arr = _arrays()[0]
        with pytest.raises(StreamingError, match="scatter of"):
            scatter_section_flat(arr, Slice.full((6, 7, 5)), np.zeros(3))

    def test_range_accounting_matches_scalar_reference(self):
        from repro.plancache.plans import streaming_plan

        for arr in _arrays():
            sec = Slice.full(arr.shape)
            plan = build_section_index_plan(arr.distribution, sec)
            pieces, offsets = streaming_plan(sec, arr.itemsize, target_bytes=32)
            for io_task in range(arr.ntasks):
                for j, piece in enumerate(pieces):
                    lo = offsets[j] // arr.itemsize
                    assert range_redistribution_bytes(
                        plan, lo, lo + piece.size, io_task, arr.itemsize
                    ) == _piece_redistribution_bytes(arr, piece, io_task)


class TestStreamingFixes:
    def test_pieces_counts_streamed_not_planned(self):
        # 3 elements over 4 tasks, min 4 pieces -> one plan piece empty
        a = DistributedArray("T", (3,), np.float64, block_distribution((3,), 4))
        a.set_global(np.arange(3.0))
        with use_tracer(Tracer()) as t:
            st = stream_out_parallel(a, MemorySink(), P=4, target_bytes=8)
        assert st.pieces == 3  # streamed pieces, empties skipped
        op = [s for s in t.spans if s.name.startswith("stream.out")][0]
        assert op.attrs["plan_pieces"] == 4  # plan length kept visible
        assert op.attrs["pieces"] == 3

    def test_short_read_raises_even_for_virtual_arrays(self):
        class TruncatedSource:
            """A real (non-virtual) source that silently comes up short."""

            size = 10

            def read_at(self, offset, nbytes, client=0):
                return b"\x00" * min(nbytes, 10)

        d = block_distribution((8, 8), 4)
        a = DistributedArray("V", (8, 8), np.float64, d, store_data=False)
        # a real source coming up short must not be silently accepted
        # just because only geometry is being restored
        with pytest.raises(StreamingError, match="short read"):
            stream_in_parallel(a, TruncatedSource(), P=1)
        with pytest.raises(StreamingError, match="short read"):
            stream_in_parallel(a, TruncatedSource(), P=2)

    def test_virtual_source_still_restores_virtual_array(self):
        d = block_distribution((8, 8), 4)
        a = DistributedArray("V", (8, 8), np.float64, d, store_data=False)
        pfs = PIOFS()
        stream_out_parallel(a, PFSSink(pfs, "v", virtual=True), P=2)
        st = stream_in_parallel(a, PFSSource(pfs, "v"), P=2)
        assert st.bytes_streamed == 8 * 8 * 8

    def test_strict_scope_does_not_leak_across_threads(self):
        seen = {}

        def probe():
            seen["worker"] = _strict_default()

        with strict_gather():
            th = threading.Thread(target=probe)  # fresh thread, no context
            th.start()
            th.join()
        assert seen["worker"] is False

    def test_executor_workers_inherit_strict_scope(self):
        """An asynchronous L1 -> L2 drain runs on a thread of its own in
        the strictness scope of the thread that scheduled it."""
        from repro.checkpoint.segment import DataSegment, SegmentProfile
        from repro.mlck.drain import DrainController
        from repro.mlck.store import L1Store
        from repro.runtime.machine import Machine, MachineParams

        seen = []

        class ProbingPIOFS(PIOFS):
            def write_at(self, *args, **kwargs):
                on_pool = threading.current_thread() is not threading.main_thread()
                seen.append((on_pool, _strict_default()))
                return super().write_at(*args, **kwargs)

        machine = Machine(MachineParams(num_nodes=4))
        store = L1Store(machine, k=1, target_bytes=64)
        drain = DrainController(store, ProbingPIOFS(machine=machine))
        a = DistributedArray("A", (6, 4), np.float64, block_distribution((6, 4), 4))
        a.set_global(np.arange(24.0).reshape(6, 4))
        for prefix, strict in (("ck.1", True), ("ck.2", False)):
            store.capture_drms(prefix, DataSegment(SegmentProfile(100, 0, 0)), [a])
            seen.clear()
            with strict_gather() if strict else nullcontext():
                drain.schedule(prefix)
            drain.wait()
            assert store.gen(prefix).drain_state == "durable"
            assert seen and set(seen) == {(True, strict)}

    def test_serial_fallback_sets_content_sha1(self, on_path):
        g = np.arange(24.0).reshape(6, 4)
        a = DistributedArray("A", (6, 4), np.float64, block_distribution((6, 4), 4))
        a.set_global(g)
        digests = {}
        for path, make_sink in SINKS.items():
            with on_path(path), use_tracer(Tracer()) as t:
                stream_out_parallel(a, make_sink(), P=4, target_bytes=32)
            (op,) = [s for s in t.spans if s.name == "stream.out.parallel"]
            assert op.attrs["path"] == path
            shas = [
                s.attrs["content_sha1"]
                for s in t.spans
                if "content_sha1" in s.attrs
            ]
            assert len(shas) == 1, path
            digests[path] = shas[0]
        # the span attribute is the stream digest over target_bytes
        # spans, the same on both paths
        want = _span_sha1(stream_order_bytes(g, "F"), 32)
        assert set(digests.values()) == {want}, digests


class TestStreamDigest:
    """``StreamStats.sha1`` is the digest, over ``target_bytes`` spans,
    of the stream the operation intended to write — one hash pass over
    the gather buffer, equal on both paths and in serial streaming to
    the independent ``stream_order_bytes(to_global())`` reference (which
    lives in tests only)."""

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_every_engine_returns_the_reference_digest(self, order, on_path):
        zero = DistributedArray(
            "zero", (0, 5), np.float64, block_distribution((0, 5), 2)
        )
        for arr in _arrays() + [zero]:
            want = _span_sha1(stream_order_bytes(arr.to_global(), order), 64)
            for P in sorted({1, arr.ntasks}):  # P < ntasks and P == ntasks
                for path, make_sink in SINKS.items():
                    sink = make_sink()
                    with on_path(path):
                        stats = stream_out_parallel(
                            arr, sink, P=P, order=order, target_bytes=64
                        )
                    assert (stats.sha1, stats.span_bytes) == (want, 64), (
                        arr.name, P, path,
                    )
                    assert _span_sha1(_written(sink), 64) == want
            stats = stream_out_parallel(
                arr, MemorySink(seekable=False), P=1, order=order, target_bytes=64
            )
            assert stats.sha1 == want, arr.name

    def test_section_digest_covers_the_section_only(self):
        arr = _arrays()[0]
        sec = SECTIONS["blk"][1]
        want = _span_sha1(
            stream_order_bytes(_scalar_gather_piece(arr, sec), "F"), 64
        )
        stats = stream_out_parallel(arr, MemorySink(), section=sec, target_bytes=64)
        assert stats.sha1 == want

    def test_no_digest_for_virtual_arrays_and_stream_in(self):
        v = DistributedArray(
            "v", (8, 8), np.float64, block_distribution((8, 8), 2),
            store_data=False,
        )
        pfs = PIOFS()
        assert stream_out_parallel(v, PFSSink(pfs, "v", virtual=True)).sha1 is None
        assert stream_out_parallel(v, PFSSink(pfs, "w", virtual=True), P=1).sha1 is None
        a = _arrays()[0]
        sink = MemorySink()
        stream_out_parallel(a, sink)
        back = a.redistributed(a.distribution)
        assert stream_in_parallel(back, MemorySource(sink.getvalue())).sha1 is None

    def test_digest_is_taken_before_a_torn_write(self):
        """A write fault damages the file, never the digest: the
        operation raises (torn) or returns the intended digest (short)."""
        a = _arrays()[0]
        want = _span_sha1(stream_order_bytes(a.to_global(), "F"), 256)
        pfs = PIOFS()
        inj = FaultInjector()
        pfs.attach_faults(inj)
        inj.fail_write(match="short", offset=504, mode="short")
        stats = stream_out_parallel(a, PFSSink(pfs, "short"), target_bytes=256)
        assert stats.sha1 == want
        stored = pfs.read_at("short", 0, pfs.file_size("short"))
        assert _span_sha1(stored, 256) != want
        inj.fail_write(match="torn", offset=504, mode="torn")
        with pytest.raises(IOFaultError):
            stream_out_parallel(a, PFSSink(pfs, "torn"), target_bytes=256)


@pytest.mark.streamvec
class TestEngineSweep:
    @pytest.mark.parametrize("target", [1 << 6, 1 << 8, 1 << 12])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_engines_byte_identical(self, target, order, on_path):
        g = np.arange(32 * 17, dtype=np.float64).reshape(32, 17)
        a = DistributedArray(
            "S", (32, 17), np.float64, block_distribution((32, 17), 4)
        )
        a.set_global(g)
        want = g.flatten(order=order).tobytes()
        for path, make_sink in SINKS.items():
            sink = make_sink()
            with on_path(path):
                st = stream_out_parallel(
                    a, sink, P=4, order=order, target_bytes=target
                )
            assert _written(sink) == want, path
            assert st.io_tasks == 4

    def test_round_trip_across_engines_and_distributions(self, on_path):
        g = np.arange(20 * 9, dtype=np.float64).reshape(20, 9)
        a = DistributedArray("R", (20, 9), np.float64, block_distribution((20, 9), 3))
        a.set_global(g)
        sink = MemorySink()
        stream_out_parallel(a, sink, P=3, target_bytes=64)
        for path in SINKS:
            d2 = Distribution((20, 9), [Cyclic(), Cyclic()], 5)
            b = DistributedArray("R2", (20, 9), np.float64, d2)
            with on_path(path):
                stream_in_parallel(
                    b, _source(path, sink.getvalue()), P=4, target_bytes=64
                )
            assert np.array_equal(b.to_global(), g), path
            assert b.is_consistent()
