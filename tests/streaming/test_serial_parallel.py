"""Unit tests for section streaming: serial (one I/O task, the only
shape a sequential channel carries) and parallel."""

from dataclasses import replace

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Cyclic, Distribution, block_distribution
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import StreamingError
from repro.pfs.file import byte_view
from repro.streaming.order import stream_sha1
from repro.streaming.parallel import stream_in_parallel, stream_out_parallel
from repro.streaming.partition import partition_for_target
from repro.streaming.serial import StreamStats, _piece_redistribution_bytes
from repro.streaming.streams import MemorySink, MemorySource


@pytest.fixture
def grid():
    return np.arange(6 * 7 * 5, dtype=np.float64).reshape(6, 7, 5)


@pytest.fixture
def arr(grid):
    d = block_distribution((6, 7, 5), 4, shadow=(1, 1, 0))
    a = DistributedArray("A", (6, 7, 5), np.float64, d)
    a.set_global(grid)
    return a


class ChannelSink(MemorySink):
    """A sequential channel (a non-seekable memory sink) that records
    every ``write_at`` as ``(offset, nbytes, client)``."""

    def __init__(self):
        super().__init__(seekable=False)
        self.calls = []

    def write_at(self, offset, data, nbytes=None, client=0):
        self.calls.append((offset, len(byte_view(data)), client))
        super().write_at(offset, data, nbytes=nbytes, client=client)


def _serial_out(on_path, arr, want, section=None, order="F", target_bytes=1 << 20):
    """Serial streaming — P=1 into a sequential channel — on both
    parstream paths.  Each path writes ``want``, in order (every call
    at the end of what was written, by the one I/O task: bulk in one
    call, per-piece in one per nonempty piece) with the accounting of
    the slice-algebra reference; the stats are those of the bulk run."""
    sec = section or Slice.full(arr.shape)
    pieces = partition_for_target(sec, arr.itemsize, target_bytes=target_bytes, order=order)
    pieces = [p for p in pieces if not p.is_empty]
    ref = StreamStats(
        pieces=len(pieces),
        bytes_streamed=len(want),
        redistribution_bytes=sum(_piece_redistribution_bytes(arr, p, 0) for p in pieces),
        io_tasks=1,
        sha1=stream_sha1(want, target_bytes)[0],
        span_bytes=target_bytes,
    )
    stats = {}
    for path in ("bulk", "per-piece"):
        sink = ChannelSink()
        with on_path(path):
            st = stream_out_parallel(
                arr, sink, section=section, P=1, order=order,
                target_bytes=target_bytes,
            )
        assert sink.getvalue() == want, path
        ends = [0]
        for _, n, _ in sink.calls:
            ends.append(ends[-1] + n)
        assert sink.calls == [
            (lo, hi - lo, 0) for lo, hi in zip(ends, ends[1:])
        ], path
        assert len(sink.calls) == (1 if path == "bulk" else len(pieces)), path
        assert replace(st, span_sha1s=None) == ref, path
        stats[path] = st
    assert stats["bulk"] == stats["per-piece"]
    return stats["bulk"]


#: an index-list section: irregular on two axes, strided on the third
INDEX_SECTION = Slice([Range([0, 2, 3]), Range.regular(1, 6, 2), Range([0, 4])])


class TestSerial:
    """Serial streaming is parstream with one I/O task into a
    non-seekable sink, on both of its paths."""

    def test_full_array_column_major(self, arr, grid, on_path):
        st = _serial_out(on_path, arr, grid.flatten(order="F").tobytes(), target_bytes=64)
        assert st.bytes_streamed == grid.nbytes
        assert st.io_tasks == 1

    def test_row_major(self, arr, grid, on_path):
        _serial_out(
            on_path, arr, grid.flatten(order="C").tobytes(), order="C", target_bytes=128
        )

    def test_section_stream_is_distribution_independent(self, arr, grid, on_path):
        for order in ("F", "C"):
            expect = grid[INDEX_SECTION.np_index()].flatten(order=order).tobytes()
            for nt in (1, 3, 4):
                b = arr.redistributed(block_distribution((6, 7, 5), nt))
                _serial_out(
                    on_path, b, expect, section=INDEX_SECTION, order=order,
                    target_bytes=40,
                )

    def test_stream_in_restores(self, arr, grid, on_path):
        sink = MemorySink(seekable=False)
        stream_out_parallel(arr, sink, P=1)
        d2 = block_distribution((6, 7, 5), 5, shadow=(0, 1, 1))
        for path in ("bulk", "per-piece"):
            b = DistributedArray("B", (6, 7, 5), np.float64, d2)
            with on_path(path):
                st = stream_in_parallel(b, MemorySource(sink.getvalue()), P=1)
            assert np.array_equal(b.to_global(), grid), path
            assert b.is_consistent()
            assert (st.io_tasks, st.bytes_streamed) == (1, grid.nbytes)

    def test_works_on_non_seekable_sink(self, arr):
        sink = MemorySink(seekable=False)
        stream_out_parallel(arr, sink, P=1)
        assert len(sink.getvalue()) == arr.size * arr.itemsize

    def test_short_read_detected(self, arr):
        bad = MemorySource(b"\x00" * 10)
        with pytest.raises(StreamingError):
            stream_in_parallel(arr, bad, P=1)


class TestParallel:
    @pytest.mark.parametrize("P", [1, 2, 3, 4])
    def test_byte_identical_to_serial(self, arr, grid, P):
        sink = MemorySink()
        st = stream_out_parallel(arr, sink, P=P, target_bytes=64)
        assert sink.getvalue() == grid.flatten(order="F").tobytes()
        assert st.io_tasks == P

    def test_requires_seekable_sink(self, arr):
        with pytest.raises(StreamingError, match="seekable sink; use P=1"):
            stream_out_parallel(arr, MemorySink(seekable=False), P=2)
        with pytest.raises(StreamingError, match="use P=1"):
            stream_out_parallel(arr, MemorySink(seekable=False))  # P = ntasks

    def test_p1_allowed_on_non_seekable_path(self, arr):
        # P=1 writes in stream order, so a sequential channel takes it;
        # the explicit guard is about P>1
        sink = MemorySink(seekable=False)
        stream_out_parallel(arr, sink, P=1, target_bytes=64)

    def test_p_bounds_checked(self, arr):
        with pytest.raises(StreamingError):
            stream_out_parallel(arr, MemorySink(), P=5)
        with pytest.raises(StreamingError):
            stream_out_parallel(arr, MemorySink(), P=0)

    def test_round_trip_across_distributions(self, arr, grid):
        sink = MemorySink()
        stream_out_parallel(arr, sink, P=4, target_bytes=32)
        d2 = Distribution((6, 7, 5), [Cyclic(), Cyclic(), Cyclic()], 6)
        b = DistributedArray("B", (6, 7, 5), np.float64, d2)
        stream_in_parallel(b, MemorySource(sink.getvalue()), P=2, target_bytes=48)
        assert np.array_equal(b.to_global(), grid)
        assert b.is_consistent()

    def test_source_offset(self, arr, grid):
        # parallel offsets are absolute: the stream follows a 16-byte
        # header only when read back at an offset
        sink = MemorySink()
        stream_out_parallel(arr, sink, P=2, target_bytes=64)
        data = b"HDR!" * 4 + sink.getvalue()
        b2 = DistributedArray("B", (6, 7, 5), np.float64, block_distribution((6, 7, 5), 2))
        stream_in_parallel(b2, MemorySource(data), source_offset=16)
        assert np.array_equal(b2.to_global(), grid)

    def test_redistribution_bytes_drop_when_owner_writes(self):
        # 1-task array: the only task owns everything, so P=1 streaming
        # moves nothing between tasks
        g = np.arange(16.0).reshape(4, 4)
        a = DistributedArray("A", (4, 4), np.float64, block_distribution((4, 4), 1))
        a.set_global(g)
        st = stream_out_parallel(a, MemorySink(), P=1, target_bytes=32)
        assert st.redistribution_bytes == 0

    def test_virtual_array_accounts_bytes(self):
        d = block_distribution((8, 8), 4)
        a = DistributedArray("V", (8, 8), np.float64, d, store_data=False)
        sink = MemorySink()
        # MemorySink requires real bytes; use PFS sink for virtual
        from repro.pfs.piofs import PIOFS
        from repro.streaming.streams import PFSSink

        pfs = PIOFS()
        st = stream_out_parallel(a, PFSSink(pfs, "v", virtual=True), P=2)
        assert st.bytes_streamed == 8 * 8 * 8
        assert pfs.file_size("v") == 8 * 8 * 8
