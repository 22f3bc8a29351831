"""Unit tests for the byte sink/source layer."""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.errors import StreamingError
from repro.pfs.piofs import PIOFS
from repro.streaming.streams import MemorySink, MemorySource, PFSSink


@pytest.mark.parametrize("offset", [0, 4096])
def test_a_write_copies_the_payload_once(offset):
    """An 8 MiB write stores one copy of the payload: into a fresh sink
    (offset 0), and over existing content that it overwrites in part
    and extends (offset 4096).  A bytearray slice assignment copied a
    view into a temporary first: 2 x payload and more."""
    payload = np.arange(1 << 20, dtype=np.float64)
    sink = MemorySink()
    if offset:
        sink.write_at(0, bytes(offset + payload.nbytes // 2))
    tracemalloc.start()
    try:
        sink.write_at(offset, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= payload.nbytes + (64 << 10)
    assert sink.getvalue()[offset:] == payload.tobytes()


class TestPayloadValidation:
    """``nbytes`` and ``data`` must agree when both are given — a
    mismatch silently preferred one of them before, corrupting stream
    accounting."""

    def test_memory_write_at_rejects_mismatch(self):
        sink = MemorySink()
        with pytest.raises(StreamingError, match="inconsistent write"):
            sink.write_at(0, b"abcd", nbytes=3)

    def test_memory_consistent_nbytes_accepted(self):
        sink = MemorySink(seekable=False)
        sink.write_at(0, b"abcd", nbytes=4)
        sink.write_at(4, b"ef", nbytes=2)
        assert sink.getvalue() == b"abcdef"

    def test_pfs_write_at_rejects_mismatch(self):
        pfs = PIOFS()
        sink = PFSSink(pfs, "f")
        with pytest.raises(StreamingError, match="inconsistent write"):
            sink.write_at(0, b"abcd", nbytes=2)

    def test_pfs_virtual_sized_writes_still_work(self):
        pfs = PIOFS()
        sink = PFSSink(pfs, "v", virtual=True)
        sink.write_at(0, None, nbytes=64)  # data=None + nbytes is the virtual path
        assert pfs.file_size("v") == 64


class TestMemorySinkConcurrency:
    def test_concurrent_disjoint_writes(self):
        # the executor's access pattern: distinct offsets, many threads
        sink = MemorySink()
        chunk = 257
        n = 16

        def write(i: int) -> None:
            sink.write_at(i * chunk, bytes([i]) * chunk)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        got = sink.getvalue()
        assert got == b"".join(bytes([i]) * chunk for i in range(n))

    def test_non_seekable_still_sequential(self):
        sink = MemorySink(seekable=False)
        sink.write_at(0, b"ab")
        with pytest.raises(StreamingError):
            sink.write_at(10, b"cd")


class TestMemorySource:
    def test_bounds(self):
        src = MemorySource(b"abcdef")
        assert src.read_at(2, 3) == b"cde"
        with pytest.raises(StreamingError):
            src.read_at(4, 4)
