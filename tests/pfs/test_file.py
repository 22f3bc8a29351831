"""Unit tests for striped PFS files."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import PFSError
from repro.pfs.file import PFSFile


def make(virtual=False, servers=4, stripe_kb=1):
    return PFSFile("f", num_servers=servers, stripe_kb=stripe_kb, virtual=virtual)


class TestStriping:
    def test_offset_to_server_round_robin(self):
        f = make()
        assert f.server_of_offset(0) == 0
        assert f.server_of_offset(1024) == 1
        assert f.server_of_offset(4096) == 0

    def test_server_byte_spans_balanced(self):
        f = make()
        spans = f.server_byte_spans(0, 8192)
        assert spans == {0: 2048, 1: 2048, 2: 2048, 3: 2048}

    def test_span_partial_stripes(self):
        f = make()
        spans = f.server_byte_spans(512, 1024)
        assert spans == {0: 512, 1: 512}

    def test_negative_offset_rejected(self):
        with pytest.raises(PFSError):
            make().server_of_offset(-1)


class TestDataFiles:
    def test_write_read_roundtrip(self):
        f = make()
        f.write_at(0, b"hello")
        assert f.read_at(0, 5) == b"hello"
        assert f.size == 5

    def test_write_past_eof_zero_fills(self):
        f = make()
        f.write_at(4, b"x")
        assert f.read_at(0, 5) == b"\x00\x00\x00\x00x"

    def test_overwrite(self):
        f = make()
        f.write_at(0, b"aaaa")
        f.write_at(1, b"bb")
        assert f.read_all() == b"abba"

    def test_append(self):
        """A sequential writer passes the file's end as the offset."""
        f = make()
        f.write_at(f.size, b"ab")
        f.write_at(f.size, b"cd")
        assert f.read_all() == b"abcd"

    def test_read_outside_rejected(self):
        f = make()
        f.write_at(0, b"abc")
        with pytest.raises(PFSError):
            f.read_at(1, 5)

    def test_sparse_write_reads_zeros(self):
        f = make()
        f.write_at(0, b"ab")
        f.write_at(2, None, nbytes=100)
        assert f.size == 102
        assert f.read_at(0, 4) == b"ab\x00\x00"
        assert f.read_at(100, 2) == b"\x00\x00"

    def test_overwrite_straddling_eof(self):
        f = make()
        f.write_at(0, b"aaaa")
        f.write_at(2, memoryview(b"bbbb"))
        assert f.read_all() == b"aabbbb"

    @pytest.mark.parametrize("offset", [0, 4096])
    def test_a_write_at_eof_copies_the_payload_once(self, offset):
        """Peak traced memory of one EOF write of an 8 MiB array is the
        stored copy, not a temporary copy beside it."""
        payload = np.arange(1 << 20, dtype=np.float64)
        f = make()
        f.write_at(0, bytes(offset))
        tracemalloc.start()
        try:
            f.write_at(offset, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= payload.nbytes + (64 << 10)
        assert f.read_at(offset, payload.nbytes) == payload.tobytes()

    def test_sparse_needs_nbytes(self):
        with pytest.raises(PFSError):
            make().write_at(0, None)


class TestVirtualFiles:
    def test_size_only(self):
        f = make(virtual=True)
        assert f.write_at(0, None, nbytes=500) == 500
        assert f.size == 500

    def test_data_write_counts_bytes(self):
        f = make(virtual=True)
        f.write_at(0, b"abc")
        assert f.size == 3

    def test_read_rejected(self):
        f = make(virtual=True)
        f.write_at(0, None, nbytes=10)
        with pytest.raises(PFSError):
            f.read_at(0, 1)
