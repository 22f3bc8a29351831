"""Write payloads are buffers: every sink sizes them in bytes (not in
elements), keeps its own copy, and ``PFSFile.write_at`` stores the same
content whatever order the runs of a stream arrive in."""

import numpy as np
import pytest

from repro.errors import IOFaultError, PFSError, StreamingError
from repro.pfs.faults import FaultInjector
from repro.pfs.file import PFSFile, byte_view
from repro.pfs.hostfs import HostFS
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.streaming.streams import MemorySink, PFSSink

VALUES = np.arange(32, dtype=np.float64)
RAW = VALUES.tobytes()  # 256 bytes, 32 elements


def _payload(kind):
    """The same 256 bytes as ``bytes``, as a uint8 memoryview slice out
    of a larger buffer, and as an f8 ndarray (``len()`` == 32)."""
    if kind == "bytes":
        return RAW
    if kind == "u8-view":
        backing = np.frombuffer(b"\xff" * 8 + RAW + b"\xff" * 8, dtype=np.uint8)
        return memoryview(backing)[8:-8]
    return VALUES.copy()


KINDS = ["bytes", "u8-view", "f8-array"]


def _file():
    return PFSFile("f", num_servers=4, stripe_kb=1)


# -- sizing ---------------------------------------------------------------------


class TestByteView:
    @pytest.mark.parametrize("kind", KINDS)
    def test_length_and_slices_are_in_bytes(self, kind):
        view = byte_view(_payload(kind))
        assert len(view) == view.nbytes == 256
        assert bytes(view[:12]) == RAW[:12]

    def test_zero_extent_nd_buffer_is_empty(self):
        assert len(byte_view(np.zeros((0, 3)))) == 0

    @pytest.mark.parametrize("error", [PFSError, StreamingError])
    def test_non_contiguous_and_non_buffers_raise_the_layers_error(self, error):
        with pytest.raises(error, match="C-contiguous buffer"):
            byte_view(np.zeros((4, 4))[:, ::2], error)
        with pytest.raises(error, match="C-contiguous buffer"):
            byte_view("text", error)


@pytest.mark.parametrize("kind", KINDS)
class TestEverySinkSizesInBytes:
    def test_memory_sink(self, kind):
        sink = MemorySink()
        sink.write_at(16, _payload(kind), nbytes=256)
        sink.append(_payload(kind))
        assert sink.getvalue() == bytes(16) + RAW + RAW
        with pytest.raises(StreamingError, match="payload is 256 bytes"):
            sink.write_at(0, _payload(kind), nbytes=32)

    def test_pfs_file(self, kind):
        f = _file()
        assert f.write_at(8, _payload(kind)) == 256
        assert (f.size, f.stored_bytes) == (264, 264)
        assert f.read_all() == bytes(8) + RAW
        v = PFSFile("v", num_servers=4, stripe_kb=1, virtual=True)
        assert v.write_at(0, _payload(kind)) == 256
        assert v.size == 256

    def test_host_file(self, kind, tmp_path):
        fs = HostFS(tmp_path)
        fs.create("h")
        assert fs.write_at("h", 8, _payload(kind)) == 256
        assert fs.file_size("h") == 264
        assert (tmp_path / "h").read_bytes() == bytes(8) + RAW
        fs.create("hv", virtual=True)
        assert fs.write_at("hv", 0, _payload(kind)) == 256
        assert fs.file_size("hv") == 256

    def test_phase_accounting_through_a_pfs_sink(self, kind):
        pfs = PIOFS()
        sink = PFSSink(pfs, "a")
        pfs.begin_phase(IOKind.WRITE_PARALLEL)
        sink.write_at(0, _payload(kind), client=1)
        sink.append(_payload(kind), nbytes=256, client=2)
        res = pfs.end_phase()
        assert res.total_bytes == 512
        assert sum(res.server_bytes.values()) == 512
        assert pfs.read_at("a", 0, 512) == RAW + RAW
        with pytest.raises(StreamingError, match="payload is 256 bytes"):
            sink.write_at(0, _payload(kind), nbytes=32)

    @pytest.mark.parametrize("mode,at,kept", [
        ("torn", 12, 12), ("short", None, 128), ("fail", None, 0),
    ])
    def test_write_faults_tear_in_bytes(self, kind, mode, at, kept):
        """A fault at stored byte ``at`` (None: the payload's middle
        byte) keeps the bytes below it, counted in bytes whatever the
        payload's item size."""
        pfs = PIOFS()
        pfs.create("a")
        inj = FaultInjector()
        pfs.attach_faults(inj)
        offset = len(RAW) // 2 if at is None else at
        plan = inj.fail_write(match="a", offset=offset, mode=mode)
        if mode == "short":
            assert pfs.write_at("a", 0, _payload(kind)) == kept
        else:
            with pytest.raises(IOFaultError):
                pfs.write_at("a", 0, _payload(kind))
        assert (plan.intended, plan.kept) == (256, kept)
        assert pfs.file_size("a") == kept
        assert pfs.read_at("a", 0, kept) == RAW[:kept]


# -- ownership --------------------------------------------------------------------


class TestTheStoreOwnsItsBytes:
    def test_pfs_file_copies_a_memoryview(self):
        src = np.frombuffer(RAW, dtype=np.uint8).copy()
        f = _file()
        f.write_at(0, memoryview(src)[:128])
        f.write_at(128, memoryview(src)[128:])
        src[:] = 0xEE
        assert f.read_at(0, 256) == RAW

    def test_memory_sink_copies_a_memoryview(self):
        src = np.frombuffer(RAW, dtype=np.uint8).copy()
        sink = MemorySink()
        sink.write_at(0, memoryview(src)[:128])
        sink.append(memoryview(src)[128:])
        src[:] = 0xEE
        assert sink.getvalue() == RAW

    def test_reads_do_not_alias_the_store(self):
        f = _file()
        f.write_at(0, RAW)
        out = f.read_at(0, 256)
        f.write_at(0, bytes(256))
        assert isinstance(out, bytes) and out == RAW


# -- PFSFile.write_at: append, gap, overwrite, sparse -------------------------------


class _ZeroFillFirstFile:
    """The write path this change replaced, kept as the reference:
    zero-fill up to the end of the write, then overwrite the range."""

    def __init__(self):
        self.data = bytearray()
        self.size = 0

    def write_at(self, offset, data, nbytes=None):
        if data is None:
            self.size = max(self.size, offset + nbytes)
            return
        end = offset + len(data)
        if end > len(self.data):
            self.data.extend(b"\x00" * (end - len(self.data)))
        self.data[offset:end] = data
        self.size = max(self.size, end)

    def read_all(self):
        return bytes(self.data) + bytes(self.size - len(self.data))


def _same_as_reference(writes):
    f, ref = _file(), _ZeroFillFirstFile()
    for offset, data, nbytes in writes:
        f.write_at(offset, data, nbytes)
        ref.write_at(offset, data, nbytes)
        assert (f.size, f.stored_bytes) == (ref.size, len(ref.data))
        assert f.read_all() == ref.read_all()
    return f


class TestWriteAtCases:
    def test_in_order_appends(self):
        f = _same_as_reference([(i * 64, RAW[i * 64:(i + 1) * 64], None) for i in range(4)])
        assert f.read_all() == RAW

    def test_high_offset_first_then_the_gap_is_filled(self):
        f = _same_as_reference([
            (192, RAW[192:], None),   # gap [0, 192) zero-filled
            (64, RAW[64:128], None),  # inside the stored range
            (0, RAW[:64], None),
            (128, RAW[128:192], None),
        ])
        assert f.read_all() == RAW

    def test_overwrite_inside_and_across_the_stored_end(self):
        _same_as_reference([
            (0, b"a" * 100, None),
            (10, b"b" * 20, None),    # wholly inside
            (90, b"c" * 30, None),    # straddles the stored end
            (120, b"d" * 5, None),    # exactly at the stored end
            (0, b"", None),           # empty payload
        ])

    def test_sparse_tail_and_data_after_it(self):
        f = _same_as_reference([
            (0, b"head", None),
            (4, None, 1000),          # sparse: size grows, nothing stored
            (2000, b"tail", None),    # data past the sparse span
            (8, None, 4),             # sparse write inside the stored range
        ])
        assert f.read_at(1000, 8) == bytes(8)

    def test_seeded_random_sequences(self):
        rng = np.random.default_rng(20260806)
        for _ in range(25):
            writes = []
            for _ in range(12):
                offset = int(rng.integers(0, 300))
                n = int(rng.integers(0, 80))
                if rng.random() < 0.2:
                    writes.append((offset, None, n))
                else:
                    writes.append((offset, rng.bytes(n), None))
            _same_as_reference(writes)
