"""Tests for the I/O fault-injection harness (repro.pfs.faults)."""

import pytest

from repro.errors import IOFaultError, PFSError
from repro.pfs.faults import FaultInjector, ReadFault, WriteFault, flip_stored_bit
from repro.pfs.piofs import PIOFS


@pytest.fixture
def pfs():
    fs = PIOFS()
    fs.create("a")
    fs.create("b")
    return fs


def armed(fs):
    inj = FaultInjector()
    fs.attach_faults(inj)
    return inj


class TestWriteFaults:
    def test_fail_mode_writes_nothing(self, pfs):
        inj = armed(pfs)
        inj.fail_write(match="a", offset=0, mode="fail")
        with pytest.raises(IOFaultError):
            pfs.write_at("a", 0, b"payload")
        assert pfs.file_size("a") == 0
        assert inj.log == [("write", "a", "fail")]

    def test_torn_write_keeps_prefix_and_raises(self, pfs):
        inj = armed(pfs)
        inj.fail_write(match="a", offset=3, mode="torn")
        with pytest.raises(IOFaultError):
            pfs.write_at("a", 0, b"abcdef")
        assert pfs.file_size("a") == 3
        assert pfs.read_at("a", 0, 3) == b"abc"

    def test_short_write_is_silent(self, pfs):
        inj = armed(pfs)
        inj.fail_write(match="a", offset=2, mode="short")
        n = pfs.write_at("a", 0, b"abcdef")
        assert n == 2
        assert pfs.file_size("a") == 2

    def test_write_keeps_its_bytes_below_the_offset(self, pfs):
        inj = armed(pfs)
        plan = inj.fail_write(offset=6, mode="short")
        pfs.write_at("a", 0, b"abcd")  # bytes 0..3: the plan waits
        assert pfs.write_at("a", 4, b"efgh") == 2  # covers byte 6
        assert pfs.read_at("a", 0, 6) == b"abcdef"
        assert (plan.intended, plan.kept) == (4, 2)

    def test_fires_only_on_a_matching_file(self, pfs):
        inj = armed(pfs)
        inj.fail_write(match="b", offset=1, mode="fail")
        pfs.write_at("a", 0, b"xy")  # covers byte 1, does not match
        pfs.write_at("b", 0, b"x")  # matches, does not cover byte 1
        with pytest.raises(IOFaultError):
            pfs.write_at("b", 1, b"x")  # fires
        assert inj.pending == 0

    def test_fires_at_most_once(self, pfs):
        inj = armed(pfs)
        inj.fail_write(match="a", offset=0, mode="fail")
        with pytest.raises(IOFaultError):
            pfs.write_at("a", 0, b"x")
        pfs.write_at("a", 0, b"x")  # disarmed
        assert pfs.file_size("a") == 1

    def test_append_also_hooked(self, pfs):
        inj = armed(pfs)
        inj.fail_write(match="a", offset=1, mode="short")
        assert pfs.append("a", b"xyz") == 1
        assert pfs.file_size("a") == 1

    def test_bad_mode_rejected(self):
        with pytest.raises(PFSError):
            WriteFault(mode="corrupt")
        with pytest.raises(PFSError):
            WriteFault(offset=-1)

    def test_content_free_write_can_be_shortened(self, pfs):
        inj = armed(pfs)
        inj.fail_write(match="a", offset=10, mode="short")
        assert pfs.write_at("a", 0, None, nbytes=100) == 10
        assert pfs.file_size("a") == 10


class TestReadFaults:
    def test_bit_flip_on_the_read_returning_the_byte(self, pfs):
        pfs.write_at("a", 0, b"\x00\x00\x00")
        inj = armed(pfs)
        inj.flip_read(match="a", offset=1, bit=3)
        assert pfs.read_at("a", 2, 1) == b"\x00"  # misses byte 1: clean
        assert pfs.read_at("a", 0, 3) == b"\x00\x08\x00"  # corrupted
        assert pfs.read_at("a", 0, 3) == b"\x00\x00\x00"  # disarmed
        assert pfs.read_at("a", 1, 1) == b"\x00"  # store untouched

    def test_flip_lands_on_the_stored_offset_in_the_buffer(self, pfs):
        pfs.write_at("a", 0, b"\x00\x00\x00\x00")
        inj = armed(pfs)
        inj.flip_read(match="a", offset=3, bit=0)
        assert pfs.read_at("a", 2, 2) == b"\x00\x01"
        assert inj.log == [("read", "a", "bit 0 of byte 3 flipped")]

    def test_validation(self):
        with pytest.raises(PFSError):
            ReadFault(bit=8)
        with pytest.raises(PFSError):
            ReadFault(offset=-1)


class TestPersistentCorruption:
    def test_flip_stored_bit(self, pfs):
        pfs.write_at("a", 0, b"\x00\x00")
        flip_stored_bit(pfs, "a", 1, bit=7)
        assert pfs.read_at("a", 0, 2) == b"\x00\x80"
        flip_stored_bit(pfs, "a", 1, bit=7)  # flip back
        assert pfs.read_at("a", 0, 2) == b"\x00\x00"

    def test_virtual_file_rejected(self, pfs):
        pfs.create("v", virtual=True)
        pfs.write_at("v", 0, None, nbytes=10)
        with pytest.raises(PFSError):
            flip_stored_bit(pfs, "v", 0)

    def test_offset_past_content_rejected(self, pfs):
        pfs.write_at("a", 0, b"ab")
        with pytest.raises(PFSError):
            flip_stored_bit(pfs, "a", 5)


class TestRename:
    def test_rename_moves_content(self, pfs):
        pfs.write_at("a", 0, b"data")
        pfs.rename("a", "c")
        assert not pfs.exists("a")
        assert pfs.read_at("c", 0, 4) == b"data"

    def test_rename_replaces_destination(self, pfs):
        pfs.write_at("a", 0, b"new")
        pfs.write_at("b", 0, b"old-old")
        pfs.rename("a", "b")
        assert pfs.file_size("b") == 3
        assert pfs.read_at("b", 0, 3) == b"new"

    def test_rename_missing_source(self, pfs):
        with pytest.raises(PFSError):
            pfs.rename("nope", "x")


def test_detach_restores_health(pfs):
    inj = armed(pfs)
    inj.fail_write(mode="fail")
    pfs.attach_faults(None)
    pfs.write_at("a", 0, b"fine")
    assert pfs.file_size("a") == 4
