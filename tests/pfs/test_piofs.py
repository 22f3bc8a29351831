"""Unit tests for the PIOFS namespace and phase accounting."""

import pytest

from repro.errors import PFSError
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams


@pytest.fixture
def fs():
    return PIOFS(machine=Machine(MachineParams(num_nodes=16)))


class TestNamespace:
    def test_create_open_roundtrip(self, fs):
        fs.create("a")
        assert fs.exists("a")
        assert fs.open("a").size == 0

    def test_open_missing(self, fs):
        with pytest.raises(PFSError):
            fs.open("nope")

    def test_create_no_overwrite(self, fs):
        fs.create("a")
        with pytest.raises(PFSError):
            fs.create("a", overwrite=False)

    def test_unlink(self, fs):
        fs.create("a")
        fs.unlink("a")
        assert not fs.exists("a")
        with pytest.raises(PFSError):
            fs.unlink("a")

    def test_listdir_prefix(self, fs):
        for n in ("ck.1", "ck.2", "other"):
            fs.create(n)
        assert fs.listdir("ck.") == ["ck.1", "ck.2"]

    def test_total_bytes(self, fs):
        fs.create("ck.a")
        fs.write_at("ck.a", 0, b"xxxx")
        fs.create("ck.b")
        fs.write_at("ck.b", 0, None, nbytes=100)
        assert fs.total_bytes("ck.") == 104


class TestIO:
    def test_write_read(self, fs):
        fs.create("f")
        fs.write_at("f", 0, b"data")
        assert fs.read_at("f", 0, 4) == b"data"

    def test_append(self, fs):
        """A sequential writer passes the file's end as the offset."""
        fs.create("f")
        fs.write_at("f", fs.file_size("f"), b"ab")
        fs.write_at("f", fs.file_size("f"), b"cd")
        assert fs.read_at("f", 0, 4) == b"abcd"

    def test_io_on_missing_file(self, fs):
        with pytest.raises(PFSError):
            fs.write_at("ghost", 0, b"x")
        with pytest.raises(PFSError):
            fs.read_at("ghost", 0, 1)


class TestPhases:
    def test_phase_collects_and_times(self, fs):
        fs.machine.place_tasks(8)
        fs.create("f")
        fs.begin_phase(IOKind.WRITE_SERIAL)
        fs.write_at("f", 0, None, nbytes=int(10e6), client=0)
        res = fs.end_phase()
        assert res.total_bytes == int(10e6)
        assert res.clients == {0}
        assert res.seconds > 0
        assert fs.phase_log[-1] is res

    def test_phases_do_not_nest(self, fs):
        fs.begin_phase(IOKind.WRITE_SERIAL)
        with pytest.raises(PFSError):
            fs.begin_phase(IOKind.READ_SHARED)
        fs.end_phase()

    def test_end_without_begin(self, fs):
        with pytest.raises(PFSError):
            fs.end_phase()

    def test_untimed_io_outside_phase(self, fs):
        fs.create("f")
        fs.write_at("f", 0, b"free")  # no phase open: no accounting
        assert fs.phase_log == []

    def test_server_byte_accounting(self, fs):
        fs.create("f")
        fs.begin_phase(IOKind.WRITE_PARALLEL)
        fs.write_at("f", 0, None, nbytes=fs.params.stripe_kb * 1024 * 16, client=0)
        res = fs.end_phase()
        # one full round of stripes across all 16 servers
        assert len(res.server_bytes) == 16
        assert len(set(res.server_bytes.values())) == 1

    def test_read_virtual_accounts_without_data(self, fs):
        fs.create("f")
        fs.write_at("f", 0, b"abcd")
        fs.begin_phase(IOKind.READ_SHARED)
        fs.read_virtual("f", 0, 4, client=3)
        res = fs.end_phase()
        assert res.total_bytes == 4
        assert res.clients == {3}

    def test_busy_nodes_affect_timing(self, fs):
        fs.create("f")

        def solve():
            fs.begin_phase(IOKind.WRITE_SERIAL)
            fs.write_at("f", 0, None, nbytes=int(50e6), client=0)
            return fs.end_phase().seconds

        fs.machine.clear_tasks()
        fs.machine.place_tasks(8)
        t8 = solve()
        fs.machine.clear_tasks()
        fs.machine.place_tasks(16)
        t16 = solve()
        assert t16 > t8
