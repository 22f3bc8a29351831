"""Unit tests for the MPI-like communicator, run via the SPMD engine."""

import numpy as np
import pytest

from repro.errors import CommunicationError, DeadlockError
from repro.runtime.comm import CommWorld
from repro.runtime.executor import run_spmd
from repro.runtime.message import ANY_SOURCE, payload_nbytes


class TestPayloadSizing:
    def test_numpy_exact(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes_exact(self):
        assert payload_nbytes(b"abc") == 3

    def test_none_free(self):
        assert payload_nbytes(None) == 0

    def test_objects_pickled(self):
        assert payload_nbytes({"a": 1}) > 0


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"x": 42}, dest=1, tag=3)
                return None
            if comm.rank == 1:
                return comm.recv(source=0, tag=3)

        res = run_spmd(prog, 2)
        assert res.returns[1] == {"x": 42}

    def test_numpy_payload_copied(self):
        def prog(comm):
            if comm.rank == 0:
                a = np.ones(4)
                comm.send(a, dest=1)
                a[:] = -1  # must not corrupt the in-flight message
            else:
                got = comm.recv(source=0)
                return float(got.sum())

        res = run_spmd(prog, 2)
        assert res.returns[1] == 4.0

    def test_tag_matching_out_of_order(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
            else:
                b = comm.recv(source=0, tag=2)
                a = comm.recv(source=0, tag=1)
                return (a, b)

        res = run_spmd(prog, 2)
        assert res.returns[1] == ("first", "second")

    def test_any_source(self):
        def prog(comm):
            if comm.rank == 0:
                got = {comm.recv(source=ANY_SOURCE) for _ in range(2)}
                return got
            comm.send(comm.rank, dest=0)

        res = run_spmd(prog, 3)
        assert res.returns[0] == {1, 2}

    def test_mutual_recv_reports_deadlock_at_once(self):
        """Two ranks that each wait for the other deadlock: the run
        raises at once, naming both waiters and what they waited for."""
        import time

        def prog(comm):
            comm.recv(source=1 - comm.rank)

        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as err:
            run_spmd(prog, 2)
        assert time.monotonic() - t0 < 1.0
        assert "0 waits for rank 0 recv(src=1" in str(err.value)
        assert "1 waits for rank 1 recv(src=0" in str(err.value)

    def test_recv_from_a_finished_rank_reports_deadlock(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1)

        with pytest.raises(CommunicationError, match="deadlock.*rank 0 recv"):
            run_spmd(prog, 2)

    def test_send_to_unknown_rank(self):
        def prog(comm):
            comm.send(1, dest=99)

        with pytest.raises(CommunicationError):
            run_spmd(prog, 2)

    def test_probe(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=5)
                comm.barrier()
            else:
                comm.barrier()
                assert comm.probe(source=0, tag=5)
                assert not comm.probe(source=0, tag=6)
                comm.recv(source=0, tag=5)

        run_spmd(prog, 2)


class TestCollectives:
    @pytest.mark.parametrize("nt", [1, 2, 5, 8])
    def test_bcast(self, nt):
        def prog(comm):
            data = {"v": 7} if comm.rank == 0 else None
            return comm.bcast(data)["v"]

        assert run_spmd(prog, nt).returns == [7] * nt

    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.rank ** 2, root=1)

        res = run_spmd(prog, 4)
        assert res.returns[1] == [0, 1, 4, 9]
        assert res.returns[0] is None

    def test_scatter(self):
        def prog(comm):
            objs = [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(objs)

        assert run_spmd(prog, 3).returns == ["item0", "item1", "item2"]

    def test_scatter_requires_size_match(self):
        def prog(comm):
            comm.scatter([1], root=0)

        with pytest.raises(CommunicationError):
            run_spmd(prog, 2)

    def test_allgather(self):
        def prog(comm):
            return comm.allgather(comm.rank)

        assert run_spmd(prog, 4).returns == [[0, 1, 2, 3]] * 4

    def test_alltoall(self):
        def prog(comm):
            out = comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])
            return out

        res = run_spmd(prog, 3)
        assert res.returns[1] == ["0->1", "1->1", "2->1"]

    def test_reduce_and_allreduce(self):
        def prog(comm):
            total = comm.allreduce(np.array([comm.rank, 1.0]))
            mx = comm.allreduce(comm.rank, op=max)
            return float(total[0]), float(total[1]), mx

        res = run_spmd(prog, 5)
        assert all(r == (10.0, 5.0, 4) for r in res.returns)

    def test_collective_sequences_do_not_cross(self):
        """Back-to-back collectives with mixed payloads stay matched."""

        def prog(comm):
            a = comm.bcast(comm.rank if comm.rank == 0 else None, root=0)
            b = comm.allgather(comm.rank)
            c = comm.bcast("done" if comm.rank == 0 else None, root=0)
            return (a, tuple(b), c)

        res = run_spmd(prog, 6)
        assert all(r == (0, (0, 1, 2, 3, 4, 5), "done") for r in res.returns)


class TestClocks:
    def test_barrier_synchronizes_clocks(self):
        def prog(comm):
            comm.compute(0.1 * (comm.rank + 1))
            comm.barrier()
            return comm.clock.now

        res = run_spmd(prog, 4)
        assert len(set(res.returns)) == 1
        assert res.returns[0] >= 0.4

    def test_message_cost_advances_receiver(self):
        def prog(comm):
            if comm.rank == 0:
                comm.compute(1.0)
                comm.send(np.zeros(1000), dest=1)
                return comm.clock.now
            got = comm.recv(source=0)
            return comm.clock.now

        res = run_spmd(prog, 2)
        assert res.returns[1] >= res.returns[0] >= 1.0

    def test_transfer_cost_formula(self):
        w = CommWorld(2)
        p = w.machine.params
        expect = p.link_latency_s + 1000 / (p.link_bandwidth_mbps * 1e6)
        assert w.transfer_cost(1000) == pytest.approx(expect)

    def test_byte_ledger(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.uint8), dest=1)
            else:
                comm.recv(source=0)

        res = run_spmd(prog, 2)
        assert res.world.total_bytes == 100
        assert res.world.total_messages == 1
        assert res.world.bytes_sent[0] == 100
