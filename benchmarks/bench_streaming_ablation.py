"""Ablations of the Section 3.2 streaming design choices.

1. I/O parallelism P: 'parstream can be executed for any value of P up
   to the task count'; serial streaming (P=1) works on sequential
   channels but leaves the parallel file system idle.
2. Piece size m: DRMS picks ~1 MB pieces, balancing per-operation
   overhead (too many small pieces) against parallelism and buffer
   memory (too few large pieces).
3. Parallel streaming needs a seekable target: against the SerialFS
   (socket/tape-like) only serial streaming is legal.

Also times the *real* data path (pytest-benchmark wall clock) on a
small array to keep the streaming engine itself honest.
"""

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.errors import StreamingError
from repro.pfs.localfs import SerialFS
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.reporting.tables import Table
from repro.streaming.parallel import stream_out_parallel
from repro.streaming.streams import MemorySink, PFSSink
from repro.runtime.machine import Machine, MachineParams


def timed_write(pes: int, io_tasks: int, nbytes: int, target: int = 1 << 20):
    """Simulated seconds to stream one array of `nbytes` with io_tasks
    writers on a pes-task pool."""
    machine = Machine(MachineParams(num_nodes=16))
    machine.place_tasks(pes)
    pfs = PIOFS(machine=machine)
    side = round((nbytes // 8) ** (1 / 3))
    arr = DistributedArray(
        "u", (side, side, side), np.float64,
        block_distribution((side, side, side), pes), store_data=False,
    )
    sink = PFSSink(pfs, "u", virtual=True)
    pfs.begin_phase(IOKind.WRITE_PARALLEL if io_tasks > 1 else IOKind.WRITE_SERIAL)
    stats = stream_out_parallel(arr, sink, P=io_tasks, target_bytes=target)
    res = pfs.end_phase()
    return res.seconds, stats


def build_p_sweep():
    t = Table(
        ["I/O tasks P", "time (s)", "rate (MB/s)", "pieces"],
        title="Ablation: parallel streaming of one 84 MB array, 16-task pool",
    )
    times = {}
    for P in (1, 2, 4, 8, 16):
        sec, stats = timed_write(16, P, int(84e6))
        times[P] = sec
        t.add_row(P, sec, 84.0 / sec, stats.pieces)
    return t.render(), times


def build_chunk_sweep():
    t = Table(
        ["target piece", "pieces", "time (s)"],
        title="Ablation: piece-size rule (~1 MB in DRMS)",
    )
    times = {}
    for target in (1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24):
        sec, stats = timed_write(16, 16, int(84e6), target=target)
        times[target] = (sec, stats.pieces)
        t.add_row(f"{target >> 10} KB", stats.pieces, sec)
    return t.render(), times


def test_p_sweep(benchmark, report):
    text, times = benchmark(build_p_sweep)
    report("ablation_streaming_p", text)
    # serial streaming is client-injection-bound; parallelism helps
    assert times[16] < times[1]
    # and P=1 must still work (sequential channels)
    assert times[1] > 0


def test_chunk_sweep(benchmark, report):
    text, times = benchmark(build_chunk_sweep)
    report("ablation_streaming_chunk", text)
    # tiny pieces pay per-piece overhead in piece count explosion
    assert times[1 << 16][1] > 64 * times[1 << 24][1] / 8


def test_serial_channel_rejects_parallel(report):
    fs = SerialFS(seekable=False)
    arr = DistributedArray(
        "u", (8, 8), np.float64, block_distribution((8, 8), 4)
    )
    arr.set_global(np.ones((8, 8)))
    with pytest.raises(StreamingError, match="use P=1"):
        stream_out_parallel(arr, MemorySink(seekable=False), P=4)
    # serial streaming (P=1) is fine on the same channel
    sink = MemorySink(seekable=False)
    stream_out_parallel(arr, sink, P=1)
    assert len(sink.getvalue()) == arr.nbytes_global
    report(
        "ablation_serial_channel",
        "Non-seekable sink: parallel streaming rejected, serial streaming OK "
        "(paper: serial streaming works over sockets/tape; parallel needs seek)",
    )


def test_real_data_path_wallclock(benchmark):
    """Wall-clock benchmark of the actual byte-moving engine."""
    g = np.random.default_rng(1).normal(size=(48, 48, 24))
    arr = DistributedArray(
        "u", g.shape, np.float64, block_distribution(g.shape, 8, shadow=(1, 1, 1))
    )
    arr.set_global(g)

    def run():
        sink = MemorySink()
        stream_out_parallel(arr, sink, target_bytes=1 << 16)
        return sink

    sink = benchmark(run)
    assert sink.getvalue() == g.flatten(order="F").tobytes()
