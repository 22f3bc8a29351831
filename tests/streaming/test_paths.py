"""Which parstream path runs is chosen by what the call observes.

* the **bulk** path — a data-bearing array, whether or not a fault
  injector is attached — issues at most P calls per array, one per
  coalesced stream-contiguous run, with clients ``0..len(runs)-1``;
* the **per-piece** path — a virtual array, or a data array forced
  through the ``_is_bulk`` seam — issues one call per nonempty piece,
  in ``j`` order, with ``client = j % P``.

Serial streaming is the ``P = 1`` case, not a path of its own.
"""

import pathlib
import re

import numpy as np
import pytest

from repro import streaming
from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.arrays.slices import Slice
from repro.pfs.faults import FaultInjector
from repro.pfs.piofs import PIOFS
from repro.streaming.parallel import stream_in_parallel, stream_out_parallel
from repro.streaming.partition import partition_for_target, piece_offsets
from repro.streaming.streams import PFSSink, PFSSource

SHAPE = (24, 10)
P = 3
TARGET = 64  # many pieces per I/O task


class RecordingSink(PFSSink):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def write_at(self, offset, data, nbytes=None, client=0):
        n = nbytes if nbytes is not None else len(data)
        self.calls.append((offset, n, client))
        super().write_at(offset, data, nbytes=nbytes, client=client)


class RecordingSource(PFSSource):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def read_at(self, offset, nbytes, client=0):
        self.calls.append((offset, nbytes, client))
        return super().read_at(offset, nbytes, client=client)


def _array(virtual=False):
    a = DistributedArray(
        "A", SHAPE, np.float64, block_distribution(SHAPE, 4),
        store_data=not virtual,
    )
    if not virtual:
        a.set_global(np.arange(float(np.prod(SHAPE))).reshape(SHAPE))
    return a


def _pfs(armed):
    pfs = PIOFS()
    if armed:
        pfs.attach_faults(FaultInjector())  # armed, but plans nothing
    return pfs


def _per_piece_calls(a):
    pieces = partition_for_target(
        Slice.full(a.shape), a.itemsize, target_bytes=TARGET, min_pieces=P
    )
    offsets = piece_offsets(pieces, a.itemsize)
    return [
        (offsets[j], piece.size * a.itemsize, j % P)
        for j, piece in enumerate(pieces)
        if not piece.is_empty
    ]


def _round_trip(a, pfs):
    """Stream ``a`` out and back in over ``pfs``; the recorded calls."""
    sink = RecordingSink(pfs, "f", virtual=not a.store_data)
    stream_out_parallel(a, sink, P=P, target_bytes=TARGET)
    source = RecordingSource(pfs, "f")
    back = a.redistributed(a.distribution)
    stream_in_parallel(back, source, P=P, target_bytes=TARGET)
    return sink.calls, source.calls


def test_bulk_path_issues_at_most_p_coalesced_calls():
    a = _array()
    for armed in (False, True):  # an attached fault injector changes nothing
        for calls in _round_trip(a, _pfs(armed)):
            assert 1 <= len(calls) <= P
            assert [c for _, _, c in calls] == list(range(len(calls)))
            # the runs tile the stream in order
            ends = [0] + [off + n for off, n, _ in calls]
            assert [off for off, _, _ in calls] == ends[:-1]
            assert ends[-1] == a.size * a.itemsize
    assert len(_per_piece_calls(a)) > P  # coalescing did something


@pytest.mark.parametrize(
    "virtual, armed", [(False, True), (True, False)], ids=["armed", "virtual"]
)
def test_per_piece_path_issues_one_call_per_piece_in_order(
    virtual, armed, on_path
):
    """A virtual array takes the per-piece loop; a data array, here on
    a PIOFS with an (empty) fault injector armed, is forced onto it."""
    a = _array(virtual=virtual)
    want = _per_piece_calls(a)
    with on_path("per-piece"):
        calls = _round_trip(a, _pfs(armed))
    for got in calls:
        assert got == want


SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def test_serial_streaming_is_parstream_with_one_io_task():
    """One streaming engine and one write call: no module defines a
    serial engine beside parstream, no sink or file system offers an
    ``append`` beside ``write_at``, and ``repro.streaming`` exports
    no serial engine."""
    engines = re.compile(r"def stream_(?:out|in)_serial\(")
    appends = re.compile(r"def append\(")
    sinks = {SRC / "streaming" / "streams.py", *(SRC / "pfs").glob("*.py")}
    found = [
        (str(path.relative_to(SRC)), n)
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if engines.search(line) or (path in sinks and appends.search(line))
    ]
    assert found == []
    assert [n for n in streaming.__all__ if "serial" in n] == []
