"""Strict gather: undefined elements raise instead of streaming zeros."""

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Distribution, Indexed
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.errors import StreamingError
from repro.streaming.parallel import stream_out_parallel
from repro.drms.steering import steer_read
from repro.streaming.serial import strict_gather
from repro.streaming.streams import MemorySink
from repro.streaming.vectorized import gather_section_flat


@pytest.fixture
def holey():
    """A 1-D array whose INDEXED distribution leaves elements 3, 4, 7
    owned by no task (a legitimate sparse coverage per the paper)."""
    d = Distribution((8,), [Indexed([Range([0, 1, 2]), Range([5, 6])])], ntasks=2)
    a = DistributedArray("H", (8,), np.float64, d)
    a.set_global(np.arange(1.0, 9.0))
    return a


class TestStrictGather:
    def test_default_zero_fills_holes(self, holey):
        buf = gather_section_flat(holey, Slice.full((8,)))
        assert buf.tolist() == [1.0, 2.0, 3.0, 0.0, 0.0, 6.0, 7.0, 0.0]

    def test_strict_raises_on_hole(self, holey):
        with pytest.raises(StreamingError, match="undefined element"):
            gather_section_flat(holey, Slice.full((8,)), strict=True)

    def test_strict_passes_on_covered_piece(self, holey):
        piece = Slice([Range([0, 1, 2])])
        buf = gather_section_flat(holey, piece, strict=True)
        assert buf.tolist() == [1.0, 2.0, 3.0]

    def test_context_manager_scopes_default(self, holey):
        with strict_gather():
            with pytest.raises(StreamingError):
                steer_read(holey)
        # restored on exit
        assert steer_read(holey).tolist() == [1.0, 2.0, 3.0, 0.0, 0.0, 6.0, 7.0, 0.0]

    def test_stream_out_serial_under_strict(self, holey):
        with strict_gather():
            with pytest.raises(StreamingError):
                stream_out_parallel(holey, MemorySink(), P=1, target_bytes=16)
        # without strictness the stream is well-formed (holes as zeros)
        sink = MemorySink(seekable=False)
        stream_out_parallel(holey, sink, P=1, target_bytes=16)
        want = np.array([1.0, 2, 3, 0, 0, 6, 7, 0]).tobytes()
        assert sink.getvalue() == want

    def test_fully_defined_array_unaffected(self):
        from repro.arrays.distributions import block_distribution

        d = block_distribution((6, 4), 3)
        a = DistributedArray("F", (6, 4), np.float64, d)
        a.set_global(np.arange(24.0).reshape(6, 4))
        with strict_gather():
            sink = MemorySink(seekable=False)
            stream_out_parallel(a, sink, P=1, target_bytes=32)
        assert sink.getvalue() == np.arange(24.0).reshape(6, 4).flatten("F").tobytes()
