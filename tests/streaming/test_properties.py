"""Property-based streaming invariants: the distribution-independence
theorems behind reconfigurable checkpointing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.arrays.slices import Slice
from repro.streaming.parallel import stream_in_parallel, stream_out_parallel
from repro.streaming.partition import partition, piece_offsets
from repro.streaming.streams import MemorySink, MemorySource


shapes = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 6))


@given(
    shapes,
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from(["F", "C"]),
)
@settings(max_examples=40, deadline=None)
def test_stream_roundtrip_any_distributions(shape, t1, t2, m, order):
    """stream_out at t1 tasks + stream_in at t2 tasks == identity, for
    any shapes, task counts, piece counts, and orders."""
    n = int(np.prod(shape))
    g = np.arange(n, dtype=np.float64).reshape(shape)
    a = DistributedArray("a", shape, np.float64, block_distribution(shape, t1))
    a.set_global(g)
    sink = MemorySink()
    target = max(8, n * 8 // m)
    stream_out_parallel(a, sink, P=min(t1, m), target_bytes=target, order=order)
    b = DistributedArray("b", shape, np.float64, block_distribution(shape, t2, shadow=(1, 0, 1)))
    stream_in_parallel(b, MemorySource(sink.getvalue()), target_bytes=target, order=order)
    assert np.array_equal(b.to_global(), g)
    assert b.is_consistent()


@given(shapes, st.integers(1, 6), st.sampled_from([2, 4, 8, 16]))
@settings(max_examples=40, deadline=None)
def test_parallel_equals_serial_bytes(shape, ntasks, m):
    """Serial streaming (P = 1, into a sequential channel) and parallel
    streaming (P = ntasks) both write the numpy reference stream."""
    n = int(np.prod(shape))
    g = np.arange(n, dtype=np.float64).reshape(shape)
    a = DistributedArray("a", shape, np.float64, block_distribution(shape, ntasks))
    a.set_global(g)
    s1, s2 = MemorySink(seekable=False), MemorySink()
    target = max(8, n * 8 // m)
    stream_out_parallel(a, s1, P=1, target_bytes=target)
    stream_out_parallel(a, s2, P=ntasks, target_bytes=target)
    assert s1.getvalue() == s2.getvalue() == g.flatten(order="F").tobytes()


@given(shapes, st.sampled_from([1, 2, 4, 8, 16, 32]), st.sampled_from(["F", "C"]))
@settings(max_examples=60, deadline=None)
def test_partition_preserves_stream_order(shape, m, order):
    s = Slice.full(shape)
    pieces = partition(s, m, order)
    got = [
        tuple(p)
        for piece in pieces
        if not piece.is_empty
        for p in piece.enumerate_stream(order).tolist()
    ]
    assert got == [tuple(p) for p in s.enumerate_stream(order).tolist()]
    # offsets are exactly the prefix sums of sizes
    offs = piece_offsets(pieces, 8)
    acc = 0
    for piece, off in zip(pieces, offs):
        assert off == acc
        acc += piece.size * 8
