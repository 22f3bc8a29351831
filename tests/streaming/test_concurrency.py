"""Randomized byte-identity of the two parstream paths.

Whichever path runs — the bulk path (at most P coalesced calls) or the
per-piece loop (one call per piece, forced here on data arrays with the
``on_path`` fixture) — parallel stream-out produces exactly the bytes
of serial stream-out (P = 1 into a sequential channel), and parallel
stream-in reconstructs exactly the
global content, because every piece's bytes and offset are fixed by
the plan before any call is issued.

The quick matrix runs in tier-1; the ``verify``-marked sweep widens
seeds and P for the differential harness run (``make verify-reconfig``).
"""

import random

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.pfs.piofs import PIOFS
from repro.streaming.parallel import stream_in_parallel, stream_out_parallel
from repro.streaming.partition import partition_for_target, piece_offsets
from repro.streaming.streams import MemorySink, MemorySource, PFSSink, PFSSource
from repro.streaming.vectorized import gather_section_flat
from repro.verify.gen import random_distribution, random_shape


def _random_array(seed: int, ntasks: int) -> DistributedArray:
    rng = random.Random(seed)
    shape = random_shape(rng)
    dist = random_distribution(rng, shape, ntasks)
    a = DistributedArray(f"S{seed}", tuple(shape), np.float64, dist)
    a.set_global(
        np.arange(1.0, 1.0 + float(np.prod(shape))).reshape(shape)
    )
    return a


def _roundtrip(on_path, seed: int, ntasks: int, P: int, target: int) -> None:
    a = _random_array(seed, ntasks)
    ref = MemorySink(seekable=False)
    stream_out_parallel(a, ref, P=1, target_bytes=target)
    want = ref.getvalue()

    bulk = MemorySink()
    st = stream_out_parallel(a, bulk, P=P, target_bytes=target)
    assert bulk.getvalue() == want
    assert st.bytes_streamed == len(want)

    per_piece = PIOFS()
    with on_path("per-piece"):
        stream_out_parallel(a, PFSSink(per_piece, "f"), P=P, target_bytes=target)
    assert per_piece.open("f").read_all() == want

    # read back into a different random distribution (which may be a
    # legitimately partial INDEXED one) on both paths and serially: the
    # restored arrays must agree exactly, and must match the source
    # everywhere the target distribution defines an element
    b_dist = random_distribution(random.Random(seed + 9001), list(a.shape), ntasks)
    b_ser = DistributedArray("Bs", a.shape, np.float64, b_dist)
    stream_in_parallel(b_ser, MemorySource(want), P=1, target_bytes=target)
    for path, source in (
        ("bulk", MemorySource(want)), ("per-piece", PFSSource(per_piece, "f"))
    ):
        b_par = DistributedArray("Bp", a.shape, np.float64, b_dist)
        with on_path(path):
            stream_in_parallel(b_par, source, P=P, target_bytes=target)
        np.testing.assert_array_equal(
            b_par.to_global(fill=0), b_ser.to_global(fill=0)
        )
    mask = b_par.defined_mask()
    np.testing.assert_array_equal(
        b_par.to_global(fill=0)[mask], a.to_global(fill=0)[mask]
    )


class TestConcurrentParstream:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("P", [2, 3])
    def test_quick_matrix(self, seed, P, on_path):
        _roundtrip(on_path, seed, ntasks=4, P=P, target=128)

    def test_many_small_pieces(self, on_path):
        _roundtrip(on_path, seed=11, ntasks=6, P=5, target=32)

    @pytest.mark.parametrize("seed", [21, 22, 23, 24, 25, 26])
    @pytest.mark.parametrize("P", [2, 4, 6])
    @pytest.mark.parametrize("target", [64, 256])
    @pytest.mark.verify
    def test_wide_sweep(self, seed, P, target, on_path):
        _roundtrip(on_path, seed, ntasks=6, P=P, target=target)


class TestRandomizedPieceOrdering:
    """Writing pieces at their precomputed offsets in *any* order must
    reproduce the serial stream — the invariant that lets the bulk path
    coalesce pieces and the per-piece loop issue them one by one."""

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_shuffled_manual_writes(self, seed):
        a = _random_array(seed, ntasks=4)
        target = 96
        ref = MemorySink(seekable=False)
        stream_out_parallel(a, ref, P=1, target_bytes=target)

        from repro.arrays.slices import Slice

        section = Slice.full(a.shape)
        pieces = partition_for_target(section, a.itemsize, target_bytes=target)
        offsets = piece_offsets(pieces, a.itemsize)
        jobs = [(j, p) for j, p in enumerate(pieces) if not p.is_empty]
        random.Random(seed * 7).shuffle(jobs)
        sink = MemorySink()
        for j, piece in jobs:
            sink.write_at(offsets[j], gather_section_flat(a, piece).tobytes())
        assert sink.getvalue() == ref.getvalue()
