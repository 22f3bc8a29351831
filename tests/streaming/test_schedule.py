"""The parstream schedule changes nothing a stream does.

A bulk parstream used to coalesce its pieces into runs and account each
run's redistribution on every call.  It now looks both up in one
``"parstream"`` plan-cache entry per geometry.  The per-call loop is
kept here, as it was, as the reference (`_coalesced_runs`,
`_reference_runs`).  On seeded random geometries, every call with a
warm cache and every call with no cache (`NullPlanCache`) must match
it: the sink and source calls, `StreamStats`, the redistribution bytes
(also held equal to the scalar slice algebra summed over each run), the
digest and the restored array.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import (
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    GenBlock,
    Indexed,
    Replicated,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.plancache import NullPlanCache, PlanCache, use_plan_cache
from repro.streaming.parallel import stream_in_parallel, stream_out_parallel
from repro.streaming.partition import partition_for_target, piece_offsets
from repro.streaming.serial import StreamStats, _piece_redistribution_bytes
from repro.streaming.streams import MemorySink, MemorySource
from repro.streaming.vectorized import (
    build_section_index_plan,
    range_redistribution_bytes,
)

pytestmark = pytest.mark.streamvec

SEEDS = range(20263300, 20263340)


# -- the frozen reference: the per-call coalescing and accounting ----------


def _coalesced_runs(jobs, itemsize, P):
    """Split the nonempty pieces into at most ``P`` stream-contiguous
    runs of near-equal byte volume — run ``p`` is I/O task ``p``'s
    single bulk transfer."""
    total = sum(piece.size for _, piece in jobs) * itemsize
    target = -(-total // P)  # ceil: every run but the last fills up
    runs = []
    cur = []
    cur_bytes = 0
    for j, piece in jobs:
        cur.append((j, piece))
        cur_bytes += piece.size * itemsize
        if cur_bytes >= target and len(runs) < P - 1:
            runs.append(cur)
            cur = []
            cur_bytes = 0
    if cur:
        runs.append(cur)
    return runs


def _reference_runs(darray, section, P, order, target_bytes):
    """``(calls, StreamStats without digest)`` of one bulk parstream, as
    the loop computed them: per run ``(start, nbytes, client)``, and the
    redistribution bytes, each checked against the slice algebra."""
    itemsize = darray.itemsize
    pieces = partition_for_target(
        section, itemsize, target_bytes=target_bytes, min_pieces=P, order=order
    )
    offsets = piece_offsets(pieces, itemsize)
    plan_idx = build_section_index_plan(darray.distribution, section, order)
    jobs = [(j, piece) for j, piece in enumerate(pieces) if not piece.is_empty]
    calls, redis = [], 0
    for p, run in enumerate(_coalesced_runs(jobs, itemsize, P)):
        start = offsets[run[0][0]]
        nbytes = sum(piece.size for _, piece in run) * itemsize
        moved = range_redistribution_bytes(
            plan_idx, start // itemsize, (start + nbytes) // itemsize,
            p, itemsize,
        )
        assert moved == sum(
            _piece_redistribution_bytes(darray, piece, p) for _, piece in run
        )
        calls.append((start, nbytes, p))
        redis += moved
    stats = StreamStats(
        pieces=len(jobs),
        bytes_streamed=sum(n for _, n, _ in calls),
        redistribution_bytes=redis,
        io_tasks=P,
    )
    return calls, stats


def _span_sha1(stream, span):
    """The stream digest and its span digests, computed independently
    of the library."""
    starts = range(0, max(len(stream), 1), span)
    spans = [hashlib.sha1(stream[o:o + span]).digest() for o in starts]
    return hashlib.sha1(b"".join(spans)).hexdigest(), [d.hex() for d in spans]


# -- seeded geometry ------------------------------------------------------------


def _axis(rng, extent, nprocs):
    """One axis kind legal for ``nprocs`` grid coordinates: BLOCK,
    CYCLIC, CYCLIC(k), GenBlock, Indexed (holes allowed), replicated."""
    kinds = ["block", "cyclic", "cyclic_k", "genblock", "indexed"]
    if nprocs == 1:
        kinds.append("replicated")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "block":
        return Block()
    if kind == "cyclic":
        return Cyclic()
    if kind == "cyclic_k":
        return BlockCyclic(int(rng.integers(1, 4)))
    if kind == "replicated":
        return Replicated()
    if kind == "genblock":
        cuts = sorted(rng.integers(0, extent + 1, size=nprocs - 1).tolist())
        bounds = [0] + cuts + [extent]
        return GenBlock([b - a for a, b in zip(bounds, bounds[1:])])
    owner = rng.integers(-1, nprocs, size=extent)
    return Indexed([Range(np.flatnonzero(owner == c).tolist()) for c in range(nprocs)])


def _distribution(rng, shape):
    grid = []
    for _ in shape:
        room = 8 // math.prod(grid) if grid else 8
        grid.append(int(rng.integers(1, min(3, room) + 1)))
    axes = [_axis(rng, n, g) for n, g in zip(shape, grid)]
    shadow = tuple(int(rng.integers(0, 3)) for _ in shape)
    return Distribution(shape, axes, math.prod(grid), grid=grid, shadow=shadow)


def _section(rng, shape):
    """None (the whole array) or a strided or index-list sub-section."""
    if rng.random() < 0.5:
        return None
    ranges = []
    for n in shape:
        if rng.random() < 0.2:
            picked = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            ranges.append(Range(sorted(picked.tolist())))
            continue
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n))
        ranges.append(Range.regular(lo, hi, int(rng.integers(1, 4))))
    return Slice(ranges)


def _case(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(rng.integers(1, 11)) for _ in range(int(rng.integers(1, 4))))
    src, dst = _distribution(rng, shape), _distribution(rng, shape)
    a = DistributedArray("a", shape, np.float64, src)
    for t in range(src.ntasks):
        a.local(t)[...] = rng.random(a.local(t).shape)
    a.set_global(a.to_global())
    order = "FC"[int(rng.integers(2))]
    target = int(rng.choice([8, 24, 64, 200]))
    return a, dst, _section(rng, shape), order, target


# -- recording endpoints ---------------------------------------------------------


class _Sink(MemorySink):
    def __init__(self):
        super().__init__()
        self.calls = []

    def write_at(self, offset, data, nbytes=None, client=0):
        self.calls.append((offset, len(data) if nbytes is None else nbytes, client))
        super().write_at(offset, data, nbytes=nbytes, client=client)


class _Source(MemorySource):
    def __init__(self, data):
        super().__init__(data)
        self.calls = []

    def read_at(self, offset, nbytes, client=0):
        self.calls.append((offset, nbytes, client))
        return super().read_at(offset, nbytes, client=client)


def _caches():
    """A cold call and a warm call on one cache, then a call on none."""
    cache = PlanCache()
    return [("cold", cache), ("warm", cache), ("none", NullPlanCache())]


@pytest.mark.parametrize("seed", SEEDS)
def test_schedule_matches_the_per_call_loop(seed):
    a, dst, section, order, target = _case(seed)
    full = section or Slice.full(a.shape)
    want_bytes = np.ascontiguousarray(
        a.to_global()[full.np_index()]
    ).reshape(-1, order=order).tobytes()
    want_sha, want_spans = _span_sha1(want_bytes, target)
    expect = np.zeros(a.shape)
    expect[full.np_index()] = a.to_global()[full.np_index()]
    restored = DistributedArray("r", a.shape, np.float64, dst)
    restored.set_global(expect)

    for P in range(1, a.ntasks + 1):
        calls, stats = _reference_runs(a, full, P, order, target)
        stats.sha1, stats.span_bytes, stats.span_sha1s = want_sha, target, want_spans
        for label, cache in _caches():
            sink = _Sink()
            with use_plan_cache(cache):
                got = stream_out_parallel(
                    a, sink, section=section, P=P, order=order, target_bytes=target
                )
            assert sink.calls == calls, (label, P)
            assert got == stats, (label, P)
            assert sink.getvalue() == want_bytes, (label, P)

    for P in range(1, dst.ntasks + 1):
        calls, stats = _reference_runs(restored, full, P, order, target)
        for label, cache in _caches():
            b = DistributedArray("b", a.shape, np.float64, dst)
            source = _Source(want_bytes)
            with use_plan_cache(cache):
                got = stream_in_parallel(
                    b, source, section=section, P=P, order=order,
                    target_bytes=target, sha1=want_sha, span_bytes=target,
                )
            assert source.calls == calls, (label, P)
            assert got == stats, (label, P)
            for t in range(dst.ntasks):
                assert np.array_equal(b.local(t), restored.local(t)), (label, P, t)
