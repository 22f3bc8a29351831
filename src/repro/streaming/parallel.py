"""Parallel array-section streaming: the ``parstream`` algorithm
(paper Fig. 5b).

The section is partitioned into ``m >= P`` stream-contiguous pieces of
roughly ``target_bytes`` each (1 MB in the paper).  Piece ``j`` belongs
to I/O task ``p = j % P`` (rounds of ``P``): the task receives the piece
through a canonical redistribution (an array assignment onto an
auxiliary distribution that makes the piece wholly local), then writes
it at the piece's stream offset — the sum of the sizes of the earlier
pieces.  The output is the same for every ``P``; only the access
pattern differs, which is why ``P > 1`` requires a seekable sink.
``P = 1`` is serial streaming: its writes land in stream order at
contiguous offsets, so it runs over a sequential channel (a
non-seekable sink: socket, tape).

Two execution paths, chosen by what the call observes — there is no
option:

* **bulk** — for data-bearing arrays: one :class:`ParstreamSchedule`
  lookup (planned once per geometry), then the bytes: one gather
  through its index plan (:mod:`repro.streaming.vectorized`), and per
  run — the nonempty pieces coalesced into at most P stream-contiguous
  byte runs of near-equal volume, each a single interval, as empty
  pieces occupy zero bytes — I/O task ``p``'s **one** ``write_at`` /
  ``read_at``, issued inline.  A storage fault
  (:mod:`repro.pfs.faults`) names a stored byte, not a call, so fault
  suites run this path, the one every checkpoint and restart takes.
* **per-piece** — the deterministic round-robin loop, one call per
  nonempty piece in ``j`` order with ``client = j % P``, for virtual
  (geometry-only) arrays, whose per-piece transfers are what the
  simulated Class-A baselines account.

The simulated PIOFS phase models the P I/O tasks as concurrent clients
whatever the host does, so neither path runs host threads.

Pieces are disjoint in the global index space and their offsets are
disjoint in the stream, so every piece's bytes and offset are fixed by
the plan: both paths, at every ``P``, write the same bytes — the
property the verify oracle checks.

One pass over the state: both paths gather the section once into a
flat stream-order buffer, take the digest of that buffer — the stream
they *intend* to write, before any sink call — and hand the sink slices
of it (a storing sink copies them, once).  The digest is the
:func:`~repro.streaming.order.stream_sha1` of the buffer over
``target_bytes`` spans: ``StreamStats.sha1`` (with ``span_bytes``, and
the span digests it is made of as ``span_sha1s``) and the
``content_sha1`` op-span attribute; ``drms_checkpoint`` puts both in
the manifest.  Stream-in mirrors it: given that digest and span
size, it hashes the flat buffer its reads filled and compares before
the scatter, so a damaged write or read is caught with no second read
or hash, and no unverified byte reaches an array.

``P`` may be anything from 1 (serial streaming) to the number of tasks;
tasks beyond ``P`` still participate in redistribution (their assigned
data must reach the I/O tasks) but perform no I/O.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.slices import Slice
from repro.errors import CheckpointIntegrityError, StreamingError
from repro.obs import get_tracer
from repro.streaming.order import check_order, stream_sha1
from repro.streaming.serial import (
    StreamStats,
    _cached_plan,
    _intended_stream,
    _piece_redis,
    _require_full_read,
)
from repro.streaming.streams import ByteSink, ByteSource
from repro.streaming.vectorized import (
    SectionIndexPlan,
    range_redistribution_bytes,
    scatter_section_flat,
)

__all__ = ["stream_out_parallel", "stream_in_parallel"]


class ParstreamSchedule(NamedTuple):
    """What a parstream of one geometry does besides moving bytes,
    planned once: ``runs`` holds I/O task ``p``'s ``(p, start, nbytes,
    redistribution_bytes)``, ``jobs`` the nonempty pieces as ``(j,
    piece)``.  ``index_plan`` is the ``"indexplan"`` entry's own object
    (counted there: a schedule has no ``nbytes``)."""

    section: Slice
    index_plan: Optional[SectionIndexPlan]
    pieces: int
    jobs: Tuple[Tuple[int, Slice], ...]
    offsets: Tuple[int, ...]
    runs: Tuple[Tuple[int, int, int, int], ...]


def build_parstream_schedule(
    section: Slice, itemsize: int, target_bytes: int, P: int, order: str,
    index_plan: Optional[SectionIndexPlan],
) -> ParstreamSchedule:
    """Plan one parstream geometry (pure; cached via
    :func:`repro.plancache.plans.parstream_schedule`).  The nonempty
    pieces tile the stream, so each run is one interval, cut at a piece
    end.  A virtual array has no index plan to account runs with, and
    no bulk path."""
    pieces, offsets = _cached_plan(section, itemsize, target_bytes, P, order)
    jobs = tuple((j, piece) for j, piece in enumerate(pieces) if not piece.is_empty)
    total = sum(piece.size for _, piece in jobs) * itemsize
    target = -(-total // P)  # ceil: every run but the last fills up
    runs, start = [], 0
    for j, piece in jobs if index_plan is not None else ():
        end = offsets[j] + piece.size * itemsize
        if end == total or (end - start >= target and len(runs) < P - 1):
            lo, hi, p = start // itemsize, end // itemsize, len(runs)
            redis = range_redistribution_bytes(index_plan, lo, hi, p, itemsize)
            runs.append((p, start, end - start, redis))
            start = end
    return ParstreamSchedule(section, index_plan, len(pieces), jobs, offsets, tuple(runs))


def _plan(darray, section: Optional[Slice], P: Optional[int], order: str, target_bytes: int):
    """``(P, schedule)`` after the order and ``P`` checks; a virtual
    array's schedule is built without an index plan (it never gathers)."""
    check_order(order)
    ntasks = darray.ntasks
    if P is None:
        P = ntasks
    if not 1 <= P <= ntasks:
        raise StreamingError(
            f"I/O task count P={P} must be within 1..{ntasks} (the task pool)"
        )
    if not darray.store_data:
        return P, build_parstream_schedule(
            section or Slice.full(darray.shape), darray.itemsize, target_bytes, P, order, None
        )
    from repro.plancache.plans import parstream_schedule

    return P, parstream_schedule(
        darray.distribution, section, darray.itemsize, target_bytes, P, order
    )


def _is_bulk(darray, jobs) -> bool:
    """The bulk path serves data-bearing arrays with something to move;
    virtual arrays take the per-piece loop."""
    return bool(jobs) and darray.store_data


def stream_out_parallel(
    darray: DistributedArray,
    sink: ByteSink,
    section: Optional[Slice] = None,
    P: Optional[int] = None,
    order: str = "F",
    target_bytes: int = 1 << 20,
) -> StreamStats:
    """Stream ``darray[section]`` out with ``P`` parallel I/O tasks.
    ``darray`` is the stream source: a distributed array, or a
    :class:`~repro.streaming.serial.StoredStream` replayed whole."""
    if not getattr(sink, "seekable", True) and (P or darray.ntasks) > 1:
        raise StreamingError(
            "parallel streaming requires a seekable sink; use P=1 for "
            "sequential channels"
        )
    P, sched = _plan(darray, section, P, order, target_bytes)
    section, plan_idx, npieces, jobs, offsets, runs = sched
    bulk = _is_bulk(darray, jobs)
    itemsize = darray.itemsize
    obs = get_tracer()
    total = 0
    redis = 0
    with obs.span(
        "stream.out.parallel",
        array=darray.name,
        io_tasks=P,
        path="bulk" if bulk else "per-piece",
        plan_pieces=npieces,
    ) as op:
        stream, sha, span, span_sha1s = _intended_stream(
            darray, section, order, plan_idx, target_bytes
        )
        if bulk:
            # run p covers a contiguous byte interval of the stream, so
            # each I/O task issues a single write_at
            for p, start, nbytes, run_redis in runs:
                sink.write_at(start, stream[start:start + nbytes], client=p)
                total += nbytes
                redis += run_redis
        else:
            for j, piece in jobs:
                p = j % P  # I/O task for this piece (round-robin rounds of P)
                nbytes = piece.size * itemsize
                redis += _piece_redis(
                    darray, plan_idx, piece, offsets[j] // itemsize, p
                )
                # virtual arrays write content-free, sized spans
                data = None if stream is None else stream[offsets[j]:offsets[j] + nbytes]
                sink.write_at(offsets[j], data, nbytes=nbytes, client=p)
                total += nbytes
        if sha is not None:
            op.set(content_sha1=sha)
        op.set(pieces=len(jobs), nbytes=total, redistribution_bytes=redis)
    return StreamStats(
        pieces=len(jobs),
        bytes_streamed=total,
        redistribution_bytes=redis,
        io_tasks=P,
        sha1=sha,
        span_bytes=span,
        span_sha1s=span_sha1s,
    ).publish("out")


def stream_in_parallel(
    darray: DistributedArray,
    source: ByteSource,
    section: Optional[Slice] = None,
    P: Optional[int] = None,
    order: str = "F",
    target_bytes: int = 1 << 20,
    source_offset: int = 0,
    sha1: Optional[str] = None,
    span_bytes: Optional[int] = None,
) -> StreamStats:
    """Stream a section into ``darray`` with ``P`` parallel I/O tasks.
    The inverse of :func:`stream_out_parallel`: task ``p`` reads its
    pieces at their stream offsets into disjoint intervals of one flat
    buffer, then one bulk scatter delivers the section to every task
    mapping part of it — after every read returned whole, so a short
    read aborts with the target array untouched.

    Given ``sha1`` and ``span_bytes`` (a manifest's digest of the
    stream and the span size it was taken over) the buffer the scatter
    consumes is hashed first (:func:`~repro.streaming.order.stream_sha1`),
    a mismatch raising :class:`~repro.errors.CheckpointIntegrityError`
    with ``darray`` untouched."""
    P, sched = _plan(darray, section, P, order, target_bytes)
    section, plan_idx, npieces, jobs, offsets, runs = sched
    bulk = _is_bulk(darray, jobs)
    itemsize = darray.itemsize
    obs = get_tracer()
    total = 0
    redis = 0
    with obs.span(
        "stream.in.parallel",
        array=darray.name,
        io_tasks=P,
        path="bulk" if bulk else "per-piece",
        plan_pieces=npieces,
    ) as op:
        flat = (
            np.empty(section.size, dtype=darray.dtype)
            if darray.store_data and jobs
            else None
        )
        flat_u8 = flat.view(np.uint8) if flat is not None else None
        if bulk:
            for p, start, nbytes, run_redis in runs:
                data = source.read_at(source_offset + start, nbytes, client=p)
                _require_full_read(data, nbytes, source, darray.store_data)
                flat_u8[start:start + nbytes] = np.frombuffer(data, dtype=np.uint8)
                total += nbytes
                redis += run_redis
        else:
            for j, piece in jobs:
                p = j % P
                nbytes = piece.size * itemsize
                redis += _piece_redis(
                    darray, plan_idx, piece, offsets[j] // itemsize, p
                )
                data = source.read_at(source_offset + offsets[j], nbytes, client=p)
                _require_full_read(data, nbytes, source, darray.store_data)
                if flat_u8 is not None:
                    flat_u8[offsets[j]:offsets[j] + nbytes] = np.frombuffer(
                        data, dtype=np.uint8
                    )
                total += nbytes
        if flat is not None:
            if sha1 is not None:
                digest, _ = stream_sha1(flat_u8, span_bytes)
                if digest != sha1:
                    raise CheckpointIntegrityError(
                        f"file {getattr(source, 'name', darray.name)!r} checksum "
                        f"mismatch: bytes read hash to {digest}, manifest "
                        f"records {sha1}"
                    )
            scatter_section_flat(darray, section, flat, order=order)
        op.set(pieces=len(jobs), nbytes=total, redistribution_bytes=redis)
    return StreamStats(
        pieces=len(jobs),
        bytes_streamed=total,
        redistribution_bytes=redis,
        io_tasks=P,
    ).publish("in")
