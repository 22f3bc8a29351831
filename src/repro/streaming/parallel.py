"""Parallel array-section streaming: the ``parstream`` algorithm
(paper Fig. 5b).

The section is partitioned into ``m >= P`` stream-contiguous pieces of
roughly ``target_bytes`` each (1 MB in the paper).  Piece ``j`` belongs
to I/O task ``p = j % P`` (rounds of ``P``): the task receives the piece
through a canonical redistribution (an array assignment onto an
auxiliary distribution that makes the piece wholly local), then writes
it at the piece's stream offset — the sum of the sizes of the earlier
pieces.  The output is byte-identical to serial streaming; only the
access pattern differs, which is why parallel streaming requires a
seekable sink.

Two execution paths, chosen by what the call observes — there is no
option:

* **bulk** — for data-bearing arrays: the section is gathered once
  through the cached plans (:mod:`repro.streaming.vectorized`), the
  nonempty pieces are coalesced into at most P stream-contiguous byte
  runs of near-equal volume, and run ``p`` is I/O task ``p``'s **one**
  ``write_at`` / ``read_at``, issued inline.  Empty pieces occupy zero
  bytes, so the nonempty pieces are byte-contiguous in stream order and
  every run is a single interval.  A storage fault
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
the plan: both paths are byte-identical to serial streaming — the
property the verify oracle checks.

One pass over the state: both paths gather the section once into a
flat stream-order buffer, take the SHA-1 of that buffer — the stream
they *intend* to write, before any sink call — and hand the sink slices
of it (a storing sink copies them, once).  The digest is
``StreamStats.sha1`` and the ``content_sha1`` op-span attribute;
``drms_checkpoint`` puts it in the manifest.  Stream-in mirrors it:
given that digest, it hashes the flat buffer its reads filled and
compares before the scatter, so a damaged write or read is caught with
no second read or hash, and no unverified byte reaches an array.

``P`` may be anything from 1 (fully serial) to the number of tasks;
tasks beyond ``P`` still participate in redistribution (their assigned
data must reach the I/O tasks) but perform no I/O.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.slices import Slice
from repro.errors import CheckpointIntegrityError, StreamingError
from repro.obs import get_tracer
from repro.streaming.order import check_order, sha1_hex
from repro.streaming.serial import (
    StreamStats,
    _cached_plan,
    _index_plan,
    _intended_stream,
    _piece_redis,
    _require_full_read,
)
from repro.streaming.streams import ByteSink, ByteSource
from repro.streaming.vectorized import (
    range_redistribution_bytes,
    scatter_section_flat,
)

__all__ = ["stream_out_parallel", "stream_in_parallel"]


def _plan(
    darray: DistributedArray,
    section: Optional[Slice],
    P: Optional[int],
    order: str,
    target_bytes: int,
):
    check_order(order)
    section = section or Slice.full(darray.shape)
    ntasks = darray.ntasks
    if P is None:
        P = ntasks
    if not 1 <= P <= ntasks:
        raise StreamingError(
            f"I/O task count P={P} must be within 1..{ntasks} (the task pool)"
        )
    pieces, offsets = _cached_plan(section, darray.itemsize, target_bytes, P, order)
    return section, P, pieces, offsets


def _coalesced_runs(
    jobs: List[Tuple[int, Slice]], itemsize: int, P: int
) -> List[List[Tuple[int, Slice]]]:
    """Split the nonempty pieces into at most ``P`` stream-contiguous
    runs of near-equal byte volume — run ``p`` is I/O task ``p``'s
    single bulk transfer."""
    total = sum(piece.size for _, piece in jobs) * itemsize
    target = -(-total // P)  # ceil: every run but the last fills up
    runs: List[List[Tuple[int, Slice]]] = []
    cur: List[Tuple[int, Slice]] = []
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
            "parallel streaming requires a seekable sink; use serial "
            "streaming for sequential channels"
        )
    section, P, pieces, offsets = _plan(darray, section, P, order, target_bytes)
    jobs = [(j, piece) for j, piece in enumerate(pieces) if not piece.is_empty]
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
        plan_pieces=len(pieces),
    ) as op:
        plan_idx = _index_plan(darray, section, order)
        stream, sha = _intended_stream(darray, section, order, plan_idx)
        if bulk:
            # run p covers a contiguous byte interval of the stream, so
            # each I/O task issues a single write_at
            for p, run in enumerate(_coalesced_runs(jobs, itemsize, P)):
                start = offsets[run[0][0]]
                nbytes = sum(piece.size for _, piece in run) * itemsize
                sink.write_at(start, stream[start:start + nbytes], client=p)
                total += nbytes
                redis += range_redistribution_bytes(
                    plan_idx, start // itemsize, (start + nbytes) // itemsize,
                    p, itemsize,
                )
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
    ).publish("out", engine="parstream")


def stream_in_parallel(
    darray: DistributedArray,
    source: ByteSource,
    section: Optional[Slice] = None,
    P: Optional[int] = None,
    order: str = "F",
    target_bytes: int = 1 << 20,
    source_offset: int = 0,
    sha1: Optional[str] = None,
) -> StreamStats:
    """Stream a section into ``darray`` with ``P`` parallel I/O tasks.
    The inverse of :func:`stream_out_parallel`: task ``p`` reads its
    pieces at their stream offsets into disjoint intervals of one flat
    buffer, then one bulk scatter delivers the section to every task
    mapping part of it — after every read returned whole, so a short
    read aborts with the target array untouched.

    Given ``sha1`` (a manifest's digest of the stream) the buffer the
    scatter consumes is hashed first, a mismatch raising
    :class:`~repro.errors.CheckpointIntegrityError` with ``darray``
    untouched."""
    section, P, pieces, offsets = _plan(darray, section, P, order, target_bytes)
    jobs = [(j, piece) for j, piece in enumerate(pieces) if not piece.is_empty]
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
        plan_pieces=len(pieces),
    ) as op:
        plan_idx = _index_plan(darray, section, order)
        flat = (
            np.empty(section.size, dtype=darray.dtype)
            if darray.store_data and jobs
            else None
        )
        flat_u8 = flat.view(np.uint8) if flat is not None else None
        if bulk:
            for p, run in enumerate(_coalesced_runs(jobs, itemsize, P)):
                start = offsets[run[0][0]]
                nbytes = sum(piece.size for _, piece in run) * itemsize
                data = source.read_at(source_offset + start, nbytes, client=p)
                _require_full_read(data, nbytes, source, darray.store_data)
                flat_u8[start:start + nbytes] = np.frombuffer(data, dtype=np.uint8)
                total += nbytes
                redis += range_redistribution_bytes(
                    plan_idx, start // itemsize, (start + nbytes) // itemsize,
                    p, itemsize,
                )
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
            digest = sha1 and sha1_hex(flat_u8)
            if digest != sha1:
                raise CheckpointIntegrityError(
                    f"file {getattr(source, 'name', darray.name)!r} checksum "
                    f"mismatch: bytes read hash to {digest}, manifest records {sha1}"
                )
            scatter_section_flat(darray, section, flat, order=order)
        op.set(pieces=len(jobs), nbytes=total, redistribution_bytes=redis)
    return StreamStats(
        pieces=len(jobs),
        bytes_streamed=total,
        redistribution_bytes=redis,
        io_tasks=P,
    ).publish("in", engine="parstream")
