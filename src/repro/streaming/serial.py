"""What every stream-out and stream-in shares, whatever its P.

Serial streaming — one task performs all I/O, in stream order, so it
runs over sequential channels (sockets, tape) — is
:func:`~repro.streaming.parallel.stream_out_parallel` with ``P=1`` into
a non-seekable sink: its writes land at contiguous offsets, each at the
sink's end.  This module holds the pieces both directions are built
from: :class:`StreamStats`, the accounting an operation returns and
publishes; :class:`StoredStream`, a stream source that is not an
array; :func:`stream_u8`, the stream-shaped view of the gather kernel;
and :func:`strict_gather`.

Gather strictness: elements of a section assigned to no task are
*undefined*; by default they stream as zeros (the paper's semantics —
a checkpoint of a partially-defined array is well-formed, the holes
just carry no information).  Under :func:`strict_gather` an undefined
element inside a gathered piece raises instead — the verify oracle
enables this for cases whose arrays are fully defined, turning silent
zero-fill of data that *should* exist into a hard failure.  The scope
is a :class:`contextvars.ContextVar`: concurrent streaming ops on
other threads never observe a strictness scope they are not inside,
and an mlck async drain runs in a copy of its submitter's context.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import Distribution
from repro.arrays.slices import Slice
from repro.errors import StreamingError
from repro.obs import emit_event, get_tracer
from repro.streaming.order import stream_sha1
from repro.streaming.streams import ByteSource
from repro.streaming.vectorized import gather_section_flat, range_redistribution_bytes

__all__ = [
    "StreamStats",
    "StoredStream",
    "stream_u8",
    "strict_gather",
]

#: gather strictness scope; per-context so concurrent streaming ops on
#: other threads are unaffected — an async drain inherits the
#: scheduling thread's context (see mlck.drain)
_STRICT_GATHER: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "strict_gather", default=False
)


@contextmanager
def strict_gather(enabled: bool = True) -> Iterator[None]:
    """Scope the gather strictness default: within the context,
    :func:`stream_u8` and :func:`~repro.drms.steering.steer_read` raise
    on undefined elements instead of zero-filling them."""
    token = _STRICT_GATHER.set(bool(enabled))
    try:
        yield
    finally:
        _STRICT_GATHER.reset(token)


def _strict_default() -> bool:
    return _STRICT_GATHER.get()


@dataclass
class StreamStats:
    """Accounting for one streaming operation.  ``pieces`` counts the
    pieces actually streamed (empty pieces of the plan are skipped)."""

    pieces: int
    bytes_streamed: int
    #: bytes moved between distinct tasks to marshal pieces
    redistribution_bytes: int
    io_tasks: int
    #: stream-out of a data-bearing array: the digest
    #: (:func:`~repro.streaming.order.stream_sha1`) of the stream it
    #: *intended* to write, taken from the gather buffer before any sink
    #: call — what a manifest records, so damaged writes are caught —
    #: the span size it was taken over, and the span digests it is made
    #: of (an incremental checkpoint's dirty test)
    sha1: Optional[str] = None
    span_bytes: Optional[int] = None
    span_sha1s: Optional[List[str]] = None

    def publish(self, direction: str) -> "StreamStats":
        """Feed this operation's accounting into the active metrics
        registry (``direction`` is ``"out"`` or ``"in"``) — StreamStats
        stays the return value, the registry carries the totals.  An
        active flight recorder also gets one ``stream_op`` ring entry
        with the byte counts."""
        m = get_tracer().metrics
        m.counter(f"stream.{direction}.bytes").inc(self.bytes_streamed)
        m.counter(f"stream.{direction}.pieces").inc(self.pieces)
        m.counter("stream.redistribution.bytes").inc(self.redistribution_bytes)
        emit_event(
            None, "stream_op",
            direction=direction,
            nbytes=self.bytes_streamed,
            pieces=self.pieces,
            redistribution_bytes=self.redistribution_bytes,
            io_tasks=self.io_tasks,
        )
        return self


def stream_u8(
    darray: DistributedArray, section: Optional[Slice] = None,
    order: str = "F", plan=None,
) -> memoryview:
    """The canonical stream of ``darray[section]`` (default: the whole
    array) as a flat view of its bytes — one bulk gather under the
    scoped strictness, undefined elements zero.  Piece ``j`` of the
    Fig. 5a partition is its byte interval ``[offsets[j], offsets[j] +
    size_j)``, so writers and per-piece hashing slice instead of
    re-gathering."""
    flat = gather_section_flat(
        darray, section or Slice.full(darray.shape), order=order,
        strict=_strict_default(), plan=plan,
    )
    return memoryview(flat.view(np.uint8))


@dataclass(frozen=True)
class StoredStream:
    """A stream source that is not an array: the geometry of a
    checkpointed array beside its canonical stream as it was captured.
    Stream-out asks its source for geometry and for the bytes it is
    about to write with their digest: an array gathers and hashes, a
    stored stream hands over ``stream`` (a flat byte view in ``order``,
    None for a virtual array), ``sha1``, the digest taken at capture,
    and ``span_bytes``, the span size it was taken over — whoever built
    it vouches for the bytes (the L1 drain verifies each piece as it
    fetches it)."""

    name: str
    shape: Tuple[int, ...]
    dtype: np.dtype
    distribution: Distribution
    order: str
    stream: Optional[memoryview]
    sha1: Optional[str]
    span_bytes: Optional[int]

    @property
    def store_data(self) -> bool:
        return self.stream is not None

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def ntasks(self) -> int:
        return self.distribution.ntasks


def _intended_stream(darray, section: Slice, order: str, plan_idx, span_bytes: int):
    """What a stream-out is about to write, as ``(byte view, digest,
    span size, span digests)``: one gather and one hash pass over an
    array's gather buffer, in ``span_bytes`` spans (or the bytes, digest
    and span size a :class:`StoredStream` holds, its span digests None)
    before any byte reaches the sink, which is handed slices of the
    view.  All None for virtual arrays."""
    if not darray.store_data:
        return None, None, None, None
    if isinstance(darray, StoredStream):
        if order != darray.order or section != Slice.full(darray.shape):
            raise StreamingError(
                f"stored stream {darray.name!r} replays whole and in order "
                f"{darray.order!r}; asked for {section} in order {order!r}"
            )
        return darray.stream, darray.sha1, darray.span_bytes, None
    stream = stream_u8(darray, section, order, plan_idx)
    sha1, span_sha1s = stream_sha1(stream, span_bytes)
    return stream, sha1, span_bytes, span_sha1s


def _piece_redistribution_bytes(
    darray: DistributedArray, piece: Slice, io_task: int
) -> int:
    """Scalar redistribution accounting for one piece (slice algebra
    over the owners).  The streaming loops use the plan-interval form
    (:func:`~repro.streaming.vectorized.range_redistribution_bytes`);
    this is the independent reference the tests compare against."""
    dist = darray.distribution
    return sum(
        dist.assigned(owner).intersect(piece).size * darray.itemsize
        for owner in dist.owner_tasks(piece)
        if owner != io_task
    )


def _cached_plan(section: Slice, itemsize: int, target_bytes: int, min_pieces: int, order: str):
    """(pieces, offsets) via the active plan cache.  Imported lazily:
    the cache layer sits above the pure streaming layer, and a top-level
    import would cycle through ``streaming/__init__``."""
    from repro.plancache.plans import streaming_plan

    return streaming_plan(
        section, itemsize, target_bytes=target_bytes,
        min_pieces=min_pieces, order=order,
    )


def _piece_redis(darray, plan_idx, piece, lo_el, io_task):
    """Redistribution bytes of one piece toward ``io_task`` — interval
    counting on the index plan when one exists, slice algebra for
    virtual arrays."""
    if plan_idx is not None:
        return range_redistribution_bytes(
            plan_idx, lo_el, lo_el + piece.size, io_task, darray.itemsize
        )
    return _piece_redistribution_bytes(darray, piece, io_task)


def _require_full_read(
    data: bytes, nbytes: int, source: ByteSource, needs_data: bool
) -> None:
    """A read must return exactly the bytes asked for.  The only
    legitimate exception: a *virtual* PFS source restoring a virtual
    (geometry-only) array returns no payload by design — the PFS
    accounted the bytes.  A virtual source can never satisfy an array
    that needs data, and a real source must never come up short even
    when only geometry is being restored (a metadata-only restore over
    a truncated source must not silently advance past the hole)."""
    if len(data) == nbytes:
        return
    if not needs_data and getattr(source, "virtual", False):
        return
    raise StreamingError(
        f"short read: wanted {nbytes} bytes, got {len(data)}"
    )
