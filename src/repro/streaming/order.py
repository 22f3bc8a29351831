"""Stream element orderings.

For a section described by slice ``s`` of an array ``A``, the output
stream contains the elements of ``A[s]`` ordered over the *section's own
index mesh*: FORTRAN-style column-major (first axis fastest) or C-style
row-major (last axis fastest).  The paper's key observation: this order
depends only on the section, so the stream is a distribution-independent
representation.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

from repro.arrays.slices import Slice
from repro.errors import StreamingError

__all__ = ["check_order", "sha1_hex", "stream_spans", "stream_sha1",
           "stream_order_bytes", "section_stream_positions"]


def check_order(order: str) -> str:
    """Validate a stream-order flag ('F' column-major or 'C' row-major)."""
    if order not in ("F", "C"):
        raise StreamingError(f"stream order must be 'F' or 'C', got {order!r}")
    return order


def sha1_hex(data) -> str:
    """SHA-1 hex digest of a buffer — every hash pass over stored bytes
    goes through here (:mod:`repro.checkpoint.format` re-exports it).
    Defined below the checkpoint layer because stream-out takes the
    per-array digest."""
    return hashlib.sha1(data).hexdigest()


def stream_spans(nbytes: int, span_bytes: int) -> List[Tuple[int, int]]:
    """``(offset, length)`` of the consecutive ``span_bytes`` spans
    covering a stream of ``nbytes``: the last may be partial, and an
    empty stream is one empty span."""
    spans = range(0, nbytes, span_bytes)
    return [(pos, min(span_bytes, nbytes - pos)) for pos in spans] or [(0, 0)]


def stream_sha1(data, span_bytes: int) -> Tuple[str, List[str]]:
    """The digest a manifest records for an array's stream, and the
    span digests it is made of: the SHA-1 of the concatenated raw SHA-1
    digests of the stream's :func:`stream_spans`.  One pass over
    ``data``, each span through :func:`sha1_hex`; a span digest verifies
    its span alone (an L1 piece), the stream digest the whole stream."""
    spans = [sha1_hex(data[off:off + n]) for off, n in stream_spans(len(data), span_bytes)]
    return hashlib.sha1(b"".join(map(bytes.fromhex, spans))).hexdigest(), spans


def stream_order_bytes(values: np.ndarray, order: str = "F") -> bytes:
    """Serialize a section's values (shaped like the section) in stream
    order."""
    check_order(order)
    return np.ascontiguousarray(values).tobytes(order=order)


def section_stream_positions(section: Slice, sub: Slice, order: str = "F") -> np.ndarray:
    """Stream positions (0-based, within ``section``'s stream) of the
    elements of ``sub`` (a subset of ``section``), in ``sub``'s own
    stream order.  Used by tests to verify piece offsets and by serial
    streaming of scattered owners."""
    check_order(order)
    if not sub.issubset(section):
        raise StreamingError(f"{sub!r} is not a subset of {section!r}")
    # an empty sub (which may carry non-empty ranges on other axes that
    # are not per-axis subsets of ``section``) yields an empty vector
    return sub.flat_positions_within(
        section, enum_order=order, address_order=order
    )
