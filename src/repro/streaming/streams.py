"""Byte sink/source abstractions for streaming targets.

Every write is a ``write_at`` at a computed stream offset.  Streaming
with one I/O task (serial streaming) writes them in order, each at the
end of what is written, so it runs over any sequential channel;
parallel streaming writes pieces out of order, so its sink must be
*seekable* (paper Section 3.2).  PIOFS files provide seekable sinks;
:class:`MemorySink` models both a seekable buffer and a sequential
socket/tape-like channel.

Thread safety: sinks may be written from several threads (an
asynchronous drain beside the application, concurrent workflow
members).  :class:`MemorySink` serializes buffer growth behind a
per-sink lock; :class:`PFSSink` inherits the PIOFS namespace lock.
Distinct pieces land at distinct offsets, so locking only has to make
the extend-then-copy sequence atomic — content never races.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import StreamingError
from repro.pfs.file import byte_view, store_at
from repro.pfs.piofs import PIOFS

__all__ = ["ByteSink", "ByteSource", "MemorySink", "MemorySource", "PFSSink", "PFSSource"]


def _payload_view(data, nbytes: Optional[int]) -> Optional[memoryview]:
    """The payload as a flat byte view (None for a content-free write).
    A caller passing both ``data`` and ``nbytes`` must pass them
    consistently: silently preferring one corrupts stream accounting
    (offsets are precomputed from the sizes the caller claimed)."""
    if data is None:
        return None
    view = byte_view(data, StreamingError)
    if nbytes is not None and nbytes != len(view):
        raise StreamingError(
            f"inconsistent write: nbytes={nbytes} but payload is "
            f"{len(view)} bytes"
        )
    return view


class ByteSink:
    """Write-side interface.  ``data`` is any contiguous buffer (or
    None with ``nbytes`` for a content-free write) that the caller may
    reuse once the call returns: a sink that stores bytes copies them."""

    seekable: bool = True

    def write_at(self, offset: int, data, nbytes: Optional[int] = None, client: int = 0) -> None:
        raise NotImplementedError


class ByteSource:
    """Read-side interface."""

    def read_at(self, offset: int, nbytes: int, client: int = 0) -> bytes:
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise NotImplementedError


class MemorySink(ByteSink):
    """In-memory sink; ``seekable=False`` models a socket or tape drive."""

    def __init__(self, seekable: bool = True):
        self.seekable = bool(seekable)
        self._buf = bytearray()
        # a library caller's own thread streams into a sink without the baton
        self._lock = threading.Lock()

    def write_at(self, offset, data, nbytes=None, client=0):
        """Write at an absolute offset (only at the end when non-seekable).
        The sink keeps its own copy of the payload, copied once."""
        if data is None:
            raise StreamingError("memory sink requires real bytes")
        data = _payload_view(data, nbytes)
        with self._lock:
            if not self.seekable and offset != len(self._buf):
                raise StreamingError(
                    "non-seekable sink only supports sequential appends"
                )
            store_at(self._buf, offset, data)

    def getvalue(self) -> bytes:
        with self._lock:
            return bytes(self._buf)


class MemorySource(ByteSource):
    """In-memory read-side source over a bytes buffer."""
    def __init__(self, data: bytes):
        self._data = bytes(data)

    def read_at(self, offset, nbytes, client=0):
        """Read a byte span from the in-memory source."""
        if offset < 0 or offset + nbytes > len(self._data):
            raise StreamingError("read outside memory source")
        return self._data[offset : offset + nbytes]

    @property
    def size(self) -> int:
        return len(self._data)


class PFSSink(ByteSink):
    """Sink writing into a (possibly virtual) PIOFS file.  Concurrent
    ``write_at`` calls are safe: PIOFS serializes behind its namespace
    lock."""

    def __init__(self, pfs: PIOFS, name: str, virtual: bool = False, create: bool = True):
        self.pfs = pfs
        self.name = name
        self.virtual = virtual
        if create:
            pfs.create(name, virtual=virtual)

    def write_at(self, offset, data, nbytes=None, client=0):
        data = _payload_view(data, nbytes)
        self.pfs.write_at(self.name, offset, data, nbytes=nbytes, client=client)


class PFSSource(ByteSource):
    """Source reading from a PIOFS file; virtual files account reads
    without returning data."""

    def __init__(self, pfs: PIOFS, name: str):
        self.pfs = pfs
        self.name = name
        self.virtual = pfs.open(name).virtual

    def read_at(self, offset, nbytes, client=0):
        """Read from the PFS file (accounting-only for virtual files)."""
        if self.virtual:
            self.pfs.read_virtual(self.name, offset, nbytes, client=client)
            return b""
        return self.pfs.read_at(self.name, offset, nbytes, client=client)

    @property
    def size(self) -> int:
        return self.pfs.file_size(self.name)
