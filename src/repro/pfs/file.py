"""Logical files striped across PIOFS server nodes.

A :class:`PFSFile` is one logical byte stream physically striped
round-robin in ``stripe_kb`` units over the server nodes (the paper:
"each array stored in a single logical file that is physically
distributed among the server nodes").  Files either hold real bytes
(checkpoint data round-trips exactly) or are *virtual* (size-only, for
Class-A-scale benchmarks that must not allocate gigabytes).  The one
write is :meth:`PFSFile.write_at`; a sequential writer (serial
streaming) passes the file's end as the offset.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import PFSError

__all__ = ["PFSFile", "byte_view", "store_at"]


def byte_view(data, error=PFSError) -> memoryview:
    """A write payload (any buffer-protocol object) as a flat view of
    its bytes — how every sink sizes and slices one.  ``len(data)`` is
    the *element* count of a buffer of wider items: an ``f8`` array
    would be recorded at 1/8 of its size.  Non-contiguous buffers raise
    ``error``."""
    try:
        view = memoryview(data)
        # a zero-extent n-d buffer cannot be cast; it holds no bytes
        return view.cast("B") if view.nbytes else memoryview(b"")
    except TypeError as exc:
        raise error(f"write payload must be a C-contiguous buffer: {exc}") from None


def store_at(buf: bytearray, offset: int, data: memoryview) -> None:
    """Copy ``data`` into ``buf`` at ``offset`` (zero-filling a gap) once:
    a bytearray slice assignment would copy a view to a temporary first."""
    if offset > len(buf):  # zero-fill a real gap only
        buf.extend(bytes(offset - len(buf)))
    head = min(len(data), len(buf) - offset)
    with memoryview(buf) as stored:
        stored[offset:offset + head] = data[:head]
    buf.extend(data[head:])


class PFSFile:
    """One logical file in the parallel file system."""

    def __init__(self, name: str, num_servers: int, stripe_kb: int, virtual: bool = False):
        if num_servers < 1:
            raise PFSError("file needs at least one server")
        self.name = name
        self.num_servers = num_servers
        self.stripe_bytes = int(stripe_kb) * 1024
        if self.stripe_bytes < 1:
            raise PFSError("stripe size must be positive")
        self.virtual = bool(virtual)
        self._data = bytearray() if not virtual else None
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def stored_bytes(self) -> int:
        """Bytes with materialized content; the rest of the file (up to
        :attr:`size`) is sparse or virtual and reads back as zeros."""
        return len(self._data) if self._data is not None else 0

    # -- stripe geometry --------------------------------------------------

    def server_of_offset(self, offset: int) -> int:
        """The server node holding the stripe containing ``offset``."""
        if offset < 0:
            raise PFSError(f"negative offset {offset}")
        return (offset // self.stripe_bytes) % self.num_servers

    def server_byte_spans(self, offset: int, nbytes: int) -> Dict[int, int]:
        """Bytes of ``[offset, offset+nbytes)`` that land on each server
        — used by the phase model for per-server load balance checks."""
        out: Dict[int, int] = {}
        pos, end = offset, offset + nbytes
        while pos < end:
            stripe_end = (pos // self.stripe_bytes + 1) * self.stripe_bytes
            chunk = min(end, stripe_end) - pos
            srv = self.server_of_offset(pos)
            out[srv] = out.get(srv, 0) + chunk
            pos += chunk
        return out

    # -- data access -------------------------------------------------------

    def write_at(self, offset: int, data, nbytes: Optional[int] = None) -> int:
        """Write ``data`` (any contiguous buffer; the file keeps its
        own copy) at ``offset``; returns bytes written.  Writing past
        the stored content zero-fills the gap (POSIX seek+write).  With
        ``data=None`` and ``nbytes`` set, the write is *sparse*: the file
        grows but no content is stored; sparse regions read back as
        zeros.  Virtual files store nothing either way."""
        if offset < 0:
            raise PFSError(f"negative offset {offset}")
        if self.virtual or data is None:
            if nbytes is None:
                if data is None:
                    raise PFSError("content-free write needs nbytes")
                nbytes = len(byte_view(data))
            nbytes = int(nbytes)
            if not self.virtual:
                self._grow_sparse(offset + nbytes)
        else:
            data = byte_view(data)
            nbytes = len(data)
            self._store(offset, data)
        self._size = max(self._size, offset + nbytes)
        return nbytes

    def _store(self, offset: int, data: memoryview) -> None:
        """Copy ``data`` into the stored content at ``offset``."""
        store_at(self._data, offset, data)

    def _grow_sparse(self, end: int) -> None:
        """A sparse span up to ``end``: in memory, nothing to store."""

    def read_at(self, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at ``offset``; sparse spans read back as zeros."""
        if self.virtual:
            raise PFSError(f"file {self.name!r} is virtual; no data to read")
        if offset < 0 or offset + nbytes > self._size:
            raise PFSError(
                f"read [{offset}, {offset + nbytes}) outside file "
                f"{self.name!r} of size {self._size}"
            )
        stored_end = min(offset + nbytes, len(self._data))
        out = bytes(memoryview(self._data)[offset:stored_end])  # one copy
        if len(out) < nbytes:  # sparse tail reads back as zeros
            out += b"\x00" * (nbytes - len(out))
        return out

    def flip_bit(self, offset: int, bit: int = 0) -> None:
        """Flip one bit of a stored byte in place — the fault-injection
        model of silent media corruption (see :mod:`repro.pfs.faults`).
        Only materialized bytes can be corrupted: virtual files and
        sparse tails have no stored byte to flip."""
        if self.virtual or self._data is None:
            raise PFSError(f"file {self.name!r} is virtual; nothing stored to corrupt")
        if not 0 <= offset < len(self._data):
            raise PFSError(
                f"offset {offset} outside the {len(self._data)} stored "
                f"bytes of {self.name!r}"
            )
        self._data[offset] ^= 1 << (bit & 7)

    def read_all(self) -> bytes:
        return self.read_at(0, self._size)

    def __repr__(self) -> str:
        kind = "virtual" if self.virtual else "data"
        return f"PFSFile({self.name!r}, {self._size}B, {kind})"
