"""A serial single-server file system (NFS-like baseline).

The paper notes its approach "works with any file system" but only
reaches full performance on a parallel one.  :class:`SerialFS` is the
contrast case: one server, one channel, so *every* phase — regardless of
how many clients participate — is limited by a single sequential rate.
Used by the streaming ablation bench to show why parallel streaming
needs a parallel file system (paper Section 3.2: serial streaming works
through a sequential channel such as a UNIX socket or tape drive).
"""

from __future__ import annotations

from typing import Optional

from repro.pfs.params import PIOFSParams
from repro.pfs.phase import IOPhaseResult
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine

__all__ = ["SerialFS"]


class SerialFS(PIOFS):
    """PIOFS-compatible interface backed by one serial server."""

    def __init__(
        self,
        machine: Optional[Machine] = None,
        sequential_mbps: float = 7.0,
        seekable: bool = False,
    ):
        params = PIOFSParams(num_servers=1)
        super().__init__(machine=machine, params=params)
        self.sequential_mbps = float(sequential_mbps)
        #: sockets/tape drives cannot seek; parallel streaming needs it
        self.seekable = bool(seekable)

    def supports_parallel_streaming(self) -> bool:
        return self.seekable

    def _solve(self, kind, transfers, server_bytes, file_sizes) -> IOPhaseResult:
        """All traffic funnels through one channel at one rate."""
        total_mb = sum(t.nbytes for t in transfers) / 1e6
        files = {t.filename for t in transfers}
        return IOPhaseResult(
            kind=kind,
            seconds=total_mb / self.sequential_mbps
            + self.params.file_open_overhead_s * len(files),
            total_bytes=sum(t.nbytes for t in transfers),
            clients={t.client for t in transfers},
            files=files,
        )
