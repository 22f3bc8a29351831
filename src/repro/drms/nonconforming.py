"""Checkpointing for applications that do NOT conform to the DRMS model.

The DRMS environment also checkpoints plain message-passing SPMD
applications (paper Section 3): the programmer still marks checkpoint
points and all tasks synchronize there, but because the application does
not expose its distributed data structures, *each task's state is saved
(and restored) separately* — and a reconfigured restart is impossible.
This is the comparison baseline measured as the "SPMD version".

Usage inside a plain SPMD ``main(ctx, ...)``::

    ck = SPMDCheckpointer(pfs, segment_bytes=...)   # shared, via closure
    ...
    ck.checkpoint(comm, "prefix", payload={"u_local": u, "it": it})

and for restart the launching program calls
:func:`~repro.checkpoint.spmd.spmd_restart` to obtain the per-task
payloads, which it passes back into the application (it raises
:class:`~repro.errors.RestartError` unless the task count is the
checkpointing one: non-conforming applications cannot be reconfigured).
"""

from __future__ import annotations

import threading
from typing import Any, List, Tuple

from repro.checkpoint.drms import CheckpointBreakdown
from repro.checkpoint.spmd import spmd_checkpoint
from repro.pfs.piofs import PIOFS
from repro.runtime.comm import TaskComm

__all__ = ["SPMDCheckpointer"]


class SPMDCheckpointer:
    """Coordinates per-task checkpoints of a non-conforming application.

    All tasks call :meth:`checkpoint` at the same program point with
    their private payloads; the tasks synchronize, every task's segment
    is written to its own file, and every task is charged the blocking
    checkpoint time.
    """

    def __init__(self, pfs: PIOFS, segment_bytes: int, app_name: str = "spmd-app"):
        self.pfs = pfs
        self.segment_bytes = int(segment_bytes)
        self.app_name = app_name
        self.breakdowns: List[Tuple[str, CheckpointBreakdown]] = []
        self._lock = threading.Lock()
        self._slots: dict = {}

    def checkpoint(self, comm: TaskComm, prefix: str, payload: Any) -> CheckpointBreakdown:
        """Collective: every task contributes its state; one write phase
        covers all task files (they proceed concurrently, then
        synchronize at the end, per the paper's measurement setup)."""
        payloads = comm.gather(payload, root=0)
        if comm.rank == 0:
            bd = spmd_checkpoint(
                self.pfs,
                prefix,
                ntasks=comm.size,
                segment_bytes=self.segment_bytes,
                payloads=payloads,
                app_name=self.app_name,
            )
            with self._lock:
                self._slots[prefix] = bd
                self.breakdowns.append((prefix, bd))
        comm.barrier()
        with self._lock:
            bd = self._slots[prefix]
        comm.clock.advance(bd.total_seconds)
        comm.barrier()
        return bd
