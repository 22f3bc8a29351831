"""MPI-like communication over in-process task queues.

:class:`CommWorld` is the shared fabric for one task group (one SPMD
application run); :class:`TaskComm` is the per-rank handle task code
uses, mirroring the mpi4py surface the paper's MPL/MPI calls map to:
blocking ``send``/``recv``, ``barrier``, ``bcast``, ``scatter``,
``gather``, ``allgather``, ``alltoall``, ``reduce``, ``allreduce``.

Timing: every message charges ``latency + nbytes/bandwidth`` simulated
seconds to the sender; the receiver's clock merges with the arrival
stamp (Lamport).  Collectives are built from point-to-point sends, so
their simulated cost emerges from the same model.

Waiting: a blocking ``recv`` and ``barrier`` are scheduler waits
(:mod:`repro.runtime.sched`): only one task runs at a time, the next
one chosen by simulated clock.  When a task crashes, the waits of its
siblings raise :class:`~repro.errors.GroupKilled`; when every task
waits and none can go on, they raise
:class:`~repro.errors.DeadlockError` at once.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.errors import CommunicationError
from repro.runtime.clock import SimClock
from repro.runtime.machine import Machine
from repro.runtime.message import ANY_SOURCE, ANY_TAG, Message, payload_nbytes
from repro.runtime.sched import SCHED

__all__ = ["CommWorld", "TaskComm"]

#: base of the reserved tag space used by collective operations
_COLL_TAG_BASE = -(1 << 20)


class CommWorld:
    """Shared communication state for ``ntasks`` SPMD tasks."""

    def __init__(self, ntasks: int, machine: Optional[Machine] = None):
        if ntasks < 1:
            raise CommunicationError("world needs at least one task")
        self.ntasks = ntasks
        self.machine = machine or Machine()
        self.clocks: List[SimClock] = [SimClock() for _ in range(ntasks)]
        self._queues: List[deque] = [deque() for _ in range(ntasks)]
        self._barrier_in: List[float] = []  # clocks of this round's arrivals
        self._barrier_max = 0.0
        self._barrier_rounds = 0
        # traffic ledger
        self.total_messages = 0
        self.total_bytes = 0
        self.bytes_sent: List[int] = [0] * ntasks

    # -- timing ----------------------------------------------------------------

    def transfer_cost(self, nbytes: int) -> float:
        """Simulated seconds to move ``nbytes`` over one link."""
        p = self.machine.params
        return p.link_latency_s + nbytes / (p.link_bandwidth_mbps * 1e6)

    # -- core p2p ----------------------------------------------------------------

    def send(self, src: int, dst: int, tag: int, payload: Any) -> None:
        """Enqueue a message for ``dst``; charges the transfer to the sender's clock."""
        if not 0 <= dst < self.ntasks:
            raise CommunicationError(f"send to unknown rank {dst}")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        nbytes = payload_nbytes(payload)
        cost = self.transfer_cost(nbytes) if src != dst else 0.0
        arrival = self.clocks[src].advance(cost)
        self._queues[dst].append(Message(src, dst, tag, payload, nbytes, arrival))
        self.total_messages += 1
        self.total_bytes += nbytes
        self.bytes_sent[src] += nbytes

    def recv(self, dst: int, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive with optional source/tag filters."""
        SCHED.wait(f"rank {dst} recv(src={src}, tag={tag})",
                   until=lambda: self._match(dst, src, tag) is not None)
        q, i = self._queues[dst], self._match(dst, src, tag)
        msg = q[i]
        del q[i]
        self.clocks[dst].merge(msg.arrival_time)
        return msg.payload

    def _match(self, dst: int, src: int, tag: int) -> Optional[int]:
        """Index of the first message queued for ``dst`` that matches."""
        for i, msg in enumerate(self._queues[dst]):
            if (src == ANY_SOURCE or msg.src == src) and (
                tag == ANY_TAG or msg.tag == tag
            ):
                return i
        return None

    def probe(self, dst: int, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking check for a matching pending message."""
        return self._match(dst, src, tag) is not None

    # -- barrier ----------------------------------------------------------------

    def barrier(self, rank: int) -> None:
        """Synchronize all tasks; clocks merge to the latest arrival."""
        self._barrier_in.append(self.clocks[rank].now)
        rounds = self._barrier_rounds
        if len(self._barrier_in) == self.ntasks:  # the last one in
            self._barrier_max, self._barrier_in = max(self._barrier_in), []
            self._barrier_rounds += 1
        # the last one in, too, leaves in (clock, name) order
        SCHED.wait(f"rank {rank} barrier", until=lambda: self._barrier_rounds != rounds)
        # everyone leaves at the same simulated instant + one latency
        self.clocks[rank].merge(
            self._barrier_max + self.machine.params.link_latency_s
        )

    def max_clock(self) -> float:
        return max(c.now for c in self.clocks)


class Request:
    """Handle for a non-blocking operation (mpi4py's ``Request``): a send
    completes at once (the fabric buffers), a receive when a matching
    message arrives.  ``wait`` returns the received payload (``None``
    for sends); ``test`` polls without blocking."""

    def __init__(self, comm: "TaskComm", kind: str, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self._comm, self._source, self._tag = comm, source, tag
        self.completed = kind == "send"
        self._payload = None

    def test(self):
        """``(completed, payload)`` without blocking."""
        if not self.completed and self._comm.probe(self._source, self._tag):
            self.wait()
        return self.completed, self._payload

    def wait(self):
        """Block until completion; returns the payload (None for sends)."""
        if not self.completed:
            self._payload = self._comm.recv(self._source, self._tag)
            self.completed = True
        return self._payload


class TaskComm:
    """The per-rank communicator handed to SPMD task code."""

    def __init__(self, world: CommWorld, rank: int):
        self.world = world
        self.rank = int(rank)
        self._coll_seq = 0

    # -- identity -------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.world.ntasks

    @property
    def clock(self) -> SimClock:
        return self.world.clocks[self.rank]

    def compute(self, seconds: float) -> None:
        """Charge local compute time to this task's simulated clock."""
        self.clock.advance(seconds)

    # -- point-to-point ----------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        self.world.send(self.rank, dest, tag, payload)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload."""
        return self.world.recv(self.rank, source, tag)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send: buffered by the fabric, completes at once."""
        self.world.send(self.rank, dest, tag, payload)
        return Request(self, "send")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive: completes when a match arrives."""
        return Request(self, "recv", source=source, tag=tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        return self.world.probe(self.rank, source, tag)

    # -- collectives ---------------------------------------------------------------

    def _next_coll_tag(self) -> int:
        # SPMD code calls collectives in the same order on every rank,
        # so a per-rank sequence number yields matching tags.
        self._coll_seq += 1
        return _COLL_TAG_BASE - self._coll_seq

    def barrier(self) -> None:
        self.world.barrier(self.rank)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to every task."""
        tag = self._next_coll_tag()
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.world.send(self.rank, dst, tag, obj)
            return obj
        return self.world.recv(self.rank, root, tag)

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one object per task to ``root`` (None elsewhere)."""
        tag = self._next_coll_tag()
        if self.rank == root:
            out: List[Any] = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    out[src] = self.world.recv(self.rank, src, tag)
            return out
        self.world.send(self.rank, root, tag, obj)
        return None

    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        """Scatter one object per task from ``root``."""
        tag = self._next_coll_tag()
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise CommunicationError(
                    "scatter root needs a sequence of world-size objects"
                )
            for dst in range(self.size):
                if dst != root:
                    self.world.send(self.rank, dst, tag, objs[dst])
            return objs[root]
        return self.world.recv(self.rank, root, tag)

    def allgather(self, obj: Any) -> List[Any]:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        """Personalized all-to-all exchange of one object per peer."""
        if len(objs) != self.size:
            raise CommunicationError("alltoall needs world-size objects")
        tag = self._next_coll_tag()
        for dst in range(self.size):
            if dst != self.rank:
                self.world.send(self.rank, dst, tag, objs[dst])
        out: List[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        for src in range(self.size):
            if src != self.rank:
                out[src] = self.world.recv(self.rank, src, tag)
        return out

    def reduce(
        self, obj: Any, op: Callable[[Any, Any], Any] = None, root: int = 0
    ) -> Any:
        """Reduce with a binary ``op`` (default element-wise sum) at ``root``."""
        if op is None:
            op = operator.add
        gathered = self.gather(obj, root=root)
        if self.rank != root:
            return None
        acc = gathered[0]
        for item in gathered[1:]:
            acc = op(acc, item)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = None) -> Any:
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)

    def __repr__(self) -> str:
        return f"TaskComm(rank={self.rank}/{self.size})"

