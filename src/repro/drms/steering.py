"""Computational steering and inter-application communication.

Both are direct uses of the array-assignment/streaming primitives
(paper Sections 3.1-3.2): a steering client reads or writes *sections*
of a running application's distributed arrays in the canonical stream
order, without knowing (or caring about) the current distribution; and
two applications exchange data by assigning one distributed array to
another across their (independent) distributions.

Live steering: requests from a client (any thread) queue in the
application's :class:`SteeringHub`; the running SPMD program services
them *at steering points* — globally consistent SOP-like points marked
with :meth:`~repro.drms.context.DRMSContext.steering_point` — so a
client never observes a half-updated field.  A client waiting for its
result is one more task of the run (:mod:`repro.runtime.sched`): a
request nothing will service is a deadlock, raised at once.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional

import numpy as np

from repro.arrays.assignment import array_assign, schedule_bytes
from repro.arrays.darray import DistributedArray
from repro.arrays.slices import Slice
from repro.errors import ArrayError
from repro.plancache.plans import transfer_schedule
from repro.runtime.sched import SCHED
from repro.streaming.order import check_order
from repro.streaming.serial import _strict_default
from repro.streaming.vectorized import gather_section_flat, scatter_section_flat

__all__ = [
    "steer_read",
    "steer_write",
    "app_transfer",
    "SteeringFuture",
    "SteeringHub",
]


def steer_read(
    array: DistributedArray,
    section: Optional[Slice] = None,
    order: str = "F",
) -> np.ndarray:
    """Read ``array[section]`` into a dense array shaped like the
    section — the steering client's distribution-independent view.
    Elements assigned to no task read as zeros, or raise inside a
    :func:`~repro.streaming.serial.strict_gather` scope."""
    check_order(order)
    section = section or Slice.full(array.shape)
    flat = gather_section_flat(array, section, order, strict=_strict_default())
    return flat.reshape(section.shape, order=order)


def steer_write(
    array: DistributedArray,
    values: np.ndarray,
    section: Optional[Slice] = None,
) -> None:
    """Write a dense section into the array; every mapped copy of every
    element is updated consistently (steering a live computation)."""
    section = section or Slice.full(array.shape)
    values = np.asarray(values, dtype=array.dtype)
    if values.shape != section.shape:
        raise ArrayError(
            f"steer_write: values shape {values.shape} != section shape {section.shape}"
        )
    scatter_section_flat(array, section, values)


class SteeringFuture:
    """Completion handle for one queued steering request.  Knows which
    request it tracks (``kind``/``name``/``section``) so a wait nobody
    can end says *what* was never serviced."""

    def __init__(self, kind: str = "", name: str = "",
                 section: Optional[Slice] = None):
        self.kind = kind
        self.name = name
        self.section = section
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def _fulfill(self, result: Any = None, error: Optional[BaseException] = None):
        self._result = result
        self._error = error
        self._done = True

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        """Wait (a scheduler wait) for the serviced result; raises the
        relayed error, or :class:`~repro.errors.DeadlockError` naming
        the request when nothing will service it (the application has
        no steering point in its loop, or exited before reaching one)."""
        where = f" section {self.section}" if self.section is not None else ""
        SCHED.wait(f"steering {self.kind or 'request'} of {self.name!r}{where}",
                   until=self.done)
        if self._error is not None:
            raise self._error
        return self._result


class SteeringHub:
    """Thread-safe queue between steering clients and a running app.

    Clients call :meth:`read_async` / :meth:`write_async` from any
    thread; the application drains the queue whenever its tasks reach a
    steering point.  Requests against unknown arrays complete with an
    error rather than wedging the client.
    """

    def __init__(self, order: str = "F"):
        self.order = check_order(order)
        # a client that has not yet called the scheduler enqueues without the baton
        self._lock = threading.Lock()
        self._queue: deque = deque()

    # -- client side --------------------------------------------------------

    def read_async(self, name: str, section: Optional[Slice] = None) -> SteeringFuture:
        return self._enqueue(("read", name, section, None))

    def write_async(
        self, name: str, values: np.ndarray, section: Optional[Slice] = None
    ) -> SteeringFuture:
        """Queue a consistent write of a dense section into the named array."""
        return self._enqueue(("write", name, section, np.asarray(values)))

    def _enqueue(self, req) -> SteeringFuture:
        kind, name, section, _ = req
        fut = SteeringFuture(kind=kind, name=name, section=section)
        with self._lock:
            self._queue.append((req, fut))
        return fut

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- application side (called at a steering point, by one task) -----------

    def service(self, arrays) -> int:
        """Drain the queue against the live array registry; returns the
        number of requests serviced."""
        n = 0
        while True:
            with self._lock:
                if not self._queue:
                    return n
                req, fut = self._queue.popleft()
            kind, name, section, values = req
            try:
                arr = arrays[name]
            except KeyError:
                fut._fulfill(error=ArrayError(f"no distributed array {name!r}"))
                continue
            try:
                if kind == "read":
                    fut._fulfill(result=steer_read(arr, section, self.order))
                else:
                    steer_write(arr, values, section)
                    fut._fulfill(result=None)
            except BaseException as exc:  # noqa: BLE001 - relayed to client
                fut._fulfill(error=exc)
            n += 1


def app_transfer(dst: DistributedArray, src: DistributedArray) -> int:
    """Inter-application transfer ``dst <- src`` across independent
    distributions (the two arrays may belong to different applications
    with different task pools).  Returns the wire bytes moved."""
    if dst.shape != src.shape:
        raise ArrayError(
            f"app_transfer shape mismatch: {src.shape} -> {dst.shape}"
        )
    if dst.store_data and src.store_data:
        sched = array_assign(dst, src)
    else:
        sched = transfer_schedule(src.distribution, dst.distribution)
    return schedule_bytes(sched, src.itemsize, remote_only=True)
