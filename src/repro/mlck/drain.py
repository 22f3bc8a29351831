"""The L1 -> L2 drain: asynchronous promotion to durable PFS state.

After an L1 capture the application continues immediately; the drain
promotes the generation to the parallel file system in the background,
on a shared thread pool (:func:`submit_task`) — so the slow
PFS write (the paper's dominant checkpoint cost, Table 6) overlaps the
next SOPs instead of stalling them.

State machine per generation::

    pending --> draining --> durable
                        \\-> failed     (fault, node loss mid-drain)

The drain *replays the stored streams*: the pieces, each verified as it
is fetched from the L1 replicas, are written with the capture-time
stream digest through the ordinary
:func:`~repro.checkpoint.drms.drms_checkpoint` path, so the durable
state is byte-identical to a direct PFS checkpoint — manifest two-phase
commit included.  A drain that dies mid-flight therefore leaves *no*
manifest: the half-written generation is invisible to recovery, which
falls back to the newest byte-valid L2 state (or a surviving L1 one).

Retention covers both tiers: what the rotation prunes from the PFS is
discarded from replica memory too.

Retention interlock: while a drain is in flight, the rotation's newest
durable generation is **pinned** — it is the only durable fallback
until the draining generation supersedes it, so
:meth:`~repro.checkpoint.rotation.CheckpointRotation.prune` must not
delete it, however many newer generations commit meanwhile.

Drains are serialized on one lock: PFS I/O phases do not nest.  An
asynchronous drain also waits for the one scheduled before it, so
generations commit in the order they were scheduled.  ``synchronous``
mode runs the drain inline in :meth:`DrainController.schedule` — the
deterministic mode the verify oracle and the benchmarks use.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Dict, Optional

from repro.checkpoint.drms import drms_checkpoint
from repro.checkpoint.rotation import CheckpointRotation
from repro.errors import CheckpointError
from repro.mlck.store import L1Store
from repro.obs import get_flight, get_tracer
from repro.pfs.piofs import PIOFS

__all__ = ["DrainState", "DrainController", "submit_task"]

#: the shared drain pool (threads start on first use and are reused, so
#: a periodic checkpointer never pays thread startup); wide enough for
#: every plausible number of queued drains
_POOL = ThreadPoolExecutor(
    max_workers=max(8, (os.cpu_count() or 4) * 2), thread_name_prefix="drain"
)


def submit_task(task: Callable[[], object]) -> Future:
    """Run ``task`` on the shared drain pool and return its Future.  The
    task runs in a copy of the submitting thread's context, so it
    observes the caller's :mod:`contextvars` scopes (notably
    ``strict_gather``)."""
    return _POOL.submit(contextvars.copy_context().run, task)


class DrainState:
    """Drain states recorded on :class:`~repro.mlck.store.L1Generation`."""

    PENDING = "pending"
    DRAINING = "draining"
    DURABLE = "durable"
    FAILED = "failed"


class DrainController:
    """Promotes L1 generations to durable L2 (PFS) state.

    ``rotation``, when given, supplies retention: the controller pins
    the newest durable generation for the duration of each drain and
    commits (prune included) once the drained generation's manifest is
    on the PFS.  Without a rotation the drain only writes.
    """

    def __init__(
        self,
        store: L1Store,
        pfs: PIOFS,
        rotation: Optional[CheckpointRotation] = None,
        synchronous: bool = False,
        io_tasks: Optional[int] = None,
        target_bytes: int = 1 << 20,
    ):
        self.store = store
        self.pfs = pfs
        self.rotation = rotation
        self.synchronous = bool(synchronous)
        self.io_tasks = io_tasks
        self.target_bytes = int(target_bytes)
        self._serial = threading.Lock()  # PFS phases do not nest
        self._state_lock = threading.Lock()
        self._futures: Dict[str, Future] = {}
        #: the newest asynchronous drain: the next one waits for it
        self._last: Optional[Future] = None
        self._pending = 0
        #: prefix -> clock at schedule time, while the drain is in
        #: flight (drives the health backlog-age gauge)
        self.scheduled_at: Dict[str, float] = {}
        #: optional HealthRegistry re-sampled as drains settle
        self.health = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Generations scheduled but not yet durable/failed."""
        with self._state_lock:
            return self._pending

    def _set_pending(self, delta: int) -> None:
        with self._state_lock:
            self._pending += delta
            value = self._pending
        get_tracer().metrics.gauge("mlck.drain.pending").set(value)

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until every scheduled drain has finished (drains swallow
        their own failures into the generation's drain state)."""
        with self._state_lock:
            futures = list(self._futures.values())
        for f in futures:
            f.result(timeout=timeout)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, prefix: str, clock: float = 0.0) -> Optional[Future]:
        """Queue the drain of ``prefix``.  Asynchronous mode returns the
        Future running on the shared drain pool; synchronous mode
        drains inline and returns None.  ``clock`` stamps the backlog
        entry for the health gauges."""
        gen = self.store.gen(prefix)
        if gen.drain_state not in (DrainState.PENDING, DrainState.FAILED):
            raise CheckpointError(
                f"generation {prefix!r} is {gen.drain_state}; "
                "only pending or failed generations can be drained"
            )
        gen.drain_state = DrainState.PENDING
        gen.drain_error = None
        # Pin the newest durable fallback before the drain can race it.
        protect = self.rotation.latest() if self.rotation is not None else None
        if protect is not None:
            self.rotation.pin(protect)
        self._set_pending(+1)
        with self._state_lock:
            self.scheduled_at[prefix] = float(clock)
        get_flight().record(
            "drain_scheduled", time=clock, prefix=prefix,
            pending=self.pending,
        )
        if self.synchronous:
            self._drain(prefix, protect)
            return None
        with self._state_lock:
            after = self._last
            future = submit_task(lambda: self._drain(prefix, protect, after))
            self._futures[prefix] = self._last = future
        return future

    # -- the drain itself ----------------------------------------------------

    def _drain(
        self, prefix: str, protect: Optional[str], after: Optional[Future] = None
    ) -> str:
        """Runs on the pool (or inline), once the drain ``after`` has
        finished: returns the final drain state.  Failures are recorded
        on the generation, never raised — a broken drain must not take
        the application down; recovery falls back."""
        if after is not None:
            wait([after])
        m = get_tracer().metrics
        fr = get_flight()
        with self._serial:
            gen = self.store.gen(prefix)
            gen.drain_state = DrainState.DRAINING
            fr.record("drain_state", prefix=prefix, state=DrainState.DRAINING)
            try:
                segment, streams = self.store.stored_streams(prefix)
                drms_checkpoint(
                    self.pfs, prefix, segment, streams,
                    order=gen.order, io_tasks=self.io_tasks,
                    target_bytes=self.target_bytes,
                    app_name=gen.app_name,
                )
                gen.drain_state = DrainState.DURABLE
                m.counter("mlck.drain.completed").inc()
                fr.record(
                    "drain_state", prefix=prefix, state=DrainState.DURABLE
                )
                if self.rotation is not None:
                    # retention now that the new generation is durable
                    # (prune, not commit: an interleaved direct PFS
                    # checkpoint may already be newer), in both tiers
                    for pruned in self.rotation.prune():
                        self.store.discard(pruned)
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                gen.drain_state = DrainState.FAILED
                gen.drain_error = str(exc)
                m.counter("mlck.drain.failed").inc()
                fr.record(
                    "drain_state", prefix=prefix, state=DrainState.FAILED,
                    error=str(exc),
                )
            finally:
                if protect is not None and self.rotation is not None:
                    self.rotation.unpin(protect)
                self._set_pending(-1)
                with self._state_lock:
                    self._futures.pop(prefix, None)
                    self.scheduled_at.pop(prefix, None)
                if self.health is not None:
                    self.health.sample_drainer(self)
        return gen.drain_state
