"""The L1 -> L2 drain: asynchronous promotion to durable PFS state.

After an L1 capture the application continues; the drain promotes the
generation to the parallel file system on a scheduled thread of its own
(:mod:`repro.runtime.sched`), which runs whenever the application waits,
so the slow PFS write (Table 6's dominant cost) overlaps the next SOPs.
Per generation (DESIGN.md §12)::

    pending --> draining --> durable
                        \\-> failed     (fault, node loss mid-drain)

The drain *replays the stored streams* through
:func:`~repro.checkpoint.drms.drms_checkpoint`, so the durable state is
byte-identical to a direct PFS checkpoint, two-phase manifest commit
included: a drain that dies mid-flight leaves no manifest, and recovery
falls back.  While a drain is in flight the rotation's newest durable
generation is **pinned**, the only durable fallback until the drained
one supersedes it; what the rotation then prunes from the PFS leaves
replica memory too.  An asynchronous drain waits for the one scheduled
before it, so generations commit in schedule order, and runs in a copy
of the scheduling thread's context (``strict_gather`` follows it);
``synchronous`` mode drains inline in :meth:`DrainController.schedule`.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Dict, Optional

from repro.checkpoint.drms import drms_checkpoint
from repro.checkpoint.rotation import CheckpointRotation
from repro.errors import CheckpointError
from repro.mlck.store import L1Store
from repro.obs import emit_event, get_tracer
from repro.pfs.piofs import PIOFS
from repro.runtime.clock import SimClock, now, use_clock
from repro.runtime.sched import SCHED, Task

__all__ = ["DrainState", "DrainController"]


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
        self._state_lock = threading.Lock()
        #: prefix -> the asynchronous drain in flight
        self._tasks: Dict[str, Task] = {}
        #: the newest asynchronous drain: the next one waits for it
        self._last: Optional[Task] = None
        #: prefix -> simulated time at schedule, while the drain is in
        #: flight (drives the health backlog-age gauge)
        self.scheduled_at: Dict[str, float] = {}
        #: optional HealthRegistry re-sampled as drains settle
        self.health = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Generations scheduled but not yet durable/failed."""
        return len(self.scheduled_at)

    def wait(self) -> None:
        """Block until every scheduled drain has finished (drains swallow
        their own failures into the generation's drain state)."""
        SCHED.wait("the drains in flight", until=lambda: not self._tasks)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, prefix: str) -> Optional[Task]:
        """Queue the drain of ``prefix``.  Asynchronous mode returns the
        scheduled thread running it; synchronous mode drains inline and
        returns None.  The drain runs under a clock
        frozen at the schedule time, never the scheduling rank's live one."""
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
        frozen = SimClock(now())
        with self._state_lock:
            self.scheduled_at[prefix] = frozen.now
        get_tracer().metrics.gauge("mlck.drain.pending").set(self.pending)
        emit_event(None, "drain_scheduled", prefix=prefix, pending=self.pending)
        if self.synchronous:
            self._drain(prefix, protect, frozen)
            return None
        with self._state_lock:  # registered before the drain can finish
            after = self._last
            task = SCHED.start(
                f"drain {prefix}", lambda: self._drain(prefix, protect, frozen, after),
                contextvars.copy_context(),
            )
            self._tasks[prefix] = self._last = task
        return task

    # -- the drain itself ----------------------------------------------------

    def _drain(
        self, prefix: str, protect: Optional[str], frozen: SimClock,
        after: Optional[Task] = None,
    ) -> str:
        """Runs on its own thread (or inline) under ``frozen``, once the
        drain ``after`` has finished: returns the final drain state.
        Failures are recorded on the generation, never raised — a broken
        drain must not take the application down; recovery falls back."""
        if after is not None:
            SCHED.wait(f"{after.name} to finish", until=lambda: after.done)
        m = get_tracer().metrics
        with use_clock(frozen):
            gen = self.store.gen(prefix)
            gen.drain_state = DrainState.DRAINING
            emit_event(
                None, "drain_state", prefix=prefix,
                state=DrainState.DRAINING,
            )
            try:
                segment, streams = self.store.stored_streams(prefix)
                manifest = gen.manifest
                drms_checkpoint(
                    self.pfs, prefix, segment, streams,
                    order=manifest["order"], io_tasks=self.io_tasks,
                    target_bytes=self.target_bytes,
                    app_name=manifest["app_name"], ntasks=manifest["ntasks"],
                )
                gen.drain_state = DrainState.DURABLE
                m.counter("mlck.drain.completed").inc()
                emit_event(
                    None, "drain_state", prefix=prefix,
                    state=DrainState.DURABLE,
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
                emit_event(
                    None, "drain_state", prefix=prefix,
                    state=DrainState.FAILED, error=str(exc),
                )
            finally:
                if protect is not None and self.rotation is not None:
                    self.rotation.unpin(protect)
                with self._state_lock:
                    self._tasks.pop(prefix, None)
                    self.scheduled_at.pop(prefix, None)
                m.gauge("mlck.drain.pending").set(self.pending)
                if self.health is not None:
                    self.health.sample_drainer(self)
        return gen.drain_state
