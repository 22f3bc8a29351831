"""Failure injection.

The basic DRMS failure event is a processor failure.  A
:class:`FailurePlan` arms a deterministic failure: when the application
reaches the given iteration, the task placed on the doomed node raises
:class:`NodeFailure`; the SPMD engine then kills the whole task group —
exactly the paper's premise that a single component failure crashes the
entire parallel application — and the Resource Coordinator's recovery
protocol takes over.

``multi=`` generalizes the plan to an *ordered schedule* of failures —
``[(iteration, node_id), ...]`` — so partner-loss scenarios of the
multi-level checkpoint store (:mod:`repro.mlck`) can kill a replica
owner and then its partner in sequence.  Entries fire in order; each
entry fires exactly once, and the plan disarms when the schedule is
exhausted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import TaskFailure
from repro.obs import emit_event
from repro.runtime.clock import now

__all__ = ["NodeFailure", "FailurePlan"]


class NodeFailure(TaskFailure):
    """A processor died under a running task."""

    def __init__(self, node_id: int, message: str = ""):
        super().__init__(message or f"node {node_id} failed")
        self.node_id = node_id


@dataclass
class FailurePlan:
    """Fail ``node_id`` when the application reaches ``iteration``.

    ``one_shot``: the plan disarms after firing so the restarted run
    survives (the standard recovery experiment).

    ``multi``: an ordered schedule ``[(iteration, node_id), ...]`` of
    several failures.  When given, ``iteration``/``node_id`` track the
    *pending* entry (the one :meth:`claim` would fire next); each entry
    fires once, in order, and the plan disarms after the last.  The
    schedule must be non-decreasing in iteration — a plan cannot fire
    into the past.

    Task threads check the plan concurrently — several tasks may share
    the doomed node — so disarming must be atomic: :meth:`claim` is the
    check-and-fire used by the runtime, guaranteeing a one-shot plan
    fires on exactly one task even under racing threads.
    """

    iteration: int = 0
    node_id: int = 0
    one_shot: bool = True
    multi: Optional[Sequence[Tuple[int, int]]] = None
    _fired: bool = False
    #: nodes whose scheduled failure has fired, in firing order
    fired_nodes: List[int] = field(default_factory=list)
    #: iteration each firing happened at, parallel to ``fired_nodes`` —
    #: lets a recovery handler spot same-iteration (simultaneous) groups
    fired_at: List[int] = field(default_factory=list)
    #: simulated time of the latest firing, its record's time
    fired_time: float = field(default=0.0, init=False)
    _multi_idx: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.multi is not None:
            schedule = [(int(it), int(nd)) for it, nd in self.multi]
            if not schedule:
                raise ValueError("multi= schedule must not be empty")
            its = [it for it, _ in schedule]
            if its != sorted(its):
                raise ValueError(
                    "multi= schedule must be ordered by iteration"
                )
            self.multi = schedule
            # expose the pending entry through the classic fields
            self.iteration, self.node_id = schedule[0]

    def should_fire(self, iteration: int) -> bool:
        """True when the plan triggers at this iteration (advisory: the
        authoritative check-and-disarm is :meth:`claim`)."""
        if self.multi is not None:
            return (
                self._multi_idx < len(self.multi)
                and self.multi[self._multi_idx][0] == iteration
            )
        if self._fired and self.one_shot:
            return False
        return iteration == self.iteration

    def claim(self, iteration: int) -> bool:
        """Atomically check and fire: True for exactly one caller per
        arming of a one-shot plan (per schedule entry under ``multi``),
        False for every other racer."""
        with self._lock:
            if not self.should_fire(iteration):
                return False
            if self.multi is None:
                self._fired = True
                self._record(self.node_id, iteration)
                return True
            _, node = self.multi[self._multi_idx]
            self._multi_idx += 1
            self._record(node, iteration)
            if self._multi_idx < len(self.multi):
                # advance the classic fields to the pending entry
                self.iteration, self.node_id = self.multi[self._multi_idx]
            else:
                # exhausted: node_id reports the last fired node so
                # the cluster's recovery handler sees the right one
                self.node_id = node
                self._fired = True
            return True

    def _record(self, node: int, iteration: int) -> None:
        """Book one firing (caller holds the lock)."""
        self.fired_nodes.append(node)
        self.fired_at.append(iteration)
        self.fired_time = now()
        emit_event(None, "failure_plan_fired", node=node, iteration=iteration)

    def drain_simultaneous(self) -> List[int]:
        """Fire every remaining ``multi=`` entry scheduled at the same
        iteration as the last fired entry, returning the fired nodes.

        The crash of the first same-iteration victim kills the whole
        task group before its siblings' claims can run, so entries
        meant to strike *simultaneously* would otherwise stay pending.
        A localized recovery handler drains them into one correlated
        failure event before computing the rebuild scope."""
        with self._lock:
            if self.multi is None or not self.fired_at:
                return []
            it = self.fired_at[-1]
            fired: List[int] = []
            while (
                self._multi_idx < len(self.multi)
                and self.multi[self._multi_idx][0] == it
            ):
                _, node = self.multi[self._multi_idx]
                self._multi_idx += 1
                self._record(node, it)
                fired.append(node)
            if self._multi_idx < len(self.multi):
                self.iteration, self.node_id = self.multi[self._multi_idx]
            elif fired:
                self.node_id = fired[-1]
                self._fired = True
            return fired

    def fire(self) -> None:
        """Mark the plan fired (kept for callers that did their own
        check; racing callers should use :meth:`claim`)."""
        with self._lock:
            self._fired = True

    @property
    def fired(self) -> bool:
        """True once the plan (or, under ``multi``, its whole schedule)
        has fired."""
        return self._fired

    @property
    def pending(self) -> Optional[Tuple[int, int]]:
        """The ``(iteration, node_id)`` entry :meth:`claim` would fire
        next, or None when the plan is exhausted."""
        if self.multi is not None:
            if self._multi_idx < len(self.multi):
                return self.multi[self._multi_idx]
            return None
        if self._fired and self.one_shot:
            return None
        return (self.iteration, self.node_id)
