"""Failure injection.

The basic DRMS failure event is a processor failure.  A
:class:`FailurePlan` is one ordered schedule of ``(iteration, node_id)``
failures: when the application reaches an entry's iteration, the task
placed on that entry's node raises :class:`NodeFailure`; the SPMD
engine then kills the whole task group — exactly the paper's premise
that a single component failure crashes the entire parallel application
— and the Resource Coordinator's recovery protocol takes over.

``FailurePlan(iteration=i, node_id=n)`` is the schedule ``[(i, n)]``;
``multi=`` gives several entries, so partner-loss scenarios of the
multi-level checkpoint store (:mod:`repro.mlck`) can kill a replica
owner and then its partner in sequence.  Entries fire in order, each
exactly once, and the plan disarms when the schedule is spent.
"""

from __future__ import annotations

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


class FailurePlan:
    """Fail ``node_id`` when the application reaches ``iteration`` — or,
    given ``multi=[(iteration, node_id), ...]``, each entry of that
    schedule in turn.  The schedule must be non-decreasing in iteration:
    a plan cannot fire into the past.

    Every task checks the plan — several tasks may share the doomed
    node — so firing must be atomic: :meth:`claim` is the check-and-fire
    used by the runtime, with no scheduler wait between check and fire,
    so each entry fires on exactly one task (only the baton's holder
    runs, :mod:`repro.runtime.sched`).
    """

    def __init__(
        self,
        iteration: int = 0,
        node_id: int = 0,
        multi: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        entries = [(iteration, node_id)] if multi is None else multi
        self.schedule = [(int(it), int(nd)) for it, nd in entries]
        if not self.schedule:
            raise ValueError("multi= schedule must not be empty")
        its = [it for it, _ in self.schedule]
        if its != sorted(its):
            raise ValueError("multi= schedule must be ordered by iteration")
        #: nodes whose scheduled failure has fired, in firing order
        self.fired_nodes: List[int] = []
        #: iteration each firing happened at, parallel to ``fired_nodes``
        self.fired_at: List[int] = []
        #: simulated time of the latest firing, its record's time
        self.fired_time = 0.0

    @property
    def pending(self) -> Optional[Tuple[int, int]]:
        """The first unfired ``(iteration, node_id)`` entry, or None
        when the schedule is spent."""
        if len(self.fired_nodes) < len(self.schedule):
            return self.schedule[len(self.fired_nodes)]
        return None

    @property
    def fired(self) -> bool:
        """True once the whole schedule has fired."""
        return self.pending is None

    def should_fire(self, iteration: int) -> bool:
        """True when the pending entry triggers at this iteration
        (advisory: the authoritative check-and-fire is :meth:`claim`)."""
        entry = self.pending
        return entry is not None and entry[0] == iteration

    def claim(self, iteration: int, node: int) -> bool:
        """Atomically fire the pending entry if it is ``(iteration,
        node)``: True for exactly one caller per entry, False for every
        other racer."""
        if self.pending != (iteration, node):
            return False
        self._record(node, iteration)
        return True

    def _record(self, node: int, iteration: int) -> None:
        """Book one firing."""
        self.fired_nodes.append(node)
        self.fired_at.append(iteration)
        self.fired_time = now()
        emit_event(None, "failure_plan_fired", node=node, iteration=iteration)

    def drain_simultaneous(self) -> List[int]:
        """Fire every pending entry scheduled at the iteration of the
        last firing, returning the fired nodes.

        The crash of the first same-iteration victim kills the whole
        task group before its siblings' claims can run, so entries
        meant to strike *simultaneously* would otherwise stay pending.
        A localized recovery handler drains them into one correlated
        failure event before computing the rebuild scope."""
        fired: List[int] = []
        while self.fired_at and self.should_fire(self.fired_at[-1]):
            it, node = self.pending
            self._record(node, it)
            fired.append(node)
        return fired
