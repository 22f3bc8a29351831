"""The SPMD execution engine: run one function on ``ntasks`` tasks.

``run_spmd(fn, ntasks)`` runs one scheduled thread per task
(:meth:`~repro.runtime.sched.Scheduler.run`, one runnable at a time),
hands each a :class:`~repro.runtime.comm.TaskComm`, and collects return
values.  If any task raises, its group is killed so sibling tasks
unwind from blocked communication instead of hanging, and the original
exception is re-raised in the caller — the behaviour of a parallel job
whose task crash takes the whole application down (paper Section 1).
A rank thread's active clock is the launcher's ``now()`` plus its task
clock.  The run's node placements are its own: placed at launch, and
exactly those removed when it ends, however it ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.runtime.clock import SimClock, now, use_clock
from repro.runtime.comm import CommWorld, TaskComm
from repro.runtime.machine import Machine
from repro.runtime.sched import SCHED

__all__ = ["SPMDResult", "run_spmd"]


class _Launched(NamedTuple):
    """A rank's active clock: launch time plus the task's own clock."""

    launch: float
    task: SimClock
    now = property(lambda self: self.launch + self.task.now)


@dataclass
class SPMDResult:
    """Outcome of one SPMD run."""

    returns: List[Any]
    #: final simulated clock of every task, seconds
    clocks: List[float]
    world: CommWorld
    placement: Dict[int, int] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        """Simulated wall time of the run (max over tasks)."""
        return max(self.clocks) if self.clocks else 0.0


def run_spmd(
    fn: Callable[..., Any],
    ntasks: int,
    machine: Optional[Machine] = None,
    args: Sequence[Any] = (),
    kwargs: Optional[dict] = None,
    nodes: Optional[Sequence[int]] = None,
    timeout: float = 120.0,
    make_context: Optional[Callable[[TaskComm], Any]] = None,
) -> SPMDResult:
    """Execute ``fn(ctx, *args, **kwargs)`` as an SPMD program.

    ``ctx`` is the task's :class:`TaskComm` unless ``make_context`` wraps
    it (the DRMS layer passes a richer task context).  Tasks are placed
    one-to-one on machine nodes; the placement is recorded so the I/O
    cost model can see compute/server colocation.  ``timeout`` is the
    watchdog of a run launched from a thread the scheduler did not start.
    """
    kwargs = kwargs or {}
    machine = machine or Machine()
    world = CommWorld(ntasks, machine=machine)
    placement = machine.place_tasks(ntasks, nodes=nodes)
    world.placement = placement  # rank -> node id, visible to task code
    launch = now()

    def body(rank: int) -> Any:
        comm = TaskComm(world, rank)
        ctx = make_context(comm) if make_context else comm
        with use_clock(_Launched(launch, world.clocks[rank])):
            return fn(ctx, *args, **kwargs)

    try:
        returns = SCHED.run([str(r) for r in range(ntasks)], body, timeout)
    finally:
        machine.release_tasks(placement)
    return SPMDResult(returns, [c.now for c in world.clocks], world, placement)
