"""The SPMD execution engine: run one function on ``ntasks`` tasks.

``run_spmd(fn, ntasks)`` spawns one thread per task, hands each a
:class:`~repro.runtime.comm.TaskComm`, and collects return values.  If
any task raises, the world is killed so sibling tasks unwind from
blocked communication instead of hanging, and the original exception is
re-raised in the caller — the behaviour of a parallel job whose task
crash takes the whole application down (paper Section 1).  A rank
thread's active clock is the launcher's ``now()`` plus its task clock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.errors import CommunicationError, TaskFailure
from repro.runtime.clock import SimClock, now, use_clock
from repro.runtime.comm import CommWorld, TaskComm
from repro.runtime.machine import Machine

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
    comm_timeout: float = 60.0,
    make_context: Optional[Callable[[TaskComm], Any]] = None,
) -> SPMDResult:
    """Execute ``fn(ctx, *args, **kwargs)`` as an SPMD program.

    ``ctx`` is the task's :class:`TaskComm` unless ``make_context`` wraps
    it (the DRMS layer passes a richer task context).  Tasks are placed
    one-to-one on machine nodes; the placement is recorded so the I/O
    cost model can see compute/server colocation.
    """
    kwargs = kwargs or {}
    machine = machine or Machine()
    machine.clear_tasks()
    placement = machine.place_tasks(ntasks, nodes=nodes)
    world = CommWorld(ntasks, machine=machine, default_timeout=comm_timeout)
    world.placement = placement  # rank -> node id, visible to task code
    returns: List[Any] = [None] * ntasks
    errors: List[Optional[BaseException]] = [None] * ntasks
    launch = now()

    def body(rank: int) -> None:
        comm = TaskComm(world, rank)
        ctx = make_context(comm) if make_context else comm
        try:
            with use_clock(_Launched(launch, world.clocks[rank])):
                returns[rank] = fn(ctx, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must fan out any crash
            errors[rank] = exc
            world.kill()

    threads = [
        threading.Thread(target=body, args=(rank,), name=f"spmd-task-{rank}")
        for rank in range(ntasks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    hung = [t.name for t in threads if t.is_alive()]
    if hung:
        world.kill()
        for t in threads:
            t.join(timeout=5.0)
        raise CommunicationError(f"SPMD tasks did not finish: {hung}")

    # Prefer reporting a primary failure over the TaskFailure echoes the
    # kill produced in sibling tasks.
    primary = next(
        (e for e in errors if e is not None and not isinstance(e, TaskFailure)),
        None,
    )
    if primary is not None:
        raise primary
    secondary = next((e for e in errors if e is not None), None)
    if secondary is not None:
        raise secondary

    result = SPMDResult(
        returns=returns,
        clocks=[c.now for c in world.clocks],
        world=world,
        placement=placement,
    )
    machine.clear_tasks()
    return result
