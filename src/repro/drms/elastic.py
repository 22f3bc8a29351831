"""On-the-fly reconfiguration from volatile memory (paper §2.2).

"Applications can be reconfigured using the state of the application
from volatile memory on-the-fly or from the state saved in more
permanent storage such as in a checkpoint file."  The checkpoint path
is :meth:`~repro.drms.app.DRMSApplication.restart`; this module is the
volatile path — the one DRMS's dynamic resource management uses when
the JSA shrinks or grows a *healthy* job, where no disk I/O is needed:
at an SOP the task set is torn down, the distributed arrays are
redistributed in memory, and a new task set resumes from the same SOP.

Usage: the application marks reconfiguration points with
``ctx.reconfig_point()``; a controller (the JSA, a test, an operator)
calls :meth:`ElasticRunner.request` with a new task count; the runner
drives the run across the resulting segments::

    runner = ElasticRunner(app)
    runner.request(4)         # may also be called mid-run
    report = runner.run(8, args=(100, "ck"))
    report.segments           # [(8, t0), (4, t1), ...]

Simulated time: each segment contributes its SPMD clock; a
reconfiguration adds the in-memory redistribution cost (wire bytes over
the machine's bisection bandwidth) — *no* file-system time, which is
exactly why the volatile path is cheap (see the ablation bench).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arrays.assignment import array_assign, schedule_bytes
from repro.arrays.darray import DistributedArray
from repro.checkpoint.drms import RestoredState
from repro.checkpoint.segment import DataSegment, ExecutionContext
from repro.drms.app import AppRuntime, DRMSApplication, RunReport
from repro.errors import ReconfigurationError, ReproError

__all__ = ["ReconfigExit", "ElasticReport", "ElasticRunner"]


class ReconfigExit(ReproError):
    """Control-flow signal: the task set dissolves at this SOP so the
    application can resume on ``ntasks`` tasks from in-memory state."""

    def __init__(self, ntasks: int):
        super().__init__(f"reconfiguring to {ntasks} tasks")
        self.ntasks = ntasks


@dataclass
class ElasticReport:
    """Outcome of an elastic run."""

    final: RunReport
    #: (task count, simulated seconds spent in that segment)
    segments: List[Tuple[int, float]] = field(default_factory=list)
    #: simulated seconds spent redistributing state between segments
    reconfiguration_seconds: float = 0.0

    @property
    def sim_elapsed(self) -> float:
        return sum(s for _, s in self.segments) + self.reconfiguration_seconds

    @property
    def reconfigurations(self) -> int:
        return max(0, len(self.segments) - 1)


class ElasticRunner:
    """Drives one application across on-the-fly reconfigurations."""

    def __init__(self, app: DRMSApplication):
        self.app = app
        # a controller that has not yet called the scheduler requests without the baton
        self._lock = threading.Lock()
        self._request: Optional[int] = None

    # -- controller side ------------------------------------------------------

    def request(self, ntasks: int) -> None:
        """Ask the running application to reconfigure to ``ntasks`` at
        its next reconfiguration point."""
        self.app.soq.check(ntasks)
        with self._lock:
            self._request = ntasks

    def consume_request(self, current: int) -> Optional[int]:
        """One-shot read of a pending resize request (None when absent or equal)."""
        with self._lock:
            req = self._request
            self._request = None
        if req is None or req == current:
            return None
        return req

    # -- the driver loop ------------------------------------------------------

    def run(
        self,
        ntasks: int,
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        max_segments: int = 64,
    ) -> ElasticReport:
        """Drive the application across reconfiguration segments to completion."""
        app = self.app
        app.soq.check(ntasks)
        app._elastic_runner = self
        report = ElasticReport(final=None)  # type: ignore[arg-type]
        restored: Optional[RestoredState] = None
        charge = 0.0
        try:
            for _ in range(max_segments):
                runtime = AppRuntime(
                    app, ntasks, restored=restored, pending_clock_charge=charge
                )
                try:
                    result = app._execute(ntasks, runtime, args, kwargs, None)
                except ReconfigExit as exc:
                    mem = runtime.memory_state
                    if mem is None:
                        raise ReconfigurationError(
                            "reconfig point fired without captured state"
                        ) from exc
                    report.segments.append((ntasks, mem["elapsed"]))
                    restored, redis_s = self._redistribute(runtime, mem, exc.ntasks)
                    report.reconfiguration_seconds += redis_s
                    charge = redis_s
                    ntasks = exc.ntasks
                    continue
                report.segments.append((ntasks, max(result.clocks, default=0.0)))
                report.final = RunReport(
                    ntasks=ntasks,
                    returns=result.returns,
                    sim_elapsed=report.sim_elapsed,
                    checkpoints=runtime.checkpoints,
                    replicated=dict(runtime.replicated),
                    arrays=dict(runtime.arrays),
                )
                return report
            raise ReconfigurationError(
                f"more than {max_segments} reconfigurations; livelock?"
            )
        finally:
            app._elastic_runner = None

    def _redistribute(
        self, runtime: AppRuntime, mem: Dict[str, Any], new_ntasks: int
    ) -> Tuple[RestoredState, float]:
        """In-memory redistribution of every array to the new task
        count; returns the synthetic restore state plus the simulated
        redistribution time (wire bytes over the bisection)."""
        old_ntasks = runtime.ntasks
        params = self.app.machine.params
        bisection_bps = (
            params.link_bandwidth_mbps * 1e6 * params.bisection_links
        )
        arrays = {}
        wire = 0
        for name, arr in mem["arrays"].items():
            arrays[name] = out = DistributedArray(
                arr.name, arr.shape, arr.dtype,
                arr.distribution.adjust(new_ntasks), store_data=arr.store_data,
            )
            # the one cached schedule moves the data and counts the wire
            sched = array_assign(out, arr)
            wire += schedule_bytes(sched, arr.itemsize, remote_only=True)
        segment = DataSegment(
            profile=self.app.resolve_segment_profile(runtime),
            replicated=dict(mem["replicated"]),
            context=ExecutionContext(
                sop_id=mem["sop_id"],
                iteration=mem["iteration"],
                control=dict(mem["control"]),
            ),
        )
        state = RestoredState(
            segment=segment,
            arrays=arrays,
            ntasks=new_ntasks,
            checkpoint_ntasks=old_ntasks,
            manifest={"kind": "memory"},
        )
        return state, params.link_latency_s + wire / bisection_bps
