"""The Job Scheduler and Analyzer.

The JSA assigns processors to applications and schedules them (paper
Section 4).  It exploits reconfigurable checkpointing three ways:

1. user-directed checkpoint/archive/restart (``submit`` + ``restart``);
2. dynamic scheduling: shrink or grow a running job by enabling a
   system-initiated checkpoint (``reconfig_chkenable``) and restarting
   it on a different pool (:meth:`reconfigure`);
3. automatic failure recovery: restart a killed application from its
   latest checkpoint on the surviving processors (:meth:`recover`),
   without waiting for the failed node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checkpoint.recover import open_latest_valid
from repro.drms.app import DRMSApplication, RunReport
from repro.errors import SchedulerError, TaskFailure
from repro.infra.events import EventLog
from repro.infra.rc import ResourceCoordinator
from repro.obs import get_tracer
from repro.runtime.clock import use_clock

__all__ = ["JobState", "Job", "JobSchedulerAnalyzer"]


class JobState(enum.Enum):
    """Lifecycle state of a scheduled job."""
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    KILLED = "killed"
    FAILED = "failed"


@dataclass
class Job:
    """One scheduled application."""

    job_id: str
    app: DRMSApplication
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    #: checkpoint prefix this job writes (and recovers from)
    prefix: str = "ckpt"
    state: JobState = JobState.QUEUED
    ntasks: int = 0
    reports: List[RunReport] = field(default_factory=list)


class JobSchedulerAnalyzer:
    """Processor assignment + checkpoint-aware scheduling policy."""

    def __init__(self, rc: ResourceCoordinator, events: Optional[EventLog] = None):
        self.rc = rc
        self.events = events if events is not None else rc.events
        self.jobs: Dict[str, Job] = {}
        #: optional HealthRegistry re-sampled at job transitions
        self.health = None

    def _sample_health(self) -> None:
        if self.health is not None:
            self.health.sample_jsa(self)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        job_id: str,
        app: DRMSApplication,
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        prefix: str = "ckpt",
    ) -> Job:
        """Queue a job (application + args + checkpoint prefix)."""
        if job_id in self.jobs:
            raise SchedulerError(f"duplicate job id {job_id!r}")
        job = Job(
            job_id=job_id,
            app=app,
            args=tuple(args),
            kwargs=dict(kwargs or {}),
            prefix=prefix,
        )
        self.jobs[job_id] = job
        with use_clock(self.rc):
            self.events.emit("job_submitted", job=job_id)
        return job

    def pick_ntasks(self, job: Job, want: Optional[int] = None) -> int:
        """Choose a task count within the job's SOQ resource range that
        fits the available processors (largest feasible by default)."""
        avail = len(self.rc.available_nodes())
        soq = job.app.soq
        top = avail if want is None else min(want, avail)
        for n in range(top, 0, -1):
            if soq.valid(n):
                return n
        raise SchedulerError(
            f"job {job.job_id!r}: no valid task count <= {top} "
            f"(resource section: min {soq.min_tasks}, max {soq.max_tasks})"
        )

    # -- execution -----------------------------------------------------------

    def run(self, job_id: str, ntasks: Optional[int] = None) -> RunReport:
        """Start a queued job from the beginning."""
        job = self._job(job_id)
        n = self.pick_ntasks(job, ntasks)
        obs = get_tracer()
        obs.sync(self.rc.clock)
        with use_clock(self.rc), obs.span("job.run", job=job_id, ntasks=n):
            nodes = self.rc.form_pool(job_id, n)
            report = self._execute(
                job, n,
                lambda: job.app.start(
                    n, args=job.args, kwargs=job.kwargs, nodes=nodes
                ),
            )
            self.events.emit(
                "job_completed", job=job_id, ntasks=n,
                sim_elapsed=report.sim_elapsed,
            )
            self._sample_health()
        return report

    def _execute(self, job: Job, n: int, launch) -> RunReport:
        """Run ``launch()`` as the job's execution on its pool of ``n``
        nodes, and settle the books: the RC reaches its end, then frees it."""
        job.state = JobState.RUNNING
        job.ntasks = n
        try:
            report = launch()
        except TaskFailure:
            # Pool stays attached: the RC's failure protocol owns the
            # cleanup (it must see which pool the dead TC belonged to).
            job.state = JobState.KILLED
            raise
        except Exception:
            job.state = JobState.KILLED
            self.rc.release_pool(job.job_id)
            raise
        self.rc.advance(report.sim_elapsed)
        self.rc.release_pool(job.job_id)
        job.state = JobState.COMPLETED
        job.reports.append(report)
        get_tracer().sync(self.rc.clock)
        return report

    def restart(self, job_id: str, ntasks: Optional[int] = None) -> RunReport:
        """Restart a job from the newest checkpointed state under its
        prefix that opens — every byte it delivers verifies — on a
        (possibly different-sized) pool of currently available
        processors.  Corrupt newer states are skipped — each rejection
        and the eventual fallback are recorded in the event log."""
        return self._restart(self._job(job_id), ntasks)

    def _restart(
        self,
        job: Job,
        ntasks: Optional[int] = None,
        failure: Optional[Tuple[Dict[int, int], Sequence[int], Dict[int, int]]] = None,
    ) -> RunReport:
        """Open the restart state, settle the pool, relaunch, account.
        A plain restart forms a fresh pool of ``ntasks``; ``failure``
        (pre-failure placement, failed nodes, failed node -> replacement
        node) makes it a localized one that keeps the patched pool.  The
        walk opens the generation onto the relaunch's task count and the
        application is handed the opened state."""
        job_id = job.job_id
        obs = get_tracer()
        obs.sync(self.rc.clock)
        with use_clock(self.rc), obs.span("job.restart", job=job_id) as sp:
            if failure is None:
                n = self.pick_ntasks(job, ntasks)
                localized = None
            else:
                placement, failed_nodes, replacements = failure
                n = len(placement)
                nodes = self.rc.pool_of(job_id)
                if len(nodes) != n:
                    raise SchedulerError(
                        f"localized recovery keeps the task count: pool has "
                        f"{len(nodes)} nodes for {n} ranks"
                    )
                localized = (
                    placement,
                    failed_nodes,
                    # lost rank -> its replacement node
                    {
                        r: replacements[nd]
                        for r, nd in placement.items()
                        if nd in replacements
                    },
                )
            # Walk the rotation generations (then the bare prefix) newest
            # first, opening each; memory+pfs applications contribute
            # their L1 store, dead nodes' memory dropped first (newest
            # generation satisfiable from any tier, memory preferred).
            l1 = job.app.l1_store_for(job.prefix)
            if l1 is not None:
                l1.sync_with_machine()
            opened, decision = open_latest_valid(
                job.app.pfs, job.prefix, job.app.opener(n, l1, localized), l1,
                events=self.events, job=job_id,
            )
            if opened is None:
                raise SchedulerError(f"job {job_id!r}: {decision.failure()}")
            if failure is None:
                nodes = self.rc.form_pool(job_id, n)
            sp.set(ntasks=n, prefix=opened.prefix)
            relaunch = job.app.restart_localized if localized else job.app.restart
            report = self._execute(
                job, n,
                lambda: relaunch(
                    opened, n, args=job.args, kwargs=job.kwargs, nodes=nodes,
                ),
            )
            bd = report.restart_breakdown
            scope = report.rebuild_scope
            self.events.emit(
                "job_restarted", job=job_id, ntasks=n,
                sim_elapsed=report.sim_elapsed,
                prefix=opened.prefix,
                restart_seconds=bd.total_seconds if bd is not None else 0.0,
                restart_kind=bd.kind if bd is not None else None,
                **({"rebuild_scope": scope.describe()} if scope is not None else {}),
            )
            self._sample_health()
        return report

    # -- policy hooks -----------------------------------------------------------

    def _recovering(self, job: Job, **how: Any):
        """Announce a recovery and open its span."""
        with use_clock(self.rc):
            self.events.emit("recovery_started", job=job.job_id, **how)
        obs = get_tracer()
        obs.sync(self.rc.clock)
        obs.metrics.counter("jsa.recoveries").inc()
        return obs.span("job.recover", job=job.job_id, **how)

    def recover(self, job_id: str, ntasks: Optional[int] = None) -> RunReport:
        """Failure recovery: restart the killed job from its latest
        checkpoint on the surviving processors.  The new pool may be
        smaller (failed node out for repair), equal, or larger."""
        job = self._job(job_id)
        with self._recovering(job):
            return self._restart(job, ntasks)

    def recover_localized(
        self,
        job_id: str,
        placement: Dict[int, int],
        failed_nodes: Sequence[int],
        replacements: Dict[int, int],
    ) -> RunReport:
        """Localized failure recovery: survivors keep their pool slots
        (the RC already patched in the replacement nodes), everyone
        rolls back to the newest satisfiable generation, and only the
        lost ranks' sections move over the switch
        (:mod:`repro.mlck.localized`).  ``placement`` is the pre-failure
        ``{rank: node}`` map; ``replacements`` maps each failed node to
        the node that took over its ranks."""
        job = self._job(job_id)
        with self._recovering(job, localized=True):
            return self._restart(job, failure=(placement, failed_nodes, replacements))

    def enable_system_checkpoint(self, job_id: str) -> None:
        """Arm a system-initiated checkpoint: the job's next
        ``reconfig_chkenable`` call writes its state (used before a
        planned shrink/grow or priority preemption)."""
        self._job(job_id).app.enable_checkpoint()
        with use_clock(self.rc):
            self.events.emit("checkpoint_enabled", job=job_id)

    def _job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job {job_id!r}") from None
