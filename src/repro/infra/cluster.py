"""DRMSCluster: the wired-up environment, plus the recovery scenario.

Combines one machine, one PIOFS instance, and the four daemons.  The
headline capability (paper Section 4, item 3): run an application with
an armed failure plan; when the node dies mid-run the application
crashes, the RC executes its recovery protocol, and the JSA restarts the
application from its latest checkpoint on the *surviving* nodes — the
restart never waits for the failed node's repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.drms.app import DRMSApplication, RunReport
from repro.errors import TaskFailure
from repro.infra.events import EventLog
from repro.infra.failure import FailurePlan
from repro.infra.jsa import JobSchedulerAnalyzer
from repro.infra.rc import ResourceCoordinator
from repro.infra.uic import UserInterfaceCoordinator
from repro.obs import HealthRegistry, get_flight
from repro.pfs.piofs import PIOFS
from repro.runtime.clock import use_clock
from repro.runtime.machine import Machine

__all__ = ["DRMSCluster", "RecoveryOutcome"]


@dataclass
class RecoveryOutcome:
    """What happened across a failure + recovery scenario."""

    tasks_before: int
    tasks_after: int
    final_report: RunReport
    #: simulated time from failure detection to the restarted run's launch
    recovery_latency_s: float
    #: simulated time until the failed node itself is repaired
    node_repair_s: float
    events: List[Any] = field(default_factory=list)
    #: all nodes lost in the incident, in firing order
    failed_nodes: List[int] = field(default_factory=list)
    #: localized recovery only: what was rebuilt, and for whom
    rebuild_scope: Optional[Any] = None

    @property
    def failed_node(self) -> Optional[int]:
        """The first node lost in the incident (None without one)."""
        return self.failed_nodes[0] if self.failed_nodes else None

    @property
    def recovered_without_repair(self) -> bool:
        """The paper's claim: restart does not wait for the repair."""
        return self.recovery_latency_s < self.node_repair_s


class DRMSCluster:
    """One complete DRMS installation."""

    def __init__(
        self,
        machine: Optional[Machine] = None,
        pfs: Optional[PIOFS] = None,
        tc_restart_s: float = 5.0,
        node_repair_s: float = 600.0,
        detection_s: float = 2.0,
    ):
        self.machine = machine or Machine()
        self.pfs = pfs or PIOFS(machine=self.machine)
        self.events = EventLog()
        self.rc = ResourceCoordinator(
            self.machine,
            events=self.events,
            tc_restart_s=tc_restart_s,
            node_repair_s=node_repair_s,
        )
        self.jsa = JobSchedulerAnalyzer(self.rc, events=self.events)
        self.uic = UserInterfaceCoordinator(self.jsa, events=self.events)
        self.detection_s = float(detection_s)
        # One health registry for the whole installation; the daemons
        # re-sample it at their interesting moments.
        self.health = HealthRegistry()
        self.rc.health = self.health
        self.jsa.health = self.health

    def build_app(self, main, name: str = "app", **options: Any) -> DRMSApplication:
        """An application bound to this cluster's machine and PIOFS."""
        app = DRMSApplication(
            main, name=name, machine=self.machine, pfs=self.pfs, **options
        )
        # Memory-tier replica placement and drain events land on the
        # cluster log, interleaved with the daemons' own events.
        app.events = self.events
        app.health = self.health
        return app

    # -- failure-domain queries ------------------------------------------------

    def failure_domain_of(self, node_id: int) -> int:
        """The failure domain (frame/rack block) holding ``node_id``."""
        return self.machine.domain_of(node_id)

    def domain_nodes(self, domain: int) -> List[int]:
        """All node ids in one failure domain."""
        return self.machine.domain_nodes(domain)

    def partners_for(self, node_id: int, k: int = 1) -> List[int]:
        """Replica partners an L1 store would pick for ``node_id``: up
        nodes outside its failure domain.  A degenerate single-domain
        cluster falls back to same-domain partners and records an
        ``mlck_partner_fallback`` warning on the cluster event log."""
        from repro.mlck.placement import select_partners

        with use_clock(self.rc):
            return select_partners(self.machine, node_id, k=k, events=self.events)

    # -- the failure/recovery scenario -----------------------------------------

    def run_with_recovery(
        self,
        job_id: str,
        app: DRMSApplication,
        ntasks: int,
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        prefix: str = "ckpt",
        failure: Optional[FailurePlan] = None,
        restart_ntasks: Optional[int] = None,
    ) -> RecoveryOutcome:
        """Run ``app``; if a processor fails mid-run, recover it from
        its latest checkpoint on the surviving nodes and run to
        completion.  Without a failure plan this is a plain run."""
        with use_clock(self.rc):
            return self._run_recovering(
                job_id, app, ntasks, args, kwargs, prefix, failure,
                restart_ntasks, localized=False,
            )

    def run_with_localized_recovery(
        self,
        job_id: str,
        app: DRMSApplication,
        ntasks: int,
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        prefix: str = "ckpt",
        failure: Optional[FailurePlan] = None,
    ) -> RecoveryOutcome:
        """Run ``app``; on node failure, recover *locally*: survivors
        quiesce at the next SOP instead of being killed, idle
        processors replace the dead pool members, everyone rolls back
        to the newest satisfiable generation with survivor-local data
        movement, the lost replicas are re-placed outside the
        replacement nodes' failure domains, and the run resumes on the
        same task count.  Entries of a ``FailurePlan(multi=)`` schedule
        that share the crash iteration strike as one simultaneous
        multi-node failure."""
        with use_clock(self.rc):
            return self._run_recovering(
                job_id, app, ntasks, args, kwargs, prefix, failure,
                None, localized=True,
            )

    def _run_recovering(
        self,
        job_id: str,
        app: DRMSApplication,
        ntasks: int,
        args: Sequence[Any],
        kwargs: Optional[dict],
        prefix: str,
        failure: Optional[FailurePlan],
        restart_ntasks: Optional[int],
        localized: bool,
    ) -> RecoveryOutcome:
        """The scenario both protocols share: run, and on a node failure
        inject → detect → RC failure protocol → drop the dead memory →
        JSA recovery.  The protocols differ in what the RC does to the
        pool and in which recovery the JSA runs."""
        self.jsa.submit(job_id, app, args=args, kwargs=kwargs, prefix=prefix)
        app.failure_plan = failure
        fired_before = len(failure.fired_nodes) if failure is not None else 0
        try:
            report = self.jsa.run(job_id, ntasks=ntasks)
            self.health.sample_cluster(self, apps=[app])
            return RecoveryOutcome(
                tasks_before=ntasks,
                tasks_after=ntasks,
                final_report=report,
                recovery_latency_s=0.0,
                node_repair_s=self.rc.node_repair_s,
                events=list(self.events),
            )
        except TaskFailure:
            # Whichever task's exception surfaced (the victim's
            # NodeFailure or a sibling's echo), the incident is what
            # the plan fired during this run.
            failed_nodes = (
                failure.fired_nodes[fired_before:] if failure is not None else []
            )
            if not failed_nodes:
                raise
        finally:
            app.failure_plan = None
        self.rc.merge(failure.fired_time)  # the instant the node died

        if localized:
            # Same-iteration schedule entries strike together: the first
            # victim's crash killed the task group before its siblings'
            # claims could run, so drain them into this incident.
            for node in failure.drain_simultaneous():
                failed_nodes.append(node)
                if self.machine.node(node).up:
                    self.machine.fail_node(node)
            # The pre-failure placement, before the RC patches the pool.
            placement = dict(enumerate(self.rc.pool_of(job_id)))

        # Anchor the forensic timeline at the instant the nodes died,
        # before the detector delay elapses.
        for node in failed_nodes:
            self.events.emit("failure_injected", node=node, job=job_id)
        # Failure detected (lost TC connection) after the detector delay.
        self.rc.advance(self.detection_s)
        if localized:
            # survivors quiesce at the last SOP the group crossed
            self.events.emit(
                "survivors_quiesced", job=job_id,
                nodes=[n for n in placement.values() if n not in failed_nodes],
                **(app.sop_quiescence() or {}),
            )
            replacements = self.rc.handle_localized_failure(
                failed_nodes, job_id=job_id
            )
        else:
            for node in failed_nodes:
                self.rc.handle_processor_failure(node)
        for node in failed_nodes:
            # The dead node's memory is gone with it: drop any L1
            # replica copies it held so the tier-aware recovery walk
            # sees the loss.  The RC (or the L1 drop) already
            # snapshotted the dead node's ring; the black box here is
            # the backstop for non-mlck configurations.
            app.on_node_failure(node)
            get_flight().auto_blackbox(node, reason="failure plan fired")

        # The JSA restarts the job from its latest checkpoint.  It does
        # NOT wait for the repair.
        if localized:
            report = self.jsa.recover_localized(
                job_id, placement, failed_nodes, replacements
            )
        else:
            report = self.jsa.recover(job_id, ntasks=restart_ntasks)
        latency = report.restart_breakdown.total_seconds + (
            self.rc.tc_restart_s + self.detection_s
        )
        self.health.sample_cluster(self, apps=[app])
        return RecoveryOutcome(
            tasks_before=ntasks,
            tasks_after=report.ntasks,
            final_report=report,
            recovery_latency_s=latency,
            node_repair_s=self.rc.node_repair_s,
            events=list(self.events),
            failed_nodes=list(failed_nodes),
            rebuild_scope=report.rebuild_scope,
        )
