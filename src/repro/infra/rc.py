"""The Resource Coordinator: the DRMS master daemon.

The RC owns one TC per processor and the TC pools of running
applications.  On losing a TC connection it executes the paper's
five-step recovery protocol (Section 4):

1. determine which application/TC pool the disconnected TC belongs to;
2. kill the application's other processes and the pool's TCs;
3. consider the application terminated and inform the user;
4. try to restart the killed TCs (the failed node may first need a
   reboot or repair — modeled by ``node_repair_s``);
5. as each TC reactivates, return its processor to the available pool.

The system stays up throughout, with reduced processor availability;
restarting the application does not wait for the failed node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import MachineError, SchedulerError
from repro.infra.events import EventLog
from repro.infra.tc import TaskCoordinator, TCState
from repro.obs import get_flight, get_tracer
from repro.runtime.clock import use_clock
from repro.runtime.machine import Machine

__all__ = ["ResourceCoordinator"]


class ResourceCoordinator:
    """Master daemon: TC registry, pools, failure detection/recovery."""

    def __init__(
        self,
        machine: Machine,
        events: Optional[EventLog] = None,
        tc_restart_s: float = 5.0,
        node_repair_s: float = 600.0,
    ):
        self.machine = machine
        self.events = events if events is not None else EventLog()
        self.tc_restart_s = float(tc_restart_s)
        self.node_repair_s = float(node_repair_s)
        self.tcs: Dict[int, TaskCoordinator] = {
            n.node_id: TaskCoordinator(n.node_id) for n in machine.nodes
        }
        #: job id -> node ids of its TC pool
        self.pools: Dict[str, List[int]] = {}
        self.clock = 0.0
        #: node id -> simulated time its repair completes
        self.repair_done_at: Dict[int, float] = {}
        #: optional HealthRegistry re-sampled at protocol milestones
        self.health = None

    # -- time -------------------------------------------------------------

    #: the RC is the daemons' active clock (``use_clock(rc)``)
    now = property(lambda self: self.clock)

    def advance(self, dt: float) -> float:
        """Advance the cluster clock by ``dt``; see :meth:`merge`."""
        return self.merge(self.clock + dt)

    def merge(self, at: float) -> float:
        """Move the cluster clock forward to ``at``; completes due repairs."""
        self.clock = max(self.clock, at)
        # Repairs that completed while time advanced bring nodes back.
        for node_id, t in list(self.repair_done_at.items()):
            if self.clock >= t:
                self.machine.repair_node(node_id)
                self.tcs[node_id].reconnect()
                del self.repair_done_at[node_id]
                with use_clock(self):
                    self.events.emit("node_repaired", node=node_id)
        return self.clock

    # -- pools -------------------------------------------------------------

    def available_nodes(self) -> List[int]:
        """Processors with idle, connected TCs."""
        return sorted(
            nid
            for nid, tc in self.tcs.items()
            if tc.idle and self.machine.node(nid).up
        )

    def form_pool(self, job_id: str, ntasks: int) -> List[int]:
        """Allocate a TC pool of ``ntasks`` processors for a job."""
        avail = self.available_nodes()
        if len(avail) < ntasks:
            raise SchedulerError(
                f"job {job_id!r} needs {ntasks} processors; "
                f"{len(avail)} available"
            )
        nodes = avail[:ntasks]
        for rank, nid in enumerate(nodes):
            self.tcs[nid].attach(job_id, [rank])
        self.pools[job_id] = nodes
        with use_clock(self):
            self.events.emit("pool_formed", job=job_id, nodes=nodes)
        return nodes

    def release_pool(self, job_id: str) -> None:
        """Return a completed job's processors to the available pool."""
        for nid in self.pools.pop(job_id, []):
            if self.tcs[nid].connected:
                self.tcs[nid].detach()
        with use_clock(self):
            self.events.emit("pool_released", job=job_id)

    def pool_of(self, job_id: str) -> List[int]:
        return list(self.pools.get(job_id, []))

    # -- failure handling (the five-step protocol) -----------------------------

    def handle_processor_failure(self, node_id: int) -> Optional[str]:
        """Run the recovery protocol for a failed processor.  Returns
        the id of the application that was killed (if the node was in a
        pool) so the scheduler can restart it."""
        if node_id not in self.tcs:
            raise MachineError(f"no TC for node {node_id}")
        obs = get_tracer()
        obs.sync(self.clock)
        obs.metrics.counter("rc.failures").inc()
        with use_clock(self), obs.span("rc.failure_protocol", node=node_id) as sp:
            tc = self.tcs[node_id]
            tc.disconnect()
            if self.machine.node(node_id).up:
                self.machine.fail_node(node_id)
            self.events.emit("tc_disconnected", node=node_id)
            # The node is dead: snapshot its ring before recovery events
            # start landing on the global ring.
            get_flight().auto_blackbox(node_id, reason="processor failure")

            # Step 1: which application/TC pool?
            job_id = tc.job_id
            if job_id is None:
                # Idle node failed: just schedule its repair.
                tc.begin_restart()
                self.repair_done_at[node_id] = self.clock + self.node_repair_s
                self.events.emit("idle_node_failed", node=node_id)
                if self.health is not None:
                    self.health.sample_rc(self)
                sp.set(job=None, idle=True)
                return None

            # Step 2: kill the application's processes and the pool's TCs.
            pool = self.pool_of(job_id)
            self.events.emit("application_killed", job=job_id, pool=pool)

            # Step 3: application considered terminated; user informed.
            self.events.emit("user_informed", job=job_id, reason="node failure")

            # Step 4: restart the killed TCs.  Healthy nodes reconnect after
            # a TC restart; the failed node needs repair first.
            for nid in pool:
                self.tcs[nid].begin_restart()
            self.pools.pop(job_id, None)
            for nid in pool:
                if nid == node_id:
                    self.repair_done_at[nid] = self.clock + self.node_repair_s
                    self.events.emit(
                        "node_repair_started",
                        node=nid,
                        eta=self.clock + self.node_repair_s,
                    )
                else:
                    # Step 5: reactivated TC returns its node to the pool.
                    self.tcs[nid].reconnect()
            self.advance(self.tc_restart_s)
            obs.sync(self.clock)
            self.events.emit(
                "tcs_restarted",
                job=job_id,
                healthy=[n for n in pool if n != node_id],
            )
            if self.health is not None:
                self.health.sample_rc(self)
            sp.set(job=job_id, pool=pool)
        return job_id

    # -- localized failure protocol --------------------------------------------

    def handle_localized_failure(
        self, node_ids: List[int], job_id: Optional[str] = None
    ) -> Dict[int, int]:
        """The localized variant of the failure protocol: survivors'
        TCs stay connected (their tasks quiesce at the next SOP instead
        of being killed), only the dead nodes are disconnected, and an
        idle processor replaces each dead pool member.  The job pool is
        patched in place; only the *replacement* TCs pay the TC spawn
        time.  Returns ``{failed node -> replacement node}``.  Raises
        :class:`~repro.errors.SchedulerError` when no idle processor
        can replace a dead pool member — callers then fall back to the
        full kill-and-restart protocol."""
        node_ids = [int(n) for n in node_ids]
        for nid in node_ids:
            if nid not in self.tcs:
                raise MachineError(f"no TC for node {nid}")
        obs = get_tracer()
        obs.sync(self.clock)
        with use_clock(self), obs.span(
            "rc.failure_protocol", nodes=list(node_ids), localized=True
        ) as sp:
            job = job_id
            for nid in node_ids:
                tc = self.tcs[nid]
                if job is None:
                    job = tc.job_id
                obs.metrics.counter("rc.failures").inc()
                tc.disconnect()
                if self.machine.node(nid).up:
                    self.machine.fail_node(nid)
                self.events.emit("tc_disconnected", node=nid)
                get_flight().auto_blackbox(nid, reason="processor failure")
            replacements: Dict[int, int] = {}
            pool = self.pools.get(job, []) if job is not None else []
            spares = [n for n in self.available_nodes() if n not in pool]
            for nid in node_ids:
                tc = self.tcs[nid]
                ranks = list(tc.ranks)
                tc.begin_restart()
                self.repair_done_at[nid] = self.clock + self.node_repair_s
                self.events.emit(
                    "node_repair_started",
                    node=nid,
                    eta=self.clock + self.node_repair_s,
                )
                if nid not in pool:
                    continue
                if not spares:
                    raise SchedulerError(
                        f"no idle processor to replace failed node {nid}; "
                        "localized recovery needs a spare (fall back to "
                        "the full restart protocol)"
                    )
                new = spares.pop(0)
                self.tcs[new].attach(job, ranks)
                pool[pool.index(nid)] = new
                replacements[nid] = new
                self.events.emit(
                    "task_migrated", job=job,
                    node=new, from_node=nid, ranks=ranks,
                )
            # Only the replacement TCs spawn; survivors never restart.
            self.advance(self.tc_restart_s)
            obs.sync(self.clock)
            if job is not None:
                healthy = [n for n in pool if n not in replacements.values()]
                self.events.emit(
                    "tcs_restarted",
                    job=job,
                    healthy=healthy,
                    localized=True,
                    replacements={
                        int(k): int(v) for k, v in replacements.items()
                    },
                )
            if self.health is not None:
                self.health.sample_rc(self)
            sp.set(job=job, replacements=dict(replacements))
        return replacements
