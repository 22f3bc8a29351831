"""Application runtime and driver: build, run, checkpoint, restart.

:class:`DRMSApplication` is what a user constructs around an SPMD
``main(ctx, ...)`` function written against the
:class:`~repro.drms.context.DRMSContext` API.  It owns the persistent
pieces (machine, parallel file system, resource spec) and runs the
application on any valid task count — fresh (:meth:`start`) or from a
checkpointed state (:meth:`restart`), with an equal, larger, or smaller
task pool.

:class:`AppRuntime` is the per-run shared state the task contexts
coordinate through: the distributed-array registry, replicated
variables, the SOQ control section, and the checkpoint engine hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.checkpoint.drms import (
    CheckpointBreakdown,
    RestartBreakdown,
    RestoredState,
    drms_checkpoint,
    open_generation,
    restart_opener,
)
from repro.checkpoint.recover import OpenedGeneration
from repro.checkpoint.segment import DataSegment, ExecutionContext, SegmentProfile
from repro.drms.context import DRMSContext
from repro.drms.soq import SOQSpec
from repro.errors import ReconfigurationError
from repro.pfs.piofs import PIOFS
from repro.runtime.executor import SPMDResult, run_spmd
from repro.runtime.machine import Machine

__all__ = ["AppRuntime", "RunReport", "DRMSApplication"]


class AppRuntime:
    """Shared per-run state for one application execution."""

    def __init__(
        self,
        app: "DRMSApplication",
        ntasks: int,
        restored: Optional[RestoredState] = None,
        pending_clock_charge: float = 0.0,
    ):
        self.app = app
        self.ntasks = ntasks
        self.pfs = app.pfs
        self.store_data = app.store_data
        self.restored = restored
        self.pending_clock_charge = pending_clock_charge
        #: armed by the cluster/failure injector; see DRMSContext._maybe_fail
        self.failure_plan = app.failure_plan
        self.arrays: Dict[str, Any] = {}
        self.replicated: Dict[str, Any] = (
            dict(restored.segment.replicated) if restored else {}
        )
        self.control: Dict[str, Any] = (
            dict(restored.segment.context.control) if restored else {}
        )
        self.checkpoints: List[Tuple[str, CheckpointBreakdown]] = []
        #: the application's cadence policy and this run's private rule
        #: state (fresh per run, so a restart re-anchors every schedule)
        self.policy = app.policy
        self.policy_state: Dict[str, Any] = {}
        self._restored_pool: Dict[str, Any] = dict(restored.arrays) if restored else {}
        self._coll_result: Any = None
        #: volatile state captured at a reconfiguration point (see
        #: repro.drms.elastic)
        self.memory_state: Optional[Dict[str, Any]] = None
        #: last synchronization point the tasks crossed — the quiesce
        #: anchor of a localized recovery (survivors pause *here*)
        self.last_sop: int = 0
        self.last_sop_iteration: Optional[int] = None

    def note_sop_crossing(self, sop_id: int, iteration: int) -> None:
        """Record that the task group crossed a SOP (the localized
        recovery protocol quiesces survivors at the next one)."""
        self.last_sop = sop_id
        self.last_sop_iteration = iteration

    def capture_memory_state(self, iteration: int, sop_id: int, elapsed: float) -> None:
        """Snapshot the live application state for an on-the-fly
        reconfiguration (no file I/O; the arrays move by reference)."""
        self.memory_state = {
            "arrays": dict(self.arrays),
            "replicated": dict(self.replicated),
            "control": dict(self.control),
            "iteration": iteration,
            "sop_id": sop_id,
            "elapsed": elapsed,
        }

    # -- restored-array handoff ------------------------------------------------

    def take_restored_array(self, name: str):
        """Claim a restored array for (re)binding; one-shot per name."""
        return self._restored_pool.pop(name, None)

    def peek_restored_array(self, name: str):
        return self._restored_pool.get(name)

    # -- checkpoint plumbing ------------------------------------------------------

    def build_segment(self, iteration: int, sop_id: int) -> DataSegment:
        """Assemble the DataSegment captured by a checkpoint at this SOP."""
        profile = self.app.resolve_segment_profile(self)
        return DataSegment(
            profile=profile,
            replicated=dict(self.replicated),
            context=ExecutionContext(
                sop_id=sop_id, iteration=iteration, control=dict(self.control)
            ),
        )

    def engine_checkpoint(
        self, prefix: str, segment: DataSegment
    ) -> CheckpointBreakdown:
        """Run the DRMS checkpoint engine over the live array registry.

        Under ``tier="memory+pfs"`` the state is captured into the
        application's multi-level checkpointer: ``prefix`` acts as the
        rotation base, the application blocks only for the memory-speed
        L1 capture, and the PFS drain runs behind its back."""
        arrays = list(self.arrays.values())
        if self.app.tier == "memory+pfs":
            ck = self.app.mlck_for(prefix)
            mbd = ck.checkpoint(segment, arrays, self.ntasks)
            self.checkpoints.append((mbd.prefix, mbd.capture))
            return mbd.capture
        bd = drms_checkpoint(
            self.pfs, prefix, segment, arrays, order=self.app.order,
            io_tasks=self.app.io_tasks, target_bytes=self.app.target_bytes,
            app_name=self.app.name, ntasks=self.ntasks,
        )
        self.checkpoints.append((prefix, bd))
        return bd

    def consume_checkpoint_enable(self) -> bool:
        """One-shot read of the system's enabling signal."""
        return self.app.consume_checkpoint_enable()


@dataclass
class RunReport:
    """Outcome of one application run."""

    ntasks: int
    returns: List[Any]
    #: simulated wall time of the whole run, seconds
    sim_elapsed: float
    checkpoints: List[Tuple[str, CheckpointBreakdown]]
    restarted_from: Optional[str] = None
    restart_breakdown: Optional[RestartBreakdown] = None
    replicated: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, Any] = field(default_factory=dict)
    #: set by localized recovery: the RebuildScope the restart rebuilt
    rebuild_scope: Optional[Any] = None

    @property
    def checkpoint_seconds(self) -> float:
        return sum(bd.total_seconds for _, bd in self.checkpoints)


class DRMSApplication:
    """A reconfigurable, checkpointable SPMD application."""

    def __init__(
        self,
        main: Callable[..., Any],
        name: str = "app",
        machine: Optional[Machine] = None,
        pfs: Optional[PIOFS] = None,
        soq: Optional[SOQSpec] = None,
        segment_profile: Optional[SegmentProfile | Callable[[AppRuntime], SegmentProfile]] = None,
        store_data: bool = True,
        order: str = "F",
        io_tasks: Optional[int] = None,
        target_bytes: int = 1 << 20,
        run_timeout: float = 300.0,
        tier: str = "pfs",
        mlck_k: int = 1,
        mlck_keep: int = 2,
        mlck_drain: str = "async",
        policy: Optional[Any] = None,
    ):
        if tier not in ("pfs", "memory+pfs"):
            raise ReconfigurationError(
                f"unknown application checkpoint tier {tier!r} "
                "(expected 'pfs' or 'memory+pfs')"
            )
        self.main = main
        self.name = name
        self.machine = machine or Machine()
        self.pfs = pfs or PIOFS(machine=self.machine)
        self.soq = soq or SOQSpec(name=name)
        self.segment_profile = segment_profile
        self.store_data = store_data
        self.order = order
        self.io_tasks = io_tasks
        self.target_bytes = target_bytes
        #: the watchdog of a run (see run_spmd's ``timeout``)
        self.run_timeout = run_timeout
        #: checkpoint store tier: "pfs" writes the PFS directly;
        #: "memory+pfs" captures into the replicated L1 memory tier and
        #: drains to the PFS asynchronously (repro.mlck)
        self.tier = tier
        self.mlck_k = mlck_k
        self.mlck_keep = mlck_keep
        self.mlck_drain = mlck_drain
        #: checkpoint-cadence policy driving ``ctx.policy_checkpoint``
        #: (a :class:`~repro.policy.engine.CheckpointPolicy`, or None
        #: when the application decides its own cadence)
        self.policy = policy
        #: one MultiLevelCheckpointer per checkpoint base prefix
        self._mlck: Dict[str, Any] = {}
        #: optional cluster EventLog (wired by DRMSCluster.build_app) —
        #: receives mlck placement-fallback and tier-selection events
        self.events = None
        #: optional HealthRegistry (wired by DRMSCluster.build_app) —
        #: attached to each mlck drain controller so drain completion
        #: re-samples the backlog gauges
        self.health = None
        #: the JSA's enabling signal, consumed by reconfig_chkenable
        self._ckpt_enable = False
        #: optional armed FailurePlan (set by the failure injector)
        self.failure_plan = None
        #: live-steering queue; clients read/write fields of a running
        #: application at its steering points
        from repro.drms.steering import SteeringHub

        self.steering = SteeringHub(order=order)
        #: workflow binding while running under a
        #: :class:`~repro.workflow.coordinator.WorkflowCoordinator`:
        #: ``(hub, member_name, member_base)``, or None standalone
        self.workflow = None
        #: active ElasticRunner, when running under on-the-fly
        #: reconfiguration (repro.drms.elastic)
        self._elastic_runner = None
        #: runtime of the most recent (possibly crashed) execution —
        #: where the localized recovery protocol reads the quiesce SOP
        self._last_runtime: Optional[AppRuntime] = None

    # -- multi-level checkpoint store (tier="memory+pfs") --------------------

    def mlck_for(self, base: str):
        """The :class:`~repro.mlck.checkpointer.MultiLevelCheckpointer`
        owning generations under ``base`` (created on first use)."""
        if base not in self._mlck:
            from repro.mlck.checkpointer import MultiLevelCheckpointer

            self._mlck[base] = MultiLevelCheckpointer(
                self.pfs,
                base,
                machine=self.machine,
                k=self.mlck_k,
                keep=self.mlck_keep,
                order=self.order,
                target_bytes=self.target_bytes,
                io_tasks=self.io_tasks,
                app_name=self.name,
                events=self.events,
                drain=self.mlck_drain,
            )
            self._mlck[base].drainer.health = self.health
        return self._mlck[base]

    def l1_store_for(self, base: str):
        """The L1 store under ``base``, or None (PFS-tier application,
        or nothing checkpointed there yet) — what recovery passes as the
        ``l1`` of a tier-aware restart-state walk."""
        if self.tier != "memory+pfs":
            return None
        ck = self._mlck.get(base)
        return ck.store if ck is not None else None

    def on_node_failure(self, node_id: int) -> int:
        """A processor died: its volatile L1 memory — and every
        checkpoint replica it held — dies with it.  Returns the number
        of replica copies lost across all checkpoint bases."""
        return sum(
            ck.on_node_failure(node_id) for ck in self._mlck.values()
        )

    def wait_for_drains(self) -> None:
        """Block until every queued L1->PFS drain has finished."""
        for ck in self._mlck.values():
            ck.wait_for_drains()

    def sop_quiescence(self) -> Optional[Dict[str, Any]]:
        """Where survivors quiesce after a failure: the last SOP the
        (possibly crashed) run crossed, or None before any crossing."""
        rt = self._last_runtime
        if rt is None or rt.last_sop_iteration is None:
            return None
        return {"sop": rt.last_sop, "iteration": rt.last_sop_iteration}

    # -- system-initiated checkpoint signal (used with reconfig_chkenable) ---

    def enable_checkpoint(self) -> None:
        """Send the enabling signal: the next ``reconfig_chkenable``
        call in the application takes a checkpoint (JSA hook)."""
        self._ckpt_enable = True

    def consume_checkpoint_enable(self) -> bool:
        """One-shot read of the enabling signal (application side)."""
        enabled, self._ckpt_enable = self._ckpt_enable, False
        return enabled

    # -- segment profile ------------------------------------------------------------

    def resolve_segment_profile(self, runtime: AppRuntime) -> SegmentProfile:
        """The SegmentProfile for checkpoints of this application."""
        if isinstance(self.segment_profile, SegmentProfile):
            return self.segment_profile
        if callable(self.segment_profile):
            return self.segment_profile(runtime)
        # Default: local-section storage of task 0 under the current
        # distributions; no modeled system/private bulk.
        local = sum(a.nbytes_local(0) for a in runtime.arrays.values())
        return SegmentProfile(
            local_section_bytes=local, system_bytes=0, private_bytes=0
        )

    # -- running ----------------------------------------------------------------------

    def _execute(
        self,
        ntasks: int,
        runtime: AppRuntime,
        args: Sequence[Any],
        kwargs: Optional[dict],
        nodes: Optional[Sequence[int]],
    ) -> SPMDResult:
        return run_spmd(
            self.main,
            ntasks,
            machine=self.machine,
            args=args,
            kwargs=kwargs,
            nodes=nodes,
            timeout=self.run_timeout,
            make_context=lambda comm: DRMSContext(comm, runtime),
        )

    def _report(
        self, runtime: AppRuntime, result: SPMDResult, **restart: Any
    ) -> RunReport:
        return RunReport(
            ntasks=runtime.ntasks,
            returns=result.returns,
            sim_elapsed=result.elapsed,
            checkpoints=runtime.checkpoints,
            replicated=dict(runtime.replicated),
            arrays=dict(runtime.arrays),
            **restart,
        )

    def start(
        self,
        ntasks: int,
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        nodes: Optional[Sequence[int]] = None,
    ) -> RunReport:
        """Run the application from the beginning on ``ntasks`` tasks."""
        self.soq.check(ntasks)
        runtime = AppRuntime(self, ntasks)
        self._last_runtime = runtime
        result = self._execute(ntasks, runtime, args, kwargs, nodes)
        return self._report(runtime, result)

    def restart(
        self,
        prefix: Union[str, OpenedGeneration],
        ntasks: int,
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        nodes: Optional[Sequence[int]] = None,
    ) -> RunReport:
        """Restart from the checkpointed state under ``prefix`` on a new
        task pool of ``ntasks`` (equal, larger, or smaller than the
        checkpointing pool).

        Under ``tier="memory+pfs"``, ``prefix`` is served from surviving
        L1 memory replicas when they verify — no PFS checkpoint read at
        all — and from the PFS copy otherwise.  ``prefix`` may also be
        the generation a recovery walk already opened (what the JSA
        hands over): it runs on as restored."""
        return self._relaunch(prefix, ntasks, args, kwargs, nodes)

    def restart_localized(
        self,
        prefix: Union[str, OpenedGeneration],
        ntasks: int,
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        nodes: Optional[Sequence[int]] = None,
        placement: Optional[Dict[int, int]] = None,
        failed_nodes: Sequence[int] = (),
        replacements: Optional[Dict[int, int]] = None,
    ) -> RunReport:
        """Localized restart after a node failure: every task rolls back
        to the generation under ``prefix``, but the data movement is
        survivor-local — each surviving rank reloads its section from
        its own node's L1 replica memory, only the lost ranks'
        (``placement`` entries on ``failed_nodes``) sections cross the
        switch to their ``replacements`` — and the lost replicas are
        re-placed outside the replacement nodes' failure domains.  When
        the L1 generation cannot serve (the failure took every copy of
        some piece), survivors' own state of that generation is gone
        too, and the restart degrades to a full, metered PFS read
        (:func:`~repro.mlck.localized.localized_opener`).  An opened
        ``prefix`` runs on as restored, as for :meth:`restart`."""
        failure = (dict(placement or {}), failed_nodes, dict(replacements or {}))
        return self._relaunch(prefix, ntasks, args, kwargs, nodes, failure)

    def opener(self, ntasks: int, l1=None, failure=None):
        """How this application opens a recovery walk's candidate onto
        ``ntasks`` tasks (``l1``: its L1 store): a full restore, or a
        localized one given ``failure`` (placement, failed nodes,
        replacements)."""
        options = (self.order, self.io_tasks, self.target_bytes)
        if failure is None:
            return restart_opener(self.pfs, ntasks, l1, *options)
        # repro.mlck loads only for applications that use it
        from repro.mlck.localized import localized_opener

        return localized_opener(self.pfs, ntasks, *failure, l1, *options)

    def open(self, prefix: str, ntasks: int, failure=None) -> OpenedGeneration:
        """Open the generation ``prefix`` onto ``ntasks`` tasks without
        running anything: the walk over that one generation's tiers —
        the L1 store holding it, if any, then the PFS copy — localized
        given ``failure``.  Raises the checkpoint or PFS error of the
        last tier tried."""
        l1 = next(
            (ck.store for ck in self._mlck.values() if ck.store.has(prefix)), None
        )
        return open_generation(self.pfs, prefix, l1, self.opener(ntasks, l1, failure))

    def _relaunch(
        self,
        generation: Union[str, OpenedGeneration],
        ntasks: int,
        args: Sequence[Any],
        kwargs: Optional[dict],
        nodes: Optional[Sequence[int]],
        failure: Optional[Tuple[Dict[int, int], Sequence[int], Dict[int, int]]] = None,
    ) -> RunReport:
        """Run on from ``generation`` on ``ntasks`` tasks; a name is
        opened first (:meth:`open`)."""
        self.soq.check(ntasks)
        if isinstance(generation, str):
            generation = self.open(generation, ntasks, failure)
        runtime = AppRuntime(
            self,
            ntasks,
            restored=generation.state,
            pending_clock_charge=generation.breakdown.total_seconds,
        )
        self._last_runtime = runtime
        result = self._execute(ntasks, runtime, args, kwargs, nodes)
        return self._report(
            runtime, result, restarted_from=generation.prefix,
            restart_breakdown=generation.breakdown,
            rebuild_scope=generation.scope,
        )
