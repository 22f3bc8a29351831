"""The per-task DRMS context: the paper's API, bound to one task.

Task code receives a :class:`DRMSContext` and calls methods that mirror
the Fortran API of Fig. 1 / Table 2.  Execution-context recovery is
implemented by *control-variable replay*: the checkpoint stores the SOP
id, iteration counter, and SOQ control variables in the data segment
(exactly the state the paper's control section defines); on restart the
application function runs again from the top, ``iterations(...)``
resumes the loop at the saved iteration, and the first
``reconfig_checkpoint`` call reports ``RESTARTED`` with the task-count
``delta`` — giving the same observable behaviour as the paper's
binary-level segment reload, portably.

Collective methods (``distribute``, ``reconfig_checkpoint``, ...) must
be called by every task, SPMD-style; they synchronize internally and
charge the same simulated time to every task (blocking checkpoints).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import AxisDistribution, Block, Distribution
from repro.arrays.slices import Slice
from repro.errors import CheckpointError, ReconfigurationError
from repro.obs.flight import GLOBAL_NODE, emit_event
from repro.runtime.comm import TaskComm

__all__ = ["CheckpointStatus", "DRMSContext", "TaskArrayView"]


class CheckpointStatus(enum.Enum):
    """Result of a ``reconfig_checkpoint`` call (the API's ``status``)."""

    #: continuing after taking a checkpoint
    TAKEN = "taken"
    #: restarting from an archived state (first call after restart)
    RESTARTED = "restarted"
    #: enabling checkpoint not enabled by the system; nothing written
    SKIPPED = "skipped"


class TaskArrayView:
    """A task's window onto one distributed array."""

    def __init__(self, array: DistributedArray, rank: int):
        self.array = array
        self.rank = rank

    @property
    def name(self) -> str:
        return self.array.name

    @property
    def mapped_slice(self) -> Slice:
        return self.array.distribution.mapped(self.rank)

    @property
    def assigned_slice(self) -> Slice:
        return self.array.distribution.assigned(self.rank)

    @property
    def local(self) -> np.ndarray:
        """The local array holding this task's mapped section."""
        return self.array.local(self.rank)

    @property
    def assigned(self) -> np.ndarray:
        """Copy of the task's owned elements — safe to keep across a
        later :meth:`set_assigned` and to combine with other operands
        (:meth:`DistributedArray.assigned_view` may alias the local)."""
        return self.array.section_from_task(self.rank, self.assigned_slice)

    def set_assigned(self, values: np.ndarray) -> None:
        self.array.set_assigned(self.rank, values)


class DRMSContext:
    """Per-task handle combining the communicator and the DRMS API."""

    def __init__(self, comm: TaskComm, runtime: "AppRuntime"):
        self.comm = comm
        self.runtime = runtime
        self._initialized = False
        self._restart_pending = runtime.restored is not None
        self._iteration = 0
        self._sop = 0

    # -- identity / comm passthrough ---------------------------------------

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def barrier(self) -> None:
        self.comm.barrier()

    def compute(self, seconds: float) -> None:
        self.comm.compute(seconds)

    # -- coordination helper -------------------------------------------------

    def _collective(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` once (on rank 0) within a barrier pair; every task
        returns its result.  The trailing barrier keeps the shared slot
        from being overwritten before slow tasks read it."""
        rt = self.runtime
        self.comm.barrier()
        if self.rank == 0:
            rt._coll_result = fn()
        self.comm.barrier()
        result = rt._coll_result
        self.comm.barrier()
        return result

    # -- the DRMS API (Table 2 / Fig. 1) ----------------------------------------

    def initialize(self) -> CheckpointStatus:
        """``drms_initialize``: first call of the application.  On a
        restarted run the checkpointed state has been loaded; the call
        charges the restart's simulated I/O time and reports it."""
        if self._initialized:
            raise CheckpointError("drms_initialize called twice")
        self._initialized = True
        rt = self.runtime
        self.comm.barrier()
        if rt.pending_clock_charge:
            self.comm.clock.advance(rt.pending_clock_charge)
        return (
            CheckpointStatus.RESTARTED
            if rt.restored is not None
            else CheckpointStatus.TAKEN
        )

    def create_distribution(
        self,
        shape: Sequence[int],
        axes: Optional[Sequence[AxisDistribution]] = None,
        shadow: Optional[Sequence[int]] = None,
        grid: Optional[Sequence[int]] = None,
        ntasks: Optional[int] = None,
    ) -> Distribution:
        """``drms_create_distribution``: build a distribution of
        ``shape`` over the current task pool (default: BLOCK on every
        axis, the Fig. 1 example)."""
        axes = list(axes) if axes is not None else [Block() for _ in shape]
        return Distribution(
            shape, axes, ntasks or self.size, grid=grid, shadow=shadow
        )

    def distribute(
        self,
        name: str,
        distribution: Distribution,
        dtype=np.float64,
        init_global: Optional[Any] = None,
        init_local: Optional[Callable[[int, Slice], np.ndarray]] = None,
    ) -> TaskArrayView:
        """``drms_distribute``: create (or, after a restart, rebind) the
        named distributed array under ``distribution``.

        Fresh runs may initialize via ``init_global`` (a full array or a
        ``shape -> array`` callable, materialized once) or via
        ``init_local`` (``(rank, assigned_slice) -> values``, evaluated
        by every task for its own section).  After a restart the
        checkpointed content is preserved; if ``distribution`` differs
        from the automatically adjusted one, the array is redistributed
        to it — the ``drms_adjust``/``drms_distribute`` sequence of
        Fig. 1.
        """
        rt = self.runtime
        if distribution.ntasks != self.size:
            raise ReconfigurationError(
                f"distribution for {name!r} targets {distribution.ntasks} "
                f"tasks; application runs {self.size}"
            )

        def build():
            existing = rt.take_restored_array(name) or rt.arrays.get(name)
            if existing is not None:
                # Rebinding (after restart, or an explicit in-run
                # redistribution): content is preserved.
                arr = existing
                if arr.distribution != distribution:
                    arr = arr.redistributed(distribution)
                fresh = False
            else:
                arr = DistributedArray(
                    name,
                    distribution.shape,
                    dtype,
                    distribution,
                    store_data=rt.store_data,
                )
                if init_global is not None and rt.store_data:
                    values = (
                        init_global(distribution.shape)
                        if callable(init_global)
                        else init_global
                    )
                    arr.set_global(np.asarray(values, dtype=dtype))
                fresh = True
            rt.arrays[name] = arr
            return arr, fresh

        arr, fresh = self._collective(build)
        if fresh and init_local is not None and rt.store_data:
            a = arr.distribution.assigned(self.rank)
            if not a.is_empty:
                arr.set_assigned(self.rank, np.asarray(init_local(self.rank, a), dtype=dtype))
            self.comm.barrier()
        return TaskArrayView(arr, self.rank)

    def adjust(self, name: str) -> Distribution:
        """``drms_adjust``: the stored distribution of array ``name``
        adjusted to the current task count (after a reconfigured restart
        this is the distribution the restart engine derived)."""
        rt = self.runtime
        restored = rt.peek_restored_array(name)
        if restored is not None:
            return restored.distribution
        if name in rt.arrays:
            return rt.arrays[name].distribution.adjust(self.size)
        raise CheckpointError(f"no distributed array {name!r} to adjust")

    def array(self, name: str) -> TaskArrayView:
        """The task's view of an already distributed array."""
        return TaskArrayView(self.runtime.arrays[name], self.rank)

    def update_shadows(self, name: str) -> None:
        """Collective halo refresh of the named array."""
        arr = self.runtime.arrays[name]
        if arr.store_data:
            moved = self._collective(arr.update_shadows)
            # charge the wire traffic of the halo exchange to all tasks
            per_task = moved * arr.itemsize / max(1, self.size)
            self.comm.compute(self.comm.world.transfer_cost(int(per_task)))
        else:
            self.comm.barrier()

    def reconfig_point(self) -> tuple:
        """An SOP at which the task set may change *on the fly* from
        volatile memory (paper §2.2), without checkpoint I/O.  Under an
        :class:`~repro.drms.elastic.ElasticRunner` with a pending
        request, the current task set dissolves here and the run
        resumes on the new count; on re-entry the first call reports
        ``(RESTARTED, delta)``.  Otherwise ``(SKIPPED, 0)``."""
        rt = self.runtime
        self._sop += 1
        rt.note_sop_crossing(self._sop, self._iteration)
        if self._restart_pending:
            self._restart_pending = False
            self.comm.barrier()
            return (CheckpointStatus.RESTARTED, rt.restored.delta)
        runner = getattr(rt.app, "_elastic_runner", None)
        if runner is None:
            self.comm.barrier()
            return (CheckpointStatus.SKIPPED, 0)

        def check():
            req = runner.consume_request(self.size)
            if req is not None:
                rt.capture_memory_state(
                    iteration=self._iteration,
                    sop_id=self._sop,
                    elapsed=self.comm.world.max_clock(),
                )
            return req

        req = self._collective(check)
        if req is None:
            return (CheckpointStatus.SKIPPED, 0)
        from repro.drms.elastic import ReconfigExit

        raise ReconfigExit(req)

    def steering_point(self) -> int:
        """A globally consistent point at which queued steering
        requests are serviced (collective).  Returns how many requests
        were handled; 0 when no client is attached or nothing queued."""
        rt = self.runtime
        hub = getattr(rt.app, "steering", None)
        if hub is None:
            self.comm.barrier()
            return 0
        return self._collective(lambda: hub.service(rt.arrays))

    # -- replicated variables & control section ----------------------------------

    def set_replicated(self, name: str, value: Any) -> None:
        """Set a replicated variable (same value on every task; SPMD
        code calls this symmetrically)."""
        self.runtime.replicated[name] = value

    def get_replicated(self, name: str, default: Any = None) -> Any:
        return self.runtime.replicated.get(name, default)

    def set_control(self, name: str, value: Any) -> None:
        """Set an SOQ control variable (stored in checkpoints)."""
        self.runtime.control[name] = value

    def get_control(self, name: str, default: Any = None) -> Any:
        return self.runtime.control.get(name, default)

    # -- the SOQ loop ------------------------------------------------------------

    def iterations(self, start: int, stop: int, step: int = 1) -> Iterator[int]:
        """The application's outer SOQ loop.  On a restarted run the
        loop resumes at the checkpointed iteration (the body containing
        the ``reconfig_checkpoint`` call re-executes, matching the
        paper's 'execution continues from the corresponding
        drms_reconfig_checkpoint call')."""
        begin = start
        rt = self.runtime
        if rt.restored is not None:
            begin = rt.restored.segment.context.iteration
        for it in range(begin, stop, step):
            self._iteration = it
            self._maybe_fail(it)
            yield it

    def _maybe_fail(self, iteration: int) -> None:
        """Fire an armed failure plan: the task on the doomed node dies,
        taking the application down (single failure crashes the app)."""
        plan = getattr(self.runtime, "failure_plan", None)
        if plan is None or not plan.should_fire(iteration):
            return
        my_node = self.comm.world.placement.get(self.rank)
        # claim() is the atomic check-and-fire: with several tasks
        # placed on the doomed node, exactly one wins the claim and
        # dies as the failing processor (the rest die as collateral
        # when the SPMD engine tears the task group down).
        if plan.claim(iteration, my_node):
            from repro.infra.failure import NodeFailure

            self.runtime.app.machine.fail_node(my_node)
            raise NodeFailure(my_node)

    @property
    def iteration(self) -> int:
        return self._iteration

    # -- checkpointing --------------------------------------------------------------

    @property
    def policy(self):
        """The checkpoint-cadence policy attached to this run's
        application (``DRMSApplication(policy=...)``), or None."""
        return self.runtime.policy

    def _cross_sop(self, **tags: Any) -> None:
        """Count one SOP crossing: the quiesce anchor of localized
        recovery, and a ``sop_crossed`` record (``tags`` appended to its
        detail) on the ring of this task's node."""
        self._sop += 1
        self.runtime.note_sop_crossing(self._sop, self._iteration)
        my_node = self.comm.world.placement.get(self.rank)
        emit_event(
            None, "sop_crossed",
            node=my_node if my_node is not None else GLOBAL_NODE,
            sop=self._sop, iteration=self._iteration, rank=self.rank,
            **tags,
        )

    def _capture(self, prefix: str, **member_tags: Any) -> tuple:
        """The capture tail of a checkpointing SOP: every task captures
        its state under ``prefix``, rank 0 records ``checkpoint_taken``,
        and every task blocks for the capture's simulated seconds.  A
        workflow member (``member_tags`` name the member and generation)
        records the prefix the engine actually wrote — mlck members
        capture under a rotation base.  Returns ``(actual, breakdown)``."""
        rt = self.runtime

        def take():
            seg = rt.build_segment(iteration=self._iteration, sop_id=self._sop)
            bd = rt.engine_checkpoint(prefix, seg)
            # engine_checkpoint records the actual prefix as the newest entry
            return rt.checkpoints[-1][0], bd

        actual, bd = self._collective(take)
        if self.rank == 0:
            emit_event(
                None, "checkpoint_taken",
                prefix=actual if member_tags else prefix, sop=self._sop,
                iteration=self._iteration, seconds=bd.total_seconds,
                **member_tags,
            )
        # Blocking checkpoint: every task waits for the state to hit its
        # tier before continuing.
        self.comm.clock.advance(bd.total_seconds)
        return actual, bd

    def _skip_sop(self) -> tuple:
        """Cross a SOP without checkpointing (the disabled branch of an
        enabling or policy-driven checkpoint): the SOP still counts as
        a quiesce anchor and a flight-recorder crossing."""
        self._cross_sop(skipped=True)
        return (CheckpointStatus.SKIPPED, 0)

    def policy_checkpoint(
        self,
        prefix: str,
        policy=None,
        final: bool = False,
        enable_mode: bool = False,
    ) -> tuple:
        """``drms_policy_checkpoint``: a cadence decision point.  The
        attached :class:`~repro.policy.engine.CheckpointPolicy` (or the
        explicit ``policy``) decides whether this SOP checkpoints;
        applications call it every iteration instead of hardcoding an
        ``it % every`` test.

        Collective.  The decision is made once (on rank 0, against the
        run's shared policy state) so every task agrees.  Semantics
        match the API calls it wraps: the first call after a restart
        reports ``(RESTARTED, delta)`` without consulting the policy; a
        positive decision runs ``reconfig_checkpoint`` (or
        ``reconfig_chkenable`` when ``enable_mode`` — the JSA's
        enabling signal still gates the write); a negative decision
        crosses the SOP and returns ``(SKIPPED, 0)``.  ``final`` marks
        the run's last SOP for ``at_end`` rules.  Observed checkpoint
        costs are fed back to adaptive rules."""
        rt = self.runtime
        pol = policy if policy is not None else rt.policy
        if pol is None:
            raise CheckpointError(
                "policy_checkpoint needs a cadence policy: pass policy= "
                "or construct DRMSApplication(policy=...)"
            )
        if self._restart_pending:
            return self.reconfig_checkpoint(prefix)
        from repro.policy.rules import Observation

        obs = Observation(
            iteration=self._iteration,
            sim_time=self.comm.clock.now,
            final=final,
            health=rt.app.health,
        )
        decision = self._collective(lambda: pol.decide(obs, rt.policy_state))
        if not decision.fire:
            return self._skip_sop()
        if enable_mode:
            return self.reconfig_chkenable(prefix)
        status, delta = self.reconfig_checkpoint(prefix)
        if status is CheckpointStatus.TAKEN and rt.checkpoints:
            cost = rt.checkpoints[-1][1].total_seconds
            self._collective(lambda: pol.observe_cost(rt.policy_state, cost))
        return (status, delta)

    def reconfig_checkpoint(self, prefix: str) -> tuple:
        """``drms_reconfig_checkpoint``: mandatory checkpoint at this
        SOP.  Returns ``(status, delta)``: after a restart the first
        call reports ``RESTARTED`` and the change in task count; on a
        normal pass the state is written and ``TAKEN`` is returned."""
        self._cross_sop()
        if self._restart_pending:
            self._restart_pending = False
            self.comm.barrier()
            return (CheckpointStatus.RESTARTED, self.runtime.restored.delta)
        self._capture(prefix)
        return (CheckpointStatus.TAKEN, 0)

    def workflow_exchange(self, final: bool = False) -> tuple:
        """``drms_workflow_exchange``: the coupled-workflow analogue of
        ``reconfig_checkpoint``.  Collective across this member's tasks
        *and* aligned across every member of the owning
        :class:`~repro.workflow.coordinator.WorkflowCoordinator`: all
        members quiesce at the boundary, the coordinator services
        steering queues and coupling transfers and makes one ensemble
        cadence decision, and a positive decision checkpoints every
        member as one workflow generation (the manifest commits only
        after all member states landed).

        Returns ``(status, delta)`` with ``reconfig_checkpoint``
        semantics: the first call of a restarted run reports
        ``(RESTARTED, delta)`` without entering the rendezvous (every
        member restarts together, so all of them skip the same
        boundary); a negative cadence decision crosses the SOP and
        returns ``(SKIPPED, 0)``; a committed line returns
        ``(TAKEN, 0)``.  ``final`` marks the run's last exchange for
        ``at_end`` policy rules."""
        rt = self.runtime
        wf = getattr(rt.app, "workflow", None)
        if wf is None:
            raise CheckpointError(
                "workflow_exchange outside a workflow: run this "
                "application through a WorkflowCoordinator"
            )
        hub, member, member_base = wf
        self._cross_sop(member=member)
        if self._restart_pending:
            self._restart_pending = False
            self.comm.barrier()
            return (CheckpointStatus.RESTARTED, rt.restored.delta)
        outcome = self._collective(
            lambda: hub.exchange(member, self._iteration, final)
        )
        # charge this member's share of the coupling wire traffic
        moved = outcome["transfer_bytes"].get(member, 0)
        if moved:
            per_task = moved / max(1, self.size)
            self.comm.compute(self.comm.world.transfer_cost(int(per_task)))
        if not outcome["fire"]:
            return (CheckpointStatus.SKIPPED, 0)
        # the line commits only after every member's state landed
        actual, bd = self._capture(
            outcome["prefixes"][member],
            member=member, generation=outcome["generation"],
        )
        self._collective(
            lambda: hub.commit(
                member, actual, self.size, self._iteration, bd.total_seconds
            )
        )
        return (CheckpointStatus.TAKEN, 0)

    def reconfig_chkenable(self, prefix: str) -> tuple:
        """``drms_reconfig_chkenable``: enabling checkpoint, taken only
        if the system (JSA) has sent an enabling signal; the signal is
        consumed by the checkpoint."""
        rt = self.runtime
        if self._restart_pending:
            return self.reconfig_checkpoint(prefix)
        enabled = self._collective(lambda: rt.consume_checkpoint_enable())
        if not enabled:
            return self._skip_sop()
        return self.reconfig_checkpoint(prefix)
