"""The workflow coordinator: N coupled applications, one checkpoint line.

:class:`WorkflowCoordinator` owns named member
:class:`~repro.drms.app.DRMSApplication`\\ s plus the coupling topology
(who sends which array to whom) and runs them *concurrently* on one
simulated machine.  Members align at **exchange boundaries** — each
member's SPMD tasks call
:meth:`~repro.drms.context.DRMSContext.workflow_exchange` at the same
logical point of their outer loops — where the coordinator:

1. services every member's steering queue (the ensemble-wide analogue
   of a consistent steering point),
2. performs the coupling transfers (``dst <- src`` across independent
   distributions, :func:`~repro.drms.steering.app_transfer`), and
3. has every member checkpoint *at this boundary* and — only after
   every member state committed — writes the v1 workflow manifest
   naming the set as one workflow generation.

Because all members are quiescent inside the same exchange (their SOP
crossing anchors are noted first, exactly like ``reconfig_checkpoint``),
the per-member states are mutually consistent by construction: every
coupling transfer either happened before the line for all members or
after it for all members.

Restart is the mirror image: :meth:`WorkflowCoordinator.restart_workflow`
asks :func:`~repro.workflow.manifest.select_workflow_restart_state` for
the newest line whose every member opens (torn sets rejected as a
unit) — each member's state opened once, onto the task count its
relaunch uses, some from L1 memory replicas and others from the PFS —
and relaunches every member from the state that opened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.checkpoint.recover import OpenedGeneration, first_rejections
from repro.checkpoint.rotation import generation_name
from repro.drms.app import RUN_TIMEOUT_S, DRMSApplication, RunReport
from repro.drms.steering import app_transfer
from repro.errors import ArrayError, ReconfigurationError, WorkflowError
from repro.obs import emit_event, get_tracer
from repro.pfs.piofs import PIOFS
from repro.runtime.clock import SimClock, now, use_clock
from repro.runtime.machine import Machine
from repro.runtime.sched import SCHED
from repro.workflow.manifest import (
    WorkflowDecision,
    check_member_name,
    next_workflow_generation,
    select_workflow_restart_state,
    walk_workflow_lines,
    workflow_generations,
    write_workflow_manifest,
)

__all__ = ["Coupling", "WorkflowCoordinator", "WorkflowLine", "WorkflowRunReport"]


@dataclass(frozen=True)
class Coupling:
    """One directed edge of the coupling topology: at every exchange,
    ``dst_member.dst_array <- src_member.src_array``."""

    src_member: str
    src_array: str
    dst_member: str
    dst_array: str


@dataclass
class WorkflowLine:
    """One committed workflow generation."""

    generation: int
    #: member -> {"prefix", "ntasks", "iteration", "tier", "seconds"}
    members: Dict[str, Dict[str, Any]]
    #: simulated clock of the line (max over member arrival clocks)
    clock: float = 0.0

    @property
    def seconds(self) -> float:
        """Ensemble checkpoint time for the line: the slowest member
        (members write concurrently behind the common boundary)."""
        return max((m["seconds"] for m in self.members.values()), default=0.0)

    @property
    def serial_seconds(self) -> float:
        """Sum of member checkpoint times — what the same states would
        cost checkpointed independently, one after another."""
        return sum(m["seconds"] for m in self.members.values())


@dataclass
class WorkflowRunReport:
    """Outcome of one ensemble run."""

    members: Dict[str, RunReport] = field(default_factory=dict)
    #: workflow lines committed during this run, oldest first
    lines: List[WorkflowLine] = field(default_factory=list)
    #: set by restart_workflow: the recovery walk that chose the line
    decision: Optional[WorkflowDecision] = None

    @property
    def sim_elapsed(self) -> float:
        """Ensemble wall time: the slowest member."""
        return max((r.sim_elapsed for r in self.members.values()), default=0.0)

    @property
    def checkpoint_seconds(self) -> float:
        return sum(r.checkpoint_seconds for r in self.members.values())


def _latest(clocks) -> SimClock:
    return SimClock(max(clocks, default=0.0))


class _WorkflowHub:
    """Rank-0 rendezvous of one ensemble run.

    Each member's rank 0 enters :meth:`exchange` (inside its own
    ``_collective``, so the member's other tasks are parked at a comm
    barrier) and waits there for its peers; the last to arrive runs the
    coordinator's exchange action once, at the latest arrival clock, and
    every member leaves with the shared outcome.  :meth:`commit` plays
    the same trick for the two-phase line commit: the workflow manifest
    is written only after *every* member has reported its checkpoint
    complete.  A crashed member kills the ensemble, so these waits raise
    in its peers."""

    def __init__(self, coordinator: "WorkflowCoordinator", members: Sequence[str]):
        self._parties = len(members)
        self._actions = {
            "exchange": coordinator._exchange_action,
            "line commit": lambda commits: coordinator._commit_action(
                self._results["exchange"], commits
            ),
        }
        self._arrivals: Dict[str, Dict[str, Dict[str, Any]]] = {p: {} for p in self._actions}
        self._rounds = dict.fromkeys(self._actions, 0)
        self._results: Dict[str, Any] = {}
        self._error: Optional[BaseException] = None

    def _meet(self, phase: str, member: str, **entry: Any) -> Any:
        arrivals = self._arrivals[phase]
        arrivals[member] = dict(entry, clock=now())
        done = self._rounds[phase]
        if len(arrivals) == self._parties:  # the last one in acts for everyone
            self._arrivals[phase] = {}
            self._error = None
            try:
                with use_clock(_latest(a["clock"] for a in arrivals.values())):
                    self._results[phase] = self._actions[phase](arrivals)
            except BaseException as exc:  # noqa: BLE001 - relayed to every member
                self._error = exc
            self._rounds[phase] += 1
        SCHED.wait(f"the workflow {phase} of member {member!r}",
                   until=lambda: self._rounds[phase] != done)
        if self._error is not None:
            raise WorkflowError(f"workflow {phase} failed: {self._error}") from self._error
        return self._results[phase]

    def exchange(self, member: str, iteration: int) -> Dict[str, Any]:
        return self._meet("exchange", member, iteration=iteration)

    def commit(self, member: str, prefix: str, ntasks: int, iteration: int,
               seconds: float) -> WorkflowLine:
        return self._meet(
            "line commit", member,
            prefix=prefix, ntasks=ntasks, iteration=iteration, seconds=seconds,
        )


class WorkflowCoordinator:
    """A set of coupled applications checkpointed as one workflow."""

    def __init__(
        self,
        base: str,
        machine: Optional[Machine] = None,
        pfs: Optional[PIOFS] = None,
        events=None,
    ):
        self.base = base
        self.machine = machine or Machine()
        self.pfs = pfs or PIOFS(machine=self.machine)
        self.events = events
        self._members: Dict[str, Tuple[DRMSApplication, tuple, dict]] = {}
        self.couplings: List[Coupling] = []
        #: workflow lines committed across all runs, oldest first
        self.lines: List[WorkflowLine] = []
        self._hub: Optional[_WorkflowHub] = None

    # -- construction ---------------------------------------------------------

    def add_member(
        self,
        name: str,
        main,
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        **app_options: Any,
    ) -> DRMSApplication:
        """Register a member application (its ``main`` plus fixed args).
        Member checkpoint prefixes are namespaced as ``<base>.<name>``;
        the name rules of :func:`~repro.workflow.manifest.check_member_name`
        keep the namespaces disjoint.

        Members keep a deeper L1 rotation than standalone applications
        (``mlck_keep=4`` unless overridden): pruning a member generation
        tears every older workflow line that references it."""
        check_member_name(name, taken=self._members)
        app_options.setdefault("mlck_keep", 4)
        app = DRMSApplication(
            main, name=name, machine=self.machine, pfs=self.pfs, **app_options
        )
        self._members[name] = (app, tuple(args), dict(kwargs or {}))
        return app

    def couple(
        self, src_member: str, src_array: str, dst_member: str, dst_array: str
    ) -> Coupling:
        """Add a coupling edge: at every exchange boundary,
        ``dst_member.dst_array`` is assigned from
        ``src_member.src_array`` across their independent
        distributions."""
        for member in (src_member, dst_member):
            if member not in self._members:
                raise WorkflowError(f"unknown workflow member {member!r}")
        if src_member == dst_member:
            raise WorkflowError(
                f"coupling {src_member!r} to itself: use an in-member "
                "assignment instead"
            )
        edge = Coupling(src_member, src_array, dst_member, dst_array)
        self.couplings.append(edge)
        return edge

    def member(self, name: str) -> DRMSApplication:
        return self._members[name][0]

    def member_base(self, name: str) -> str:
        """The checkpoint namespace of one member."""
        return f"{self.base}.{name}"

    # -- running --------------------------------------------------------------

    def run(self, tasks: Mapping[str, int]) -> WorkflowRunReport:
        """Run every member from the beginning, concurrently, on its own
        task count; exchange boundaries align them and each commits a
        workflow line."""
        return self._run_ensemble(dict(tasks), restart=None)

    def restart_workflow(
        self,
        tasks: Mapping[str, int],
        generation: Optional[int] = None,
    ) -> WorkflowRunReport:
        """Restart the whole ensemble from the newest workflow
        generation whose every member state opens (or from an explicit
        ``generation``, a walk over that one line).  Each member may
        come back on a different task count than it checkpointed with;
        its state is opened once, onto that count — from L1 memory
        replicas where they verify and from the PFS otherwise — and the
        member runs on from it."""
        tasks = dict(tasks)
        decision = self._select(tasks, generation)
        if decision.generation is None:
            raise WorkflowError(
                f"no workflow generation under {self.base!r} has every "
                "member byte-valid" + first_rejections(decision.rejected, "gen ")
            )
        missing = set(self._members) - set(decision.opened)
        if missing:
            raise WorkflowError(
                f"workflow generation {decision.generation} does not "
                f"cover members {sorted(missing)}"
            )
        get_tracer().metrics.counter("workflow.restarts").inc()
        with use_clock(_latest(line.clock for line in self.lines)):
            emit_event(
                None, "workflow_restarted",
                base=self.base, generation=decision.generation,
                tiers=dict(decision.member_tiers),
                tasks={n: int(t) for n, t in tasks.items()},
            )
        report = self._run_ensemble(tasks, restart=decision.opened)
        report.decision = decision
        return report

    def select_restart_line(self, tasks: Mapping[str, int]) -> WorkflowDecision:
        """The recovery walk of :meth:`restart_workflow` without the
        relaunch: newest-to-oldest over committed workflow generations,
        every member opened onto its count in ``tasks``, torn lines
        rejected as units."""
        return self._select(dict(tasks), None)

    def _select(
        self, tasks: Dict[str, int], generation: Optional[int]
    ) -> WorkflowDecision:
        self._check_tasks(tasks)

        def open_member(member: str, prefix: str):
            if member not in self._members:
                raise WorkflowError(f"no workflow member {member!r} to open")
            return self.member(member).open(prefix, tasks[member])

        with use_clock(_latest(line.clock for line in self.lines)):
            if generation is None:
                return select_workflow_restart_state(
                    self.pfs, self.base, open_member, self.events
                )
            return walk_workflow_lines(
                self.pfs, self.base, [generation], open_member, self.events
            )

    # -- ensemble execution ---------------------------------------------------

    def _check_tasks(self, tasks: Dict[str, int]) -> None:
        missing = set(self._members) - set(tasks)
        if missing:
            raise ReconfigurationError(
                f"no task counts for workflow members {sorted(missing)}"
            )
        unknown = set(tasks) - set(self._members)
        if unknown:
            raise ReconfigurationError(
                f"task counts for unknown workflow members {sorted(unknown)}"
            )
        for name, n in tasks.items():
            self._members[name][0].soq.check(n)

    def _member_nodes(self, tasks: Dict[str, int]) -> Dict[str, Optional[List[int]]]:
        """Disjoint node sets per member when the machine has capacity
        (so failures and L1 replica placement stay member-local);
        members overlap from node 0 otherwise, like space-shared jobs
        forced to time-share."""
        up = self.machine.up_nodes()
        if sum(tasks[n] for n in self._members) > len(up):
            return {name: None for name in self._members}
        out: Dict[str, Optional[List[int]]] = {}
        cursor = 0
        for name in self._members:
            out[name] = up[cursor : cursor + tasks[name]]
            cursor += tasks[name]
        return out

    def _run_ensemble(
        self,
        tasks: Dict[str, int],
        restart: Optional[Dict[str, OpenedGeneration]],
    ) -> WorkflowRunReport:
        if not self._members:
            raise WorkflowError("workflow has no members")
        self._check_tasks(tasks)
        self._hub = _WorkflowHub(self, list(self._members))
        nodes = self._member_nodes(tasks)
        first_line = len(self.lines)
        names = list(self._members)

        def runner(i: int) -> RunReport:
            name = names[i]
            app, args, kwargs = self._members[name]
            app.workflow = (self._hub, name, self.member_base(name))
            launch = app.start if restart is None else partial(app.restart, restart[name])
            try:
                return launch(tasks[name], args=args, kwargs=kwargs, nodes=nodes[name])
            finally:
                app.workflow = None

        # one member thread each, the caller sees a crashed member's own
        # error; members in add_member order, not in the order they finished
        reports = SCHED.run(names, runner, timeout=RUN_TIMEOUT_S)
        return WorkflowRunReport(
            members=dict(zip(names, reports)), lines=self.lines[first_line:],
        )

    # -- hub actions (one thread, all members parked at the boundary) ---------

    def _exchange_action(self, arrivals: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        """The coordinator's turn at an exchange boundary: steering,
        coupling transfers, and the prefixes of the line every member
        checkpoints."""
        obs = get_tracer()
        obs.metrics.counter("workflow.exchanges").inc()
        iteration = max((a["iteration"] for a in arrivals.values()), default=0)

        steered = 0
        runtimes = {}
        for name, (app, _, _) in self._members.items():
            rt = app._last_runtime
            if rt is None:
                raise WorkflowError(f"member {name!r} has no live runtime")
            runtimes[name] = rt
            steered += app.steering.service(rt.arrays)
        if steered:
            obs.metrics.counter("workflow.steered").inc(steered)

        transfer_bytes = {name: 0 for name in self._members}
        for edge in self.couplings:
            src_rt = runtimes[edge.src_member]
            dst_rt = runtimes[edge.dst_member]
            try:
                src = src_rt.arrays[edge.src_array]
                dst = dst_rt.arrays[edge.dst_array]
            except KeyError as exc:
                raise WorkflowError(
                    f"coupling {edge.src_member}.{edge.src_array} -> "
                    f"{edge.dst_member}.{edge.dst_array}: no such array "
                    f"{exc.args[0]!r} at this exchange"
                ) from None
            try:
                wire = app_transfer(dst, src)
            except ArrayError as exc:
                raise WorkflowError(
                    f"coupling {edge.src_member}.{edge.src_array} -> "
                    f"{edge.dst_member}.{edge.dst_array}: {exc}"
                ) from exc
            transfer_bytes[edge.src_member] += wire
            transfer_bytes[edge.dst_member] += wire
        total_wire = sum(transfer_bytes.values()) // 2
        if total_wire:
            obs.metrics.counter("workflow.transfer.bytes").inc(total_wire)

        bases = {n: self.member_base(n) for n in self._members}
        gen = next_workflow_generation(self.pfs, self.base, bases)
        # mlck members checkpoint under their rotation base (the engine
        # numbers the generation); PFS members take the workflow
        # generation number directly.  The commit records the *actual*
        # prefixes either way.
        prefixes = {
            name: bases[name] if app.tier == "memory+pfs"
            else generation_name(bases[name], gen)
            for name, (app, _, _) in self._members.items()
        }
        emit_event(
            None, "workflow_exchange",
            base=self.base, iteration=iteration, generation=gen,
            steered=steered, wire_bytes=total_wire,
        )
        return {
            "generation": gen,
            "prefixes": prefixes,
            "transfer_bytes": transfer_bytes,
        }

    def _commit_action(
        self, outcome: Dict[str, Any], commits: Dict[str, Dict[str, Any]]
    ) -> WorkflowLine:
        """Every member reported its checkpoint complete: seal the line
        with the two-phase workflow manifest."""
        missing = set(self._members) - set(commits)
        if missing:
            raise WorkflowError(
                f"workflow line {outcome['generation']} missing member "
                f"checkpoints {sorted(missing)}"
            )
        gen = outcome["generation"]
        clock = now()
        members = {
            name: {
                "prefix": entry["prefix"],
                "ntasks": entry["ntasks"],
                "iteration": entry["iteration"],
                "tier": self._members[name][0].tier,
                "seconds": entry["seconds"],
            }
            for name, entry in commits.items()
        }
        write_workflow_manifest(
            self.pfs, self.base, gen,
            {
                "members": members,
                "couplings": [
                    [e.src_member, e.src_array, e.dst_member, e.dst_array]
                    for e in self.couplings
                ],
                "clock": clock,
            },
        )
        line = WorkflowLine(generation=gen, members=members, clock=clock)
        self.lines.append(line)
        obs = get_tracer()
        obs.metrics.counter("workflow.lines.committed").inc()
        obs.metrics.histogram("workflow.line.seconds").observe(line.seconds)
        emit_event(
            self.events, "workflow_line_committed",
            base=self.base, generation=gen,
            members={n: m["prefix"] for n, m in members.items()},
        )
        return line

    # -- introspection --------------------------------------------------------

    def committed_generations(self) -> List[int]:
        """Workflow generations with a committed manifest, oldest first."""
        return workflow_generations(self.pfs, self.base)

    def __repr__(self) -> str:
        return (
            f"WorkflowCoordinator({self.base!r}, "
            f"members={list(self._members)}, "
            f"couplings={len(self.couplings)})"
        )
