"""Scheduling simulation: rigid vs reconfigurable restart, with or
without failures (the paper's Section 8 future work, at any scale).

The conclusions argue that reconfigurable checkpoint/restart benefits
resource scheduling — long-running jobs can be shrunk, grown, or parked
as load changes — and promise to "quantify these results in a future
publication".  :class:`FleetSimulation` is that quantification: one
deterministic event loop over one FCFS job stream, under two
scheduling policies:

* **rigid** — conventional checkpointing: a job runs on exactly its
  requested ``max_tasks``; it waits until that many nodes are free and
  never changes size (an SPMD checkpoint restarts at the same size);
* **reconfigurable** — DRMS checkpointing: a job runs on any count in
  its SOQ resource range (``min_tasks``..``max_tasks``); the scheduler
  splits the machine by :func:`equipartition_targets` and resizes jobs
  (checkpoint + reconfigured restart, paying ``reconfig_cost_s``).

Jobs are perfectly parallel within their range (work in node-seconds).
The paper's §8 study is the failure-free, zero-checkpoint-cost
configuration (``checkpoint_cost_s=0``, no ``failure_schedule``).  The
same loop scales the question to a *fleet* whose nodes fail, including
correlated **failure storms** over whole failure domains, and adds the
checkpoint cadence: the configured **fixed** interval, or an
**adaptive** Young/Daly interval (:func:`young_daly_interval`)
re-derived from the *observed* failure rate at every (re)start anchor.

The model is analytic per job, event-driven across the fleet.  A
running job alternates work phases of length ``tau`` (its checkpoint
interval) with checkpoint phases of length ``checkpoint_cost_s``; both
progress and durable state advance in closed form between events, so a
simulation of thousands of jobs costs one event per arrival,
completion, failure, repair — not one per second.  A node failure
kills the whole job running on it (the paper's premise), rolls it back
to its last completed checkpoint, and requeues it: the rigid policy
waits for ``max_tasks`` nodes (repairs included), the reconfigurable
policy restarts at its equipartition share of the surviving nodes.

Failure storms are deterministic :class:`~repro.infra.failure.FailurePlan`
schedules — ``multi=[(second, node), ...]`` with the plan's ordered
atomic :meth:`~repro.infra.failure.FailurePlan.claim` semantics —
built by :func:`storm_schedule` to strike inside chosen failure
domains (ceil-division frames, matching
:meth:`repro.runtime.machine.Machine.domain_of`).

Outcomes publish as ``fleet.*`` metrics and, when a
:class:`~repro.obs.health.HealthRegistry` is attached, re-sample the
``health.fleet.*`` occupancy gauges at every scheduling step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulerError
from repro.infra.failure import FailurePlan
from repro.runtime.clock import SimClock, use_clock

__all__ = [
    "FleetResult",
    "FleetSimulation",
    "JobSpec",
    "cadence_horizon",
    "cadence_progress",
    "equipartition_targets",
    "storm_schedule",
    "synthetic_stream",
    "young_daly_interval",
]


@dataclass(frozen=True)
class JobSpec:
    """One job in the stream."""

    name: str
    #: total work in node-seconds
    work: float
    #: rigid request / reconfigurable maximum
    max_tasks: int
    #: reconfigurable minimum (SOQ resource section lower bound)
    min_tasks: int = 1
    arrival: float = 0.0

    def __post_init__(self):
        if self.work <= 0 or self.max_tasks < 1 or self.min_tasks < 1:
            raise SchedulerError(f"invalid job spec {self.name!r}")
        if self.min_tasks > self.max_tasks:
            raise SchedulerError(
                f"{self.name!r}: min_tasks {self.min_tasks} > max_tasks {self.max_tasks}"
            )


# -- closed-form progress under a work/checkpoint cadence ---------------------


def young_daly_interval(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """The Young/Daly first-order optimal checkpoint interval
    ``sqrt(2 * C * MTBF)``, floored at the checkpoint cost itself (an
    interval shorter than one checkpoint write is unserviceable)."""
    if checkpoint_cost_s < 0 or mtbf_s <= 0:
        raise ValueError(
            f"young_daly_interval needs cost >= 0 and mtbf > 0, got "
            f"cost={checkpoint_cost_s}, mtbf={mtbf_s}"
        )
    return max(checkpoint_cost_s, math.sqrt(2.0 * checkpoint_cost_s * mtbf_s))


def cadence_progress(x: float, tau: float, cost: float) -> float:
    """Per-task work seconds completed after ``x`` active seconds of a
    job that alternates ``tau`` seconds of work with ``cost`` seconds
    of checkpointing."""
    if x <= 0:
        return 0.0
    cycle = tau + cost
    full, into = divmod(x, cycle)
    return full * tau + min(into, tau)


def cadence_horizon(w: float, tau: float, cost: float) -> float:
    """Active seconds needed to complete ``w`` per-task work seconds
    under the ``tau``/``cost`` cadence (the inverse of
    :func:`cadence_progress`; the final partial work phase pays no
    trailing checkpoint)."""
    if w <= 0:
        return 0.0
    cycle = tau + cost
    full = math.floor(w / tau)
    into = w - full * tau
    if into > 1e-9 * max(1.0, w) or full == 0:
        return full * cycle + into
    return (full - 1) * cycle + tau


# -- workload and storm construction ------------------------------------------


def synthetic_stream(
    num_jobs: int,
    num_nodes: int,
    seed: int = 0,
    mean_interarrival_s: float = 30.0,
    mean_work_s: float = 4_000.0,
) -> List[JobSpec]:
    """A deterministic Poisson-ish stream of ``num_jobs`` malleable
    jobs sized for a ``num_nodes`` machine (exponential interarrivals
    and work, task counts spanning 1/32..1/4 of the machine)."""
    if num_jobs < 1 or num_nodes < 4:
        raise SchedulerError("synthetic stream needs >= 1 job and >= 4 nodes")
    rng = random.Random(seed)
    t = 0.0
    jobs: List[JobSpec] = []
    for i in range(num_jobs):
        t += rng.expovariate(1.0 / mean_interarrival_s)
        hi = max(2, int(rng.uniform(num_nodes / 16.0, num_nodes / 4.0)))
        lo = max(1, hi // 8)
        jobs.append(
            JobSpec(
                name=f"job{i:05d}",
                work=max(60.0, rng.expovariate(1.0 / mean_work_s)) * hi,
                max_tasks=hi,
                min_tasks=lo,
                arrival=round(t, 3),
            )
        )
    return jobs


def storm_schedule(
    num_nodes: int,
    num_domains: int,
    domains: Sequence[int],
    start_s: int,
    count: int,
    spacing_s: int = 2,
) -> List[Tuple[int, int]]:
    """A failure-storm schedule for ``FailurePlan(multi=...)``:
    ``count`` node failures starting at ``start_s``, one every
    ``spacing_s`` seconds, striking round-robin across the listed
    failure domains (ceil-division frames of the machine)."""
    frame = -(-num_nodes // num_domains)
    pools = []
    for d in domains:
        nodes = list(range(d * frame, min((d + 1) * frame, num_nodes)))
        if not nodes:
            raise SchedulerError(f"failure domain {d} is empty on {num_nodes} nodes")
        pools.append(nodes)
    schedule: List[Tuple[int, int]] = []
    for i in range(count):
        pool = pools[i % len(pools)]
        node = pool[(i // len(pools)) % len(pool)]
        schedule.append((start_s + i * spacing_s, node))
    return schedule


def equipartition_targets(
    num_nodes: int, running: Sequence, reconfig_cost_s: float
) -> Dict[str, int]:
    """The reconfigurable policy's task-count targets: split
    ``num_nodes`` near-evenly over the running jobs (leftovers to the
    earliest arrivals), clamped to each job's SOQ range.  Each job is
    read through ``spec``, ``ntasks`` (0 = entering) and ``remaining``
    (node-seconds left).

    Growth is *optional*: a job whose remaining work would not repay
    one checkpoint + reconfigured restart declines it, and — this was
    the stranded-surplus bug — its declined share is re-offered to the
    other growable jobs instead of idling.  Shrinks (and initial
    placements, ``ntasks == 0``) are never declined.  The returned
    targets leave a node idle only when every running job is capped: at
    its ``max_tasks``, or holding at its current size having declined
    growth.
    """
    if not running:
        return {}
    base = num_nodes // len(running)
    extra = num_nodes - base * len(running)
    order = sorted(running, key=lambda r: (r.spec.arrival, r.spec.name))
    targets: Dict[str, int] = {}
    for i, r in enumerate(order):
        n = base + (1 if i < extra else 0)
        targets[r.spec.name] = max(r.spec.min_tasks, min(r.spec.max_tasks, n))
    # clamping may oversubscribe; trim the largest jobs first
    while sum(targets.values()) > num_nodes:
        victim = max(
            (r for r in order if targets[r.spec.name] > r.spec.min_tasks),
            key=lambda r: targets[r.spec.name],
            default=None,
        )
        if victim is None:
            raise SchedulerError("minimum task counts exceed the machine")
        targets[victim.spec.name] -= 1
    # growth is optional: a nearly-done job declines (the checkpoint +
    # restart would not pay off before it completes) and holds at its
    # current size — never above it
    declined = {
        r.spec.name
        for r in order
        if r.ntasks != 0
        and targets[r.spec.name] > r.ntasks
        and r.remaining <= reconfig_cost_s * r.ntasks
    }
    for r in order:
        if r.spec.name in declined:
            targets[r.spec.name] = r.ntasks
    # distribute the remaining nodes — clamping slack plus declined
    # shares — to the earliest growable jobs
    spare = num_nodes - sum(targets.values())
    for r in order:
        if spare <= 0:
            break
        if r.spec.name in declined:
            continue
        grow = min(spare, r.spec.max_tasks - targets[r.spec.name])
        targets[r.spec.name] += grow
        spare -= grow
    assert spare == 0 or all(
        targets[r.spec.name] == r.spec.max_tasks or r.spec.name in declined
        for r in order
    ), "idle nodes stranded while a growable job sits below max_tasks"
    return targets


# -- the simulation -----------------------------------------------------------


@dataclass
class _FleetRunning:
    spec: JobSpec
    ntasks: int
    nodes: List[int]
    #: durable node-seconds (work up to the last completed checkpoint)
    checkpointed: float
    #: absolute time useful work (re)starts at the current size
    active_start: float
    tau: float

    @property
    def remaining(self) -> float:
        """Node-seconds beyond the durable state."""
        return max(0.0, self.spec.work - self.checkpointed)


@dataclass
class FleetResult:
    """Metrics of one fleet run under one (scheduling, cadence) pair."""

    scheduling: str
    cadence: str
    makespan: float
    utilization: float
    mean_response: float
    #: node-seconds of computed-but-never-checkpointed work destroyed
    #: by failures
    lost_work: float
    #: completion time of every completed job, by name
    completions: Dict[str, float]
    checkpoints: int
    reconfigurations: int
    restarts: int
    failures: int
    #: mean seconds from a failure to its job computing again
    recovery_latency_mean_s: float

    @property
    def completed(self) -> int:
        """How many jobs completed."""
        return len(self.completions)


class FleetSimulation:
    """Run one job stream under each (scheduling, cadence) policy pair,
    through an optional failure schedule."""

    SCHEDULINGS = ("rigid", "reconfigurable")
    CADENCES = ("fixed", "adaptive")

    def __init__(
        self,
        num_nodes: int,
        jobs: Sequence[JobSpec],
        failure_schedule: Optional[Sequence[Tuple[int, int]]] = None,
        checkpoint_cost_s: float = 15.0,
        fixed_interval_s: float = 600.0,
        reconfig_cost_s: float = 30.0,
        restart_cost_s: float = 60.0,
        repair_s: float = 1_800.0,
        max_events: int = 2_000_000,
    ):
        if num_nodes < 1:
            raise SchedulerError("fleet needs at least one node")
        names = set()
        for j in jobs:
            if j.max_tasks > num_nodes:
                raise SchedulerError(
                    f"{j.name!r} requests {j.max_tasks} tasks on a "
                    f"{num_nodes}-node fleet"
                )
            # completions, durable progress and targets are keyed by name
            if j.name in names:
                raise SchedulerError(f"duplicate job name {j.name!r}")
            names.add(j.name)
        for second, node in failure_schedule or ():
            if not (0 <= node < num_nodes):
                raise SchedulerError(f"storm targets unknown node {node}")
        self.num_nodes = num_nodes
        self.jobs = sorted(jobs, key=lambda j: (j.arrival, j.name))
        self.failure_schedule = list(failure_schedule or ())
        self.checkpoint_cost_s = float(checkpoint_cost_s)
        self.fixed_interval_s = float(fixed_interval_s)
        self.reconfig_cost_s = float(reconfig_cost_s)
        self.restart_cost_s = float(restart_cost_s)
        self.repair_s = float(repair_s)
        self.max_events = max_events
        #: optional HealthRegistry re-sampled each scheduling step
        self.health = None
        #: optional MetricsRegistry receiving the fleet.* outcome totals
        self.metrics = None

    # -- public ---------------------------------------------------------------

    def run(self, scheduling: str, cadence: str) -> FleetResult:
        """Simulate the stream under one (scheduling, cadence) pair."""
        if scheduling not in self.SCHEDULINGS:
            raise SchedulerError(f"unknown scheduling policy {scheduling!r}")
        if cadence not in self.CADENCES:
            raise SchedulerError(f"unknown cadence policy {cadence!r}")
        return self._simulate(
            reconfigurable=(scheduling == "reconfigurable"),
            adaptive=(cadence == "adaptive"),
        )

    def compare(self) -> Dict[str, FleetResult]:
        """All four policy pairs, keyed ``<scheduling>/<cadence>``."""
        return {
            f"{s}/{c}": self.run(s, c)
            for s in self.SCHEDULINGS
            for c in self.CADENCES
        }

    # -- the event loop -------------------------------------------------------

    def _simulate(self, reconfigurable: bool, adaptive: bool) -> FleetResult:
        t = 0.0
        pending = list(self.jobs)
        #: FCFS queue: (spec, fail_time or None); failed jobs rejoin at
        #: the head so recovery is not starved by later arrivals
        queue: List[Tuple[JobSpec, Optional[float]]] = []
        running: List[_FleetRunning] = []
        #: durable progress of jobs currently off the machine
        saved: Dict[str, float] = {}
        down: Dict[int, float] = {}  # node -> repair completion time
        free = list(range(self.num_nodes - 1, -1, -1))  # pop() yields lowest
        completions: Dict[str, float] = {}
        latencies: List[float] = []
        plan = (
            FailurePlan(multi=self.failure_schedule)
            if self.failure_schedule
            else None
        )
        C = self.checkpoint_cost_s
        stats = {
            "lost": 0.0, "ckpts": 0, "reconfigs": 0,
            "restarts": 0, "failures": 0,
        }

        def pick_tau(ntasks: int) -> float:
            if not adaptive or stats["failures"] == 0 or t <= 0:
                return self.fixed_interval_s
            node_mtbf = (t * self.num_nodes) / stats["failures"]
            return young_daly_interval(C, node_mtbf / max(1, ntasks))

        def settle(r: _FleetRunning) -> Tuple[float, float]:
            """Advance durable state to time ``t``; returns the
            (durable, in-flight) node-second split of the work done
            since ``active_start``."""
            horizon = cadence_horizon(r.remaining / r.ntasks, r.tau, C)
            x = min(max(0.0, t - r.active_start), horizon)
            cycles = math.floor(x / (r.tau + C))
            durable = r.ntasks * cycles * r.tau
            partial = r.ntasks * cadence_progress(x, r.tau, C) - durable
            r.checkpointed = min(r.spec.work, r.checkpointed + durable)
            stats["ckpts"] += cycles
            return durable, partial

        def as_of_now(r: _FleetRunning) -> SimpleNamespace:
            """``r`` as the growth decline weighs it: the node-seconds
            left at ``t``, past both the durable state and the progress
            made since ``active_start``."""
            done = r.ntasks * cadence_progress(t - r.active_start, r.tau, C)
            return SimpleNamespace(
                spec=r.spec, ntasks=r.ntasks, remaining=max(0.0, r.remaining - done)
            )

        def start(spec: JobSpec, ntasks: int, fail_t: Optional[float]) -> None:
            nodes = [free.pop() for _ in range(ntasks)]
            cost = self.restart_cost_s if fail_t is not None else 0.0
            r = _FleetRunning(
                spec=spec, ntasks=ntasks, nodes=nodes,
                checkpointed=saved.pop(spec.name, 0.0),
                active_start=t + cost, tau=pick_tau(ntasks),
            )
            running.append(r)
            if fail_t is not None:
                latencies.append(r.active_start - fail_t)
                stats["restarts"] += 1

        def resize(r: _FleetRunning, ntasks: int) -> None:
            # a planned resize checkpoints first (that is the point of
            # reconfigurable restart), so nothing in flight is lost
            _, partial = settle(r)
            r.checkpointed = min(r.spec.work, r.checkpointed + partial)
            stats["ckpts"] += 1
            stats["reconfigs"] += 1
            if ntasks < r.ntasks:
                for _ in range(r.ntasks - ntasks):
                    free.append(r.nodes.pop())
            else:
                r.nodes.extend(free.pop() for _ in range(ntasks - r.ntasks))
            r.ntasks = ntasks
            r.active_start = max(t, r.active_start) + self.reconfig_cost_s
            r.tau = pick_tau(ntasks)

        def fail_node(node: int) -> None:
            stats["failures"] += 1
            if node in down:
                return  # already dark; the storm wasted a strike
            down[node] = t + self.repair_s
            if node in free:
                free.remove(node)
                return
            victim = next((r for r in running if node in r.nodes), None)
            if victim is None:
                return
            _, partial = settle(victim)
            stats["lost"] += partial
            running.remove(victim)
            free.extend(n for n in victim.nodes if n != node)
            saved[victim.spec.name] = victim.checkpointed
            queue.insert(0, (victim.spec, t))

        def admit() -> None:
            if not reconfigurable:
                while queue:
                    spec, fail_t = queue[0]
                    if len(free) < spec.max_tasks:
                        break
                    queue.pop(0)
                    start(spec, spec.max_tasks, fail_t)
                return
            capacity = self.num_nodes - len(down)
            entering: Dict[str, Optional[float]] = {}
            while queue:
                spec, fail_t = queue[0]
                committed = sum(x.spec.min_tasks for x in running)
                if committed + spec.min_tasks > capacity:
                    break
                queue.pop(0)
                entering[spec.name] = fail_t
                running.append(
                    _FleetRunning(
                        spec=spec, ntasks=0, nodes=[],
                        checkpointed=saved.get(spec.name, 0.0),
                        active_start=t, tau=self.fixed_interval_s,
                    )
                )
            if not running:
                return
            targets = equipartition_targets(
                capacity, [as_of_now(r) for r in running], self.reconfig_cost_s
            )
            order = sorted(running, key=lambda r: (r.spec.arrival, r.spec.name))
            # shrink first so freed nodes are in the pool for growers
            for r in order:
                if 0 < targets[r.spec.name] < r.ntasks:
                    resize(r, targets[r.spec.name])
            for r in order:
                n = targets[r.spec.name]
                if n <= r.ntasks:
                    continue
                if r.ntasks == 0:
                    fail_t = entering.get(r.spec.name)
                    running.remove(r)
                    saved[r.spec.name] = r.checkpointed
                    start(r.spec, n, fail_t)
                else:
                    resize(r, n)

        for _ in range(self.max_events):
            while pending and pending[0].arrival <= t:
                queue.append((pending.pop(0), None))
            for node in [n for n, ready in down.items() if ready <= t]:
                del down[node]
                free.append(node)
            with use_clock(SimClock(t)):
                while plan is not None and not plan.fired:
                    sec, node = plan.pending
                    if sec > t:
                        break
                    if plan.claim(sec, node):
                        fail_node(node)
            admit()
            if self.health is not None:
                occupied = sum(r.ntasks for r in running)
                self.health.sample_fleet(
                    running=len(running),
                    queued=len(queue),
                    utilization=occupied / self.num_nodes,
                    down=len(down),
                    lost_work=stats["lost"],
                )
            storms_left = plan is not None and not plan.fired
            if not running and not queue and not pending and not storms_left:
                break
            horizons = []
            for r in running:
                horizons.append(
                    r.active_start
                    + cadence_horizon(r.remaining / r.ntasks, r.tau, C)
                )
            if pending:
                horizons.append(pending[0].arrival)
            if down:
                horizons.append(min(down.values()))
            if storms_left:
                horizons.append(float(plan.pending[0]))
            if not horizons:
                raise SchedulerError("deadlock: queued jobs but nothing can run")
            t = max(t, min(horizons))
            for r in [x for x in running]:
                done_at = r.active_start + cadence_horizon(
                    r.remaining / r.ntasks, r.tau, C
                )
                if done_at <= t + 1e-9:
                    settle(r)
                    r.checkpointed = r.spec.work
                    running.remove(r)
                    free.extend(r.nodes)
                    completions[r.spec.name] = t
        else:
            raise SchedulerError("event budget exhausted (livelock?)")

        return self._result(
            reconfigurable, adaptive, t, completions, latencies, stats
        )

    # -- reporting ------------------------------------------------------------

    def _result(
        self, reconfigurable, adaptive, t, completions, latencies, stats
    ) -> FleetResult:
        makespan = max(completions.values(), default=0.0)
        responses = [
            completions[j.name] - j.arrival
            for j in self.jobs
            if j.name in completions
        ]
        useful = sum(j.work for j in self.jobs if j.name in completions)
        result = FleetResult(
            scheduling="reconfigurable" if reconfigurable else "rigid",
            cadence="adaptive" if adaptive else "fixed",
            makespan=makespan,
            utilization=(
                useful / (self.num_nodes * makespan) if makespan else 0.0
            ),
            mean_response=(
                sum(responses) / len(responses) if responses else 0.0
            ),
            lost_work=stats["lost"],
            completions=completions,
            checkpoints=stats["ckpts"],
            reconfigurations=stats["reconfigs"],
            restarts=stats["restarts"],
            failures=stats["failures"],
            recovery_latency_mean_s=(
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
        )
        self._publish(result)
        return result

    def _publish(self, r: FleetResult) -> None:
        m = self.metrics
        if m is None:
            return
        m.counter("fleet.jobs.completed").inc(r.completed)
        m.counter("fleet.failures.injected").inc(r.failures)
        m.counter("fleet.checkpoints.taken").inc(r.checkpoints)
        m.counter("fleet.reconfigurations").inc(r.reconfigurations)
        m.counter("fleet.restarts").inc(r.restarts)
        m.gauge("fleet.lost_work.node_seconds").set(r.lost_work)
        m.gauge("fleet.utilization").set(r.utilization)
        m.gauge("fleet.makespan_s").set(r.makespan)
        m.gauge("fleet.recovery.latency_mean_s").set(r.recovery_latency_mean_s)
