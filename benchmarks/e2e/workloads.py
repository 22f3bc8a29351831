"""The eight workloads: inputs from a seed, one SPMD program, one cycle.

Every workload runs the same benchmark-owned SPMD program
(:func:`spmd_program`) through the public cluster API; they differ in
the arrays and distributions the program declares, the checkpoint tier
and sink of the application, and the recovery protocol the cluster is
asked for.  ``BENCHMARK.json`` records why each workload is here; the
table at the bottom of this file records what each one is.

The program under test receives only generated inputs: ``--seed`` drives
the array contents, the irregular partition of ``indexed_pfs`` and the
node that fails.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.bt import BTProxy
from repro.arrays.distributions import (
    Block,
    Distribution,
    Indexed,
    Replicated,
    process_grid,
)
from repro.drms import CheckpointStatus
from repro.drms.api import (
    drms_adjust,
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)
from repro.infra import DRMSCluster, FailurePlan
from repro.pfs.hostfs import HostFS
from repro.pfs.piofs import PIOFS
from repro.plancache import PlanCache, set_plan_cache
from repro.runtime.machine import Machine, MachineParams
from repro.workflow import WorkflowCoordinator

__all__ = ["WORKLOADS", "Workload", "Stamps", "CycleOutcome"]

NUM_NODES = 8
#: iterations of the recovery program; one checkpoint each
NITER = 5
#: the armed node fails entering this iteration, so recovery restarts
#: from the state of iteration FAIL_ITERATION - 1
FAIL_ITERATION = 4
#: exchanges of a workflow member before ``restart_workflow``
WORKFLOW_NITER = 4
PREFIX = "ck"
WORKFLOW_BASE = "wf"


# -- stamps -------------------------------------------------------------------


class Stamps:
    """``time.perf_counter()`` stamps taken by the workload program.

    One flat list of ``(member, rank, kind, iteration, status, time,
    thread)``; ``member`` is ``""`` outside workflows.  Kinds:
    ``ck_enter``/``ck_exit`` around the checkpoint call, ``resumed``
    once a restarted rank has its arrays rebound, ``iter_end`` after the
    closing barrier, ``restart_call`` from the harness before
    ``restart_workflow``."""

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def add(self, member: str, rank: int, kind: str, iteration: int = 0,
            status: str = "") -> None:
        self.events.append(
            (member, rank, kind, iteration, status, time.perf_counter(),
             threading.get_ident())
        )

    def of(self, kind: str, member: Optional[str] = None,
           rank: Optional[int] = None) -> List[tuple]:
        return [
            e for e in self.events
            if e[2] == kind
            and (member is None or e[0] == member)
            and (rank is None or e[1] == rank)
        ]


# -- the program ----------------------------------------------------------------


@dataclass(frozen=True)
class ArraySpec:
    name: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * 8  # all arrays are f8


@dataclass
class ProgramInputs:
    """Everything one (member of a) job is handed."""

    arrays: Tuple[ArraySpec, ...]
    #: array name -> seeded global contents
    initial: Dict[str, np.ndarray]
    #: (ctx, spec) -> the distribution a fresh run declares
    declare: Callable[[Any, ArraySpec], Distribution]
    #: (ctx, spec) -> the distribution re-imposed after a reconfigured
    #: restart (the Fig. 1 drms_adjust / drms_distribute sequence)
    rebind: Callable[[Any, ArraySpec], Distribution]
    #: names of the arrays the compute step advances
    evolving: Tuple[str, ...]
    niter: int = NITER
    #: workflow member name; "" checkpoints with drms_reconfig_checkpoint
    member: str = ""


def spmd_program(ctx, job: ProgramInputs, stamps: Stamps) -> None:
    """The Fig. 1 skeleton: declare and distribute, then iterate with a
    checkpoint (or workflow exchange) at the top of every iteration,
    ``+1.0`` on the assigned sections as compute, and a closing
    barrier.  After a restart the arrays come back under their adjusted
    distributions and the re-executed iteration rebinds them."""
    rank, member = ctx.rank, job.member
    restarted = drms_initialize(ctx) is CheckpointStatus.RESTARTED
    views = {}
    for spec in job.arrays:
        if restarted:
            views[spec.name] = drms_distribute(
                ctx, spec.name, drms_adjust(ctx, spec.name)
            )
        else:
            views[spec.name] = drms_distribute(
                ctx, spec.name, job.declare(ctx, spec),
                init_global=job.initial[spec.name],
            )
    for it in ctx.iterations(1, job.niter + 1):
        stamps.add(member, rank, "ck_enter", it)
        if member:
            status, delta = ctx.workflow_exchange(final=(it == job.niter))
        else:
            status, delta = drms_reconfig_checkpoint(ctx, PREFIX)
        stamps.add(member, rank, "ck_exit", it, status.value)
        if status is CheckpointStatus.RESTARTED:
            if delta != 0:
                for spec in job.arrays:
                    views[spec.name] = drms_distribute(
                        ctx, spec.name, job.rebind(ctx, spec)
                    )
            stamps.add(member, rank, "resumed", it)
        for name in job.evolving:
            view = views[name]
            view.set_assigned(view.assigned + 1.0)
        ctx.barrier()
        stamps.add(member, rank, "iter_end", it)


# -- distributions ------------------------------------------------------------


def _block_shadow(ctx, spec: ArraySpec) -> Distribution:
    return drms_create_distribution(ctx, spec.shape, shadow=(1,) * len(spec.shape))


def _block_plain(ctx, spec: ArraySpec) -> Distribution:
    return drms_create_distribution(ctx, spec.shape)


def _bt_field(ctx, spec: ArraySpec) -> Distribution:
    """BTProxy's geometry: component axis whole, 3-D blocks, 2-wide
    shadows on the decomposed axes."""
    grid = process_grid(ctx.size, 4, fixed=(1, 0, 0, 0))
    shadow = (0,) + tuple(
        BTProxy.shadow_width if g > 1 else 0 for g in grid[1:]
    )
    return Distribution(
        spec.shape, [Replicated(), Block(), Block(), Block()], ctx.size,
        grid=grid, shadow=shadow,
    )


def _adjusted(ctx, spec: ArraySpec) -> Distribution:
    return drms_adjust(ctx, spec.name)


def _row_sets(rng: np.random.Generator, rows: int, ntasks: int) -> List[np.ndarray]:
    """Uneven scattered row sets: runs of 4 rows dealt to the tasks in
    a seeded order, with fixed unequal shares (6:5:4:3 on four tasks) so
    the amount of irregular work does not depend on the seed."""
    nruns = rows // 4
    shares = np.arange(ntasks, 0, -1) + 2.0
    counts = np.floor(shares / shares.sum() * nruns).astype(int)
    counts[0] += nruns - counts.sum()
    run_owner = rng.permutation(np.repeat(rng.permutation(ntasks), counts))
    row_owner = np.repeat(run_owner, 4)
    return [np.flatnonzero(row_owner == t) for t in range(ntasks)]


def _indexed_rows(ctx, spec: ArraySpec, rows: List[np.ndarray]) -> Distribution:
    return Distribution(spec.shape, [Indexed(rows), Replicated()], ctx.size)


# -- workloads ------------------------------------------------------------------

WORKFLOW_TASKS_1 = {"producer": 4, "consumer": 2}
WORKFLOW_TASKS_2 = {"producer": 3, "consumer": 3}


@dataclass
class CycleOutcome:
    """What the oracle needs from one cycle (or the reference run)."""

    #: "array" (workflow: "member/array") -> final DistributedArray
    arrays: Dict[str, Any]
    #: per restarted job: (restart kind, prefix restarted from)
    restarts: List[Tuple[str, str]] = field(default_factory=list)
    #: workflow only: the generation the recovery walk chose
    generation: Optional[int] = None
    #: bytes resident in L1 replica memory when the cycle ended
    l1_resident_bytes: int = 0
    #: the cycle's own plan cache, for its counters
    plan_cache: Optional[PlanCache] = None

    def digests(self) -> Dict[str, str]:
        return {
            key: hashlib.sha1(np.ascontiguousarray(arr.to_global())).hexdigest()
            for key, arr in self.arrays.items()
        }


@dataclass(frozen=True)
class Workload:
    name: str
    what: str
    #: (quick) -> the arrays one job (or workflow member) declares
    arrays: Callable[[bool], Tuple[ArraySpec, ...]]
    declare: Callable[[Any, ArraySpec], Distribution] = _block_shadow
    #: axis 0 INDEXED by seeded row sets, re-imposed after the restart
    irregular: bool = False
    t1: int = 4
    t2: int = 3
    #: DRMSApplication options (checkpoint tier and its knobs)
    app_options: Tuple[Tuple[str, Any], ...] = ()
    sink: str = "piofs"
    #: "restart" | "localized" | "workflow"
    protocol: str = "restart"
    #: what the oracle demands of restart_breakdown.kind / restarted_from
    expected: Tuple[str, str] = ("drms", PREFIX)

    @property
    def members(self) -> Tuple[str, ...]:
        return tuple(WORKFLOW_TASKS_1) if self.protocol == "workflow" else ("",)

    def state_bytes(self, quick: bool) -> int:
        return sum(s.nbytes for s in self.arrays(quick)) * len(self.members)

    def expected_restarts(self) -> List[Tuple[str, str]]:
        if self.protocol != "workflow":
            return [self.expected]
        return [
            (self.expected[0], f"{WORKFLOW_BASE}.{m}.{WORKFLOW_NITER:06d}")
            for m in self.members
        ]

    def make_inputs(self, seed: int, quick: bool) -> Dict[str, Any]:
        """Seeded inputs: which pool slot fails, the irregular row
        partition per task count (``irregular`` only) and the contents
        of every array."""
        rng = np.random.default_rng(seed)
        specs = self.arrays(quick)
        failed_slot = int(rng.integers(0, self.t1))
        declare, rebind = self.declare, _adjusted
        if self.irregular:
            rows = {
                n: _row_sets(rng, specs[0].shape[0], n)
                for n in sorted({self.t1, self.t2})
            }
            declare = rebind = lambda ctx, spec: _indexed_rows(
                ctx, spec, rows[ctx.size]
            )
        return {
            "failed_slot": failed_slot,
            "jobs": {
                member: ProgramInputs(
                    arrays=specs,
                    initial={s.name: rng.random(s.shape) for s in specs},
                    declare=declare,
                    rebind=rebind,
                    evolving=("u",) if member else tuple(s.name for s in specs),
                    niter=WORKFLOW_NITER if member else NITER,
                    member=member,
                )
                for member in self.members
            },
        }

    def run(self, inputs: Dict[str, Any], stamps: Stamps, fail: bool,
            hostdir: Optional[str] = None) -> CycleOutcome:
        """One whole cycle on a fresh installation (machine, file
        system, daemons, application, plan cache).  ``fail=False`` is
        the uninterrupted reference run of the same program.
        ``hostdir`` is an empty directory for the ``hostfs`` sink."""
        machine = Machine(MachineParams(num_nodes=NUM_NODES))
        if self.sink == "hostfs":
            pfs = HostFS(hostdir, machine=machine)
        else:
            pfs = PIOFS(machine=machine)
        cache = set_plan_cache(PlanCache())
        try:
            if self.protocol == "workflow":
                out = self._run_workflow(machine, pfs, inputs, stamps, fail)
            else:
                out = self._run_job(machine, pfs, inputs, stamps, fail)
        finally:
            set_plan_cache(None)
        out.plan_cache = cache
        return out

    def _run_job(self, machine, pfs, inputs, stamps, fail) -> CycleOutcome:
        cluster = DRMSCluster(machine=machine, pfs=pfs)
        app = cluster.build_app(
            spmd_program, name=self.name, **dict(self.app_options)
        )
        plan = None
        if fail:
            pool = cluster.rc.available_nodes()[: self.t1]
            plan = FailurePlan(
                iteration=FAIL_ITERATION, node_id=pool[inputs["failed_slot"]]
            )
        args = (inputs["jobs"][""], stamps)
        if self.protocol == "localized":
            outcome = cluster.run_with_localized_recovery(
                "job", app, self.t1, args=args, prefix=PREFIX, failure=plan
            )
        else:
            outcome = cluster.run_with_recovery(
                "job", app, self.t1, args=args, prefix=PREFIX, failure=plan,
                restart_ntasks=self.t2,
            )
        report = outcome.final_report
        l1 = app.l1_store_for(PREFIX)
        return CycleOutcome(
            arrays=dict(report.arrays),
            restarts=(
                [(report.restart_breakdown.kind, report.restarted_from)]
                if report.restart_breakdown is not None
                else []
            ),
            l1_resident_bytes=l1.resident_bytes() if l1 is not None else 0,
        )

    def _run_workflow(self, machine, pfs, inputs, stamps, fail) -> CycleOutcome:
        coord = WorkflowCoordinator(WORKFLOW_BASE, machine=machine, pfs=pfs)
        for member, job in inputs["jobs"].items():
            coord.add_member(member, spmd_program, args=(job, stamps))
        coord.couple("producer", "u", "consumer", "inbox")
        report = coord.run(WORKFLOW_TASKS_1)
        generation = None
        if fail:
            stamps.add("", -1, "restart_call")
            report = coord.restart_workflow(WORKFLOW_TASKS_2)
            generation = report.decision.generation
        return CycleOutcome(
            arrays={
                f"{member}/{name}": arr
                for member, rep in report.members.items()
                for name, arr in rep.arrays.items()
            },
            restarts=[
                (rep.restart_breakdown.kind, rep.restarted_from)
                for rep in report.members.values()
                if rep.restart_breakdown is not None
            ],
            generation=generation,
        )


# -- array families -------------------------------------------------------------


def _block_family(quick: bool) -> Tuple[ArraySpec, ...]:
    n = 64 if quick else 1024
    return (ArraySpec("u", (n, n)), ArraySpec("v", (n, n)))


def _bt_family(quick: bool) -> Tuple[ArraySpec, ...]:
    n = 8 if quick else 32
    return tuple(ArraySpec(f.name, f.shape(n)) for f in BTProxy.fields)


def _many_small(quick: bool) -> Tuple[ArraySpec, ...]:
    count, n = (8, 16) if quick else (48, 64)
    return tuple(ArraySpec(f"a{i:02d}", (n, n)) for i in range(count))


def _workflow_family(quick: bool) -> Tuple[ArraySpec, ...]:
    n = 64 if quick else 1024
    return (ArraySpec("u", (n, n // 2)), ArraySpec("inbox", (n, n // 2)))


_MLCK = (("tier", "memory+pfs"), ("mlck_k", 1), ("mlck_drain", "sync"))
_GEN3 = f"{PREFIX}.{FAIL_ITERATION - 1:06d}"

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "block_pfs",
            "two 1024x1024 f8 arrays (16 MiB), BLOCKxBLOCK, shadow (1,1), "
            "4 -> 3 tasks, tier pfs, in-memory PIOFS",
            _block_family,
        ),
        Workload(
            "bt_pfs",
            "BTProxy.fields at n=32: 11 rank-4 arrays, 40 scalar grids "
            "(10.5 MB), [*, BLOCK, BLOCK, BLOCK], shadow (0,2,2,2), 4 -> 3",
            _bt_family, declare=_bt_field,
        ),
        Workload(
            "indexed_pfs",
            "block-family bytes, axis 0 INDEXED with seeded uneven scattered "
            "row sets x replicated axis 1; a fresh irregular partition is "
            "re-imposed after the restart",
            _block_family, irregular=True,
        ),
        Workload(
            "many_small",
            "48 arrays 64x64 f8 (1.5 MiB), block-family geometry",
            _many_small,
        ),
        Workload(
            "block_hostfs",
            "block_pfs over HostFS in a fresh directory per cycle "
            "(page cache, no fsync: the sink's flush policy today)",
            _block_family, sink="hostfs",
        ),
        Workload(
            "block_mlck",
            "block family, tier memory+pfs, k=1, synchronous drain; "
            "full restart served from L1 replicas",
            _block_family, app_options=_MLCK, expected=("mlck-l1", _GEN3),
        ),
        Workload(
            "block_localized",
            "as block_mlck through run_with_localized_recovery: same task "
            "count, replacement node",
            _block_family, t2=4, app_options=_MLCK, protocol="localized",
            expected=("mlck-l1-localized", _GEN3),
        ),
        Workload(
            "workflow2",
            "WorkflowCoordinator: producer (4 -> 3) and consumer (2 -> 3), "
            "two 1024x512 f8 arrays each (16 MiB), producer.u -> "
            "consumer.inbox, 4 exchanges then restart_workflow",
            _workflow_family, declare=_block_plain, protocol="workflow",
        ),
    )
}
