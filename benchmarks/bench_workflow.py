"""Coordinated workflow checkpointing vs independent per-member lines.

Persists ``BENCH_workflow.json``:

* **coordinated** — a two-member coupled workflow (stencil feeding a
  consumer) run through :class:`~repro.workflow.WorkflowCoordinator`:
  members align at every exchange boundary, coupling bytes move, and
  each positive cadence decision commits one workflow line (members
  write concurrently behind the boundary, so a line costs the slowest
  member, not the sum);
* **independent** — the same two member programs checkpointing on
  their own, no boundary alignment and no coupling transfers: the
  baseline the coordination overhead is measured against;
* **restart** — the newest workflow line is torn (one member's array
  file corrupted), and the ensemble restarts on *different* task
  counts: the walk must reject the torn line as a unit, fall back one
  generation, and the resumed run must reach the same final state as
  the uninterrupted one.

Run standalone with ``--check`` (``make bench-workflow``) to
regenerate the artifact and fail the gate; the pytest path asserts the
same gate.
"""

import json
import sys

import numpy as np

from repro.drms import CheckpointStatus, DRMSApplication
from repro.drms.api import (
    drms_adjust,
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.workflow import WorkflowCoordinator

N = 192
NITER = 6
NUM_NODES = 12
TASKS1 = {"stencil": 4, "consumer": 2}
TASKS2 = {"stencil": 3, "consumer": 3}


def _member_main(ctx, workflow):
    """One member program: an evolving field ``u`` plus an ``inbox``
    that (in workflow mode) receives the peer's field at every
    exchange.  ``workflow=False`` runs the identical program with a
    plain per-member checkpoint instead of the aligned exchange — the
    independent baseline."""
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (N, N))
    u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
    inbox = drms_distribute(ctx, "inbox", dist, init_global=np.zeros((N, N)))
    for it in ctx.iterations(1, NITER + 1):
        if workflow:
            status, delta = ctx.workflow_exchange()
        else:
            status, delta = drms_reconfig_checkpoint(ctx, "solo.ck")
        if status is CheckpointStatus.RESTARTED and delta != 0:
            u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
            inbox = drms_distribute(ctx, "inbox", drms_adjust(ctx, "inbox"))
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


def _build_coordinator():
    machine = Machine(MachineParams(num_nodes=NUM_NODES))
    pfs = PIOFS(machine=machine)
    coord = WorkflowCoordinator("wf", machine=machine, pfs=pfs)
    for name in TASKS1:
        coord.add_member(name, _member_main, args=(True,))
    coord.couple("stencil", "u", "consumer", "inbox")
    return coord


def _run_independent():
    """Both member programs on their own apps: same machine class, same
    update, same checkpoint engine and cadence — no alignment, no
    coupling.  They run as space-shared jobs, so the baseline wall time
    is the slower of the two."""
    elapsed = []
    checkpoint_seconds = 0.0
    for name, ntasks in TASKS1.items():
        machine = Machine(MachineParams(num_nodes=NUM_NODES))
        app = DRMSApplication(
            _member_main, name=name, machine=machine,
            pfs=PIOFS(machine=machine),
        )
        rep = app.start(ntasks, args=(False,))
        elapsed.append(rep.sim_elapsed)
        checkpoint_seconds += sum(bd.total_seconds for _, bd in rep.checkpoints)
    return {
        "sim_elapsed": max(elapsed),
        "checkpoint_seconds": checkpoint_seconds,
        "checkpoints_per_member": NITER,
    }


def run_bench():
    coord = _build_coordinator()
    rep = coord.run(TASKS1)
    final_checksum = {
        name: float(r.arrays["u"].to_global(fill=0).sum())
        for name, r in rep.members.items()
    }
    lines = [
        {
            "generation": line.generation,
            "ensemble_seconds": line.seconds,
            "serial_seconds": line.serial_seconds,
        }
        for line in rep.lines
    ]
    coordinated = {
        "sim_elapsed": rep.sim_elapsed,
        "checkpoint_seconds": rep.checkpoint_seconds,
        "lines": lines,
        "line_ensemble_seconds": sum(l["ensemble_seconds"] for l in lines),
        "line_serial_seconds": sum(l["serial_seconds"] for l in lines),
    }
    independent = _run_independent()

    # tear the newest line: one member's array file takes a silent flip
    from repro.checkpoint.format import array_name
    from repro.pfs.faults import flip_stored_bit

    newest = rep.lines[-1].generation
    torn_file = array_name(f"wf.consumer.{newest:06d}", "u")
    flip_stored_bit(coord.pfs, torn_file, 17, 3)

    rep2 = coord.restart_workflow(TASKS2)
    decision = rep2.decision
    restart_seconds = {
        name: r.restart_breakdown.total_seconds
        for name, r in rep2.members.items()
    }
    resumed_checksum = {
        name: float(r.arrays["u"].to_global(fill=0).sum())
        for name, r in rep2.members.items()
    }
    restart = {
        "torn_generation": newest,
        "chosen_generation": decision.generation,
        "fell_back": decision.fell_back,
        "member_tiers": dict(decision.member_tiers),
        "restart_seconds": restart_seconds,
        "ensemble_restart_latency_s": max(restart_seconds.values()),
        "serial_restart_latency_s": sum(restart_seconds.values()),
        "tasks_before": dict(TASKS1),
        "tasks_after": dict(TASKS2),
        "resumed_checksum": resumed_checksum,
        "uninterrupted_checksum": final_checksum,
    }
    return {
        "scenario": {
            "shape": [N, N],
            "niter": NITER,
            "members": list(TASKS1),
            "num_nodes": NUM_NODES,
        },
        "coordinated": coordinated,
        "independent": independent,
        "coordination_overhead": (
            coordinated["sim_elapsed"] / independent["sim_elapsed"]
        ),
        "line_concurrency_gain": (
            coordinated["line_serial_seconds"]
            / coordinated["line_ensemble_seconds"]
        ),
        "restart": restart,
    }


def check(payload):
    """The --check gate: coordination costs something but a bounded
    something; a workflow line costs the slowest member, not the sum;
    the torn line is rejected as a unit and the mixed-task-count
    ensemble restart reproduces the uninterrupted answer."""
    co, ind, rs = (
        payload["coordinated"], payload["independent"], payload["restart"]
    )
    assert len(co["lines"]) == NITER, (
        f"coordinated run committed {len(co['lines'])} lines, "
        f"expected {NITER}"
    )
    for line in co["lines"]:
        assert line["ensemble_seconds"] <= line["serial_seconds"] + 1e-9, (
            f"line {line['generation']}: ensemble cost "
            f"{line['ensemble_seconds']:.3f}s exceeds the serial sum "
            f"{line['serial_seconds']:.3f}s"
        )
    assert payload["line_concurrency_gain"] > 1.0, (
        "workflow lines showed no concurrency gain over serial "
        "per-member checkpointing"
    )
    overhead = payload["coordination_overhead"]
    assert 1.0 - 1e-9 <= overhead < 3.0, (
        f"coordination overhead {overhead:.3f}x outside [1, 3): the "
        "aligned ensemble should cost a bounded premium over "
        "independent members"
    )
    assert rs["fell_back"] and rs["chosen_generation"] == NITER - 1, (
        f"torn line {rs['torn_generation']} was not rejected as a unit "
        f"(chose {rs['chosen_generation']})"
    )
    assert rs["tasks_after"] != rs["tasks_before"], (
        "restart did not exercise a mixed-task-count reconfiguration"
    )
    assert rs["resumed_checksum"] == rs["uninterrupted_checksum"], (
        "the restarted ensemble diverged from the uninterrupted run: "
        f"{rs['resumed_checksum']} vs {rs['uninterrupted_checksum']}"
    )
    assert rs["ensemble_restart_latency_s"] > 0, (
        "restart latency was not recorded"
    )


def test_workflow(benchmark, report):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report("BENCH_workflow.json", json.dumps(payload, indent=1))
    check(payload)


def main(argv):
    payload = run_bench()
    text = json.dumps(payload, indent=1)
    from conftest import write_artifact  # benchmarks/conftest.py

    write_artifact("BENCH_workflow.json", text)
    print(text)
    if "--check" in argv:
        try:
            check(payload)
        except AssertionError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print(
            "OK: coordinated ensemble at "
            f"{payload['coordination_overhead']:.3f}x independent cost, "
            f"{payload['line_concurrency_gain']:.2f}x line concurrency "
            "gain; torn line rejected as a unit and the ensemble "
            f"restarted in {payload['restart']['ensemble_restart_latency_s']:.3f}s "
            f"on new task counts {payload['restart']['tasks_after']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
