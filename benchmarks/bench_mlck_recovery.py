"""Multi-level recovery benchmark: what the in-memory L1 tier buys.

Persists the machine-readable ``BENCH_mlck.json`` baseline with, per
task count, the *simulated* (machine-model clock) costs of:

* **capture** — the application-blocking L1 capture (memory copy +
  switch replication) vs. the direct PFS checkpoint it replaces;
* **restart** — restoring the same generation from surviving L1
  replicas vs. reading it back from the PFS (both paths pay the fixed
  restart initialization — program text loads from the PFS either
  way).

The headline claims asserted here are the tentpole's motivation: on
the simulated RS/6000 SP (35 MB/s switch, 400 MB/s memory copies,
sub-MB/s per-client PFS array reads), the L1 restart is faster than
the PFS restart and the L1 capture blocks the application for less
simulated time than the direct PFS checkpoint, at every measured task
count.
"""

import json

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.distributions import block_distribution
from repro.checkpoint.drms import drms_checkpoint, drms_restart
from repro.checkpoint.recover import restart_latest_valid
from repro.checkpoint.segment import DataSegment, ExecutionContext, SegmentProfile
from repro.mlck.checkpointer import MultiLevelCheckpointer
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams

SHAPE = (256, 256)  # 512 KB of float64 per array
NARRAYS = 2
TASKS = (2, 4, 8)
NUM_NODES = 8


def _arrays(ntasks: int):
    out = []
    for i in range(NARRAYS):
        d = block_distribution(SHAPE, ntasks)
        a = DistributedArray(f"a{i}", SHAPE, np.float64, d)
        a.set_global(
            np.arange(float(np.prod(SHAPE))).reshape(SHAPE) + i
        )
        out.append(a)
    return out


def _segment():
    return DataSegment(
        SegmentProfile(
            local_section_bytes=1 << 12,
            private_bytes=1 << 10,
            system_bytes=1 << 8,
        ),
        ExecutionContext(iteration=1),
    )


def _measure(ntasks: int) -> dict:
    machine = Machine(MachineParams(num_nodes=NUM_NODES))
    pfs = PIOFS(machine=machine)
    arrays = _arrays(ntasks)
    segment = _segment()

    # the two-tier path: blocking L1 capture, then a wait for the drain
    # so the durable copy exists before the restart comparison
    ck = MultiLevelCheckpointer(pfs, "mlck.ck", machine=machine, app_name="bench")
    _, capture_bd = ck.checkpoint(segment, arrays)
    ck.wait_for_drains()
    state, l1_bd, decision = restart_latest_valid(pfs, "mlck.ck", ntasks, l1=ck.store)
    assert decision.tier == "l1", decision

    # the direct single-tier path on a fresh PFS (same machine model)
    pfs2 = PIOFS(machine=Machine(MachineParams(num_nodes=NUM_NODES)))
    pfs_ck_bd = drms_checkpoint(
        pfs2, "direct.ck", segment, arrays, app_name="bench"
    )
    _, pfs_rs_bd = drms_restart(pfs2, "direct.ck", ntasks)

    return {
        "ntasks": ntasks,
        "state_bytes": l1_bd.total_bytes,
        "capture_blocking_s": capture_bd.total_seconds,
        "pfs_checkpoint_s": pfs_ck_bd.total_seconds,
        "l1_restart_s": l1_bd.total_seconds,
        "pfs_restart_s": pfs_rs_bd.total_seconds,
        "checkpoint_speedup": pfs_ck_bd.total_seconds / capture_bd.total_seconds,
        "restart_speedup": pfs_rs_bd.total_seconds / l1_bd.total_seconds,
    }


def test_mlck_recovery_baseline(benchmark, report):
    runs = benchmark.pedantic(
        lambda: [_measure(n) for n in TASKS], rounds=1, iterations=1
    )
    payload = {
        "machine": {
            "num_nodes": NUM_NODES,
            "shape": list(SHAPE),
            "narrays": NARRAYS,
        },
        "runs": runs,
    }
    report("BENCH_mlck.json", json.dumps(payload, indent=1))

    for run in runs:
        # memory+switch recovery must beat the PFS read-back...
        assert run["l1_restart_s"] < run["pfs_restart_s"], run
        # ...and the L1 capture must block the application for less
        # simulated time than the direct PFS checkpoint
        assert run["capture_blocking_s"] < run["pfs_checkpoint_s"], run
        assert run["restart_speedup"] > 1.0
