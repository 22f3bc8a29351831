"""Health registry: gauge sampling over machines, fleets, and the
full mlck cluster pipeline."""

import numpy as np
import pytest

from repro.drms.api import (
    drms_adjust,
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)
from repro.drms.context import CheckpointStatus
from repro.infra import DRMSCluster, FailurePlan
from repro.obs import HealthRegistry
from repro.runtime.machine import Machine, MachineParams

N = 10
NITER = 12


def _main(ctx, base):
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
    u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
    for it in ctx.iterations(1, NITER + 1):
        if it % 4 == 1:
            status, delta = drms_reconfig_checkpoint(ctx, base)
            if status is CheckpointStatus.RESTARTED and delta != 0:
                u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


class TestUnitSampling:
    def test_machine_liveness(self):
        machine = Machine(MachineParams(num_nodes=4))
        health = HealthRegistry()
        health.sample_machine(machine)
        assert health.snapshot() == {
            "health.nodes.up": 4.0, "health.nodes.down": 0.0,
        }
        machine.fail_node(2)
        health.sample_machine(machine)
        snap = health.snapshot()
        assert snap["health.nodes.up"] == 3.0
        assert snap["health.nodes.down"] == 1.0

    def test_fleet_occupancy(self):
        health = HealthRegistry()
        health.sample_fleet(
            running=3, queued=5, utilization=0.75, down=2, lost_work=40.0
        )
        snap = health.snapshot()
        assert snap["health.fleet.running"] == 3.0
        assert snap["health.fleet.queued"] == 5.0
        assert snap["health.fleet.utilization"] == pytest.approx(0.75)
        assert snap["health.fleet.down_nodes"] == 2.0
        assert snap["health.fleet.lost_work_node_s"] == 40.0

    def test_snapshot_is_sorted_and_health_only(self):
        health = HealthRegistry()
        health.metrics.gauge("unrelated.gauge").set(9)
        health.sample_fleet(
            running=1, queued=0, utilization=0.5, down=0, lost_work=0.0
        )
        snap = health.snapshot()
        assert list(snap) == sorted(snap)
        assert all(name.startswith("health.") for name in snap)
        assert "fleet health" in health.report()


class TestClusterSampling:
    @pytest.fixture
    def cluster(self):
        return DRMSCluster(machine=Machine(MachineParams(num_nodes=8)))

    def test_healthy_mlck_run_populates_the_gauges(self, cluster):
        app = cluster.build_app(_main, tier="memory+pfs", mlck_drain="sync")
        out = cluster.run_with_recovery("j", app, 8, args=("ck",), prefix="ck")
        assert out.failed_node is None
        snap = cluster.health.snapshot()
        assert snap["health.nodes.up"] == 8.0
        assert snap["health.jobs.completed"] == 1.0
        # iterations 1,5,9 checkpoint; retention (mlck_keep=2) holds the
        # newest two in replica memory as on the PFS
        assert snap["health.l1.generations"] == 2.0
        assert snap["health.l1.resident_bytes"] > 0
        # every piece of the newest generation still has all copies live
        assert snap["health.l1.min_live_replicas"] >= 1.0
        assert sum(
            v for k, v in snap.items() if k.startswith("health.l1.replicas[")
        ) > 0
        # sync drain: nothing pending, newest generation already durable
        assert snap["health.drain.backlog"] == 0.0
        assert snap["health.durable.lag"] == 0.0
        # cadence: checkpoints every 4 iterations, steady
        assert snap["health.checkpoint.interval_mean_s"] > 0
        assert snap["health.checkpoint.cadence_drift"] >= 0.0

    def test_failure_run_shows_the_down_node_and_replica_exposure(self, cluster):
        app = cluster.build_app(_main, tier="memory+pfs", mlck_drain="sync")
        out = cluster.run_with_recovery(
            "j", app, 8, args=("ck",), prefix="ck",
            failure=FailurePlan(iteration=7, node_id=3),
        )
        assert out.failed_node == 3
        snap = cluster.health.snapshot()
        assert snap["health.nodes.down"] == 1.0
        assert snap["health.nodes.repairing"] == 1.0
        assert snap["health.jobs.completed"] == 1.0
        # the dead node's domain holds fewer live copies than the rest
        dead_domain = cluster.failure_domain_of(3)
        assert f"health.l1.replicas[{dead_domain}]" in snap

    def test_health_exports_through_openmetrics(self, cluster):
        from repro.obs import openmetrics_text

        app = cluster.build_app(_main, tier="memory+pfs", mlck_drain="sync")
        cluster.run_with_recovery("j", app, 8, args=("ck",), prefix="ck")
        text = openmetrics_text(cluster.health.metrics)
        assert "# TYPE health_nodes_up gauge" in text
        assert 'health_l1_replicas{entity="0"}' in text
        assert text.endswith("# EOF\n")
