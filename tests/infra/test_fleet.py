"""Tests for the fleet-scale scheduling x cadence study (infra.fleet)."""

import math

import pytest

from repro.errors import SchedulerError
from repro.infra.fleet import (
    FleetSimulation,
    JobSpec,
    cadence_horizon,
    cadence_progress,
    storm_schedule,
    synthetic_stream,
    young_daly_interval,
)
from repro.obs.catalog import match_family
from repro.obs.health import HealthRegistry
from repro.obs.metrics import MetricsRegistry


class TestYoungDalyInterval:
    def test_formula(self):
        assert young_daly_interval(30.0, 86_400.0) == pytest.approx(
            math.sqrt(2 * 30.0 * 86_400.0)
        )

    def test_floored_at_cost(self):
        # an interval shorter than one checkpoint write is unserviceable
        assert young_daly_interval(100.0, 1.0) == 100.0

    @pytest.mark.parametrize("cost,mtbf", [(-1.0, 100.0), (1.0, 0.0), (1.0, -5.0)])
    def test_rejects_bad_inputs(self, cost, mtbf):
        with pytest.raises(ValueError):
            young_daly_interval(cost, mtbf)


class TestCadenceMath:
    def test_progress_excludes_checkpoint_phases(self):
        # 100s work / 10s checkpoint: 250 active seconds = two full
        # cycles (200s work-wall) plus 30s into the third work phase
        assert cadence_progress(250.0, 100.0, 10.0) == pytest.approx(230.0)
        # mid-checkpoint: work holds at the phase boundary
        assert cadence_progress(105.0, 100.0, 10.0) == pytest.approx(100.0)

    def test_horizon_inverts_progress(self):
        for w in (1.0, 99.0, 100.0, 101.0, 250.0, 1000.0):
            x = cadence_horizon(w, 100.0, 10.0)
            assert cadence_progress(x, 100.0, 10.0) == pytest.approx(w)

    def test_final_work_phase_pays_no_trailing_checkpoint(self):
        # exactly 2 x tau of work: one full cycle plus a bare phase
        assert cadence_horizon(200.0, 100.0, 10.0) == pytest.approx(210.0)

    def test_zero(self):
        assert cadence_progress(0.0, 100.0, 10.0) == 0.0
        assert cadence_horizon(0.0, 100.0, 10.0) == 0.0


class TestStormSchedule:
    def test_strikes_stay_inside_domains(self):
        sched = storm_schedule(64, 4, domains=[1, 2], start_s=100, count=20)
        frame = 16
        for sec, node in sched:
            assert node // frame in (1, 2)
        assert [s for s, _ in sched] == sorted(s for s, _ in sched)
        assert len(sched) == 20

    def test_spacing(self):
        sched = storm_schedule(8, 2, domains=[0], start_s=50, count=3, spacing_s=7)
        assert [s for s, _ in sched] == [50, 57, 64]

    def test_empty_domain_rejected(self):
        with pytest.raises(SchedulerError):
            storm_schedule(4, 4, domains=[7], start_s=0, count=1)


class TestSyntheticStream:
    def test_deterministic(self):
        a = synthetic_stream(50, 64, seed=9)
        b = synthetic_stream(50, 64, seed=9)
        assert a == b
        assert a != synthetic_stream(50, 64, seed=10)

    def test_specs_fit_the_machine(self):
        for j in synthetic_stream(100, 64, seed=1):
            assert 1 <= j.min_tasks <= j.max_tasks <= 64
            assert j.work > 0

    def test_rejects_degenerate_input(self):
        with pytest.raises(SchedulerError):
            synthetic_stream(0, 64)
        with pytest.raises(SchedulerError):
            synthetic_stream(10, 2)


class TestFailureFreeRuns:
    def test_single_job_exact_makespan(self):
        # 400 node-seconds on 4 tasks = 100s per task, one bare work
        # phase (no checkpoint completes before the job does)
        sim = FleetSimulation(
            4, [JobSpec("j", work=400.0, max_tasks=4)],
            checkpoint_cost_s=10.0, fixed_interval_s=100.0,
        )
        r = sim.run("rigid", "fixed")
        assert r.makespan == pytest.approx(100.0)
        assert r.utilization == pytest.approx(1.0)
        assert r.lost_work == 0.0
        assert r.checkpoints == 0
        assert r.completed == 1

    def test_checkpoint_overhead_stretches_makespan(self):
        # 1000s of per-task work under a 100/10 cadence: 9 completed
        # checkpoints inflate the wall to 1090s
        sim = FleetSimulation(
            4, [JobSpec("j", work=4000.0, max_tasks=4)],
            checkpoint_cost_s=10.0, fixed_interval_s=100.0,
        )
        r = sim.run("rigid", "fixed")
        assert r.makespan == pytest.approx(1090.0)
        assert r.checkpoints == 9

    def test_unknown_policies_rejected(self):
        sim = FleetSimulation(4, [JobSpec("j", work=10.0, max_tasks=2)])
        with pytest.raises(SchedulerError):
            sim.run("elastic", "fixed")
        with pytest.raises(SchedulerError):
            sim.run("rigid", "clever")

    def test_oversize_job_rejected(self):
        with pytest.raises(SchedulerError):
            FleetSimulation(4, [JobSpec("j", work=10.0, max_tasks=8)])

    def test_duplicate_job_names_rejected(self):
        # completions, durable progress and targets are keyed by name
        jobs = [
            JobSpec("a", work=10.0, max_tasks=2),
            JobSpec("a", work=20.0, max_tasks=2),
        ]
        with pytest.raises(SchedulerError, match="duplicate job name 'a'"):
            FleetSimulation(4, jobs)

    def test_storm_node_out_of_range_rejected(self):
        with pytest.raises(SchedulerError):
            FleetSimulation(
                4, [JobSpec("j", work=10.0, max_tasks=2)],
                failure_schedule=[(10, 99)],
            )


class TestFailures:
    def fail_at_500(self, scheduling):
        sim = FleetSimulation(
            4,
            [JobSpec("big", work=4000.0, max_tasks=4, min_tasks=1)],
            failure_schedule=[(500, 0)],
            checkpoint_cost_s=10.0,
            fixed_interval_s=100.0,
            restart_cost_s=50.0,
            repair_s=300.0,
        )
        return sim.run(scheduling, "fixed")

    def test_rollback_loses_only_post_checkpoint_work(self):
        # at t=500 the job sits 60s into its 5th work phase: 4 completed
        # checkpoints hold 1600 node-seconds; 60s x 4 tasks are lost
        r = self.fail_at_500("rigid")
        assert r.lost_work == pytest.approx(240.0)
        assert r.restarts == 1
        assert r.completed == 1

    def test_rigid_recovery_waits_for_repair(self):
        # the rigid policy needs all 4 nodes back: repair at 800 plus
        # the 50s restart = 350s of recovery latency
        r = self.fail_at_500("rigid")
        assert r.recovery_latency_mean_s == pytest.approx(350.0)
        assert r.makespan == pytest.approx(1500.0)

    def test_reconfigurable_restarts_on_survivors(self):
        # reconfigurable restart shrinks onto the 3 surviving nodes
        # immediately: latency is just the restart cost
        r = self.fail_at_500("reconfigurable")
        assert r.recovery_latency_mean_s == pytest.approx(50.0)
        assert r.makespan < 1500.0
        assert r.completed == 1

    def test_failure_of_idle_node_costs_no_work(self):
        sim = FleetSimulation(
            8, [JobSpec("j", work=400.0, max_tasks=2)],
            failure_schedule=[(50, 7)], fixed_interval_s=100.0,
        )
        r = sim.run("rigid", "fixed")
        assert r.lost_work == 0.0
        assert r.restarts == 0
        assert r.failures == 1


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def stormy(self):
        jobs = synthetic_stream(
            150, 32, seed=3, mean_interarrival_s=60.0, mean_work_s=4_000.0
        )
        storm = storm_schedule(
            32, 4, domains=[0, 1, 2, 3], start_s=300, count=60, spacing_s=150
        )
        return jobs, storm

    def run(self, stormy, scheduling, cadence):
        jobs, storm = stormy
        sim = FleetSimulation(
            32, jobs, failure_schedule=storm,
            checkpoint_cost_s=15.0, fixed_interval_s=600.0,
        )
        return sim.run(scheduling, cadence)

    def test_adaptive_cadence_cuts_lost_work(self, stormy):
        fixed = self.run(stormy, "rigid", "fixed")
        adaptive = self.run(stormy, "rigid", "adaptive")
        assert fixed.completed == adaptive.completed == 150
        assert adaptive.lost_work < fixed.lost_work

    def test_reconfigurable_keeps_utilization_edge_under_storm(self, stormy):
        rigid = self.run(stormy, "rigid", "fixed")
        flex = self.run(stormy, "reconfigurable", "fixed")
        assert flex.utilization > rigid.utilization
        assert flex.completed == rigid.completed == 150

    def test_compare_covers_all_four_pairs(self):
        sim = FleetSimulation(4, [JobSpec("j", work=40.0, max_tasks=2)])
        res = sim.compare()
        assert sorted(res) == [
            "reconfigurable/adaptive",
            "reconfigurable/fixed",
            "rigid/adaptive",
            "rigid/fixed",
        ]


class TestObservability:
    def test_fleet_metrics_published_and_cataloged(self):
        sim = FleetSimulation(
            4, [JobSpec("j", work=400.0, max_tasks=4)],
            failure_schedule=[(50, 0)], fixed_interval_s=100.0,
        )
        sim.metrics = MetricsRegistry()
        sim.run("reconfigurable", "fixed")
        names = sorted(sim.metrics.counters) + sorted(sim.metrics.gauges)
        assert "fleet.jobs.completed" in names
        assert "fleet.lost_work.node_seconds" in names
        for name in names:
            assert match_family(name) == "fleet", name
        assert sim.metrics.counter("fleet.jobs.completed").value == 1

    def test_health_registry_sampled(self):
        sim = FleetSimulation(
            4, [JobSpec("j", work=400.0, max_tasks=4)],
            failure_schedule=[(50, 0)], fixed_interval_s=100.0,
        )
        sim.health = HealthRegistry()
        sim.run("reconfigurable", "fixed")
        snap = sim.health.snapshot()
        assert "health.fleet.running" in snap
        assert "health.fleet.down_nodes" in snap
        assert snap["health.fleet.lost_work_node_s"] > 0
