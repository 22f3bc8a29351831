"""Tests for the scheduling-flexibility study (§8 future work): the
failure-free, zero-checkpoint-cost configuration of the fleet
simulation."""

import pathlib
import sys

import pytest

from repro.errors import SchedulerError
from repro.infra.fleet import (
    FleetSimulation,
    JobSpec,
    _FleetRunning,
    equipartition_targets,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.bench_scheduler_flexibility import make_workload  # noqa: E402


def study(num_nodes, jobs, reconfig_cost_s=60.0, **kw):
    """The §8 configuration: no failures, checkpoints cost nothing."""
    return FleetSimulation(
        num_nodes, jobs, checkpoint_cost_s=0.0, reconfig_cost_s=reconfig_cost_s, **kw
    )


def running(spec, ntasks, remaining):
    """A job ``ntasks`` wide with ``remaining`` node-seconds left."""
    return _FleetRunning(
        spec=spec, ntasks=ntasks, nodes=[], checkpointed=spec.work - remaining,
        active_start=0.0, tau=600.0,
    )


def make_stream():
    return [
        JobSpec("big", work=16_000.0, max_tasks=16, min_tasks=4, arrival=0.0),
        JobSpec("mid", work=4_000.0, max_tasks=8, min_tasks=2, arrival=100.0),
        JobSpec("small", work=800.0, max_tasks=4, min_tasks=1, arrival=200.0),
    ]


class TestSpecs:
    def test_bad_specs_rejected(self):
        with pytest.raises(SchedulerError):
            JobSpec("x", work=-1, max_tasks=2)
        with pytest.raises(SchedulerError):
            JobSpec("x", work=1, max_tasks=2, min_tasks=3)
        with pytest.raises(SchedulerError):
            study(4, [JobSpec("x", work=1, max_tasks=9, min_tasks=8)])

    def test_unknown_policy(self):
        s = study(16, make_stream()[:1])
        with pytest.raises(SchedulerError):
            s.run("elastic", "fixed")


class TestSingleJob:
    def test_rigid_runtime_is_work_over_tasks(self):
        s = study(16, [JobSpec("j", work=1600.0, max_tasks=8)])
        r = s.run("rigid", "fixed")
        assert r.makespan == pytest.approx(200.0)
        assert r.reconfigurations == 0

    def test_reconfigurable_single_job_no_reconfig_needed(self):
        s = study(16, [JobSpec("j", work=1600.0, max_tasks=8, min_tasks=2)])
        r = s.run("reconfigurable", "fixed")
        assert r.makespan == pytest.approx(200.0)
        assert r.reconfigurations == 0

    def test_utilization_bound(self):
        s = study(8, [JobSpec("j", work=800.0, max_tasks=8)])
        r = s.run("rigid", "fixed")
        assert r.utilization == pytest.approx(1.0)


class TestPolicies:
    def test_reconfigurable_beats_rigid_on_contended_stream(self):
        s = study(16, make_stream(), reconfig_cost_s=60.0)
        res = {p: s.run(p, "fixed") for p in FleetSimulation.SCHEDULINGS}
        assert res["reconfigurable"].makespan < res["rigid"].makespan
        assert res["reconfigurable"].utilization > res["rigid"].utilization
        assert res["reconfigurable"].reconfigurations >= 1

    def test_rigid_head_of_line_blocking(self):
        """A rigid 16-task job blocks everything; the malleable variant
        starts small and grows."""
        jobs = [
            JobSpec("hog", work=3200.0, max_tasks=16, min_tasks=4, arrival=0.0),
            JobSpec("quick", work=100.0, max_tasks=2, min_tasks=1, arrival=1.0),
        ]
        s = study(16, jobs, reconfig_cost_s=30.0)
        rigid = s.run("rigid", "fixed")
        flex = s.run("reconfigurable", "fixed")
        # rigid: quick waits for the hog to finish
        assert rigid.completions["quick"] > rigid.completions["hog"] - 1e-6
        # reconfigurable: quick finishes way earlier
        assert flex.completions["quick"] < 0.5 * rigid.completions["quick"]

    def test_reconfig_cost_tempers_the_gain(self):
        cheap = study(16, make_stream(), reconfig_cost_s=1.0).run(
            "reconfigurable", "fixed"
        )
        pricey = study(16, make_stream(), reconfig_cost_s=500.0).run(
            "reconfigurable", "fixed"
        )
        assert cheap.makespan <= pricey.makespan

    def test_work_conservation(self):
        """Both policies complete the same total work; utilization x
        nodes x makespan == total work + idle."""
        s = study(16, make_stream())
        for policy in ("rigid", "reconfigurable"):
            r = s.run(policy, "fixed")
            total_work = sum(j.work for j in make_stream())
            assert r.utilization * 16 * r.makespan == pytest.approx(total_work)

    def test_arrivals_respected(self):
        jobs = [JobSpec("late", work=100.0, max_tasks=4, arrival=1000.0)]
        r = study(8, jobs).run("rigid", "fixed")
        assert r.completions["late"] == pytest.approx(1025.0)
        assert r.mean_response == pytest.approx(25.0)


class TestOversizeRequestRejected:
    """Bugfix: the rigid policy used to clamp ``max_tasks`` above the
    machine size silently, so the 'rigid' run quietly simulated a
    smaller job than requested while the reconfigurable run used the
    real range — the comparison was apples to oranges."""

    def test_rejected_at_construction(self):
        with pytest.raises(SchedulerError, match="requests 9 tasks"):
            study(4, [JobSpec("big", work=100.0, max_tasks=9)])

    def test_machine_sized_request_accepted(self):
        s = study(4, [JobSpec("ok", work=100.0, max_tasks=4)])
        assert s.run("rigid", "fixed").completions["ok"] == pytest.approx(25.0)


class TestDeclinedGrowthRedistribution:
    """Bugfix: a nearly-done job declining growth used to strand its
    declined share as idle nodes even when another job could grow."""

    def test_declined_share_reaches_other_jobs(self):
        nearly_done = running(
            JobSpec("a", work=1_000.0, max_tasks=16, arrival=0.0),
            ntasks=4, remaining=10.0,
        )
        hungry = running(
            JobSpec("b", work=9_000.0, max_tasks=16, arrival=1.0),
            ntasks=4, remaining=8_000.0,
        )
        targets = equipartition_targets(
            16, [nearly_done, hungry], reconfig_cost_s=60.0
        )
        # a declines its 8-node offer (10 node-seconds left will not
        # repay a 60s x 4-task reconfiguration); its share must flow to
        # b, not idle — the pre-fix targets were {a: 4, b: 8}
        assert targets == {"a": 4, "b": 12}

    def test_shrinks_and_initial_placements_never_declined(self):
        nearly_done = running(
            JobSpec("a", work=1_000.0, max_tasks=16, arrival=0.0),
            ntasks=8, remaining=10.0,
        )
        entering = running(
            JobSpec("b", work=9_000.0, max_tasks=4, arrival=1.0),
            ntasks=0, remaining=9_000.0,
        )
        targets = equipartition_targets(
            8, [nearly_done, entering], reconfig_cost_s=60.0
        )
        # a shrinks (mandatory, frees b's promised nodes); b starts
        assert targets == {"a": 4, "b": 4}

    def test_no_stranded_nodes_under_contended_stream(self):
        """End to end: the occupancy invariant inside the target
        computation holds across a whole contended run (it would
        assert out on the pre-fix stranding)."""
        jobs = [
            JobSpec(
                f"j{i}", work=500.0 + 137.0 * i, max_tasks=8,
                min_tasks=1, arrival=13.0 * i,
            )
            for i in range(12)
        ]
        r = study(16, jobs, reconfig_cost_s=40.0).run("reconfigurable", "fixed")
        assert set(r.completions) == {j.name for j in jobs}


class TestEdgeCases:
    def test_simultaneous_arrivals_tie_break_by_name(self):
        jobs = [
            JobSpec("b", work=400.0, max_tasks=4, arrival=0.0),
            JobSpec("a", work=400.0, max_tasks=4, arrival=0.0),
            JobSpec("c", work=400.0, max_tasks=4, arrival=0.0),
        ]
        for policy in ("rigid", "reconfigurable"):
            r = study(8, jobs).run(policy, "fixed")
            assert set(r.completions) == {"a", "b", "c"}
            total = sum(j.work for j in jobs)
            assert r.utilization * 8 * r.makespan == pytest.approx(total)
        # only two fit at once: the queue must drain in name order
        rigid = study(8, jobs).run("rigid", "fixed")
        assert rigid.completions["a"] <= rigid.completions["c"]

    def test_reconfig_inside_anothers_blocked_window(self):
        """A second reconfiguration lands while the first's overhead
        window is still open; the blocked time must accumulate, not
        reset, and the accounting must stay work-conserving."""
        jobs = [
            JobSpec("hog", work=8_000.0, max_tasks=16, min_tasks=2, arrival=0.0),
            JobSpec("q1", work=200.0, max_tasks=8, min_tasks=1, arrival=100.0),
            JobSpec("q2", work=200.0, max_tasks=8, min_tasks=1, arrival=110.0),
        ]
        s = study(16, jobs, reconfig_cost_s=60.0)
        r = s.run("reconfigurable", "fixed")
        assert set(r.completions) == {"hog", "q1", "q2"}
        assert r.reconfigurations >= 2
        total = sum(j.work for j in jobs)
        assert r.utilization * 16 * r.makespan == pytest.approx(total)

    def test_event_budget_exhaustion_raises(self):
        s = study(16, make_stream(), max_events=2)
        with pytest.raises(SchedulerError, match="event budget"):
            s.run("rigid", "fixed")

    def test_empty_job_list(self):
        for policy in ("rigid", "reconfigurable"):
            r = study(4, []).run(policy, "fixed")
            assert r.makespan == 0.0
            assert r.mean_response == 0.0
            assert r.utilization == 0.0
            assert r.completions == {}


class TestSection8Numbers:
    """The §8 tables (benchmarks/out/scheduler_flexibility*.txt), pinned
    through the fleet.  The 300 s and 1200 s rows need the growth
    decline to weigh the work left at ``t``: weighing the durable state
    alone accepts growth a nearly-done job should decline."""

    def test_comparison(self):
        s = study(16, make_workload(), reconfig_cost_s=61.0)
        got = {
            p: (f"{r.makespan:.0f}", f"{r.mean_response:.0f}", r.reconfigurations)
            for p in FleetSimulation.SCHEDULINGS
            for r in [s.run(p, "fixed")]
        }
        assert got == {
            "rigid": ("4217", "1042", 0),
            "reconfigurable": ("3577", "734", 21),
        }

    @pytest.mark.parametrize(
        "cost, response, reconfigs",
        [(1.0, "607", 17), (61.0, "734", 21), (300.0, "1820", 30), (1200.0, "3477", 22)],
    )
    def test_cost_rows(self, cost, response, reconfigs):
        r = study(16, make_workload(), reconfig_cost_s=cost).run("reconfigurable", "fixed")
        assert (f"{r.mean_response:.0f}", r.reconfigurations) == (response, reconfigs)
