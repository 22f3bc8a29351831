"""The Section 8 future-work quantification: scheduler flexibility.

"The DRMS approach of restarting applications after reconfiguration is
again advantageous ... primarily because of the flexibility offered to
the scheduler by our approach.  In a future publication, we hope to
quantify these results."

This bench quantifies them: the same FCFS job stream is scheduled on a
16-node machine under the rigid (conventional checkpointing; jobs run
at exactly their requested size) and the reconfigurable (DRMS;
equipartition with checkpoint+reconfigured-restart resizes) policies,
as a failure-free, zero-checkpoint-cost run of the fleet simulation.
The reconfiguration cost is BT's measured DRMS checkpoint+restart time.
"""

import numpy as np

from repro.infra.fleet import FleetSimulation, JobSpec
from repro.reporting.tables import Table

#: BT Class A at 8 PEs: ~16 s checkpoint + ~45 s restart
RECONFIG_COST_S = 61.0


def make_workload(seed: int = 11, njobs: int = 12):
    """A mixed stream: a few wide long jobs plus many narrow short
    ones, Poisson-ish arrivals — the contended shared-machine scenario
    of the paper's Section 8."""
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0.0
    for i in range(njobs):
        if i % 4 == 0:
            spec = JobSpec(
                f"wide{i}", work=float(rng.integers(8_000, 20_000)),
                max_tasks=16, min_tasks=4, arrival=t,
            )
        else:
            spec = JobSpec(
                f"narrow{i}", work=float(rng.integers(400, 2_400)),
                max_tasks=int(rng.integers(2, 6)), min_tasks=1, arrival=t,
            )
        jobs.append(spec)
        t += float(rng.exponential(220.0))
    return jobs


def run_policy(policy: str, reconfig_cost_s: float):
    """One failure-free run of the workload: the §8 configuration."""
    sim = FleetSimulation(
        16, make_workload(), checkpoint_cost_s=0.0, reconfig_cost_s=reconfig_cost_s
    )
    return sim.run(policy, "fixed")


def build_comparison():
    results = {p: run_policy(p, RECONFIG_COST_S) for p in FleetSimulation.SCHEDULINGS}
    t = Table(
        ["policy", "makespan (s)", "mean response (s)", "utilization", "reconfigs"],
        title="Section 8 quantified: rigid vs reconfigurable scheduling, 16 nodes",
    )
    for policy, r in results.items():
        t.add_row(
            policy,
            f"{r.makespan:.0f}",
            f"{r.mean_response:.0f}",
            f"{100 * r.utilization:.1f}%",
            r.reconfigurations,
        )
    return t.render(), results


def build_cost_sensitivity():
    t = Table(
        ["reconfig cost (s)", "mean response (s)", "reconfigs"],
        title="Sensitivity: the benefit survives realistic checkpoint costs",
    )
    rows = {}
    for cost in (1.0, 61.0, 300.0, 1200.0):
        r = rows[cost] = run_policy("reconfigurable", cost)
        t.add_row(f"{cost:.0f}", f"{r.mean_response:.0f}", r.reconfigurations)
    return t.render(), rows


def test_flexibility_benefit(benchmark, report):
    text, results = benchmark(build_comparison)
    report("scheduler_flexibility", text)
    rigid, flex = results["rigid"], results["reconfigurable"]
    # the paper's claim: flexibility helps the scheduler
    assert flex.mean_response < 0.8 * rigid.mean_response
    assert flex.makespan <= rigid.makespan * 1.02
    assert flex.reconfigurations > 0
    # both policies complete the same jobs
    assert set(flex.completions) == set(rigid.completions)


def test_cost_sensitivity(benchmark, report):
    text, rows = benchmark(build_cost_sensitivity)
    report("scheduler_flexibility_cost", text)
    costs = sorted(rows)
    responses = [rows[c].mean_response for c in costs]
    # pricier reconfigurations cannot make responses better
    assert responses[0] <= responses[-1] * 1.01
    # even at BT's real cost the policy still beats rigid
    rigid = run_policy("rigid", 61.0)
    assert rows[61.0].mean_response < rigid.mean_response
