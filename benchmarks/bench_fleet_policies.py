"""Fleet-scale scheduling x cadence policy study.

Persists ``BENCH_fleet.json``: 2,000 jobs on a 256-node, 8-domain
fleet, run under every (scheduling, cadence) policy pair through two
failure-storm schedules:

* **burst** — a short correlated blitz inside two failure domains;
* **sustained** — failures spread across the whole campaign, the
  weather in which an adaptive (Young/Daly) cadence has time to learn
  the observed failure rate and retune its interval.

The gates pin the two fleet-level claims: the reconfigurable scheduler
preserves its utilization advantage over the rigid one under storms
(the Section 8 gap, now with failures), and the cadence-adaptive
policy beats the fixed-interval cadence on fleet lost work under at
least the sustained schedule.

Run standalone with ``--check`` (``make bench-fleet``) to regenerate
the artifact and fail the gate; the pytest path asserts the same gate.
"""

import json
import sys

from repro.infra.fleet import FleetSimulation, storm_schedule, synthetic_stream

NUM_NODES = 256
NUM_DOMAINS = 8
NUM_JOBS = 2_000
SEED = 11
CHECKPOINT_COST_S = 15.0
FIXED_INTERVAL_S = 600.0

STORMS = {
    # a two-domain blitz: 48 strikes in ~4 minutes
    "burst": dict(domains=[1, 2], start_s=3_000, count=48, spacing_s=5),
    # fleet-wide bad weather: 160 strikes over ~5.3 simulated hours
    "sustained": dict(
        domains=list(range(NUM_DOMAINS)), start_s=600, count=160, spacing_s=120
    ),
}


def _stream():
    return synthetic_stream(
        NUM_JOBS,
        NUM_NODES,
        seed=SEED,
        mean_interarrival_s=12.0,
        mean_work_s=5_000.0,
    )


def run_bench():
    jobs = _stream()
    out = {
        "scenario": {
            "num_nodes": NUM_NODES,
            "num_domains": NUM_DOMAINS,
            "num_jobs": NUM_JOBS,
            "seed": SEED,
            "checkpoint_cost_s": CHECKPOINT_COST_S,
            "fixed_interval_s": FIXED_INTERVAL_S,
            "storms": STORMS,
        },
        "storms": {},
    }
    for name, spec in STORMS.items():
        schedule = storm_schedule(NUM_NODES, NUM_DOMAINS, **spec)
        sim = FleetSimulation(
            NUM_NODES,
            jobs,
            failure_schedule=schedule,
            checkpoint_cost_s=CHECKPOINT_COST_S,
            fixed_interval_s=FIXED_INTERVAL_S,
        )
        out["storms"][name] = {
            pair: {
                "makespan_s": r.makespan,
                "utilization": r.utilization,
                "mean_response_s": r.mean_response,
                "lost_work_node_s": r.lost_work,
                "completed": r.completed,
                "checkpoints": r.checkpoints,
                "reconfigurations": r.reconfigurations,
                "restarts": r.restarts,
                "failures": r.failures,
                "recovery_latency_mean_s": r.recovery_latency_mean_s,
            }
            for pair, r in sim.compare().items()
        }
    return out


def check(payload):
    """The --check gate: every job completes under every policy pair;
    the reconfigurable scheduler keeps its utilization edge under both
    storms; the adaptive cadence beats the fixed one on fleet lost
    work under the sustained storm (for both schedulers) without
    giving up the makespan."""
    for storm, pairs in payload["storms"].items():
        for pair, r in pairs.items():
            assert r["completed"] == NUM_JOBS, (
                f"{storm}/{pair}: only {r['completed']}/{NUM_JOBS} jobs "
                "completed — the fleet wedged"
            )
        for cadence in ("fixed", "adaptive"):
            flex = pairs[f"reconfigurable/{cadence}"]
            rigid = pairs[f"rigid/{cadence}"]
            assert flex["utilization"] > rigid["utilization"], (
                f"{storm}/{cadence}: reconfigurable utilization "
                f"{flex['utilization']:.3f} did not beat rigid "
                f"{rigid['utilization']:.3f}"
            )
    sustained = payload["storms"]["sustained"]
    for sched in ("rigid", "reconfigurable"):
        fixed = sustained[f"{sched}/fixed"]
        adaptive = sustained[f"{sched}/adaptive"]
        assert adaptive["lost_work_node_s"] < fixed["lost_work_node_s"], (
            f"sustained/{sched}: adaptive cadence lost "
            f"{adaptive['lost_work_node_s']:.0f} node-seconds, fixed lost "
            f"{fixed['lost_work_node_s']:.0f} — adaptation did not pay"
        )
        assert adaptive["makespan_s"] <= 1.05 * fixed["makespan_s"], (
            f"sustained/{sched}: the adaptive cadence bought its loss "
            "reduction with a >5% makespan regression"
        )


def test_fleet_policies(benchmark, report):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report("BENCH_fleet.json", json.dumps(payload, indent=1))
    check(payload)


def main(argv):
    payload = run_bench()
    text = json.dumps(payload, indent=1)
    from conftest import write_artifact  # benchmarks/conftest.py

    write_artifact("BENCH_fleet.json", text)
    print(text)
    if "--check" in argv:
        try:
            check(payload)
        except AssertionError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        s = payload["storms"]["sustained"]
        print(
            "OK: sustained storm — adaptive cadence lost "
            f"{s['reconfigurable/adaptive']['lost_work_node_s']:.0f} "
            f"node-s vs fixed {s['reconfigurable/fixed']['lost_work_node_s']:.0f}; "
            f"utilization {s['reconfigurable/fixed']['utilization']:.3f} "
            f"(reconfigurable) vs {s['rigid/fixed']['utilization']:.3f} (rigid)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
