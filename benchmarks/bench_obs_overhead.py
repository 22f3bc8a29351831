"""Observability overhead benchmark: what instrumentation costs.

Persists ``BENCH_obs_overhead.json``:

* **macro** — wall-clock of one full mlck (``memory+pfs``) cluster run
  under three observability configurations: everything off (the
  default ``NullTracer`` + ``NullFlightRecorder``), flight recorder
  only (the always-on black-box mode), and the full stack (tracer +
  metrics + flight).  Best-of-``REPEATS`` per mode, so scheduler noise
  does not masquerade as instrumentation cost;
* **micro** — per-call cost of ``emit_event(None, ...)`` under the
  null and active recorders (nanoseconds per event);
* **overhead** — the gating ratio: the flight-only run must cost less
  than ``MAX_FLIGHT_OVERHEAD_PCT`` (5%) over the everything-off
  baseline.  That is the budget that justifies leaving the recorder on
  in every run.

Run standalone with ``--check`` (``make bench-obs``) to regenerate the
artifact and fail the gate; the pytest path asserts the same gate.
"""

import json
import sys
import time

import numpy as np

from repro.drms.api import (
    drms_create_distribution,
    drms_distribute,
    drms_initialize,
    drms_reconfig_checkpoint,
)
from repro.infra import DRMSCluster
from repro.obs import FlightRecorder, Tracer, emit_event, use_flight, use_tracer
from repro.runtime.machine import Machine, MachineParams

N = 16
NITER = 12
NTASKS = 8
REPEATS = 5
MICRO_EVENTS = 20_000
MAX_FLIGHT_OVERHEAD_PCT = 5.0


def _main(ctx, base):
    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (N, N), shadow=(1, 1))
    u = drms_distribute(ctx, "u", dist, init_global=np.ones((N, N)))
    for it in ctx.iterations(1, NITER + 1):
        if it % 2 == 1:  # checkpoint-heavy: exercise the hot paths
            drms_reconfig_checkpoint(ctx, base)
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


def _run_once() -> None:
    cluster = DRMSCluster(machine=Machine(MachineParams(num_nodes=8)))
    app = cluster.build_app(_main, tier="memory+pfs", mlck_drain="sync")
    cluster.run_with_recovery("bench", app, NTASKS, args=("ck",), prefix="ck")


def _best_of(fn, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _macro():
    def off():
        _run_once()

    def flight_only():
        with use_flight(FlightRecorder()):
            _run_once()

    def full():
        with use_tracer(Tracer()):
            with use_flight(FlightRecorder()):
                _run_once()

    # one warm-up of each shape before timing anything
    for fn in (off, flight_only, full):
        fn()
    recorder = FlightRecorder()
    with use_flight(recorder):
        _run_once()
    return {
        "off_seconds": _best_of(off),
        "flight_seconds": _best_of(flight_only),
        "full_seconds": _best_of(full),
        "flight_events_per_run": sum(
            recorder.recorded(n) for n in recorder.nodes()
        ),
    }


def _micro():
    from repro.obs import NULL_FLIGHT

    def spin(fr):
        with use_flight(fr):
            t0 = time.perf_counter()
            for i in range(MICRO_EVENTS):
                emit_event(None, "bench_tick", node=3, i=i)
            return (time.perf_counter() - t0) / MICRO_EVENTS * 1e9

    return {
        "events": MICRO_EVENTS,
        "null_ns_per_event": spin(NULL_FLIGHT),
        "active_ns_per_event": spin(FlightRecorder(capacity=256)),
    }


def run_bench():
    macro = _macro()
    overhead = {
        "flight_pct": (macro["flight_seconds"] / macro["off_seconds"] - 1.0)
        * 100.0,
        "full_pct": (macro["full_seconds"] / macro["off_seconds"] - 1.0)
        * 100.0,
        "max_flight_pct": MAX_FLIGHT_OVERHEAD_PCT,
    }
    return {"macro": macro, "micro": _micro(), "overhead": overhead}


def check(payload):
    """The --check gate: flight recording stays inside its budget."""
    pct = payload["overhead"]["flight_pct"]
    assert pct < MAX_FLIGHT_OVERHEAD_PCT, (
        f"flight recorder overhead {pct:.2f}% exceeds the "
        f"{MAX_FLIGHT_OVERHEAD_PCT}% budget"
    )
    assert payload["macro"]["flight_events_per_run"] > 0, (
        "flight recorder saw no events: the workload is not exercising "
        "the instrumented paths"
    )


def test_obs_overhead(benchmark, report):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    report("BENCH_obs_overhead.json", json.dumps(payload, indent=1))
    check(payload)


def main(argv):
    payload = run_bench()
    text = json.dumps(payload, indent=1)
    from conftest import write_artifact  # benchmarks/conftest.py

    write_artifact("BENCH_obs_overhead.json", text)
    print(text)
    if "--check" in argv:
        try:
            check(payload)
        except AssertionError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print(
            "OK: flight overhead "
            f"{payload['overhead']['flight_pct']:.2f}% "
            f"(< {MAX_FLIGHT_OVERHEAD_PCT}%), full stack "
            f"{payload['overhead']['full_pct']:.2f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
