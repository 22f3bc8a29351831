"""Failure forensics CLI: black boxes, timelines, health, diffs.

Usage::

    python -m repro.tools.forensics dump     [--out DIR] [--node N]
                                             [--iteration K] [--ntasks P]
    python -m repro.tools.forensics timeline [INCIDENT] [--max-entries M]
    python -m repro.tools.forensics health   [INCIDENT]
    python -m repro.tools.forensics diff     A B

``dump`` runs the built-in failure scenario — an iterative solver
checkpointing into the multi-level (``memory+pfs``) store on an
8-node cluster, killed mid-run by a
:class:`~repro.infra.failure.FailurePlan` — under a live flight
recorder, then writes the full forensic record under ``--out``:

* ``incident.json``        — the incident dump (events + black boxes +
  recovery outcome + health + metrics; schema ``repro.forensics/2``);
* ``blackbox_node<N>.json`` — the dead node's black-box ring;
* ``metrics.om``           — health gauges and counters in OpenMetrics
  text, scrapable by standard tooling.

``timeline`` reconstructs and prints the failure -> tiered-restart
story (phase latencies attributed, rejections listed) from an incident
dump — or, with no argument, from a fresh demo run.  ``health`` prints
the fleet-health gauges the same way.  ``diff`` compares two incident
dumps phase by phase.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.infra import DRMSCluster, FailurePlan
from repro.obs import (
    FlightRecorder,
    Tracer,
    diff_incidents,
    load_incident,
    make_incident,
    reconstruct_timeline,
    render_diff,
    render_timeline,
    use_flight,
    use_tracer,
    write_incident,
    write_openmetrics,
)
from repro.runtime.machine import Machine, MachineParams

__all__ = ["run_demo_incident", "main"]

_N = 10
_NITER = 12


def _solver(ctx, base):
    import numpy as np

    from repro.drms.api import (
        drms_adjust,
        drms_create_distribution,
        drms_distribute,
        drms_initialize,
        drms_reconfig_checkpoint,
    )
    from repro.drms.context import CheckpointStatus

    drms_initialize(ctx)
    dist = drms_create_distribution(ctx, (_N, _N), shadow=(1, 1))
    u = drms_distribute(ctx, "u", dist, init_global=np.ones((_N, _N)))
    for it in ctx.iterations(1, _NITER + 1):
        if it % 4 == 1:
            status, delta = drms_reconfig_checkpoint(ctx, base)
            if status is CheckpointStatus.RESTARTED and delta != 0:
                u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
        u.set_assigned(u.assigned + 1.0)
        ctx.barrier()
    return float(u.assigned.sum())


def run_demo_incident(node: int = 3, iteration: int = 7, ntasks: int = 8):
    """Run the built-in FailurePlan scenario under a flight recorder
    and a tracer; returns ``(incident, recorder, cluster)``."""
    cluster = DRMSCluster(machine=Machine(MachineParams(num_nodes=8)))
    app = cluster.build_app(_solver, tier="memory+pfs", mlck_drain="sync")
    with use_tracer(Tracer()) as tracer:
        with use_flight(FlightRecorder()) as recorder:
            out = cluster.run_with_recovery(
                "demo", app, ntasks, args=("ck",), prefix="ck",
                failure=FailurePlan(iteration=iteration, node_id=node),
            )
            recorder.publish_metrics()
            incident = make_incident(
                out.events,
                flight=recorder,
                outcome=out,
                health=cluster.health,
                metrics=tracer.metrics,
                tracer=tracer,
                job="demo",
            )
    return incident, recorder, cluster


def _load_or_demo(path):
    if path is None:
        print("no incident file given: running the demo scenario\n")
        incident, _, _ = run_demo_incident()
        return incident
    return load_incident(path)


def _cmd_dump(args) -> int:
    incident, recorder, cluster = run_demo_incident(
        node=args.node, iteration=args.iteration, ntasks=args.ntasks
    )
    out = pathlib.Path(args.out)
    write_incident(out / "incident.json", incident)
    box_paths = recorder.write_blackboxes(out)
    write_openmetrics(out / "metrics.om", cluster.health.metrics)
    tl = reconstruct_timeline(incident)
    print(render_timeline(tl, max_entries=args.max_entries))
    print(f"\nwrote {out / 'incident.json'}, "
          f"{', '.join(str(p) for p in box_paths)}, {out / 'metrics.om'}")
    return 0


def _cmd_timeline(args) -> int:
    incident = _load_or_demo(args.incident)
    print(render_timeline(
        reconstruct_timeline(incident), max_entries=args.max_entries
    ))
    return 0


def _cmd_health(args) -> int:
    if args.incident is None:
        print("no incident file given: running the demo scenario\n")
        _, _, cluster = run_demo_incident()
        print(cluster.health.report())
        return 0
    incident = load_incident(args.incident)
    gauges = incident.get("health")
    if not gauges:
        print("incident dump carries no health snapshot", file=sys.stderr)
        return 1
    print("fleet health (from incident dump)")
    for name, value in sorted(gauges.items()):
        print(f"  {name:<40} {value:g}")
    return 0


def _cmd_diff(args) -> int:
    diff = diff_incidents(load_incident(args.a), load_incident(args.b))
    print(render_diff(diff))
    return 0


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.forensics", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dump = sub.add_parser(
        "dump", help="run the demo failure and write the forensic record"
    )
    p_dump.add_argument("--out", default="forensics_out", help="output directory")
    p_dump.add_argument("--node", type=int, default=3, help="node to kill")
    p_dump.add_argument(
        "--iteration", type=int, default=7, help="iteration the failure fires at"
    )
    p_dump.add_argument("--ntasks", type=int, default=8, help="task count")
    p_dump.add_argument("--max-entries", type=int, default=40)
    p_dump.set_defaults(fn=_cmd_dump)

    p_tl = sub.add_parser(
        "timeline", help="reconstruct and print the recovery timeline"
    )
    p_tl.add_argument(
        "incident", nargs="?", help="incident.json (default: run the demo)"
    )
    p_tl.add_argument("--max-entries", type=int, default=60)
    p_tl.set_defaults(fn=_cmd_timeline)

    p_health = sub.add_parser("health", help="print the fleet-health gauges")
    p_health.add_argument(
        "incident", nargs="?", help="incident.json (default: run the demo)"
    )
    p_health.set_defaults(fn=_cmd_health)

    p_diff = sub.add_parser("diff", help="compare two incident dumps")
    p_diff.add_argument("a", help="baseline incident.json")
    p_diff.add_argument("b", help="comparison incident.json")
    p_diff.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
