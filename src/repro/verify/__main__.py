"""CLI for the differential reconfiguration harness.

Subcommands::

    python -m repro.verify run     [--seed S] [--cases N] [--fault-cases M]
                                   [--out DIR]
    python -m repro.verify mlck    [--seed S] [--cases N] [--out DIR]
    python -m repro.verify localized [--seed S] [--cases N] [--out DIR]
    python -m repro.verify workflow [--seed S] [--cases N] [--out DIR]
    python -m repro.verify replay  CASE.json [CASE.json ...]
    python -m repro.verify shrink  CASE.json [--out SHRUNK.json]
    python -m repro.verify known-bad [--out CASE.json]

``run`` is the deterministic gate behind ``make verify-reconfig``: a
fixed seed generates the same cases forever, failures are shrunk and
dumped as replayable JSON.  ``known-bad`` demonstrates the shrinker on
the seeded naive-recovery schedule and writes the minimal reproducer.
``mlck`` is the multi-level gate behind ``make verify-mlck``: the two
canonical schedules (node loss served from memory replicas; mid-drain
crash falling back to the durable tier) plus a seeded batch of random
multi-level fault cases.  ``localized`` is the equivalence gate behind
``make verify-localized``: the canonical happy-path and PFS-fallback
schedules plus a seeded sweep of (failure schedule, k-replica,
node-count) triples, each run through BOTH the localized and the full
recovery path — the state must come out byte-identical.  ``workflow``
is the coupled-ensemble gate behind ``make verify-workflow``: the two
canonical torn-line schedules (a silently corrupted member, a lost
member generation) plus a seeded batch of random ring-coupled
workflow cases, each asserting torn lines are rejected as units and
the ensemble restarts byte-identically from the newest fully-valid
line.
"""

from __future__ import annotations

import argparse
import sys

from repro.verify.case import Case
from repro.verify.gen import (
    known_bad_case,
    localized_equivalence_case,
    localized_pfs_fallback_case,
    lost_member_generation_case,
    mid_drain_crash_case,
    node_loss_case,
    torn_workflow_case,
)
from repro.verify.harness import SuiteReport, dump_failures, run_suite
from repro.verify.oracle import VerifyFailure, replay_case, run_case
from repro.verify.shrink import shrink_case


#: the mode gates: each suite mode's help text, its canonical
#: ``(name, factory)`` schedules, and the ``ok`` line a passing
#: schedule prints (formatted over the oracle's result details)
MODES = {
    "mlck": (
        "run the canonical multi-level schedules plus a seeded batch of "
        "random memory+pfs fault cases",
        (("node-loss", node_loss_case),
         ("mid-drain-crash", mid_drain_crash_case)),
        "chose {chosen} from tier {tier} (failed nodes {failed_nodes}, "
        "{pfs_reads_during_walk:g} PFS reads during the walk)",
    ),
    "localized": (
        "run the canonical localized-recovery schedules plus a seeded "
        "sweep of localized-vs-full equivalence cases",
        (("l1-happy-path", localized_equivalence_case),
         ("pfs-fallback", localized_pfs_fallback_case)),
        "chose {chosen} from tier {tier}, lost ranks {lost_ranks} "
        "(failed nodes {failed_nodes}) — localized and full recovery "
        "byte-identical",
    ),
    "workflow": (
        "run the canonical torn-workflow-line schedules plus a seeded "
        "batch of random coupled-workflow cases",
        (("torn-line", torn_workflow_case),
         ("lost-member-generation", lost_member_generation_case)),
        "chose line {chosen} (committed {committed}, rejected {rejected} "
        "as units), ensemble restarted on tasks {restart_tasks} "
        "byte-identically",
    ),
}


def _finish(report: SuiteReport, out: str, bad: int = 0) -> int:
    print(report.summary())
    for p in dump_failures(report, out):
        print(f"  reproducer: {p}")
    return 1 if (bad or not report.ok) else 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _finish(
        run_suite(
            args.seed, {"reconfig": args.cases, "fault": args.fault_cases}
        ),
        args.out,
    )


def _cmd_mode(args: argparse.Namespace) -> int:
    _, schedules, ok = MODES[args.cmd]
    bad = 0
    for name, factory in schedules:
        try:
            result = run_case(factory(seed=args.seed))
        except VerifyFailure as exc:
            print(f"FAIL {name}: {exc.errors[0]}")
            bad += 1
            continue
        print(f"ok   {name}: " + ok.format(**result.details))
    return _finish(run_suite(args.seed, {args.cmd: args.cases}), args.out, bad)


def _cmd_replay(args: argparse.Namespace) -> int:
    bad = 0
    for path in args.cases:
        case = Case.load(path)
        try:
            result = replay_case(case)
        except VerifyFailure as exc:
            print(f"FAIL {path}: {exc.errors[0]}")
            bad += 1
            continue
        verdict = (
            "failed as recorded"
            if "failed_as_expected" in result.details
            else f"{result.checked} invariants hold"
        )
        print(f"ok   {path}: {case.label()} — {verdict}")
    return 1 if bad else 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    case = Case.load(args.case)
    try:
        report = shrink_case(case)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    shrunk = report.shrunk
    shrunk.expect = "fail"
    print(
        f"shrunk {len(case.events)} -> {len(shrunk.events)} events, "
        f"{case.generations} -> {shrunk.generations} generations "
        f"({report.attempts} attempts, {report.accepted} accepted)"
    )
    if args.out:
        shrunk.save(args.out)
        print(f"wrote {args.out}")
    else:
        print(shrunk.to_json())
    return 0


def _cmd_known_bad(args: argparse.Namespace) -> int:
    case = known_bad_case(seed=args.seed)
    report = shrink_case(case)
    shrunk = report.shrunk
    shrunk.expect = "fail"
    print(
        f"known-bad schedule: {len(case.events)} events -> "
        f"{len(shrunk.events)} after shrinking "
        f"({report.attempts} attempts)"
    )
    if len(shrunk.events) > 3:
        print("error: reproducer did not shrink to <= 3 events")
        return 1
    replay_case(shrunk)  # must still fail as recorded
    print("reproducer replays: naive recovery restarts from a silently "
          "truncated checkpoint")
    if args.out:
        shrunk.save(args.out)
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    """Entry point for ``python -m repro.verify``; returns the exit
    status (nonzero when any case fails or fails to replay)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def suite(name, help_text, cases, what, fn):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=20260806)
        p.add_argument("--cases", type=int, default=cases, help=what)
        p.add_argument("--out", default="verify_out",
                       help="directory for shrunk failure reproducers")
        p.set_defaults(fn=fn)
        return p

    p = suite("run", "generate + run a seeded suite", 200,
              "reconfiguration cases across the three engines", _cmd_run)
    p.add_argument("--fault-cases", type=int, default=30,
                   help="fault-schedule recovery cases")
    for name, (help_text, _, _) in MODES.items():
        suite(name, help_text, 25, f"random {name} cases", _cmd_mode)

    p = sub.add_parser("replay", help="replay saved case files")
    p.add_argument("cases", nargs="+", metavar="CASE.json")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("shrink", help="shrink a failing fault case")
    p.add_argument("case", metavar="CASE.json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_shrink)

    p = sub.add_parser(
        "known-bad",
        help="shrink the seeded known-bad schedule to its minimal "
        "reproducer",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_known_bad)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
