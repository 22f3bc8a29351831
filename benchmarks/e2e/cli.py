"""Command line of the recovery-cycle benchmark.

``python -m benchmarks.e2e`` measures every workload in every pass,
prints each metric by name with unit, direction, sample count and
spread, and writes ``benchmarks/e2e/out/BENCH_e2e.json``.  Each
(workload, pass, run) is one child process (see
:mod:`benchmarks.e2e.child`).

``--trace 0|1`` switches to the benchmark driver's contract: one
workload, one pass, and one JSON object as the last line of output.
``--compare A.json B.json`` judges two records against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Optional

from benchmarks.e2e.child import OUT_DIR, PASSES
from benchmarks.e2e.stats import spread

ROOT = pathlib.Path(__file__).resolve().parents[2]
RECORD = OUT_DIR / "BENCH_e2e.json"
DEFAULT_SEED = 20260926
#: children spawned for one end-to-end run; ``setup_s`` is the median
#: of their set-up times (only the last one goes on to measure)
SETUPS_PER_RUN = 3
#: the children of one run are killed when they outlive this together
RUN_TIMEOUT_S = 170.0
#: The child's environment.  Besides the hash seed it pins the memory
#: regime: one glibc malloc arena, every buffer below 32 MiB served from
#: a heap that is never trimmed (the regime the allocator's dynamic
#: thresholds drift towards in a long-lived process), and no
#: ``madvise(MADV_HUGEPAGE)`` from numpy (whether a heap buffer gets huge
#: pages depends on its alignment at that moment).  Left alone, the SPMD
#: threads spread their arrays over per-thread arenas in an order that
#: depends on scheduling, and the same code lands in states whose
#: recovery wall differs by 1.5x from run to run and from cycle to cycle.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


class ChildFailed(Exception):
    """A child process exited without a result (its stderr says why)."""


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, pass_: str, args, deadline: float,
              setup_only: bool = False) -> Dict[str, Any]:
    """One child process to completion (killed at ``deadline``, a
    ``time.monotonic()`` value); its last stdout line, parsed."""
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(seed), "--pass", pass_,
        "--seconds", str(args.seconds), "--cpus", args.cpus,
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.cycles is not None:
        cmd += ["--cycles", str(args.cycles)]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise ChildFailed(
            f"child for {workload}/{pass_} exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, pass_: str, args) -> Dict[str, Any]:
    """One run: for the end-to-end pass, the set-up is repeated in
    set-up-only children and its median reported."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if pass_ == "e2e" and not args.quick:
        setups = [
            run_child(workload, seed, pass_, args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUPS_PER_RUN - 1)
        ]
    result = run_child(workload, seed, pass_, args, deadline)
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    if "e2e" in result:
        result["e2e"]["setup_s"] = statistics.median(setups)
    return result


# -- driver contract -------------------------------------------------------------


def driver_main(args, spec) -> int:
    """One workload, one pass; the last line of output is the result."""
    pass_ = "layers" if args.trace else "e2e"
    result = measure(args.workload, args.seed, pass_, args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result.get("layers" if args.trace else "e2e", {})
    for err in result["errors"]:
        print(err, file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:  # no correct cycle to measure: no result line
        print(f"error: nothing measured for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


# -- the record ----------------------------------------------------------------------


def metric_specs(spec) -> Dict[str, Dict[str, Any]]:
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def collect(args, spec) -> Dict[str, Any]:
    """Run every selected (workload, pass) ``--runs`` times, each run
    with the next seed, and fold the runs into one record."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    passes = [args.pass_] if args.pass_ else ["e2e", "layers"]
    record: Dict[str, Any] = {
        "schema": "repro.bench.e2e/1",
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    for name in names:
        entry: Dict[str, Any] = {"metrics": {}, "runs": []}
        record["workloads"][name] = entry
        for pass_ in passes:
            for i in range(args.runs):
                result = measure(name, args.seed + i, pass_, args)
                entry["runs"].append(result)
                print(
                    f"# {name} {pass_} seed {args.seed + i}: "
                    f"{result['attempted']} cycles, {result['failed']} failed",
                    file=sys.stderr,
                )
        first = entry["runs"][0]
        for key in ("what", "state_bytes", "cpus", "caches"):
            entry[key] = first[key]
        entry["attempted"] = sum(r["attempted"] for r in entry["runs"])
        entry["failed"] = sum(r["failed"] for r in entry["runs"])
        for group in ("e2e", "layers"):
            # plain cycles run in every pass; only the e2e pass publishes them
            runs = [
                r for r in entry["runs"]
                if group in r and (r["pass"] == "e2e") == (group == "e2e")
            ]
            for metric in (runs[0][group] if runs else ()):
                values = [r[group][metric] for r in runs if metric in r[group]]
                entry["metrics"][metric] = {
                    "median": statistics.median(values),
                    "spread": spread(values),
                    "values": values,
                }
    return record


def within_run_spread(entry: Dict[str, Any], metric: str) -> Optional[float]:
    """With a single run there is no run-to-run spread; fall back to the
    quartile distance of the timing samples the metric is derived from."""
    source = {
        "cycle_s": "cycle_s", "ckpt_mbps": "warm_stall_s",
        "ckpt_cold_mbps": "cold_stall_s", "recover_mbps": "recovery_s",
    }.get(metric)
    for run in entry["runs"]:
        t = run["timings"].get(source) if source else None
        if t and t["n"] > 1 and t["median"]:
            return (t["q3"] - t["q1"]) / t["median"]
    return None


def metric_spread(entry: Dict[str, Any], metric: str) -> Optional[float]:
    found = entry["metrics"][metric]["spread"]
    return found if found is not None else within_run_spread(entry, metric)


def _pct(share: Optional[float]) -> str:
    return "n/a" if share is None else f"{share:.1%}"


def print_record(record: Dict[str, Any], spec) -> None:
    specs = metric_specs(spec)
    for name, entry in record["workloads"].items():
        state_mb = entry["state_bytes"] / 1e6
        print(f"\n== {name}: {entry['what']}")
        print(
            f"   state {state_mb:.2f} MB, caches {entry['caches']}, "
            f"CPUs {entry['cpus']}, {entry['attempted']} cycles, "
            f"{entry['failed']} failed"
        )
        for metric, m in entry["metrics"].items():
            s = specs.get(metric, {"unit": "", "better": ""})
            sp = metric_spread(entry, metric)
            print(
                f"   {metric:38s} {m['median']:14.6g} {s['unit']:12s} "
                f"{s['better']:6s} n={len(m['values'])} "
                f"spread={_pct(sp)}"
            )
        unresolved = [u for r in entry["runs"] for u in r.get("unresolved", [])]
        if unresolved:
            print(f"   unresolved boundaries: {sorted(set(unresolved))}")


# -- compare ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str, spec) -> int:
    """One row per (workload, metric): both medians, both spreads, the
    ratio B/A with its base, and a verdict from the metric's bound.
    ``unresolved`` when either spread exceeds the bound; per-layer
    metrics have no bound and get no verdict."""
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    specs = metric_specs(spec)
    print(f"A = {path_a}\nB = {path_b}\nratio = B / A (base: A)")
    print(f"{'workload':16s} {'metric':34s} {'A':>12s} {'A iqr':>7s} "
          f"{'B':>12s} {'B iqr':>7s} {'B/A':>7s} {'bound':>6s} verdict")
    worse = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ea, eb = a["workloads"][name], b["workloads"][name]
        for metric, ma in ea["metrics"].items():
            mb = eb["metrics"].get(metric)
            if mb is None:
                continue
            s = specs.get(metric, {})
            bound = s.get("bound")
            va, vb = ma["median"], mb["median"]
            ratio = vb / va if va else float("nan")
            spreads = [metric_spread(ea, metric), metric_spread(eb, metric)]
            verdict = ""
            if bound is not None:
                change = (vb - va) / abs(va) if va else 0.0
                if s["better"] == "higher":
                    change = -change  # positive = worse
                if any(sp is not None and sp > bound for sp in spreads):
                    verdict = "unresolved"
                elif change > bound:
                    verdict = "worse"
                    worse += 1
                elif change < -bound:
                    verdict = "better"
                else:
                    verdict = "same"
            elif metric == "failed_share":  # always 0 when all is well: absolute
                verdict = "same" if vb == va else "worse" if vb > va else "better"
                worse += vb > va
            elif metric.startswith("pfs.sim_") and va != vb:
                verdict = "differs"  # simulated time should repeat exactly
            print(
                f"{name:16s} {metric:34s} {va:12.5g} {_pct(spreads[0]):>7s} "
                f"{vb:12.5g} {_pct(spreads[1]):>7s} {ratio:7.3f} "
                f"{'' if bound is None else format(bound, '.0%'):>6s} {verdict}"
            )
    return 1 if worse else 0


# -- entry point -------------------------------------------------------------------------


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--pass", dest="pass_", choices=sorted(PASSES),
                        help="default: e2e, then layers (= traced + obs)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="time budget of the measured cycles of one run")
    parser.add_argument("--cycles", type=int,
                        help="run this many rotations instead of a time budget")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per (workload, pass); run i uses seed + i")
    parser.add_argument("--quick", action="store_true",
                        help="2 rotations on 64x64 arrays: a harness self-test")
    parser.add_argument("--cpus", default="first",
                        help="'first' (pin to the first allowed CPU, the "
                             "default for published numbers), 'all', or a list")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if any cycle failed the oracle")
    parser.add_argument("--out", default=str(RECORD), help="where the record goes")
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="driver contract: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.quick and args.cycles is None:
        args.cycles = 2

    if args.compare:
        return compare(*args.compare, spec)
    try:
        if args.trace is not None:
            if not args.workload:
                parser.error("--trace needs --workload")
            return driver_main(args, spec)
        record = collect(args, spec)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_record(record, spec)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"\nwrote {out}")
    failed = sum(e["failed"] for e in record["workloads"].values())
    if failed:
        print(f"{failed} cycle(s) failed the oracle", file=sys.stderr)
    return 1 if args.check and failed else 0
