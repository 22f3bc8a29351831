"""One measured process: set-up, then cycles of one workload.

Spawned by :mod:`benchmarks.e2e.cli` with ``PYTHONHASHSEED=0``; pins
itself to one CPU before the heavy imports, sets up (inputs, host
calibration, reference run, one untimed warm-up cycle), then runs
cycles in a closed loop — one job at a time — rotating through the
modes of the pass until the time budget is spent, and prints one JSON
object as its last line.

Modes: ``plain`` (nothing installed — the end-to-end numbers),
``traced`` (the wrappers of :mod:`benchmarks.e2e.layers` record spans),
``obs`` (the repo's own ``Tracer`` and ``FlightRecorder`` installed).
Rotating the modes inside one process pairs every traced cycle with a
plain one under the same conditions, which is what the overhead
percentages compare.

Host speed.  On a shared host both the interpreter's and the memory
system's speed drift by tens of percent, in plateaus of seconds to
minutes, and the cycle's wall follows (measured here: medians of
8-second windows inside one process spread 8% between quartiles and
26% end to end in a quiet hour, 29% and 43% in a busy one).  So a
:class:`HostProbe` runs between cycles, and every wall that feeds an
end-to-end metric is divided by the cycle's *host factor* — the probes
around that cycle over fixed references — i.e. it is reported at
reference host speed, which halves those spreads.  Raw walls and the
factor stay in the record.  Per-layer self times are raw seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

from benchmarks.e2e import layers
from benchmarks.e2e.spans import (
    END, START, STEM, THREAD, VALUE, SpanRecorder, aggregate, covered_seconds,
    union_seconds,
)
from benchmarks.e2e.stats import summarize

# numpy, repro and benchmarks.e2e.workloads are imported inside functions:
# the process pins its CPU before any of them loads.

PASSES = {
    "e2e": ("plain",),
    "traced": ("plain", "traced"),
    "obs": ("plain", "obs"),
    "layers": ("plain", "traced", "obs"),
}
#: full rotations through the modes that run even past the time budget
MIN_ROTATIONS = 2
HOST_BUFFER_BYTES = 16 << 20
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def pin_cpus(spec: str) -> List[int]:
    """``first`` pins to the first allowed CPU (the default: the SPMD
    engine is GIL-bound threads, and unpinned on two cores the same code
    runs in two process-wide modes 1.5-2.2x apart); ``all`` leaves the
    affinity alone; otherwise a comma-separated CPU list."""
    allowed = sorted(os.sched_getaffinity(0))
    wanted = {allowed[0]} if spec == "first" else {int(c) for c in spec.split(",")}
    if spec != "all":
        try:
            os.sched_setaffinity(0, wanted)
        except OSError as exc:  # a sandbox may forbid it: run unpinned, say so
            print(f"cannot pin to CPUs {sorted(wanted)}: {exc}", file=sys.stderr)
    return sorted(os.sched_getaffinity(0))


def max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def cache_sizes() -> Dict[str, str]:
    """The host's data/unified cache sizes, for the record."""
    out = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                out[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


class HostProbe:
    """Three fixed kernels that share nothing with the code under test,
    timed against fixed references (this sandbox when quiet): a pure
    Python loop (interpreter speed: what the overhead-bound workloads
    follow), a streaming copy (16 MiB ``np.copyto``) and an index-vector
    gather (256 Ki random ``f8`` out of a 64 MiB table, far beyond the
    L2) — the two memory access patterns of the bytes-bound hot loops.
    The *host factor* is the geometric mean of the three ratios: 1.0 at
    reference speed, above 1.0 on a slower or disturbed host."""

    REFERENCE_PYTHON_S = 0.0031
    REFERENCE_MEMCPY_S = 0.00205
    REFERENCE_GATHER_S = 0.0010

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self.src = np.ones(HOST_BUFFER_BYTES, dtype=np.uint8)
        self.dst = np.empty_like(self.src)
        self.values = np.zeros(1 << 23)
        self.index = np.random.default_rng(0).integers(0, 1 << 23, 1 << 18)

    @staticmethod
    def _best(fn, repeats: int = 2) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    @staticmethod
    def _python_loop() -> int:
        total = 0
        for i in range(60000):
            total += i * i
        return total

    def sample(self) -> Dict[str, float]:
        """One probe (about 16 ms): the better of two tries of each
        kernel, and the host factor they give."""
        python_s = self._best(self._python_loop)
        memcpy_s = self._best(lambda: self._np.copyto(self.dst, self.src))
        gather_s = self._best(lambda: self.values[self.index])
        return {
            "python_s": python_s,
            "memcpy_s": memcpy_s,
            "gather_s": gather_s,
            "factor": (
                (python_s / self.REFERENCE_PYTHON_S)
                * (memcpy_s / self.REFERENCE_MEMCPY_S)
                * (gather_s / self.REFERENCE_GATHER_S)
            ) ** (1.0 / 3.0),
        }

    def sha1_mbps(self) -> float:
        """SHA-1 throughput on the same buffer: with memcpy, the
        physical bounds the checkpoint throughput is quoted against."""
        sha1_s = self._best(lambda: hashlib.sha1(self.src).digest())
        return HOST_BUFFER_BYTES / 1e6 / sha1_s


# -- stamps -> timings ----------------------------------------------------------


def timings_from_stamps(workload, stamps) -> Dict[str, Any]:
    """Checkpoint stalls (cold and warm) and the recovery wall of one
    cycle, from the program's own stamps.

    *Stall* = rank 0's interval in a checkpoint call that returned
    ``TAKEN`` (``producer`` rank 0 in a workflow); the first after a
    start or restart is cold, the rest warm.  A cycle contributes one
    cold and one warm sample, the mean of its stalls of that kind: the
    stalls on ``t1`` and on ``t2`` are different populations, and the
    median of their pooled samples would sit between two modes.
    *Recovery* = rank 0's
    ``resumed`` stamp minus the latest end-of-iteration stamp of any
    rank before the failure; in a workflow, the last member's
    ``resumed`` stamp minus the ``restart_workflow`` call."""
    from benchmarks.e2e.workloads import FAIL_ITERATION

    member = workload.members[0]
    cold: List[float] = []
    warm: List[float] = []
    stalls = []  # (enter, exit, thread, cold) of every TAKEN call
    entered = None
    fresh = True
    for ev in stamps.events:
        if ev[0] != member or ev[1] != 0:
            continue
        if ev[2] == "ck_enter":
            entered = ev
        elif ev[2] == "ck_exit" and entered is not None:
            if ev[4] == "taken":
                (cold if fresh else warm).append(ev[5] - entered[5])
                stalls.append((entered[5], ev[5], ev[6], fresh))
                fresh = False
            else:  # restarted: the next TAKEN call is cold again
                fresh = True
            entered = None
    resumed = [e[5] for e in stamps.of("resumed", rank=0)]
    if workload.protocol == "workflow":
        origin = stamps.of("restart_call")[0][5]
    else:
        origin = max(
            e[5] for e in stamps.of("iter_end")
            if e[3] == FAIL_ITERATION - 1 and e[5] < resumed[0]
        )
    return {
        "cold": statistics.fmean(cold), "warm": statistics.fmean(warm),
        "stalls": stalls, "recovery": max(resumed) - origin,
    }


# -- one traced cycle -> layer numbers ---------------------------------------------


#: boundaries wrapped for what they return or contain, whose own self
#: time is not a published metric
UNPUBLISHED_STEMS = {"runtime.spmd", "drms.engine_checkpoint", "pfs.phase_end"}


def layer_numbers(spans, record, outcome, state_bytes) -> Dict[str, float]:
    """The per-layer metrics of one traced cycle.  ``*_s`` are self
    seconds summed over threads (wait metrics are blocked time, kept
    apart from busy time); ``*_bytes`` / ``*_calls`` are exact counts."""
    agg = aggregate(spans)

    def total(stem, key="self_s"):
        return sum(
            a[key] for s, a in agg.items() if s == stem or s.startswith(stem + "/")
        )

    out: Dict[str, float] = {}
    for stem in {b.stem for b in layers.BOUNDARIES} - UNPUBLISHED_STEMS:
        out[f"{stem}_s"] = total(stem)
    out["streaming.out_bytes"] = total("streaming.out_self", "value")
    out["streaming.in_bytes"] = total("streaming.in_self", "value")
    out["checkpoint.sha1_bytes"] = total("checkpoint.sha1", "value")
    for op in ("write", "read"):
        out[f"pfs.{op}_bytes"] = total(f"pfs.{op}", "value")
        out[f"pfs.{op}_calls"] = total(f"pfs.{op}", "calls")
    out["pfs.phase_calls"] = total("pfs.phase_wait", "calls")
    # simulated seconds as the engine and the restart returned them
    out["pfs.sim_ckpt_s"] = total("drms.engine_checkpoint", "value")
    out["pfs.sim_recover_s"] = total("drms.restart_self", "value")

    stats = outcome.plan_cache.stats()
    out["plancache.misses"] = stats["misses"]
    out["plancache.hit_rate"] = stats["hit_rate"]
    out["plancache.evictions"] = stats["evictions"]
    out["plancache.entries"] = stats["size"]
    out["mlck.l1_resident_over_state"] = outcome.l1_resident_bytes / state_bytes

    # run_spmd's span minus the time some task body was open: spawn + join
    out["runtime.spawn_join_s"] = union_seconds(
        (s[START], s[END]) for s in spans if s[STEM] == "runtime.spmd"
    ) - union_seconds(
        (s[START], s[END]) for s in spans if s[STEM] == layers.TASK_STEM
    )
    # rank 0's stall minus the engine call inside it
    stalls = record["stalls"]
    engine = sum(
        s[END] - s[START]
        for s in spans
        if s[STEM] == "drms.engine_checkpoint"
        and any(s[THREAD] == th and a <= s[START] <= b for a, b, th, _ in stalls)
    )
    out["drms.ckpt_overhead_s"] = sum(b - a for a, b, _, _ in stalls) - engine

    # bytes the leaf boundaries touched during the first warm checkpoint
    warm = [(a, b) for a, b, _, fresh in stalls if not fresh]
    leaves = {
        "streaming.gather", "streaming.scatter", "streaming.order_bytes",
        "arrays.to_global", "arrays.set_global", "checkpoint.sha1",
        "pfs.write", "pfs.read",
    }
    touched = sum(
        s[VALUE] for s in spans
        if warm and s[STEM] in leaves and warm[0][0] <= s[START] <= warm[0][1]
    )
    out["host.bytes_touched_per_state_byte"] = touched / state_bytes

    wall = record["wall"]
    busy_stems = {b.stem for b in layers.BOUNDARIES if b.kind == "busy"}
    busy = {s for s in agg if s.split("/")[0] in busy_stems}
    out["trace.busy_over_wall"] = sum(agg[s]["self_s"] for s in busy) / wall
    out["trace.unattributed_share"] = 1.0 - covered_seconds(spans, busy) / wall
    return out


# -- the harness -----------------------------------------------------------------------


class Harness:
    """Runs cycles of one workload and checks each against the oracle."""

    def __init__(self, workload, inputs, quick: bool, scratch: str,
                 probe: HostProbe):
        self.workload = workload
        self.inputs = inputs
        self.state_bytes = workload.state_bytes(quick)
        self.scratch = scratch
        self.probe = probe
        #: the probe taken after the previous cycle is this cycle's "before"
        self.last_probe = probe.sample()
        self.recorder = None  # set by install_tracing
        self.installed = None
        self.cycles: List[Dict[str, Any]] = []
        self.layer_rows: List[Dict[str, float]] = []
        self.reference = self._run(fail=False)[0].digests()

    def install_tracing(self) -> None:
        self.recorder = SpanRecorder()
        self.installed = layers.install(self.recorder)

    def _run(self, fail: bool):
        from benchmarks.e2e.workloads import Stamps

        stamps = Stamps()
        hostdir = None
        if self.workload.sink == "hostfs":
            hostdir = tempfile.mkdtemp(prefix="hostfs-", dir=self.scratch)
        try:
            t0 = time.perf_counter()
            outcome = self.workload.run(self.inputs, stamps, fail, hostdir)
            wall = time.perf_counter() - t0
        finally:
            if hostdir is not None:
                shutil.rmtree(hostdir, ignore_errors=True)
        return outcome, stamps, wall

    def _oracle(self, outcome) -> Optional[str]:
        """None if the cycle is correct, else what was wrong."""
        if outcome.digests() != self.reference:
            return "final arrays differ from the uninterrupted reference"
        expected = self.workload.expected_restarts()
        if sorted(outcome.restarts) != sorted(expected):
            return f"restarted as {outcome.restarts}, expected {expected}"
        if self.workload.protocol == "workflow":
            from benchmarks.e2e.workloads import WORKFLOW_NITER

            if outcome.generation != WORKFLOW_NITER:
                return f"workflow restarted from generation {outcome.generation}"
        return None

    def cycle(self, mode: str) -> Dict[str, Any]:
        """One timed cycle.  A cycle fails if it raises, if its final
        arrays differ from the reference, or if it restarted from
        another tier or generation than the workload expects."""
        from repro.obs import FlightRecorder, Tracer, use_flight, use_tracer

        record: Dict[str, Any] = {"mode": mode, "index": len(self.cycles)}
        self.cycles.append(record)
        rec = self.recorder
        with contextlib.ExitStack() as stack:
            if mode == "obs":
                stack.enter_context(use_tracer(Tracer()))
                stack.enter_context(use_flight(FlightRecorder()))
            if mode == "traced":
                rec.cycle = record["index"]
                first_span = len(rec.spans)
                rec.active = True
            try:
                outcome, stamps, wall = self._run(fail=True)
            except Exception:  # a failed cycle is counted, not fatal
                record["error"] = traceback.format_exc(limit=8)
                return record
            finally:
                if mode == "traced":
                    rec.active = False
        before, self.last_probe = self.last_probe, self.probe.sample()
        record["wall"] = wall
        record["probe"] = self.last_probe
        record["host_factor"] = (before["factor"] + self.last_probe["factor"]) / 2
        error = self._oracle(outcome)
        if error is not None:
            record["error"] = error
            return record
        record.update(timings_from_stamps(self.workload, stamps))
        if mode == "traced":
            self.layer_rows.append(
                layer_numbers(
                    rec.spans[first_span:], record, outcome, self.state_bytes
                )
            )
        return record

    def ok(self, mode: str) -> List[Dict[str, Any]]:
        return [c for c in self.cycles if c["mode"] == mode and "error" not in c]

    def at_reference(self, mode: str, key: str) -> List[float]:
        """The timing ``key`` of every correct cycle of ``mode``, at
        reference host speed (divided by the cycle's host factor)."""
        return [c[key] / c["host_factor"] for c in self.ok(mode)]


def write_trace(harness: Harness, args, path: pathlib.Path) -> None:
    """Spans and per-cycle layer numbers of the traced cycles."""
    spans = harness.recorder.spans
    origin = min((s[START] for s in spans), default=0.0)
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["id", "parent", "stem", "thread", "cycle", "start_s",
                        "end_s", "value"],
        "spans": [
            s[:START] + [round(s[START] - origin, 7), round(s[END] - origin, 7)]
            + s[END + 1:]
            for s in spans
        ],
        "cycles": harness.layer_rows,
        "unresolved": harness.installed.unresolved,
    }))


def build_result(harness: Harness, measured, setup_raw_s: float,
                 setup_factor: float, rss_over_state: float, sha1_mbps: float
                 ) -> Dict[str, Any]:
    """Fold the cycles of one run into its metrics.  Walls that feed an
    end-to-end metric or an overhead percentage are at reference host
    speed; ``host.*_over_memcpy`` is raw over raw (same moments)."""
    failed = [c for c in measured if "error" in c]
    state_mb = harness.state_bytes / 1e6
    plain = harness.ok("plain")
    timings = {
        "cycle_s": summarize(harness.at_reference("plain", "wall")),
        "warm_stall_s": summarize(harness.at_reference("plain", "warm")),
        "cold_stall_s": summarize(harness.at_reference("plain", "cold")),
        "recovery_s": summarize(harness.at_reference("plain", "recovery")),
        "raw_cycle_s": summarize([c["wall"] for c in plain]),
        "host_factor": summarize([c["host_factor"] for c in plain]),
    }
    for kernel in ("python_s", "memcpy_s", "gather_s"):
        timings[f"probe_{kernel}"] = summarize([c["probe"][kernel] for c in plain])
    result: Dict[str, Any] = {
        "state_bytes": harness.state_bytes,
        "attempted": len(measured),
        "failed": len(failed),
        "errors": [c["error"] for c in failed][:5],
        "setup_s": setup_raw_s / setup_factor,
        "setup_raw_s": setup_raw_s,
        "timings": timings,
    }
    if not plain:  # nothing correct to measure
        return result
    e2e = result["e2e"] = {
        "cycle_s": timings["cycle_s"]["median"],
        "ckpt_mbps": state_mb / timings["warm_stall_s"]["median"],
        "ckpt_cold_mbps": state_mb / timings["cold_stall_s"]["median"],
        "recover_mbps": state_mb / timings["recovery_s"]["median"],
        "rss_over_state": rss_over_state,
        "failed_share": len(failed) / len(measured),
    }
    layer_values: Dict[str, float] = {}
    if harness.layer_rows:
        for name in harness.layer_rows[0]:
            layer_values[name] = statistics.median(
                r[name] for r in harness.layer_rows
            )
        layer_values["trace.unresolved"] = len(harness.installed.unresolved)
        result["unresolved"] = harness.installed.unresolved
    for mode, name in (("traced", "obs.trace_overhead_pct"),
                       ("obs", "obs.full_overhead_pct")):
        walls = harness.at_reference(mode, "wall")
        if walls:
            layer_values[name] = 100.0 * (
                statistics.median(walls) / e2e["cycle_s"] - 1.0
            )
    if layer_values:
        memcpy_mbps = HOST_BUFFER_BYTES / 1e6 / timings["probe_memcpy_s"]["median"]
        layer_values["host.memcpy_mbps"] = memcpy_mbps
        layer_values["host.sha1_mbps"] = sha1_mbps
        layer_values["host.speed_factor"] = timings["host_factor"]["median"]
        for name, key in (("host.ckpt_over_memcpy", "warm"),
                          ("host.recover_over_memcpy", "recovery")):
            raw_mbps = state_mb / statistics.median(c[key] for c in plain)
            layer_values[name] = raw_mbps / memcpy_mbps
        result["layers"] = layer_values
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_", choices=sorted(PASSES), default="e2e")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--cycles", type=int, default=None,
                        help="rotations to run instead of a time budget")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--cpus", default="first")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent at spawn")
    args = parser.parse_args(argv)

    started = args.spawned_at if args.spawned_at is not None else time.monotonic()
    cpus = pin_cpus(args.cpus)

    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    modes = PASSES[args.pass_]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    try:
        probe = HostProbe()
        setup_factor = probe.sample()["factor"]
        # imports done and the probe's buffers touched: what is resident
        # beyond this point is the program's and its inputs'
        rss_after_imports = max_rss_bytes()
        inputs = workload.make_inputs(args.seed, args.quick)
        harness = Harness(workload, inputs, args.quick, scratch, probe)
        gc.collect()
        gc.disable()  # collect between cycles, never inside one
        harness.cycle("plain")  # untimed warm-up: caches, lazy imports, pools
        setup_raw_s = time.monotonic() - started
        setup_factor = (setup_factor + harness.last_probe["factor"]) / 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_raw_s / setup_factor}))
            return 0

        if "traced" in modes:
            harness.install_tracing()
        warmup = harness.cycles.pop()
        deadline = time.perf_counter() + args.seconds
        rotations = 0
        try:
            while True:
                for mode in modes:
                    gc.collect()
                    harness.cycle(mode)
                rotations += 1
                if args.cycles is not None:
                    if rotations >= args.cycles:
                        break
                elif rotations >= MIN_ROTATIONS and time.perf_counter() >= deadline:
                    break
        finally:
            if harness.installed is not None:
                layers.remove(harness.installed)
        rss_peak = max_rss_bytes()
        sha1_mbps = probe.sha1_mbps()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = build_result(
        harness, harness.cycles + [warmup], setup_raw_s, setup_factor,
        (rss_peak - rss_after_imports) / harness.state_bytes, sha1_mbps,
    )
    result.update(
        workload=args.workload, what=workload.what, seed=args.seed,
        modes=list(modes), quick=args.quick, cpus=cpus,
        pythonhashseed=os.environ.get("PYTHONHASHSEED"), caches=cache_sizes(),
    )
    result["pass"] = args.pass_
    if harness.layer_rows:
        write_trace(harness, args, OUT_DIR / f"trace_{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
