"""The differential oracle: run one case, check every invariant.

For **reconfig** cases the oracle runs checkpoint → restart through the
case's engine and checks, against independently computed references:

* *bit-identical contents*: the restored global array equals the
  checkpointed one byte-for-byte on the restored distribution's defined
  mask (raw-byte comparison, so NaN payloads and signaling bit patterns
  count too);
* *stream order*: every stored array file equals the serial reference
  stream ``stream_order_bytes(global, order)`` — the
  distribution-independent linear order of paper Section 3.2 — and the
  manifest's recorded size equals both the file size and the sum of the
  Fig. 5a partition's piece sizes;
* *metrics*: the published ``checkpoint.<kind>.*`` / ``stream.*``
  counters agree with the manifest byte totals;
* *span tree*: the recorded trace satisfies
  :func:`repro.obs.span_tree_violations` (phases tile, nothing
  overhangs);
* *segment round trip*: replicated variables and execution context
  serialize back identically;
* for SPMD, additionally that a *non-conforming* restart (``t2 != t1``)
  raises — the defining limitation the DRMS scheme removes;
* for incremental, that a delta stores exactly the changed spans of the
  reference stream, ascending, and records their digest.

For **fault** cases the oracle replays ``generations`` checkpoint
attempts under the case's fault schedule, then computes ground truth
*independently of the recovery code*: a generation is valid iff its
checkpoint call committed a manifest AND every one of its files still
byte-matches the intended content the oracle itself recorded while
writing.  The invariant under the ``validated`` policy
(:func:`repro.checkpoint.recover.open_latest_valid`, the walk a restart
runs: each candidate chosen by opening it) is that the decision lands
exactly on the newest ground-truth-valid generation, rejects exactly
the newer corrupt ones, and restores it; the deliberately ``naive``
policy (newest complete manifest, no validation) is the defeatable
target used to demonstrate shrinking.

All violations of one case are collected into a single
:class:`VerifyFailure` so a dump shows the whole picture.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.slices import Slice
from repro.checkpoint.drms import drms_checkpoint, drms_restart, restart_opener
from repro.checkpoint.incremental import IncrementalCheckpointer
from repro.checkpoint.recover import open_latest_valid
from repro.checkpoint.rotation import generation_name, latest_checkpoint
from repro.checkpoint.segment import DataSegment, ExecutionContext, SegmentProfile
from repro.checkpoint.format import (
    array_name,
    manifest_name,
    read_manifest,
    segment_name,
)
from repro.checkpoint.spmd import spmd_checkpoint, spmd_restart
from repro.errors import (
    CheckpointError,
    IOFaultError,
    PFSError,
    RestartError,
    WorkflowError,
)
from repro.obs import Tracer, span_tree_violations, use_tracer
from repro.pfs.faults import FaultInjector, flip_stored_bit
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine, MachineParams
from repro.streaming.order import stream_order_bytes, stream_sha1, stream_spans
from repro.streaming.parallel import stream_out_parallel
from repro.streaming.partition import partition_for_target, piece_offsets
from repro.streaming.serial import strict_gather
from repro.streaming.streams import MemorySink, PFSSink
from repro.verify.case import Case, FaultEvent

__all__ = ["CaseResult", "ORACLES", "VerifyFailure", "run_case", "replay_case"]


class VerifyFailure(AssertionError):
    """One case violated at least one invariant."""

    def __init__(self, case: Case, errors: List[str]):
        self.case = case
        self.errors = list(errors)
        detail = "\n  - ".join(self.errors)
        super().__init__(
            f"case [{case.label()}] violated {len(self.errors)} "
            f"invariant(s):\n  - {detail}"
        )


@dataclass
class CaseResult:
    """What one successful case run established."""

    case: Case
    checked: int = 0
    details: Dict[str, object] = field(default_factory=dict)


class _Checker:
    """Accumulates invariant violations for one case."""

    def __init__(self, case: Case):
        self.case = case
        self.errors: List[str] = []
        self.checked = 0

    def check(self, ok: bool, msg: str) -> bool:
        self.checked += 1
        if not ok:
            self.errors.append(msg)
        return bool(ok)

    def finish(
        self,
        details: Optional[Dict[str, object]] = None,
        tracer: Optional[Tracer] = None,
    ) -> CaseResult:
        """The case's verdict; with a ``tracer``, its span forest is the
        last invariant checked."""
        if tracer is not None:
            violations = span_tree_violations(tracer)
            self.check(not violations, f"span tree violations: {violations[:3]}")
        if self.errors:
            raise VerifyFailure(self.case, self.errors)
        return CaseResult(self.case, checked=self.checked, details=details or {})


# -- workload construction --------------------------------------------------


def _fill_global(case: Case, arr_index: int, salt: int = 0) -> np.ndarray:
    """Deterministic array content with *every byte nonzero*, so any
    dropped or flipped byte provably changes the value stream (holes in
    a PFS file read back as zeros)."""
    spec = case.arrays[arr_index]
    dtype = np.dtype(spec.dtype)
    nbytes = int(np.prod(case.shape)) * dtype.itemsize
    rng = np.random.default_rng(
        (case.data_seed * 1_000_003 + arr_index * 7919 + salt) & 0x7FFFFFFF
    )
    raw = rng.integers(1, 256, size=nbytes, dtype=np.uint8)
    return raw.view(dtype).reshape(case.shape)


def _build_arrays(case: Case, salt: int = 0) -> List[DistributedArray]:
    out = []
    for i, spec in enumerate(case.arrays):
        arr = DistributedArray(
            spec.name,
            case.shape,
            np.dtype(spec.dtype),
            case.distribution1(spec),
            store_data=True,
        )
        arr.set_global(_fill_global(case, i, salt))
        out.append(arr)
    return out


def _segment(iteration: int) -> DataSegment:
    return DataSegment(
        profile=SegmentProfile(
            local_section_bytes=512, system_bytes=2048, private_bytes=256
        ),
        replicated={"tol": 1e-6, "round": iteration},
        context=ExecutionContext(sop_id=3, iteration=iteration),
    )


def _masked_bytes(arr: DistributedArray, ref: np.ndarray) -> Tuple[bytes, bytes]:
    """(restored, reference) bytes over the restored defined mask."""
    mask = arr.defined_mask()
    got = arr.to_global(fill=0)
    return got[mask].tobytes(), np.asarray(ref)[mask].tobytes()


# -- shared invariant blocks ------------------------------------------------


def _check_drms_files(
    c: _Checker,
    pfs: PIOFS,
    prefix: str,
    manifest: Dict,
    refs: List[np.ndarray],
) -> int:
    """Stored stream files against the serial reference; manifest sizes
    against file sizes and the Fig. 5a piece partition.  Returns the
    total array bytes recorded in the manifest."""
    case = c.case
    total = 0
    for i, entry in enumerate(manifest["arrays"]):
        expected = stream_order_bytes(refs[i], case.order)
        fname = entry["file"]
        size = pfs.file_size(fname)
        c.check(
            entry["nbytes"] == len(expected),
            f"{fname}: manifest nbytes {entry['nbytes']} != serial "
            f"reference stream {len(expected)}",
        )
        c.check(
            size == len(expected),
            f"{fname}: file size {size} != reference stream {len(expected)}",
        )
        stored = pfs.read_at(fname, 0, size) if size else b""
        c.check(
            stored == expected,
            f"{fname}: stored bytes differ from the serial reference stream",
        )
        itemsize = np.dtype(case.arrays[i].dtype).itemsize
        pieces = partition_for_target(
            Slice.full(case.shape),
            itemsize,
            target_bytes=case.target_bytes,
            min_pieces=case.p1,
            order=case.order,
        )
        piece_total = sum(p.size * itemsize for p in pieces)
        c.check(
            piece_total == entry["nbytes"],
            f"{fname}: sum of piece sizes {piece_total} != bytes written "
            f"{entry['nbytes']}",
        )
        offs = piece_offsets(pieces, itemsize)
        c.check(
            offs == sorted(offs) and (not offs or offs[0] == 0),
            f"{fname}: piece offsets are not the running size sum",
        )
        total += entry["nbytes"]
    return total


def _check_restored(
    c: _Checker,
    restored: Dict[str, DistributedArray],
    refs: List[np.ndarray],
) -> None:
    for i, spec in enumerate(c.case.arrays):
        arr = restored.get(spec.name)
        if not c.check(arr is not None, f"array {spec.name!r} not restored"):
            continue
        got, want = _masked_bytes(arr, refs[i])
        c.check(
            got == want,
            f"array {spec.name!r}: restored bytes differ from checkpointed "
            "content on the defined mask",
        )


def _flat_eq(c: _Checker, flat: Dict[str, float], key: str, want: float) -> None:
    c.check(
        abs(flat.get(key, 0.0) - want) < 0.5,
        f"metric {key} = {flat.get(key)} != expected {want}",
    )


# -- reconfig: one oracle per engine ----------------------------------------


def _gather_strictness(arrays):
    """Strict gather for cases whose arrays are fully defined, so
    silent zero-fill of real data becomes a hard failure.  Cases with
    legitimately partial coverage (e.g. the INDEXED distributions of
    ``reconfig_indexed_partial``) keep the paper's zeros-for-undefined
    semantics."""
    if all(a.defined_mask().all() for a in arrays if a.store_data):
        return strict_gather()
    return nullcontext()


#: the span size (and piece target) of the cross-engine stream-outs
_SPAN = 1 << 20


def _streams(arr, order: str):
    """``(label, stream bytes, digests)`` of ``arr`` streamed out in
    ``order`` three ways, each under a throwaway tracer: the bulk path
    into a memory sink and into a :class:`PFSSink` (the sink every
    checkpoint writes through), and serial streaming — one I/O task
    into a non-seekable sink — whose digest is its ``StreamStats.sha1``."""
    with use_tracer(Tracer()) as t:
        sink = MemorySink()
        stream_out_parallel(arr, sink, order=order, target_bytes=_SPAN)
    yield "bulk", sink.getvalue(), _span_digests(t)
    pfs = PIOFS()
    with use_tracer(Tracer()) as t:
        stream_out_parallel(
            arr, PFSSink(pfs, "cross"), order=order, target_bytes=_SPAN
        )
    yield "bulk-pfs", pfs.open("cross").read_all(), _span_digests(t)
    with use_tracer(Tracer()):
        sink = MemorySink(seekable=False)
        stats = stream_out_parallel(arr, sink, P=1, order=order, target_bytes=_SPAN)
    yield "serial", sink.getvalue(), [stats.sha1] if stats.sha1 else []


def _span_digests(tracer) -> List[str]:
    return [s.attrs["content_sha1"] for s in tracer.spans if "content_sha1" in s.attrs]


def _check_cross_engine(c: _Checker, arrays, order: str) -> None:
    """Every way of streaming an array out must emit byte-identical
    streams and the same stream digest: each real-data array is
    streamed in the case's ``order`` by the bulk parstream path into
    memory and into a PFS file, and by serial streaming
    (:func:`_streams`); the bytes must equal the distribution-independent
    ``stream_order_bytes`` reference and every digest must be the
    stream digest (:func:`~repro.streaming.order.stream_sha1`) of that
    reference."""
    for arr in arrays:
        if not arr.store_data:
            continue
        ref = stream_order_bytes(arr.to_global(fill=0), order)
        digests = {}
        for path, got, shas in _streams(arr, order):
            c.check(
                got == ref,
                f"{path} stream of {arr.name!r} diverges from the "
                f"serial-order reference bytes",
            )
            c.check(
                len(shas) == 1,
                f"{path} stream of {arr.name!r} recorded "
                f"{len(shas)} content_sha1 digests, expected 1",
            )
            digests[path] = shas[0] if shas else None
        c.check(
            set(digests.values()) == {stream_sha1(ref, _SPAN)[0]},
            f"content_sha1 of {arr.name!r} is not the digest of the "
            f"reference stream on every path: {digests}",
        )


def _restore_options(case: Case) -> Dict[str, object]:
    """The options every PFS restart of ``case`` runs with: its
    restart-side I/O tasks and distributions."""
    return dict(
        order=case.order,
        io_tasks=case.p2,
        target_bytes=case.target_bytes,
        distribution_overrides={
            spec.name: case.distribution2(spec) for spec in case.arrays
        },
    )


def _run_drms(case: Case) -> CaseResult:
    c = _Checker(case)
    pfs = PIOFS()
    prefix = "verify.ck"
    segment = _segment(iteration=1)
    with use_tracer(Tracer()) as tracer:
        arrays = _build_arrays(case)
        refs = [a.to_global(fill=0) for a in arrays]
        with _gather_strictness(arrays):
            bd = drms_checkpoint(
                pfs,
                prefix,
                segment,
                arrays,
                order=case.order,
                io_tasks=case.p1,
                target_bytes=case.target_bytes,
                app_name="verify",
            )
            state, rbd = drms_restart(
                pfs, prefix, ntasks=case.t2, **_restore_options(case)
            )
    total = _check_drms_files(c, pfs, prefix, state.manifest, refs)
    _check_restored(c, state.arrays, refs)
    _check_cross_engine(c, arrays, case.order)
    c.check(
        state.checkpoint_ntasks == case.t1 and state.ntasks == case.t2,
        f"restored task counts ({state.checkpoint_ntasks}->{state.ntasks}) "
        f"!= case ({case.t1}->{case.t2})",
    )
    c.check(
        state.delta == case.t2 - case.t1,
        f"delta {state.delta} != t2-t1 {case.t2 - case.t1}",
    )
    c.check(
        state.segment.serialize() == segment.serialize(),
        "data segment did not round-trip identically",
    )
    c.check(
        bd.arrays_bytes == total and rbd.arrays_bytes == total,
        f"breakdown array bytes ({bd.arrays_bytes} out, {rbd.arrays_bytes} "
        f"in) != manifest total {total}",
    )
    flat = tracer.metrics.flat()
    _flat_eq(c, flat, "checkpoint.drms.count", 1)
    _flat_eq(c, flat, "restart.drms.count", 1)
    _flat_eq(c, flat, "checkpoint.drms.arrays.bytes", total)
    _flat_eq(c, flat, "restart.drms.arrays.bytes", total)
    _flat_eq(c, flat, "stream.out.bytes", total)
    _flat_eq(c, flat, "stream.in.bytes", total)
    _flat_eq(c, flat, "checkpoint.drms.total.bytes", total + bd.segment_bytes)
    return c.finish({"engine": "drms", "array_bytes": total}, tracer)


def _mutate(case: Case, g: np.ndarray, arr_index: int) -> np.ndarray:
    """A deterministic byte-level mutation of ``g`` (possibly identity)
    for the incremental engine's delta round."""
    rng = np.random.default_rng(
        (case.data_seed * 31337 + arr_index * 271 + 17) & 0x7FFFFFFF
    )
    buf = bytearray(g.tobytes())
    n_mut = int(rng.integers(0, 4))
    for _ in range(n_mut):
        pos = int(rng.integers(0, len(buf)))
        buf[pos] = int(rng.integers(1, 256))
    return np.frombuffer(bytes(buf), dtype=g.dtype).reshape(g.shape)


def _run_incremental(case: Case) -> CaseResult:
    c = _Checker(case)
    pfs = PIOFS()
    prefix = "verify.inc"
    with use_tracer(Tracer()) as tracer:
        arrays = _build_arrays(case)
        ic = IncrementalCheckpointer(
            pfs,
            prefix,
            order=case.order,
            target_bytes=case.target_bytes,
            io_tasks=case.p1,
            app_name="verify",
        )
        with _gather_strictness(arrays):
            ic.full(_segment(iteration=1), arrays)
            bases = [a.to_global(fill=0) for a in arrays]
            for i, arr in enumerate(arrays):
                arr.set_global(_mutate(case, arr.to_global(fill=0), i))
            refs = [a.to_global(fill=0) for a in arrays]
            segment2 = _segment(iteration=2)
            ic.incremental(segment2, arrays)
            state, rbd = ic.restore(case.t2)
    _check_restored(c, state.arrays, refs)
    c.check(
        state.segment.serialize() == segment2.serialize(),
        "restore did not surface the newest delta's segment",
    )
    c.check(state.ntasks == case.t2, f"restored on {state.ntasks} != t2")
    # delta manifest: the file holds exactly the spans whose bytes
    # changed, ascending, and its digest is the digest of those spans
    dm = read_manifest(pfs, f"{prefix}.d1")
    c.check(dm.get("base") == f"{prefix}.base", f"delta links base {dm.get('base')!r}")
    for spec, base, ref in zip(dm["arrays"], bases, refs):
        idx, span = spec["spans"], case.target_bytes
        old, new = (stream_order_bytes(g, case.order) for g in (base, ref))
        cut = stream_spans(len(new), span)
        changed = [i for i, (o, n) in enumerate(cut) if old[o:o + n] != new[o:o + n]]
        c.check(
            idx == sorted(set(idx)),
            f"{spec['file']}: span indices {idx} are not ascending and unique",
        )
        c.check(
            idx == changed,
            f"{spec['file']}: stores spans {idx}; the changed spans are {changed}",
        )
        stored = [new[o:o + n] for o, n in (cut[i] for i in idx if i < len(cut))]
        size = pfs.file_size(spec["file"])
        c.check(
            size == spec["nbytes"] == sum(map(len, stored)),
            f"{spec['file']}: file size {size} != stored span total "
            f"{sum(map(len, stored))}",
        )
        c.check(
            pfs.read_at(spec["file"], 0, size) == b"".join(stored),
            f"{spec['file']}: stored bytes differ from the reference spans",
        )
        digest = hashlib.sha1(b"".join(hashlib.sha1(d).digest() for d in stored))
        c.check(
            spec["sha1"] == digest.hexdigest(),
            f"{spec['file']}: recorded digest is not the digest of its spans",
        )
    sizes = ic.chain_state_bytes()
    c.check(
        sizes["total"] == sizes["base"] + sizes["deltas"],
        "chain accounting does not add up",
    )
    flat = tracer.metrics.flat()
    _flat_eq(c, flat, "checkpoint.drms.count", 1)
    _flat_eq(c, flat, "checkpoint.drms-delta.count", 1)
    _flat_eq(c, flat, "restart.drms.count", 1)
    return c.finish({"engine": "incremental", "chain": sizes}, tracer)


def _run_spmd(case: Case) -> CaseResult:
    c = _Checker(case)
    pfs = PIOFS()
    prefix = "verify.spmd"
    rng = np.random.default_rng(case.data_seed & 0x7FFFFFFF)
    payloads = [
        {"task": t, "blob": rng.integers(0, 256, size=int(rng.integers(1, 64)), dtype=np.uint8).tobytes()}
        for t in range(case.t1)
    ]
    with use_tracer(Tracer()) as tracer:
        bd = spmd_checkpoint(
            pfs,
            prefix,
            ntasks=case.t1,
            segment_bytes=case.segment_bytes,
            payloads=payloads,
            app_name="verify",
        )
        state, rbd = spmd_restart(pfs, prefix, ntasks=case.t1)
        # the defining limitation: any other task count must refuse
        try:
            spmd_restart(pfs, prefix, ntasks=case.t1 + 1)
            conforming_only = False
        except RestartError:
            conforming_only = True
    c.check(
        conforming_only,
        "non-conforming SPMD restart (t2 != t1) did not raise RestartError",
    )
    c.check(
        state.payloads == payloads,
        "per-task payloads did not round-trip identically",
    )
    manifest = state.manifest
    for t, fname in enumerate(manifest["task_files"]):
        c.check(
            pfs.file_size(fname) == manifest["segment_bytes"][t],
            f"{fname}: file size != manifest segment_bytes",
        )
    total = sum(manifest["segment_bytes"])
    c.check(
        bd.segment_bytes == total and rbd.segment_bytes == total,
        "breakdown segment bytes != manifest total",
    )
    flat = tracer.metrics.flat()
    _flat_eq(c, flat, "checkpoint.spmd.count", 1)
    _flat_eq(c, flat, "restart.spmd.count", 1)
    _flat_eq(c, flat, "checkpoint.spmd.segment.bytes", total)
    return c.finish({"engine": "spmd", "segment_bytes": total}, tracer)


# -- fault mode -------------------------------------------------------------


def _arm_events(inj: FaultInjector, events: List[FaultEvent], gen: int):
    """Arm generation ``gen``'s write faults: ``write`` events in their
    own mode (silent ones corrupt what is written), ``drain_crash``
    events as hard failures.  Returns the armed drain-crash plans for
    fired-ness inspection."""
    crash_plans = []
    for ev in events:
        if ev.gen != gen:
            continue
        if ev.kind == "write":
            inj.fail_write(match=ev.match, offset=ev.offset, mode=ev.mode)
        elif ev.kind == "drain_crash":
            crash_plans.append(
                inj.fail_write(match=ev.match, offset=ev.offset, mode="fail")
            )
    return crash_plans


def _flip(pfs: PIOFS, prefix: str, ev: FaultEvent, arrays: List[str]) -> None:
    """Persistently flip ``ev``'s bit of generation ``prefix``: of its
    segment, or of its ``ev.array_index``-th (modulo) of ``arrays``.  A
    flip that finds no stored byte (virtual pad, missing file) is inert
    by design."""
    if ev.target == "segment":
        fname = segment_name(prefix)
    else:
        fname = array_name(prefix, arrays[ev.array_index % len(arrays)])
    try:
        size = pfs.file_size(fname)
        if size > 0:
            flip_stored_bit(pfs, fname, ev.offset % size, ev.bit)
    except PFSError:
        pass


def _apply_stored_flips(pfs: PIOFS, case: Case, gen: int, prefix: str) -> None:
    """Post-checkpoint persistent corruption of generation ``gen``."""
    for ev in case.events:
        if ev.kind == "stored_flip" and ev.gen == gen:
            _flip(pfs, prefix, ev, [spec.name for spec in case.arrays])


@dataclass
class _Generation:
    prefix: str
    committed: bool
    #: intended bytes per file: {name: exact expected content prefix}
    expected: Dict[str, bytes] = field(default_factory=dict)
    #: intended total size per file
    sizes: Dict[str, int] = field(default_factory=dict)
    refs: List[np.ndarray] = field(default_factory=list)
    segment: Optional[DataSegment] = None

    def intend(
        self, case: Case, segment: DataSegment, refs: List[np.ndarray]
    ) -> None:
        """Record the bytes a checkpoint of ``segment`` and ``refs``
        means each of this generation's files to hold."""
        header, pad = segment.serialize()
        seg = segment_name(self.prefix)
        self.expected[seg] = header
        self.sizes[seg] = len(header) + pad
        for i, spec in enumerate(case.arrays):
            fname = array_name(self.prefix, spec.name)
            self.expected[fname] = stream_order_bytes(refs[i], case.order)
            self.sizes[fname] = len(self.expected[fname])

    def is_valid(self, pfs: PIOFS) -> bool:
        """Ground truth, independent of the recovery code: every file
        still holds exactly the bytes the writer intended."""
        if not self.committed:
            return False
        for name, want_size in self.sizes.items():
            if not pfs.exists(name) or pfs.file_size(name) != want_size:
                return False
            want = self.expected[name]
            if want and pfs.read_at(name, 0, len(want)) != want:
                return False
        return True


def _run_fault(case: Case) -> CaseResult:
    c = _Checker(case)
    pfs = PIOFS()
    base = "app.ck"
    gens: List[_Generation] = []
    with use_tracer(Tracer()) as tracer:
        for g in range(1, case.generations + 1):
            prefix = generation_name(base, g)
            segment = _segment(iteration=g)
            arrays = _build_arrays(case, salt=g)
            refs = [a.to_global(fill=0) for a in arrays]
            inj = FaultInjector()
            _arm_events(inj, case.events, g)
            pfs.attach_faults(inj)
            try:
                drms_checkpoint(
                    pfs,
                    prefix,
                    segment,
                    arrays,
                    order=case.order,
                    io_tasks=case.p1,
                    target_bytes=case.target_bytes,
                    app_name="verify",
                )
                committed = True
            except (IOFaultError, CheckpointError):
                committed = False
            finally:
                pfs.attach_faults(None)
            _apply_stored_flips(pfs, case, g, prefix)
            gen = _Generation(prefix=prefix, committed=committed, refs=refs,
                              segment=segment)
            if committed:
                gen.intend(case, segment, refs)
            gens.append(gen)

        valid = [g for g in gens if g.is_valid(pfs)]
        expected_prefix = valid[-1].prefix if valid else None
        committed = [g for g in gens if g.committed]

        restore_options = _restore_options(case)
        if case.policy == "validated":
            opened, decision = open_latest_valid(
                pfs, base, restart_opener(pfs, case.t2, **restore_options)
            )
            chosen = decision.prefix
            c.check(
                chosen == expected_prefix,
                f"validated recovery chose {chosen!r}; newest byte-valid "
                f"state is {expected_prefix!r}",
            )
            want_rejected = {
                g.prefix
                for g in committed
                if not g.is_valid(pfs)
                and (expected_prefix is None or g.prefix > expected_prefix)
            }
            got_rejected = {p for p, _ in decision.rejected}
            c.check(
                got_rejected == want_rejected,
                f"rejected set {sorted(got_rejected)} != corrupt-newer set "
                f"{sorted(want_rejected)}",
            )
        else:
            chosen = latest_checkpoint(pfs, base)
            c.check(
                chosen == expected_prefix,
                f"naive recovery (newest complete manifest) chose "
                f"{chosen!r}; newest byte-valid state is {expected_prefix!r}",
            )

        if chosen is not None and chosen == expected_prefix:
            by_prefix = {g.prefix: g for g in gens}
            gen = by_prefix[chosen]
            if case.policy == "validated":
                state = opened.state  # the walk restored what it chose
            else:
                state, _ = drms_restart(
                    pfs, chosen, ntasks=case.t2, **restore_options
                )
            _check_restored(c, state.arrays, gen.refs)
            c.check(
                state.segment.serialize() == gen.segment.serialize(),
                "restored segment differs from the chosen generation's",
            )
    return c.finish(
        {
            "expected_prefix": expected_prefix,
            "chosen": chosen,
            "committed": [g.prefix for g in committed],
            "valid": [g.prefix for g in valid],
        },
        tracer,
    )


# -- multi-level (tier="memory+pfs") fault mode -----------------------------


@dataclass
class _MLCKGeneration:
    """Capture-time intent of one multi-level generation — enough to
    recompute, independently of the recovery code, which tier (if any)
    can still serve it after the fault schedule ran."""

    prefix: str
    #: replica node lists per L1 piece, recorded at capture time
    piece_replicas: List[List[int]] = field(default_factory=list)
    #: the durable copy's intent (manifest committed by the drain)
    l2: Optional[_Generation] = None
    refs: List[np.ndarray] = field(default_factory=list)
    segment: Optional[DataSegment] = None

    def l1_valid(self, failed: set) -> bool:
        """Ground truth: every piece kept at least one replica on a
        node that never died."""
        return all(
            any(n not in failed for n in replicas)
            for replicas in self.piece_replicas
        )

    def l2_valid(self, pfs: PIOFS) -> bool:
        return self.l2 is not None and self.l2.is_valid(pfs)


def _run_mlck_schedule(
    c: _Checker,
    case: Case,
    machine: Machine,
    pfs: PIOFS,
    store,
    drainer,
    base: str,
) -> Tuple[List[_MLCKGeneration], set]:
    """The shared capture + drain-and-wait + fault-schedule loop of
    the multi-level oracles.  Returns the per-generation capture-time
    intent records and the set of nodes the schedule killed."""
    failed: set = set()
    gens: List[_MLCKGeneration] = []
    for g in range(1, case.generations + 1):
        prefix = generation_name(base, g)
        segment = _segment(iteration=g)
        arrays = _build_arrays(case, salt=g)
        refs = [a.to_global(fill=0) for a in arrays]
        l1gen, _ = store.capture_drms(
            prefix, segment, arrays, order=case.order, app_name="verify"
        )
        rec = _MLCKGeneration(prefix=prefix, refs=refs, segment=segment)
        rec.piece_replicas = [list(p.replicas) for p in l1gen.pieces()]

        inj = FaultInjector()
        crash_plans = _arm_events(inj, case.events, g)
        pfs.attach_faults(inj)
        try:
            drainer.schedule(prefix)
            drainer.wait()
        finally:
            pfs.attach_faults(None)
        crashed = any(p.fired for p in crash_plans)
        committed = pfs.exists(manifest_name(prefix))
        c.check(
            store.gen(prefix).drain_state
            == ("failed" if not committed else "durable"),
            f"gen {g}: drain state "
            f"{store.gen(prefix).drain_state!r} disagrees with manifest "
            f"presence {committed}",
        )
        if crashed:
            c.check(
                not committed,
                f"gen {g}: drain crashed but a manifest committed — "
                "two-phase commit violated",
            )
        if committed:
            rec.l2 = _Generation(prefix=prefix, committed=True)
            rec.l2.intend(case, segment, refs)
        _apply_stored_flips(pfs, case, g, prefix)
        for ev in case.events:
            if ev.kind == "node_loss" and ev.gen == g:
                node = ev.node % case.num_nodes
                if node not in failed:
                    machine.fail_node(node)
                    store.drop_node(node)
                    failed.add(node)
        gens.append(rec)
    return gens, failed


def _mlck_ground_truth(
    gens: List[_MLCKGeneration], failed: set, pfs: PIOFS
) -> Tuple[Optional[str], Optional[str]]:
    """Newest generation valid on either tier, computed from
    capture-time intent alone (never from the recovery code)."""
    for rec in reversed(gens):
        if rec.l1_valid(failed):
            return rec.prefix, "l1"
        if rec.l2_valid(pfs):
            return rec.prefix, "l2"
    return None, None


@dataclass
class _MLCKRun:
    """One multi-level case run up to its recovery walk."""

    machine: Machine
    pfs: PIOFS
    store: object
    gens: List[_MLCKGeneration]
    failed: set
    expected: Tuple[Optional[str], Optional[str]]
    #: restore options of the walk's PFS reads
    options: Dict[str, object]
    opened: object = None
    decision: object = None
    #: PFS reads the walk issued
    reads: float = 0.0


def _run_mlck_recovery(c: _Checker, case: Case, tracer: Tracer) -> _MLCKRun:
    """The multi-level oracles' common part: ``generations`` L1 capture
    + drain-and-wait rounds under the case's schedule of drain faults
    and node losses, ground truth from capture-time intent, then the
    walk a restart runs — tier-aware, each candidate opened onto
    ``case.t2`` tasks — whose choice of generation and tier must be the
    ground truth's."""
    from repro.mlck.drain import DrainController
    from repro.mlck.store import L1Store

    machine = Machine(MachineParams(num_nodes=case.num_nodes))
    pfs = PIOFS(machine=machine)
    store = L1Store(machine, k=case.k, target_bytes=case.target_bytes)
    drainer = DrainController(store, pfs, target_bytes=case.target_bytes)
    gens, failed = _run_mlck_schedule(c, case, machine, pfs, store, drainer, "app.ck")
    run = _MLCKRun(
        machine, pfs, store, gens, failed, _mlck_ground_truth(gens, failed, pfs),
        _restore_options(case),
    )
    reads_before = tracer.metrics.flat().get("pfs.read.count", 0.0)
    run.opened, run.decision = open_latest_valid(
        pfs, "app.ck", restart_opener(pfs, case.t2, l1=store, **run.options),
        l1=store,
    )
    run.reads = tracer.metrics.flat().get("pfs.read.count", 0.0) - reads_before
    (expected_prefix, expected_tier), decision = run.expected, run.decision
    c.check(
        decision.prefix == expected_prefix,
        f"tiered recovery chose {decision.prefix!r}; newest "
        f"any-tier-valid state is {expected_prefix!r}",
    )
    c.check(
        decision.tier == expected_tier,
        f"tiered recovery used tier {decision.tier!r}; ground truth "
        f"says {expected_tier!r}",
    )
    return run


def _run_mlck_fault(case: Case) -> CaseResult:
    """The multi-level oracle (:func:`_run_mlck_recovery`).  Ground
    truth per generation: L1-valid iff every piece kept a replica on a
    surviving node, L2-valid iff the drain committed a manifest AND
    every durable file still byte-matches what the drain meant to
    write.  The walk must land on the newest generation valid on
    *either* tier, report the tier the ground truth predicts, restore
    it, and — when the newest generation is L1-valid — open it without
    a single PFS read."""
    c = _Checker(case)
    with use_tracer(Tracer()) as tracer:
        run = _run_mlck_recovery(c, case, tracer)
        (expected_prefix, expected_tier), decision = run.expected, run.decision
        gens = run.gens
        if gens and expected_prefix == gens[-1].prefix and expected_tier == "l1":
            c.check(
                run.reads == 0,
                f"newest generation is L1-servable but the recovery walk "
                f"issued {run.reads:g} PFS reads",
            )
        flat = tracer.metrics.flat()
        if expected_tier is not None:
            _flat_eq(c, flat, f"mlck.recover.{expected_tier}", 1)

        if decision.prefix is not None and decision.prefix == expected_prefix:
            rec = {g.prefix: g for g in gens}[decision.prefix]
            state = run.opened.state  # the walk restored what it chose
            _check_restored(c, state.arrays, rec.refs)
            c.check(
                state.segment.serialize() == rec.segment.serialize(),
                "restored segment differs from the chosen generation's",
            )
    return c.finish(
        {
            "expected_prefix": expected_prefix,
            "expected_tier": expected_tier,
            "chosen": decision.prefix,
            "tier": decision.tier,
            "failed_nodes": sorted(run.failed),
            "pfs_reads_during_walk": run.reads,
        },
        tracer,
    )


# -- localized-vs-full differential mode ------------------------------------


def _run_localized(case: Case) -> CaseResult:
    """The localized equivalence oracle: run the case's fault schedule,
    then recover the chosen generation through BOTH paths — the full
    restore (the walk's) and the localized one (survivors reload
    locally, only lost ranks' sections cross the switch) — and assert
    the post-recovery array bytes, segment, manifest state, and
    breakdown byte ledgers are identical.  Localized recovery changes
    the *cost model*, never the bytes.  Additionally exercises the
    post-recovery re-replication repair."""
    from repro.mlck.localized import (
        localized_restart,
        localized_restore_drms,
        rereplicate_after_failure,
    )

    c = _Checker(case)
    with use_tracer(Tracer()) as tracer:
        run = _run_mlck_recovery(c, case, tracer)
        machine, store, failed, decision = run.machine, run.store, run.failed, run.decision
        expected_prefix, expected_tier = run.expected
        details: Dict[str, object] = {
            "expected_prefix": expected_prefix,
            "expected_tier": expected_tier,
            "failed_nodes": sorted(failed),
        }
        if decision.prefix is None or decision.prefix != expected_prefix:
            return c.finish(details, tracer)

        rec = {g.prefix: g for g in run.gens}[decision.prefix]
        full_state, full_bd = run.opened.state, run.opened.breakdown
        n = case.t2
        # Restart ranks live on the first n nodes; ranks whose node the
        # schedule killed are the lost ranks.  Replacement nodes are
        # spare up nodes outside the placement (when the machine has
        # them; otherwise accounting falls back to the old node id).
        placement = {r: r % case.num_nodes for r in range(n)}
        failed_in = sorted(set(placement.values()) & failed)
        spares = [
            nd
            for nd in machine.up_nodes()
            if nd not in set(placement.values())
        ]
        node_repl = {nd: spares.pop(0) for nd in failed_in if spares}
        repl = {
            r: node_repl[nd]
            for r, nd in placement.items()
            if nd in node_repl
        }

        if decision.tier == "l1":
            loc_state, loc_bd, scope = localized_restore_drms(
                store, decision.prefix, n, placement, failed_in,
                replacements=repl, order=case.order,
                distribution_overrides=run.options["distribution_overrides"],
            )
            flat = tracer.metrics.flat()
            _flat_eq(c, flat, "mlck.localized.restores", 1)
        else:
            # Every L1 copy of the chosen generation is unservable, so
            # the survivors' own replica memory is gone too: localized
            # recovery degrades to the same full, metered PFS read.
            loc_state, loc_bd, scope = localized_restart(
                run.pfs, decision.prefix, n, placement, failed_in,
                replacements=repl, **run.options,
            )

    # -- the equivalence block: bytes, segment, manifest, ledgers --
        _check_restored(c, full_state.arrays, rec.refs)
        _check_restored(c, loc_state.arrays, rec.refs)
        for spec in case.arrays:
            fa = full_state.arrays.get(spec.name)
            la = loc_state.arrays.get(spec.name)
            if fa is None or la is None:
                continue  # _check_restored already flagged it
            c.check(
                np.array_equal(fa.defined_mask(), la.defined_mask()),
                f"array {spec.name!r}: defined masks differ between "
                "localized and full recovery",
            )
            c.check(
                fa.to_global(fill=0).tobytes()
                == la.to_global(fill=0).tobytes(),
                f"array {spec.name!r}: localized recovery bytes differ "
                "from the full restore",
            )
        c.check(
            loc_state.segment.serialize() == full_state.segment.serialize(),
            "localized and full recovery restored different segments",
        )
        c.check(
            loc_state.manifest == full_state.manifest,
            "localized and full recovery surfaced different manifests",
        )
        c.check(
            loc_bd.segment_bytes == full_bd.segment_bytes,
            f"segment byte ledgers differ: localized "
            f"{loc_bd.segment_bytes} vs full {full_bd.segment_bytes}",
        )
        c.check(
            loc_bd.arrays_bytes == full_bd.arrays_bytes,
            f"array byte ledgers differ: localized {loc_bd.arrays_bytes} "
            f"vs full {full_bd.arrays_bytes}",
        )
        c.check(
            [(nm, nb) for nm, _, nb in loc_bd.per_array]
            == [(nm, nb) for nm, _, nb in full_bd.per_array],
            "per-array byte ledgers differ between localized and full "
            "recovery",
        )

        # -- scope consistency -----------------------------------------
        want_lost = tuple(
            sorted(r for r, nd in placement.items() if nd in failed)
        )
        c.check(
            scope.lost_ranks == want_lost,
            f"rebuild scope lost ranks {scope.lost_ranks} != placement "
            f"ground truth {want_lost}",
        )
        for a in scope.arrays:
            covered = sum(a.rank_bytes.values())
            c.check(
                covered <= a.nbytes,
                f"scope of {a.name!r}: assigned bytes {covered} exceed "
                f"the array stream {a.nbytes}",
            )
            ilost = sum(hi - lo for lo, hi in a.lost_intervals)
            c.check(
                ilost == a.lost_bytes,
                f"scope of {a.name!r}: interval total {ilost} != "
                f"lost_bytes {a.lost_bytes}",
            )

        # -- re-replication repair -------------------------------------
        if decision.tier == "l1" and failed_in:
            avoid = sorted(
                {machine.domain_of(nd) for nd in node_repl.values()}
            )
            repair = rereplicate_after_failure(
                store, failed_in, avoid_domains=avoid
            )
            short = set(repair.short)
            for piece in store._gens[decision.prefix].pieces():
                c.check(
                    not (set(piece.replicas) & failed),
                    f"piece {piece.key}: dead node still listed "
                    "as a replica after re-replication",
                )
                live = [
                    nd
                    for nd in piece.replicas
                    if store._replica_valid(piece, nd)
                ]
                c.check(
                    len(live) >= store.k + 1 or piece.key in short,
                    f"piece {piece.key}: {len(live)} valid "
                    f"replicas after repair, need {store.k + 1} "
                    "(and not recorded as short)",
                )
            details["rereplicated"] = repair.copies
    details.update(
        {
            "chosen": decision.prefix,
            "tier": decision.tier,
            "lost_ranks": list(scope.lost_ranks)
            if decision.prefix is not None
            else [],
        }
    )
    return c.finish(details, tracer)


# -- coupled-workflow fault mode --------------------------------------------


def _workflow_base_array(case: Case, member_index: int) -> np.ndarray:
    """Deterministic per-member initial state of the workflow oracle's
    evolving array (well-conditioned floats, so the ``+= 1.0`` update
    is byte-deterministic across task counts)."""
    rng = np.random.default_rng(
        (case.data_seed * 1_000_003 + member_index * 7919 + 11) & 0x7FFFFFFF
    )
    return rng.random(tuple(case.shape), dtype=np.float64)


def _workflow_ref(base: np.ndarray, iterations: int) -> np.ndarray:
    """The analytic value of a member's ``u`` after ``iterations``
    applications of the update, replayed with the member's exact
    operation order (one ``+ 1.0`` per iteration, never a fused
    ``+ n``)."""
    ref = base.copy()
    for _ in range(iterations):
        ref = ref + 1.0
    return ref


def _apply_workflow_corruption(
    pfs: PIOFS, case: Case, base: str, members: List[str]
) -> None:
    """Post-run persistent corruption of member generation files.
    Flips that land on no stored byte and deletions of files that do
    not exist are inert by design — the ground-truth snapshot diff sees
    exactly what the recovery walk sees."""
    for ev in case.events:
        member = members[ev.member % len(members)]
        prefix = generation_name(f"{base}.{member}", ev.gen)
        if ev.kind == "gen_loss":
            try:
                pfs.unlink(manifest_name(prefix))
            except PFSError:
                pass
        else:
            _flip(pfs, prefix, ev, ["u", "inbox"])


def _run_workflow(case: Case) -> CaseResult:
    """The coupled-workflow oracle: run an ensemble of ``members``
    applications coupled in a ring (each member's ``u`` feeds the next
    member's ``inbox`` at every exchange boundary), committing one
    workflow line per iteration.  After the run the oracle snapshots
    every member generation byte-for-byte, applies the case's post-run
    corruption schedule (stored flips, lost member manifests), and
    computes ground truth *independently of the recovery code*: a line
    is valid iff every member's files still byte-match the snapshot.

    The invariants: the workflow recovery walk must land exactly on the
    newest fully-valid line and reject exactly the torn newer ones *as
    units*; the ensemble restart (each member on an independently drawn
    new task count) must restore every member byte-identically to the
    chosen line's analytic reference — including each ``inbox``
    matching its peer's ``u`` on the same line, the cross-member
    consistency the common boundary guarantees — and resume to the same
    final state as an uninterrupted run, numbering new lines strictly
    after every old one."""
    from repro.drms import CheckpointStatus
    from repro.drms.api import (
        drms_adjust,
        drms_create_distribution,
        drms_distribute,
        drms_initialize,
    )
    from repro.workflow import WorkflowCoordinator

    c = _Checker(case)
    machine = Machine(MachineParams(num_nodes=case.num_nodes))
    pfs = PIOFS(machine=machine)
    base = "wf.ck"
    members = [f"m{i}" for i in range(case.members)]
    bases_np = {
        m: _workflow_base_array(case, i) for i, m in enumerate(members)
    }
    niter = case.generations
    tasks1 = dict(zip(members, case.workflow_tasks1()))
    tasks2 = dict(zip(members, case.workflow_tasks2()))
    restored: Dict[str, Dict[str, object]] = {}

    def member_main(ctx, name, base_arr):
        drms_initialize(ctx)
        dist = drms_create_distribution(ctx, tuple(case.shape))
        u = drms_distribute(
            ctx, "u", dist, dtype=np.float64,
            init_global=lambda s: base_arr.copy(),
        )
        inbox = drms_distribute(
            ctx, "inbox", dist, dtype=np.float64,
            init_global=lambda s: np.zeros(s),
        )
        for it in ctx.iterations(1, niter + 1):
            status, delta = ctx.workflow_exchange()
            if status is CheckpointStatus.RESTARTED:
                if delta != 0:
                    u = drms_distribute(ctx, "u", drms_adjust(ctx, "u"))
                    inbox = drms_distribute(
                        ctx, "inbox", drms_adjust(ctx, "inbox")
                    )
                if ctx.rank == 0:
                    restored[name] = {
                        "u": u.array.to_global(fill=0).tobytes(),
                        "inbox": inbox.array.to_global(fill=0).tobytes(),
                        "iteration": it,
                    }
                # every rank takes this branch on restart, so the
                # barrier is collective: siblings must not start
                # mutating the arrays while rank 0 snapshots them
                ctx.barrier()
            u.set_assigned(u.assigned + 1.0)
            ctx.barrier()
        return None

    with use_tracer(Tracer()):
        coord = WorkflowCoordinator(base, machine=machine, pfs=pfs)
        for m in members:
            coord.add_member(m, member_main, args=(m, bases_np[m]))
        for i, m in enumerate(members):
            coord.couple(m, "u", members[(i + 1) % len(members)], "inbox")

        report = coord.run(tasks1)
        committed = coord.committed_generations()
        c.check(
            committed == list(range(1, niter + 1)),
            f"initial run committed lines {committed}, expected "
            f"1..{niter}",
        )
        c.check(
            len(report.lines) == niter,
            f"run report carries {len(report.lines)} lines, expected {niter}",
        )
        for line in report.lines:
            c.check(
                set(line.members) == set(members),
                f"line {line.generation} covers {sorted(line.members)}, "
                f"expected all of {members}",
            )
            for m in members:
                entry = line.members.get(m, {})
                c.check(
                    entry.get("ntasks") == tasks1[m]
                    and entry.get("iteration") == line.generation,
                    f"line {line.generation} member {m}: recorded "
                    f"(ntasks={entry.get('ntasks')}, "
                    f"iteration={entry.get('iteration')}) != "
                    f"({tasks1[m]}, {line.generation})",
                )

        # byte-level snapshot of every member generation: the intent
        # record the post-corruption ground truth diffs against
        snapshots: Dict[int, List[_Generation]] = {}
        for g in committed:
            snapshots[g] = []
            for m in members:
                snap = _Generation(generation_name(f"{base}.{m}", g), committed=True)
                for fname in pfs.listdir(snap.prefix + "."):
                    size = pfs.file_size(fname)
                    want = pfs.read_at(fname, 0, size) if size else b""
                    snap.expected[fname] = want
                    snap.sizes[fname] = len(want)
                c.check(
                    manifest_name(snap.prefix) in snap.expected,
                    f"member {m} generation {g} committed no manifest",
                )
                snapshots[g].append(snap)

        _apply_workflow_corruption(pfs, case, base, members)
        valid = {
            g: all(snap.is_valid(pfs) for snap in snapshots[g])
            for g in committed
        }
        expected_gen = max((g for g in committed if valid[g]), default=None)
        want_rejected = {
            g
            for g in committed
            if not valid[g] and (expected_gen is None or g > expected_gen)
        }

        decision = coord.select_restart_line(tasks2)
        c.check(
            decision.generation == expected_gen,
            f"workflow recovery chose line {decision.generation}; newest "
            f"fully-valid line is {expected_gen}",
        )
        got_rejected = {g for g, _ in decision.rejected}
        c.check(
            got_rejected == want_rejected,
            f"rejected lines {sorted(got_rejected)} != torn-newer set "
            f"{sorted(want_rejected)}",
        )
        details: Dict[str, object] = {
            "expected_gen": expected_gen,
            "chosen": decision.generation,
            "committed": committed,
            "valid": sorted(g for g in committed if valid[g]),
            "rejected": sorted(got_rejected),
        }
        if expected_gen is None:
            try:
                coord.restart_workflow(tasks2)
                c.check(
                    False,
                    "every line is torn but restart_workflow still "
                    "relaunched the ensemble",
                )
            except WorkflowError:
                c.checked += 1
            return c.finish(details)

        c.check(
            all(t == "l2" for t in decision.member_tiers.values())
            and set(decision.member_tiers) == set(members),
            f"pfs-tier ensemble reported member tiers "
            f"{decision.member_tiers}",
        )

        report2 = coord.restart_workflow(tasks2)
        g = expected_gen
        for i, m in enumerate(members):
            rec = restored.get(m)
            if not c.check(
                rec is not None,
                f"member {m} never reported a restored state",
            ):
                continue
            c.check(
                rec["iteration"] == g,
                f"member {m} resumed at iteration {rec['iteration']}, "
                f"line {g} was taken at iteration {g}",
            )
            ref_u = _workflow_ref(bases_np[m], g - 1)
            c.check(
                rec["u"] == ref_u.tobytes(),
                f"member {m}: restored 'u' differs from line {g}'s "
                "analytic reference bytes",
            )
            src = members[(i - 1) % len(members)]
            ref_inbox = _workflow_ref(bases_np[src], g - 1)
            c.check(
                rec["inbox"] == ref_inbox.tobytes(),
                f"member {m}: restored 'inbox' differs from peer "
                f"{src}'s 'u' on line {g} — the line is not mutually "
                "consistent",
            )
        c.check(
            report2.decision is not None
            and report2.decision.generation == expected_gen,
            "restart_workflow recorded a different decision than the "
            "recovery walk",
        )
        new_gens = [line.generation for line in report2.lines]
        c.check(
            len(new_gens) == niter - g,
            f"resumed run committed {len(new_gens)} lines from "
            f"iteration {g}, expected {niter - g}",
        )
        c.check(
            all(ng > niter for ng in new_gens),
            f"resumed lines {new_gens} reuse generation numbers "
            f"<= {niter}",
        )
        final_ref = {
            m: _workflow_ref(bases_np[m], niter) for m in members
        }
        for m in members:
            arr = report2.members[m].arrays.get("u")
            if not c.check(
                arr is not None, f"member {m} finished without 'u'"
            ):
                continue
            c.check(
                arr.to_global(fill=0).tobytes() == final_ref[m].tobytes(),
                f"member {m}: resumed final state differs from an "
                "uninterrupted run's",
            )
        details["restart_tasks"] = tasks2
        details["new_lines"] = new_gens
    return c.finish(details)


# -- entry points -----------------------------------------------------------


#: the oracle of each case mode (:attr:`Case.mode`)
ORACLES: Dict[str, Callable[[Case], CaseResult]] = {
    "drms": _run_drms,
    "spmd": _run_spmd,
    "incremental": _run_incremental,
    "fault": _run_fault,
    "mlck": _run_mlck_fault,
    "localized": _run_localized,
    "workflow": _run_workflow,
}


def run_case(case: Case) -> CaseResult:
    """Run one case's oracle; raises :class:`VerifyFailure` on any
    invariant violation (regardless of the case's ``expect`` field)."""
    return ORACLES[case.mode](case)


def replay_case(case: Case) -> CaseResult:
    """Run one case and hold it to its recorded expectation: an
    ``expect: pass`` case must run clean, an ``expect: fail`` case (a
    shrunk known-bad reproducer) must still fail the same way."""
    try:
        result = run_case(case)
    except VerifyFailure as exc:
        if case.expect == "fail":
            return CaseResult(
                case, checked=1, details={"failed_as_expected": exc.errors}
            )
        raise
    if case.expect == "fail":
        raise VerifyFailure(
            case,
            [
                "case is recorded as a failing reproducer but every "
                "invariant now holds"
            ],
        )
    return result
