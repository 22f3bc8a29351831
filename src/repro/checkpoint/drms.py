"""DRMS reconfigurable checkpoint and restart.

Checkpoint (paper Section 5): the selected task writes its data segment
first; then each distributed array is written in sequence through
parallel array-section streaming.  Restart: every task loads the single
saved data segment (restoring replicated variables and execution
context), then each array is streamed in under the distribution
appropriate for the *new* number of tasks — which may differ from the
checkpointing task count.  Each is one routine whatever tier holds the
bytes: :func:`capture` writes into a *generation sink* — the PFS
(:class:`PFSCheckpointSink`) or the L1 replicas of :mod:`repro.mlck` —
and :func:`restore` reads from the matching *generation source*
(:class:`PFSCheckpointSource`, the L1 replicas).

Each step is an I/O phase, so both operations return the same component
breakdown the paper reports in Table 6 (data-segment time/rate, array
time/rate, fixed restart initialization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.slices import Slice
from repro.checkpoint.format import (
    array_name,
    distribution_to_spec,
    np_dtype_name,
    read_manifest,
    segment_name,
    sha1_hex,
    spec_to_distribution,
    write_manifest,
)
from repro.checkpoint.recover import OpenedGeneration, open_latest_valid
from repro.checkpoint.segment import DataSegment
from repro.checkpoint.validate import (
    file_problem,
    recorded_digests,
    verify_stored_sha1,
)
from repro.errors import CheckpointError, CheckpointIntegrityError, RestartError
from repro.obs import get_tracer
from repro.pfs.phase import IOKind
from repro.pfs.piofs import PIOFS
from repro.streaming.order import check_order, stream_spans
from repro.streaming.parallel import stream_in_parallel, stream_out_parallel
from repro.streaming.streams import PFSSink, PFSSource
from repro.streaming.vectorized import scatter_section_flat

__all__ = [
    "CheckpointBreakdown",
    "RestartBreakdown",
    "RestoredState",
    "PFSCheckpointSink",
    "PFSCheckpointSource",
    "capture",
    "drms_checkpoint",
    "drms_restart",
    "open_generation",
    "restart_distribution",
    "restart_opener",
    "restore",
]

_MB = 1e6  # the paper reports decimal MB/s


def _publish_breakdown(op: str, bd: "CheckpointBreakdown") -> None:
    """Feed one operation's component breakdown into the active metrics
    registry under ``<op>.<kind>.*`` (e.g. ``checkpoint.drms.segment.seconds``).
    These are the series :mod:`repro.perfmodel` benchmarks read back."""
    m = get_tracer().metrics
    root = f"{op}.{bd.kind}"
    m.counter(f"{root}.count").inc()
    m.counter(f"{root}.segment.seconds").inc(bd.segment_seconds)
    m.counter(f"{root}.segment.bytes").inc(bd.segment_bytes)
    m.counter(f"{root}.arrays.seconds").inc(bd.arrays_seconds)
    m.counter(f"{root}.arrays.bytes").inc(bd.arrays_bytes)
    other = getattr(bd, "other_seconds", None)
    if other is not None:
        m.counter(f"{root}.other.seconds").inc(other)
    m.counter(f"{root}.total.seconds").inc(bd.total_seconds)
    m.counter(f"{root}.total.bytes").inc(bd.total_bytes)


@dataclass
class CheckpointBreakdown:
    """Component timing/size of one checkpoint (Table 6, 'Checkpoint')."""

    kind: str
    prefix: str
    ntasks: int
    segment_seconds: float = 0.0
    segment_bytes: int = 0
    arrays_seconds: float = 0.0
    arrays_bytes: int = 0
    per_array: List[Tuple[str, float, int]] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.segment_seconds + self.arrays_seconds

    @property
    def total_bytes(self) -> int:
        return self.segment_bytes + self.arrays_bytes

    @property
    def rate_mbps(self) -> float:
        return self.total_bytes / _MB / self.total_seconds if self.total_seconds else 0.0

    @property
    def segment_rate_mbps(self) -> float:
        return (
            self.segment_bytes / _MB / self.segment_seconds
            if self.segment_seconds
            else 0.0
        )

    @property
    def arrays_rate_mbps(self) -> float:
        return (
            self.arrays_bytes / _MB / self.arrays_seconds if self.arrays_seconds else 0.0
        )


@dataclass
class RestartBreakdown(CheckpointBreakdown):
    """Restart adds the fixed initialization (text-segment load) the
    paper shows as the 'other' band of Figure 7."""

    other_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.segment_seconds + self.arrays_seconds + self.other_seconds


@dataclass
class RestoredState:
    """Everything a restarted application needs."""

    segment: DataSegment
    arrays: Dict[str, DistributedArray]
    ntasks: int
    checkpoint_ntasks: int
    manifest: Dict

    @property
    def delta(self) -> int:
        """New minus checkpointing task count (the API's ``delta``:
        nonzero means the arrays needed a new distribution)."""
        return self.ntasks - self.checkpoint_ntasks


# -- the capture pipeline -------------------------------------------------------


def capture(
    sink,
    prefix: str,
    segment: DataSegment,
    arrays: Sequence[DistributedArray],
    order: str,
    app_name: str,
    ntasks: Optional[int],
) -> CheckpointBreakdown:
    """Capture one DRMS generation ``prefix`` into ``sink`` — the single
    capture routine every tier shares, the mirror of :func:`restore`.

    The pipeline owns what a checkpoint *is*: the input checks, all made
    before the first byte is stored (the stream order, unique array
    names, one task count: ``ntasks``, the run's, else the arrays'); the
    data segment, then one distribution-independent stream per array;
    the manifest, assembled here and nowhere else; the breakdown.  A
    *generation sink* owns where the bytes go and what storing them
    costs (DESIGN.md §8): ``kind``; ``spans`` (segment span, per-array
    span stem); ``segment(file, header, pad) -> (seconds, nbytes,
    sha1)``, the bytes it charged and the header's plain SHA-1;
    ``array(a, file, order) -> (seconds, nbytes, sha1, span_bytes,
    span attrs)``, the
    :func:`~repro.streaming.order.stream_sha1` of the stream it intends
    to store and the span size it took it over, its ``target_bytes``
    (both None when virtual); ``commit(manifest, bd)``, which makes the
    generation visible."""
    check_order(order)
    if len({a.name for a in arrays}) != len(arrays):
        raise CheckpointError("distributed array names must be unique")
    if ntasks is None:
        ntasks = arrays[0].ntasks if arrays else 1
    for a in arrays:
        if a.ntasks != ntasks:
            raise CheckpointError(
                f"array {a.name!r} has {a.ntasks} tasks; expected {ntasks}"
            )
    bd = CheckpointBreakdown(kind=sink.kind, prefix=prefix, ntasks=ntasks)
    obs = get_tracer()
    segment_span, array_span = sink.spans

    with obs.span(
        "checkpoint", kind=sink.kind, prefix=prefix, ntasks=ntasks, app=app_name
    ) as op:
        # Phase 1: the representative task's data segment.
        header, pad = segment.serialize()
        seg = segment_name(prefix)
        with obs.span(segment_span, file=seg) as sp:
            seconds, nbytes, segment_sha1 = sink.segment(seg, header, pad)
            obs.advance(seconds)
            sp.set(nbytes=nbytes, seconds=seconds)
        bd.segment_seconds = seconds
        bd.segment_bytes = nbytes

        # Phase 2..N+1: each distributed array in sequence.
        specs = []
        for a in arrays:
            fname = array_name(prefix, a.name)
            with obs.span(f"{array_span}:{a.name}", file=fname) as sp:
                seconds, nbytes, sha1, span_bytes, attrs = sink.array(
                    a, fname, order
                )
                obs.advance(seconds)
                sp.set(nbytes=nbytes, **attrs, seconds=seconds)
            bd.arrays_seconds += seconds
            bd.arrays_bytes += nbytes
            bd.per_array.append((a.name, seconds, nbytes))
            specs.append({
                "name": a.name, "shape": list(a.shape),
                "dtype": np_dtype_name(a.dtype), "file": fname,
                # Integrity record: the digest of the *intended* stream,
                # not the stored copy, so a torn or short write is caught.
                "nbytes": nbytes, "sha1": sha1, "span_bytes": span_bytes,
                "virtual": not a.store_data,
                "distribution": distribution_to_spec(a.distribution),
            })
        sink.commit({
            "kind": "drms", "app_name": app_name, "ntasks": ntasks,
            "order": order, "segment_file": seg,
            "segment_bytes": bd.segment_bytes, "segment_sha1": segment_sha1,
            "segment_sha1_bytes": len(header), "arrays": specs,
        }, bd)
        op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)
    _publish_breakdown("checkpoint", bd)
    return bd


class PFSCheckpointSink:
    """Generation sink onto the PFS (see :func:`capture`): the segment
    is one serial write phase, each array one parallel stream-out phase
    of at most ``io_tasks`` writes
    (:func:`~repro.streaming.parallel.stream_out_parallel`); the commit
    writes the manifest.  ``span_sha1s`` keeps each data-bearing array's
    span digests, from the same hash pass."""

    kind = "drms"
    spans = ("segment_write", "parstream")

    def __init__(self, pfs: PIOFS, io_tasks: Optional[int], target_bytes: int):
        self.pfs = pfs
        self.io_tasks = io_tasks
        self.target_bytes = target_bytes
        self.span_sha1s: Dict[str, List[str]] = {}

    def segment(self, file: str, header: bytes, pad: int) -> Tuple[float, int, str]:
        """One serial write phase: task 0 writes the exact header, the
        pad as a sparse span after it."""
        pfs = self.pfs
        pfs.create(file, virtual=False)
        with pfs.phase(IOKind.WRITE_SERIAL) as res:
            pfs.write_at(file, 0, header, client=0)
            if pad:  # the sized bulk components (see DataSegment)
                pfs.write_at(file, len(header), None, nbytes=pad, client=0)
        return res.seconds, len(header) + pad, sha1_hex(header)

    def array(
        self, a: DistributedArray, file: str, order: str
    ) -> Tuple[float, int, Optional[str], Optional[int], Dict[str, int]]:
        """One parallel write phase: stream ``a`` out into ``file``."""
        sink = PFSSink(self.pfs, file, virtual=not a.store_data, create=True)
        with self.pfs.phase(IOKind.WRITE_PARALLEL) as res:
            stats = stream_out_parallel(
                a, sink, P=self.io_tasks, order=order,
                target_bytes=self.target_bytes,
            )
        if stats.span_sha1s is not None:
            self.span_sha1s[a.name] = stats.span_sha1s
        return res.seconds, stats.bytes_streamed, stats.sha1, stats.span_bytes, {
            "pieces": stats.pieces,
            "redistribution_bytes": stats.redistribution_bytes,
        }

    def commit(self, manifest: Dict, bd: CheckpointBreakdown) -> None:
        """Commit the manifest: the generation exists from here on."""
        write_manifest(self.pfs, bd.prefix, manifest)


def drms_checkpoint(
    pfs: PIOFS,
    prefix: str,
    segment: DataSegment,
    arrays: Sequence[DistributedArray],
    order: str = "F",
    io_tasks: Optional[int] = None,
    target_bytes: int = 1 << 20,
    app_name: str = "",
    ntasks: Optional[int] = None,
) -> CheckpointBreakdown:
    """Write a reconfigurable checkpoint under ``prefix`` on the PFS of
    a run on ``ntasks`` tasks (default: the arrays'): :func:`capture`
    into a :class:`PFSCheckpointSink`.

    ``arrays`` are the stream sources: distributed arrays, or
    :class:`~repro.streaming.serial.StoredStream` objects bringing
    their captured bytes, digest and span size (the L1 drain, which
    enters here) — same state and manifest, byte for byte.  The memory
    tier captures the same manifest
    (:meth:`~repro.mlck.store.L1Store.capture_drms`); its one entrance
    is :class:`~repro.mlck.checkpointer.MultiLevelCheckpointer`."""
    sink = PFSCheckpointSink(pfs, io_tasks, target_bytes)
    return capture(sink, prefix, segment, arrays, order, app_name, ntasks)


# -- the restore pipeline -------------------------------------------------------


def _charge_restart_init(obs, seconds: float) -> None:
    """Fixed initialization (text-segment load) happens before any
    checkpoint I/O, whichever tier serves the state; its simulated cost
    is a machine parameter."""
    with obs.span("restart_init") as sp:
        obs.advance(seconds)
        sp.set(seconds=seconds)


def restart_distribution(spec: Dict, ntasks: int, overrides: Dict[str, object]):
    """The distribution one checkpointed array restarts under: the
    caller's override when given, else the stored spec adjusted to
    ``ntasks``."""
    dist = overrides.get(spec["name"]) or spec_to_distribution(
        spec["distribution"], ntasks=ntasks
    )
    if dist.ntasks != ntasks:
        raise RestartError(
            f"override distribution for {spec['name']!r} targets "
            f"{dist.ntasks} tasks; restart uses {ntasks}"
        )
    return dist


def restore(
    source,
    ntasks: int,
    order: Optional[str] = None,
    distribution_overrides: Optional[Dict[str, object]] = None,
) -> Tuple[RestoredState, RestartBreakdown]:
    """Restore one DRMS generation from ``source`` onto ``ntasks`` tasks
    (any count >= 1) — the single restore routine every tier shares.

    The pipeline owns what a restart *is*: the fixed initialization
    charge, the saved data segment, one array after another under the
    distribution for the new task count, the component breakdown.  A
    *generation source* owns where the bytes are, what moving them
    costs, and that they are sound (DESIGN.md §8, "One restore"):

    * ``kind`` — breakdown/span kind;
    * ``prefix``, ``manifest`` — the generation's name and its
      manifest-shaped metadata (the v4 keys, whatever the tier);
    * ``init_seconds``, ``spans`` — the fixed initialization this
      restart pays; ``(segment span name, per-array span stem)``;
    * ``fetch_segment(ntasks) -> (header, seconds, nbytes)`` and
      ``load_array(arr, spec, order) -> (seconds, nbytes, span attrs)``
      — the charged steps, in simulated seconds and charged bytes, each
      verifying what it delivers against the manifest's (or capture's)
      digest first and raising the tier's error having delivered
      nothing — so a recovery walk can open the next candidate.

    ``distribution_overrides`` maps array names to explicit
    :class:`~repro.arrays.distributions.Distribution` objects (the
    Fig. 1 ``drms_adjust``/``drms_distribute`` path); everything else
    is auto-adjusted from the stored spec.
    """
    manifest = source.manifest
    if manifest.get("kind") != "drms":
        raise RestartError(
            f"checkpoint {source.prefix!r} is kind {manifest.get('kind')!r}; "
            "a reconfigured restart needs a DRMS checkpoint"
        )
    if ntasks < 1:
        raise RestartError(f"cannot restart on {ntasks} tasks")
    order = order or manifest.get("order", "F")
    overrides = distribution_overrides or {}
    obs = get_tracer()
    bd = RestartBreakdown(kind=source.kind, prefix=source.prefix, ntasks=ntasks)
    bd.other_seconds = source.init_seconds
    segment_span, array_span = source.spans

    with obs.span(
        "restart",
        kind=source.kind,
        prefix=source.prefix,
        ntasks=ntasks,
        checkpoint_ntasks=manifest["ntasks"],
    ) as op:
        _charge_restart_init(obs, bd.other_seconds)

        # Phase 1: every task gets the single saved data segment.
        with obs.span(segment_span, file=manifest["segment_file"]) as sp:
            head, seconds, nbytes = source.fetch_segment(ntasks)
            obs.advance(seconds)
            sp.set(nbytes=nbytes, seconds=seconds)
        segment = DataSegment.deserialize(head)
        bd.segment_seconds = seconds
        bd.segment_bytes = nbytes

        # Phase 2..N+1: arrays under the (possibly adjusted) distributions.
        arrays: Dict[str, DistributedArray] = {}
        for spec in manifest["arrays"]:
            name = spec["name"]
            arr = DistributedArray(
                name,
                spec["shape"],
                np.dtype(spec["dtype"]),
                restart_distribution(spec, ntasks, overrides),
                store_data=not spec["virtual"],
            )
            with obs.span(f"{array_span}:{name}", file=spec["file"]) as sp:
                seconds, nbytes, attrs = source.load_array(arr, spec, order)
                obs.advance(seconds)
                sp.set(nbytes=nbytes, **attrs, seconds=seconds)
            bd.arrays_seconds += seconds
            bd.arrays_bytes += nbytes
            bd.per_array.append((name, seconds, nbytes))
            arrays[name] = arr
        op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)

    _publish_breakdown("restart", bd)
    state = RestoredState(
        segment=segment,
        arrays=arrays,
        ntasks=ntasks,
        checkpoint_ntasks=manifest["ntasks"],
        manifest=manifest,
    )
    return state, bd


class PFSCheckpointSource:
    """Generation source over the committed PFS copy of ``prefix``: the
    segment is one shared read phase, each array one parallel
    stream-in phase.  Opening it parses the manifest, takes the digest
    it records for every stored stream
    (:func:`~repro.checkpoint.validate.recorded_digests`: a missing one
    is a corrupt manifest) and checks every component file is present
    at its recorded size, reading no data; each step then verifies what
    it delivers against that digest — the segment header as it is read,
    each array's stream-in buffer before the scatter — raising
    :class:`~repro.errors.CheckpointIntegrityError` with no phase left
    open.  Every stored byte is read once and hashed once.

    A generation with a ``base`` link (an incremental delta) opens as
    its chain: the links are followed to the base (a cycle is a corrupt
    manifest), and every generation of it is checked so.  The segment
    header is the newest's, its sized bulk the base's; an array's stream
    is the base's overlaid by each delta's stored spans, oldest first,
    each file verified as it is read, then scattered once."""

    kind = "drms"
    spans = ("segment_read", "parstream")

    def __init__(
        self, pfs: PIOFS, prefix: str, io_tasks: Optional[int], target_bytes: int
    ):
        self.pfs = pfs
        self.prefix = prefix
        self.manifest = m = read_manifest(pfs, prefix)
        #: the generations ``prefix`` is stored as, its base first
        self.chain, seen = [m], {prefix}
        while m.get("kind") == "drms" and "base" in self.chain[0]:
            link = self.chain[0]["base"]
            if link in seen:
                raise CheckpointIntegrityError(
                    f"checkpoint chain of {prefix!r} cycles back to {link!r}"
                )
            seen.add(link)
            self.chain.insert(0, read_manifest(pfs, link))
        if m.get("kind") == "drms":
            #: stored file -> the (sha1, nbytes, span_bytes) it verifies to
            self.digests = {}
            for g in self.chain:
                self.digests.update(recorded_digests(g))
                for name, nbytes in [(g["segment_file"], g.get("segment_bytes"))] + [
                    (spec["file"], spec.get("nbytes")) for spec in g["arrays"]
                ]:
                    problem = file_problem(pfs, name, nbytes)
                    if problem is not None:
                        raise CheckpointIntegrityError(problem)
        self.init_seconds = pfs.params.restart_init_s
        self.io_tasks = io_tasks
        self.target_bytes = target_bytes

    def fetch_segment(self, ntasks: int) -> Tuple[bytes, float, int]:
        """One shared read phase: task 0 reads the exact header, every
        task is charged the whole (sized) segment file; the header read
        is then checked against the manifest's digest.  A chain's sized
        bulk, which only its base stores, is a second such phase."""
        pfs, base = self.pfs, self.chain[0]
        seg = self.manifest["segment_file"]
        seg_size = pfs.file_size(seg)
        with pfs.phase(IOKind.READ_SHARED) as res:
            head = pfs.read_at(
                seg, 0, min(seg_size, DataSegment.header_prefix_bytes()), client=0
            )
            if seg_size > len(head):
                pfs.read_virtual(seg, len(head), seg_size - len(head), client=0)
            for t in range(1, ntasks):
                pfs.read_virtual(seg, 0, seg_size, client=t)
        verify_stored_sha1(pfs, seg, *self.digests[seg], head=head)
        header = base["segment_sha1_bytes"]
        bulk = base["segment_bytes"] - header if len(self.chain) > 1 else 0
        if not bulk:
            return head, res.seconds, seg_size * ntasks  # every task reads the file
        with pfs.phase(IOKind.READ_SHARED) as bulk_res:
            for t in range(ntasks):
                pfs.read_virtual(base["segment_file"], header, bulk, client=t)
        return head, res.seconds + bulk_res.seconds, (seg_size + bulk) * ntasks

    def load_array(
        self, arr: DistributedArray, spec: Dict, order: str
    ) -> Tuple[float, int, Dict[str, int]]:
        """One parallel read phase: stream the file into ``arr`` under
        its (new) distribution, verified before the scatter — or scatter
        a chain's composed stream, every file of it verified as it was
        read."""
        pfs = self.pfs
        with pfs.phase(IOKind.READ_PARALLEL) as res:
            if len(self.chain) > 1:
                stream, charged = self._compose(arr, spec["name"])
                if stream is not None:
                    scatter_section_flat(
                        arr, Slice.full(arr.shape),
                        np.frombuffer(stream, arr.dtype), order,
                    )
                attrs = {}
            else:
                sha1, _, span_bytes = self.digests.get(spec["file"], (None, None, None))
                stats = stream_in_parallel(
                    arr, PFSSource(pfs, spec["file"]), P=self.io_tasks, order=order,
                    target_bytes=self.target_bytes, sha1=sha1, span_bytes=span_bytes,
                )
                charged, attrs = stats.bytes_streamed, {
                    "pieces": stats.pieces,
                    "redistribution_bytes": stats.redistribution_bytes,
                }
        return res.seconds, charged, attrs

    def _read(self, spec: Dict, P: int) -> Optional[memoryview]:
        """Read one stored array file in ``P`` near-equal runs, client
        ``p`` the ``p``-th, and verify it: its bytes, None when virtual."""
        pfs, file, size = self.pfs, spec["file"], spec["nbytes"]
        buf = None if spec["virtual"] else memoryview(bytearray(size))
        cuts = [size * p // P for p in range(P + 1)]
        for p, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            if hi == lo:
                continue
            if buf is None:
                pfs.read_virtual(file, lo, hi - lo, client=p)
            else:
                buf[lo:hi] = pfs.read_at(file, lo, hi - lo, client=p)
        if buf is not None:
            verify_stored_sha1(pfs, file, *self.digests[file], head=buf)
        return buf

    def _compose(
        self, arr: DistributedArray, name: str
    ) -> Tuple[Optional[memoryview], int]:
        """Array ``name``'s stream in the chain — the base's whole
        stream, overlaid by each delta's stored spans (the ``spans``
        indices, stored in stream order), oldest first; None when
        virtual — and the bytes reading its files charged."""
        P = self.io_tasks or arr.ntasks
        layers = [s for g in self.chain for s in g["arrays"] if s["name"] == name]
        base, deltas = layers[0], layers[1:]
        if "spans" in base or any("spans" not in s for s in deltas) or (
            base["nbytes"] != arr.nbytes_global
        ):
            raise CheckpointIntegrityError(
                f"the chain of {self.prefix!r} holds no base stream of {name!r}"
            )
        out = self._read(base, P)
        for spec in deltas:
            data, idx = self._read(spec, P), spec["spans"]
            if out is None:  # virtual: charged, nothing to overlay
                continue
            cut = stream_spans(len(out), spec["span_bytes"])
            if idx != sorted(set(idx)) or any(not 0 <= i < len(cut) for i in idx) or (
                sum(cut[i][1] for i in idx) != len(data)
            ):
                raise CheckpointIntegrityError(
                    f"corrupt manifest: the spans of {spec['file']!r} do not "
                    f"tile its {len(data)} bytes"
                )
            pos = 0
            for i in idx:
                off, n = cut[i]
                out[off:off + n] = data[pos:pos + n]
                pos += n
        return out, sum(s["nbytes"] for s in layers)


def restart_opener(
    pfs: PIOFS, ntasks: int, l1=None, order: Optional[str] = None,
    io_tasks: Optional[int] = None, target_bytes: int = 1 << 20,
    distribution_overrides: Optional[Dict[str, object]] = None,
):
    """``open_one(prefix, tier)`` of a full restart onto ``ntasks``
    tasks (:func:`~repro.checkpoint.recover.open_latest_valid`): an
    ``"l1"`` candidate from the replicas of ``l1``
    (:meth:`~repro.mlck.store.L1Store.restore_drms`), any other from the
    PFS copy (:func:`drms_restart`)."""

    def open_one(prefix: str, tier: Optional[str]):
        if tier == "l1":
            return l1.restore_drms(
                prefix, ntasks, order, distribution_overrides,
                init_seconds=pfs.params.restart_init_s,
            )
        return drms_restart(
            pfs, prefix, ntasks, order, io_tasks, target_bytes,
            distribution_overrides,
        )

    return open_one


def open_generation(
    pfs: PIOFS, prefix: str, l1, open_one: Callable[[str, Optional[str]], tuple]
) -> OpenedGeneration:
    """Open the one generation ``prefix`` with ``open_one``: the PFS
    copy alone when there is no L1 store ``l1``, else a walk over its
    replicas, then the PFS copy — the dead nodes' memory dropped first."""
    if l1 is None:
        return OpenedGeneration(prefix, *open_one(prefix, "l2"))
    # drop dead nodes' memory first: serve from the machine as it is now
    l1.sync_with_machine()
    opened, decision = open_latest_valid(
        pfs, prefix, open_one, l1, [(prefix, "l1"), (prefix, "l2")]
    )
    if opened is None:
        raise RestartError(decision.failure())
    return opened


def drms_restart(
    pfs: PIOFS,
    prefix: str,
    ntasks: int,
    order: Optional[str] = None,
    io_tasks: Optional[int] = None,
    target_bytes: int = 1 << 20,
    distribution_overrides: Optional[Dict[str, object]] = None,
) -> Tuple[RestoredState, RestartBreakdown]:
    """Restore a DRMS checkpoint from its PFS copy onto ``ntasks`` tasks
    (any count >= 1): :func:`restore` over a
    :class:`PFSCheckpointSource`."""
    source = PFSCheckpointSource(pfs, prefix, io_tasks, target_bytes)
    return restore(source, ntasks, order, distribution_overrides)
