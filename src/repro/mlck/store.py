"""The L1 tier: replicated in-memory checkpoint storage.

An L1 generation holds the same logical content as a PFS (L2)
checkpoint — the representative task's data segment plus each
distributed array's canonical stream — but keeps it in simulated node
memory, chunked into *pieces* that are replicated onto ``k`` partner
nodes in other failure domains (:mod:`repro.mlck.placement`).  Capture
therefore costs memory copies and switch transfers (hundreds of MB/s)
instead of PFS writes (single-digit MB/s), and recovery from a single
node failure is served entirely from surviving replicas: no PFS read
at all.

Integrity mirrors the v3 manifest discipline: every piece records a
SHA-1 over its bytes at capture time, and a replica that decayed (or a
node that died) is detected exactly like a torn PFS file.  Who hashes
when (DESIGN.md §12): a byte is hashed when it is captured and when it
is handed to someone, never to answer a question about a replica.
*Liveness* (:meth:`L1Store._replica_live`, O(1)) is all a replica-list
scrub or a choice of charged servers needs; *verification* (the SHA-1)
is done by the fetch (:meth:`L1Store._fetch_pieces`) on the replica it
serves — once per byte delivered to a restore, the drain or a new
replica — and by :meth:`L1Store.validate_generation`, the full audit
(a restart's walk opens instead: liveness, then the fetch).  Every
pass goes through :func:`_hashed`.

Like the PFS segment file, the bulk byte components (segment pad,
virtual arrays) are *sized*, not stored: timing charges the full
logical bytes while memory holds only the exact header/stream content.

Timing model: per-node busy time is ``local_copied/mem_copy_rate +
sent/link_rate + latency*messages + received/mem_copy_rate``; a capture
or fetch takes the maximum busy time over the nodes involved (they
proceed in parallel, like the parstream I/O tasks).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.checkpoint.drms import (
    CheckpointBreakdown,
    RestartBreakdown,
    RestoredState,
    _common_ntasks,
    _publish_breakdown,
    restore,
)
from repro.checkpoint.format import (
    array_name,
    distribution_to_spec,
    np_dtype_name,
    segment_name,
    sha1_hex,
    spec_to_distribution,
)
from repro.checkpoint.segment import DataSegment
from repro.checkpoint.validate import ValidationReport
from repro.errors import CheckpointError, MemoryTierError
from repro.infra.events import emit_event
from repro.mlck.placement import select_partners
from repro.obs import get_flight, get_tracer
from repro.runtime.machine import Machine
from repro.streaming.order import bytes_to_section, check_order
from repro.streaming.serial import StoredStream, stream_u8

__all__ = [
    "L1Piece",
    "L1ArrayEntry",
    "L1Generation",
    "L1Store",
    "L1ReplicaSource",
    "SwitchFetch",
]

_MB = 1e6


@dataclass
class L1Piece:
    """One replicated chunk of a stream, resident in node memory."""

    key: str
    offset: int
    nbytes: int
    sha1: str
    #: owner first, then partners — fetch tries them in this order
    replicas: List[int]

    @property
    def owner(self) -> int:
        return self.replicas[0]


@dataclass
class L1ArrayEntry:
    """One distributed array's canonical stream, as resident pieces."""

    name: str
    file: str
    shape: List[int]
    dtype: str
    #: logical stream bytes (charged); equals stored bytes unless virtual
    nbytes: int
    sha1: Optional[str]
    virtual: bool
    distribution: Dict
    pieces: List[L1Piece] = field(default_factory=list)


@dataclass
class L1Generation:
    """In-memory metadata of one captured DRMS generation — the L1
    analogue of a PFS manifest, including the drain state machine's
    position (see :class:`~repro.mlck.drain.DrainController`)."""

    prefix: str
    ntasks: int
    order: str = "F"
    app_name: str = ""
    #: full logical segment bytes (header + sized pad)
    segment_bytes: int = 0
    segment_sha1: str = ""
    segment_sha1_bytes: int = 0
    segment_pieces: List[L1Piece] = field(default_factory=list)
    arrays: List[L1ArrayEntry] = field(default_factory=list)
    capture_seconds: float = 0.0
    #: cluster clock at capture (drives the health cadence gauges)
    captured_at: Optional[float] = None
    #: drain state machine: pending -> draining -> durable | failed
    drain_state: str = "pending"
    drain_error: Optional[str] = None

    def pieces(self) -> Iterator[L1Piece]:
        """Every piece of the generation: segment, then arrays."""
        yield from self.segment_pieces
        for entry in self.arrays:
            yield from entry.pieces

    @property
    def resident_bytes(self) -> int:
        """Bytes actually held in memory (one copy), not charged bytes."""
        return sum(p.nbytes for p in self.pieces())


def _chunk_spans(nbytes: int, target: int) -> List[Tuple[int, int]]:
    """(offset, length) spans covering ``nbytes`` in ``target``-sized
    chunks (at least one span, even for empty streams)."""
    if nbytes <= 0:
        return [(0, 0)]
    spans = []
    pos = 0
    while pos < nbytes:
        n = min(target, nbytes - pos)
        spans.append((pos, n))
        pos += n
    return spans


def _hashed(data) -> str:
    """SHA-1 of ``data``, counted: ``mlck.l1.verified.bytes`` is the
    tier's whole hashing volume (capture, audit, fetch, repair)."""
    get_tracer().metrics.counter("mlck.l1.verified.bytes").inc(len(data))
    return sha1_hex(data)


class _Accounting:
    """Per-node busy-time accumulator for one capture/fetch round."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.local: Dict[int, int] = {}
        self.sent: Dict[int, int] = {}
        self.msgs: Dict[int, int] = {}
        self.recv: Dict[int, int] = {}

    def copy(self, node: int, nbytes: int) -> None:
        self.local[node] = self.local.get(node, 0) + nbytes

    def send(self, src: int, dst: int, nbytes: int) -> None:
        self.sent[src] = self.sent.get(src, 0) + nbytes
        self.msgs[src] = self.msgs.get(src, 0) + 1
        self.recv[dst] = self.recv.get(dst, 0) + nbytes

    def fetch(
        self, pieces: Sequence[L1Piece], nodes: Sequence[int], requester: int
    ) -> None:
        """``requester`` pulls each piece from the node that served it
        (a local copy when that is the requester itself)."""
        for piece, node in zip(pieces, nodes):
            if node != requester:
                self.send(node, requester, piece.nbytes)
            else:
                self.copy(node, piece.nbytes)

    def seconds(self) -> float:
        p = self.machine.params
        mem_bw = p.mem_copy_mbps * _MB
        link_bw = p.link_bandwidth_mbps * _MB
        busy = 0.0
        for node in set(self.local) | set(self.sent) | set(self.recv):
            t = (
                self.local.get(node, 0) / mem_bw
                + self.sent.get(node, 0) / link_bw
                + self.msgs.get(node, 0) * p.link_latency_s
                + self.recv.get(node, 0) / mem_bw
            )
            busy = max(busy, t)
        return busy


class L1Store:
    """Replicated in-memory checkpoint storage over one machine.

    ``k`` is the partner-replica count (each piece lives on its owner
    plus ``k`` partners from other failure domains); ``events`` hooks
    placement fallbacks and node-loss drops into a cluster's
    :class:`~repro.infra.events.EventLog`.
    """

    def __init__(
        self,
        machine: Machine,
        k: int = 1,
        events=None,
        target_bytes: int = 1 << 20,
    ):
        if k < 1:
            raise CheckpointError("L1 replication needs at least one partner")
        self.machine = machine
        self.k = int(k)
        self.events = events
        self.target_bytes = int(target_bytes)
        #: node id -> piece key -> bytes (simulated node memory)
        self._mem: Dict[int, Dict[str, bytes]] = {}
        #: node id -> machine incarnation the resident bytes belong to;
        #: a repaired node is a fresh machine, so bytes stamped with an
        #: older incarnation are stale and must never serve a fetch
        self._mem_epoch: Dict[int, int] = {}
        self._gens: "OrderedDict[str, L1Generation]" = OrderedDict()
        self._lock = threading.RLock()

    # -- bookkeeping ---------------------------------------------------------

    def generations(self) -> List[str]:
        """Captured prefixes, oldest first."""
        with self._lock:
            return list(self._gens)

    def latest(self) -> Optional[str]:
        gens = self.generations()
        return gens[-1] if gens else None

    def gen(self, prefix: str) -> L1Generation:
        """The resident generation under ``prefix``; raises
        :class:`~repro.errors.MemoryTierError` if never captured."""
        with self._lock:
            try:
                return self._gens[prefix]
            except KeyError:
                raise MemoryTierError(
                    f"generation {prefix!r} was never captured in L1"
                ) from None

    def has(self, prefix: str) -> bool:
        with self._lock:
            return prefix in self._gens

    def resident_bytes(self) -> int:
        """Total bytes held across all node memories (replicas counted)."""
        with self._lock:
            return sum(
                sum(map(len, d.values())) for d in self._mem.values()
            )

    def _update_resident_gauge(self) -> None:
        get_tracer().metrics.gauge("mlck.l1.resident_bytes").set(
            self.resident_bytes()
        )

    def discard(self, prefix: str) -> None:
        """Drop a generation and free its replicas (retention/eviction)."""
        with self._lock:
            gen = self._gens.pop(prefix, None)
            if gen is None:
                return
            for piece in gen.pieces():
                for node in piece.replicas:
                    self._mem.get(node, {}).pop(piece.key, None)
        self._update_resident_gauge()

    # -- node failure --------------------------------------------------------

    def drop_node(self, node_id: int, clock: float = 0.0) -> int:
        """A node died: its memory — and every replica it held — is
        gone.  Returns the number of piece copies lost; emits a
        ``mlck_replicas_lost`` event when any were."""
        with self._lock:
            lost = len(self._mem.pop(node_id, {}))
            self._mem_epoch.pop(node_id, None)
        if lost:
            emit_event(
                self.events, clock, "mlck_replicas_lost", node=node_id, pieces=lost
            )
            get_flight().auto_blackbox(node_id, reason="l1 memory lost", time=clock)
        self._update_resident_gauge()
        return lost

    def sync_with_machine(self, clock: float = 0.0) -> int:
        """Drop the memory of every node the machine reports down, and
        of every node whose incarnation advanced since its bytes were
        stored (it failed and was repaired between syncs: the repaired
        node is a new machine with empty memory, so the recorded bytes
        would be stale resurrections)."""
        lost = 0
        for node in list(self._mem):
            n = self.machine.node(node)
            if not n.up or self._mem_epoch.get(node) != n.incarnation:
                lost += self.drop_node(node, clock=clock)
        return lost

    # -- capture -------------------------------------------------------------

    def _capture_stream(
        self,
        acct: _Accounting,
        file: str,
        data: bytes,
        charged_total: int,
        nodes: Sequence[int],
        partner_cache: Dict[int, List[int]],
        start: int,
        clock: float,
        store: bool = True,
    ) -> Tuple[List[L1Piece], int]:
        """Chunk ``data`` into replicated pieces round-robin over
        ``nodes``; sized bytes beyond ``len(data)`` (pad, virtual
        payload) are charged to the last piece's owner.  Returns the
        pieces and the advanced round-robin counter."""
        spans = _chunk_spans(len(data), self.target_bytes)
        extra = max(0, charged_total - len(data))
        # views of the one captured buffer: a replica is charged, not copied
        data = memoryview(data).toreadonly()
        pieces = []
        for i, (off, n) in enumerate(spans):
            owner = nodes[(start + i) % len(nodes)]
            if owner not in partner_cache:
                partner_cache[owner] = select_partners(
                    self.machine, owner, k=self.k,
                    events=self.events, clock=clock,
                )
            charged = n + (extra if i == len(spans) - 1 else 0)
            chunk = data[off : off + n]
            piece = L1Piece(
                key=f"{file}#{i:06d}",
                offset=off,
                nbytes=n if store else 0,
                sha1=_hashed(chunk),
                replicas=[owner, *partner_cache[owner]],
            )
            if store:
                with self._lock:
                    for node in piece.replicas:
                        self._node_mem(node)[piece.key] = chunk
            acct.copy(owner, charged)
            for partner in partner_cache[owner]:
                acct.send(owner, partner, charged)
            pieces.append(piece)
        fr = get_flight()
        if fr.enabled:
            for p in pieces:
                fr.record(
                    "replica_placed", node=p.owner, time=clock,
                    key=p.key, nbytes=p.nbytes, replicas=list(p.replicas),
                )
        return pieces, start + len(spans)

    def capture_drms(
        self,
        prefix: str,
        segment: DataSegment,
        arrays: Sequence[DistributedArray],
        order: str = "F",
        nodes: Optional[Sequence[int]] = None,
        app_name: str = "",
        clock: float = 0.0,
    ) -> Tuple[L1Generation, CheckpointBreakdown]:
        """Capture a DRMS-style generation into node memory.

        Same content as :func:`~repro.checkpoint.drms.drms_checkpoint`
        — segment header + canonical per-array streams — but replicated
        across memories at memory/switch speed.  Returns the generation
        and a :class:`CheckpointBreakdown` of kind ``mlck-l1``.
        """
        check_order(order)
        ntasks = _common_ntasks(arrays)
        nodes = self._capture_nodes(prefix, nodes)
        partner_cache: Dict[int, List[int]] = {}
        bd = CheckpointBreakdown(kind="mlck-l1", prefix=prefix, ntasks=ntasks)
        obs = get_tracer()
        gen = L1Generation(
            prefix=prefix, ntasks=ntasks, order=order, app_name=app_name,
        )
        with obs.span(
            "checkpoint", kind="mlck-l1", prefix=prefix, ntasks=ntasks,
            app=app_name,
        ) as op:
            header, pad = segment.serialize()
            gen.segment_bytes = len(header) + pad
            gen.segment_sha1 = _hashed(header)
            gen.segment_sha1_bytes = len(header)
            acct = _Accounting(self.machine)
            with obs.span(
                "l1_segment_capture", file=segment_name(prefix)
            ) as sp:
                gen.segment_pieces, rr = self._capture_stream(
                    acct, segment_name(prefix), header, gen.segment_bytes,
                    nodes, partner_cache, 0, clock,
                )
                sec = acct.seconds()
                obs.advance(sec)
                sp.set(nbytes=gen.segment_bytes, seconds=sec)
            bd.segment_seconds = sec
            bd.segment_bytes = gen.segment_bytes

            for a in arrays:
                fname = array_name(prefix, a.name)
                stream = stream_u8(a, order=order) if a.store_data else b""
                charged = len(stream) if a.store_data else int(a.nbytes_global)
                acct = _Accounting(self.machine)
                with obs.span(f"l1_replicate:{a.name}", file=fname) as sp:
                    pieces, rr = self._capture_stream(
                        acct, fname, stream, charged, nodes, partner_cache,
                        rr, clock, store=a.store_data,
                    )
                    sec = acct.seconds()
                    obs.advance(sec)
                    sp.set(nbytes=charged, pieces=len(pieces), seconds=sec)
                gen.arrays.append(
                    L1ArrayEntry(
                        name=a.name,
                        file=fname,
                        shape=list(a.shape),
                        dtype=np_dtype_name(a.dtype),
                        nbytes=charged,
                        sha1=_hashed(stream) if a.store_data else None,
                        virtual=not a.store_data,
                        distribution=distribution_to_spec(a.distribution),
                        pieces=pieces if a.store_data else [],
                    )
                )
                bd.arrays_seconds += sec
                bd.arrays_bytes += charged
                bd.per_array.append((a.name, sec, charged))
            op.set(nbytes=bd.total_bytes, seconds=bd.total_seconds)
        return self._captured(gen, bd, clock)

    def _capture_nodes(self, prefix: str, nodes: Optional[Sequence[int]]) -> List[int]:
        """The nodes a capture of ``prefix`` spreads its pieces over
        (default: every up node); refuses a prefix already captured."""
        with self._lock:
            if prefix in self._gens:
                raise CheckpointError(
                    f"L1 generation {prefix!r} already captured"
                )
        nodes = list(nodes) if nodes is not None else self.machine.up_nodes()
        if not nodes:
            raise CheckpointError("no up nodes to hold the L1 checkpoint")
        return nodes

    def _captured(
        self, gen: L1Generation, bd: CheckpointBreakdown, clock: float
    ) -> Tuple[L1Generation, CheckpointBreakdown]:
        """Register a finished capture and publish its accounting."""
        gen.capture_seconds = bd.total_seconds
        gen.captured_at = clock
        with self._lock:
            self._gens[gen.prefix] = gen
        _publish_breakdown("checkpoint", bd)
        m = get_tracer().metrics
        m.counter("mlck.l1.captures").inc()
        m.counter("mlck.l1.capture.bytes").inc(bd.total_bytes)
        get_flight().record(
            "l1_captured", time=clock, prefix=gen.prefix,
            nbytes=bd.total_bytes, seconds=bd.total_seconds,
        )
        self._update_resident_gauge()
        return gen, bd

    def _node_mem(self, node_id: int) -> Dict[str, bytes]:
        """The memory dict of ``node_id``, invalidating any bytes that
        were stored against an earlier incarnation of the node (a fail +
        repair cycle wipes real memory, so it must wipe ours).  Caller
        holds ``_lock``."""
        inc = self.machine.node(node_id).incarnation
        if self._mem_epoch.get(node_id, inc) != inc:
            self._mem[node_id] = {}
        self._mem_epoch[node_id] = inc
        return self._mem.setdefault(node_id, {})

    # -- liveness, verification and fetch -------------------------------------

    def _replica_live(self, piece: L1Piece, node: int) -> bool:
        """Liveness, O(1): ``node`` is up, on the incarnation its bytes
        were stored under, and holds ``piece.nbytes`` bytes of it."""
        if not (0 <= node < self.machine.num_nodes):
            return False
        n = self.machine.node(node)
        if not n.up or self._mem_epoch.get(node) != n.incarnation:
            return False
        data = self._mem.get(node, {}).get(piece.key)
        return data is not None and len(data) == piece.nbytes

    def _verified_bytes(self, piece: L1Piece, node: int):
        """Verification: ``node``'s bytes of ``piece`` when live and
        hashing to the capture-time SHA-1, else None — the one gate
        replica bytes leave node memory through."""
        if not self._replica_live(piece, node):
            return None
        data = self._mem[node][piece.key]
        return data if _hashed(data) == piece.sha1 else None

    def _replica_valid(self, piece: L1Piece, node: int) -> bool:
        """True when ``node`` holds a live, checksum-valid replica of
        ``piece`` (a full hash: the audit's question, not the scrub's)."""
        return self._verified_bytes(piece, node) is not None

    def _serve(self, piece: L1Piece):
        """``(node, bytes)`` of the first replica, owner first, whose
        bytes verify; None when no replica does."""
        for node in piece.replicas:
            data = self._verified_bytes(piece, node)
            if data is not None:
                return node, data
        return None

    def validate_generation(self, prefix: str) -> ValidationReport:
        """Audit one L1 generation: every piece must have at least one
        surviving, checksum-valid replica (a full hash pass).  Collects
        problems like
        :func:`~repro.checkpoint.validate.validate_checkpoint` so the
        tier-aware audit walk can rank candidates."""
        report = ValidationReport(prefix=prefix)
        with self._lock:
            gen = self._gens.get(prefix)
            if gen is None:
                report.errors.append(
                    f"generation {prefix!r} was never captured in L1"
                )
                return report
            # the stored streams: the segment and every data array
            report.files = 1 + sum(not e.virtual for e in gen.arrays)
            for piece in gen.pieces():
                if self._serve(piece) is None:
                    report.errors.append(
                        f"piece {piece.key!r}: no surviving valid "
                        f"replica (replicas {piece.replicas})"
                    )
                else:
                    report.bytes_hashed += piece.nbytes
        m = get_tracer().metrics
        m.counter("mlck.l1.validations").inc()
        if not report.ok:
            m.counter("mlck.l1.validation_failures").inc()
        return report

    def _fetch_pieces(
        self, pieces: Sequence[L1Piece], nbytes: int
    ) -> Tuple[List[bytes], List[int]]:
        """The verifying fetch of one stream of ``nbytes`` stored bytes:
        each piece comes from its first replica whose bytes hash to the
        capture-time digest, and the pieces must tile the stream —
        which together say what a hash of the concatenation would.
        Returns the bytes of each piece (references, not yet joined)
        and the node that served it; raises
        :class:`~repro.errors.MemoryTierError` on a piece no replica
        can serve."""
        ends = list(accumulate((p.nbytes for p in pieces), initial=0))
        if [p.offset for p in pieces] != ends[:-1] or ends[-1] != nbytes:
            raise MemoryTierError(
                f"pieces {[p.key for p in pieces]} do not tile a stream of "
                f"{nbytes} stored bytes"
            )
        m = get_tracer().metrics
        chunks, nodes = [], []
        with self._lock:
            for piece in pieces:
                served = self._serve(piece)
                if served is None:
                    raise MemoryTierError(
                        f"piece {piece.key!r}: no surviving valid replica "
                        f"(replicas {piece.replicas})"
                    )
                node, data = served
                nodes.append(node)
                chunks.append(data)
                if node != piece.owner:
                    m.counter("mlck.l1.partner_serves").inc()
        return chunks, nodes

    # -- restore -------------------------------------------------------------

    def restore_drms(
        self,
        prefix: str,
        ntasks: int,
        order: Optional[str] = None,
        distribution_overrides: Optional[Dict[str, object]] = None,
        init_seconds: float = 0.0,
    ) -> Tuple[RestoredState, RestartBreakdown]:
        """Restore a DRMS generation from surviving L1 replicas onto
        ``ntasks`` tasks (reconfiguration included — the canonical
        stream is distribution-independent regardless of tier):
        :func:`~repro.checkpoint.drms.restore` over an
        :class:`L1ReplicaSource` that charges every byte across the
        switch to the task that needs it.

        ``init_seconds`` charges the fixed restart initialization
        (text-segment load), which happens whatever tier serves the
        state.  Raises :class:`~repro.errors.MemoryTierError` when any
        piece has lost every valid replica.
        """
        source = L1ReplicaSource(self, prefix, SwitchFetch(self), init_seconds)
        state, bd = restore(source, ntasks, order, distribution_overrides)
        m = get_tracer().metrics
        m.counter("mlck.l1.restores").inc()
        m.counter("mlck.restore.l1.seconds").inc(bd.total_seconds)
        return state, bd

    # -- drain support -------------------------------------------------------

    def stored_streams(self, prefix: str) -> Tuple[DataSegment, List[StoredStream]]:
        """The segment and the stored streams of a DRMS generation, as
        the drain replays them through
        :func:`~repro.checkpoint.drms.drms_checkpoint`: each array under
        its original distribution, with the bytes of its pieces — every
        one verified by this fetch — and the stream digest taken at
        capture.  Uncharged: the drain's measured cost is its PFS write."""
        gen = self.gen(prefix)
        head, _ = self._fetch_pieces(gen.segment_pieces, gen.segment_sha1_bytes)
        streams = []
        for e in gen.arrays:
            data = None
            if not e.virtual:
                chunks, _ = self._fetch_pieces(e.pieces, e.nbytes)
                data = memoryview(b"".join(chunks))
            streams.append(
                StoredStream(
                    name=e.name,
                    shape=tuple(e.shape),
                    dtype=np.dtype(e.dtype),
                    distribution=spec_to_distribution(
                        e.distribution, ntasks=gen.ntasks
                    ),
                    order=gen.order,
                    stream=data,
                    sha1=e.sha1,
                )
            )
        return DataSegment.deserialize(b"".join(head)), streams


class SwitchFetch:
    """Accountant of a full restart from L1: every restarting task pulls
    the bytes it needs from the serving replicas over the switch."""

    kind = "mlck-l1"
    array_span = "l1_fetch"

    def __init__(self, store: L1Store):
        self.store = store
        self.requesters: List[int] = []

    def begin(self, source: "L1ReplicaSource", ntasks: int) -> None:
        """The restarting tasks sit on the first ``ntasks`` up nodes."""
        self.requesters = (self.store.machine.up_nodes() or [0])[:ntasks]

    def segment(self, acct: _Accounting, gen: L1Generation, nodes: Sequence[int]) -> None:
        """Every restarting task needs the segment; the replicas that
        served its pieces (``nodes``) serve the tasks in parallel."""
        requesters = self.requesters
        acct.fetch(gen.segment_pieces, nodes, requesters[0])
        servers = sorted(set(nodes)) or [requesters[0]]
        # remaining tasks pull the same (sized) segment bytes
        for i, task_node in enumerate(requesters[1:], start=1):
            acct.send(servers[i % len(servers)], task_node, gen.segment_bytes)
        # the sized pad rides the first fetch too
        acct.send(
            servers[0], requesters[0],
            max(0, gen.segment_bytes - gen.segment_sha1_bytes),
        )

    def array(
        self, acct: _Accounting, index: int, entry: L1ArrayEntry,
        nodes: Sequence[int],
    ) -> Dict[str, int]:
        """Arrays go round-robin to the requesters, each pulling its
        whole stream from ``nodes``.  Returns the span's extra attributes."""
        requesters = self.requesters
        if entry.virtual:
            # sized virtual payload: charged over one link
            acct.send(requesters[0], requesters[-1], entry.nbytes)
        else:
            acct.fetch(entry.pieces, nodes, requesters[index % len(requesters)])
        return {}


class L1ReplicaSource:
    """Generation source over the surviving replicas of one L1
    generation (see :func:`~repro.checkpoint.drms.restore`).

    *Opening* the source is the one hash pass of a restore from memory:
    the constructor checks liveness, then runs the verifying fetch over
    the segment and every stored array and holds the served bytes as
    references, raising :class:`~repro.errors.MemoryTierError` there —
    before :func:`~repro.checkpoint.drms.restore` opens a span or
    charges a second, and before corrupt bytes can reach an array.

    *Who pays for which byte* is the ``accountant``'s:
    :class:`SwitchFetch` for a full restart,
    :class:`~repro.mlck.localized.SurvivorLocal` for a localized one.
    An accountant names the breakdown ``kind`` and the per-array span
    stem, learns the task count in ``begin(source, ntasks)``, and
    charges, from the serving node the fetch reported per piece, in
    ``segment(acct, gen, nodes)`` / ``array(acct, index, entry, nodes)``."""

    def __init__(
        self, store: L1Store, prefix: str, accountant, init_seconds: float = 0.0
    ):
        gen = store.gen(prefix)
        self.store = store
        self.gen = gen
        self.prefix = prefix
        self.accountant = accountant
        self.kind = accountant.kind
        self.spans = ("l1_segment_fetch", accountant.array_span)
        self.init_seconds = float(init_seconds)
        self.manifest = {
            "kind": "drms",
            "tier": "l1",
            "app_name": gen.app_name,
            "ntasks": gen.ntasks,
            "order": gen.order,
            "segment_file": segment_name(prefix),
            "segment_bytes": gen.segment_bytes,
            "segment_sha1": gen.segment_sha1,
            "segment_sha1_bytes": gen.segment_sha1_bytes,
            "arrays": [
                {
                    key: getattr(e, key)
                    for key in (
                        "name", "shape", "dtype", "file", "nbytes", "sha1",
                        "virtual", "distribution",
                    )
                }
                for e in gen.arrays
            ],
        }
        self._entries = {e.name: (i, e) for i, e in enumerate(gen.arrays)}
        # liveness first: a piece with no live replica costs no hashing
        with store._lock:
            for piece in gen.pieces():
                if not any(store._replica_live(piece, n) for n in piece.replicas):
                    raise MemoryTierError(
                        f"piece {piece.key!r}: no surviving valid replica "
                        f"(replicas {piece.replicas})"
                    )
        #: file -> (bytes of each piece, node that served it), for the
        #: segment and every stored array: the open
        self._fetched = {
            self.manifest["segment_file"]: store._fetch_pieces(
                gen.segment_pieces, gen.segment_sha1_bytes
            )
        }
        for e in gen.arrays:
            if not e.virtual:
                self._fetched[e.file] = store._fetch_pieces(e.pieces, e.nbytes)
        get_tracer().metrics.counter("mlck.l1.hits").inc(
            sum(len(nodes) for _, nodes in self._fetched.values())
        )

    def fetch_segment(self, ntasks: int) -> Tuple[bytes, float, int]:
        """The segment header as fetched; every task is charged the
        whole (sized) segment as the accountant sees fit."""
        self.accountant.begin(self, ntasks)
        acct = _Accounting(self.store.machine)
        chunks, nodes = self._fetched[self.manifest["segment_file"]]
        self.accountant.segment(acct, self.gen, nodes)
        return b"".join(chunks), acct.seconds(), self.gen.segment_bytes * ntasks

    def load_array(
        self, arr: DistributedArray, spec: Dict, order: str
    ) -> Tuple[float, int, Dict[str, int]]:
        """Join one array's verified pieces and hand the stream to
        ``arr`` under its (new) distribution."""
        index, e = self._entries[spec["name"]]
        chunks, nodes = self._fetched.get(e.file, ([], []))
        acct = _Accounting(self.store.machine)
        attrs = self.accountant.array(acct, index, e, nodes)
        if not e.virtual:
            arr.set_global(
                bytes_to_section(b"".join(chunks), e.shape, e.dtype, order)
            )
        return acct.seconds(), e.nbytes, attrs
