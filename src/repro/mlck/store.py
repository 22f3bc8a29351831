"""The L1 tier: replicated in-memory checkpoint storage.

An L1 generation is the one capture (:func:`~repro.checkpoint.drms.capture`)
into an :class:`L1ReplicaSink`: the manifest it assembled — the one its
drain commits — plus the bytes a PFS (L2) checkpoint stores, the
segment header and each array's canonical stream, kept in the memory
of the simulated nodes (:attr:`~repro.runtime.machine.Node.memory`) as
*pieces* replicated onto ``k`` partner nodes in other failure domains
(:mod:`repro.mlck.placement`).  A copy lives and dies with its node:
a failed node's copies are unreachable, a repaired one comes back
empty, and the store keeps only the index — each piece's replica
list — of which keys it wrote where.  Capture
therefore costs memory copies and switch transfers (hundreds of MB/s)
instead of PFS writes (single-digit MB/s), and recovery from a single
node failure is served entirely from surviving replicas: no PFS read
at all.

Integrity is the manifest's: a piece is one ``target_bytes`` span of
its stream, and its digest is that span's SHA-1 — one of the span
digests the manifest's stream digest is made of
(:func:`~repro.streaming.order.stream_sha1`), so one pass at capture
yields both.  A replica that decayed (or a node
that died) is detected exactly like a torn PFS file.  Who hashes when
(DESIGN.md §12): a byte is hashed once when it is captured and when it
is handed to someone, never to answer a question about a replica.
*Liveness* (:meth:`L1Store.replica_live`, O(1): node up, key present,
length right) is all a replica-list scrub, a choice of charged servers
or a health gauge needs; *verification* (the SHA-1)
is done by the fetch (:meth:`L1Store._fetch`) on the replica it
serves — once per byte delivered to a restore, the drain or a new
replica — and by :meth:`L1Store.validate_generation`, the full audit
(a restart's walk opens instead: liveness, then the fetch).  Every
pass is counted by :func:`_counted`.

Like the PFS segment file, the bulk byte components (segment pad,
virtual arrays) are *sized*, not stored: timing charges the full
logical bytes while memory holds only the exact header/stream content.

Timing model: per-node busy time is ``local_copied/mem_copy_rate +
sent/link_rate + latency*messages + received/mem_copy_rate``; a capture
or fetch takes the maximum busy time over the nodes involved (they
proceed in parallel, like the parstream I/O tasks).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.darray import DistributedArray
from repro.arrays.slices import Slice
from repro.checkpoint.drms import (
    CheckpointBreakdown,
    RestartBreakdown,
    RestoredState,
    capture,
    restore,
)
from repro.checkpoint.format import sha1_hex, spec_to_distribution
from repro.checkpoint.segment import DataSegment
from repro.checkpoint.validate import ValidationReport
from repro.errors import CheckpointError, MemoryTierError
from repro.mlck.placement import select_partners
from repro.obs import emit_event, get_flight, get_tracer
from repro.runtime.clock import now
from repro.runtime.machine import Machine
from repro.streaming.order import stream_sha1, stream_spans
from repro.streaming.serial import StoredStream, stream_u8
from repro.streaming.vectorized import scatter_section_flat

__all__ = [
    "L1Piece",
    "L1Generation",
    "L1Store",
    "L1ReplicaSink",
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
class L1Generation:
    """One captured DRMS generation in node memory: the manifest its
    capture assembled (:func:`~repro.checkpoint.drms.capture` — the same
    one its drain commits), the resident pieces of each stored stream,
    and the drain state machine's position (see
    :class:`~repro.mlck.drain.DrainController`)."""

    prefix: str
    manifest: Dict
    #: stored file -> its pieces: the segment header, then every data
    #: array's stream (a virtual array stores nothing)
    files: Dict[str, List[L1Piece]]
    #: its ``l1_captured`` record's time (drives the health cadence gauges)
    captured_at: float
    #: drain state machine: pending -> draining -> durable | failed
    drain_state: str = "pending"
    drain_error: Optional[str] = None

    def pieces(self) -> Iterator[L1Piece]:
        """Every piece of the generation: segment, then arrays."""
        for pieces in self.files.values():
            yield from pieces

    @property
    def resident_bytes(self) -> int:
        """Bytes actually held in memory (one copy), not charged bytes."""
        return sum(p.nbytes for p in self.pieces())


def _counted(nbytes: int) -> None:
    """Count a hash pass: ``mlck.l1.verified.bytes`` is the tier's whole
    hashing volume (capture, audit, fetch, repair)."""
    get_tracer().metrics.counter("mlck.l1.verified.bytes").inc(nbytes)


def _hashed(data) -> str:
    """SHA-1 of ``data``, counted."""
    _counted(len(data))
    return sha1_hex(data)


class _Accounting:
    """Per-node busy-time accumulator for one capture/fetch round."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.local, self.sent, self.msgs, self.recv = (Counter() for _ in range(4))

    def copy(self, node: int, nbytes: int) -> None:
        self.local[node] += nbytes

    def send(self, src: int, dst: int, nbytes: int) -> None:
        self.sent[src] += nbytes
        self.msgs[src] += 1
        self.recv[dst] += nbytes

    def fetch(
        self, chunks: Sequence[bytes], nodes: Sequence[int], requester: int
    ) -> None:
        """``requester`` pulls each served piece from the node that
        served it (a local copy when that is the requester itself)."""
        for chunk, node in zip(chunks, nodes):
            if node != requester:
                self.send(node, requester, len(chunk))
            else:
                self.copy(node, len(chunk))

    def seconds(self) -> float:
        p = self.machine.params
        mem_bw = p.mem_copy_mbps * _MB
        link_bw = p.link_bandwidth_mbps * _MB
        busy = 0.0
        for node in set(self.local) | set(self.sent) | set(self.recv):
            t = (
                self.local[node] / mem_bw
                + self.sent[node] / link_bw
                + self.msgs[node] * p.link_latency_s
                + self.recv[node] / mem_bw
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
        self._gens: "OrderedDict[str, L1Generation]" = OrderedDict()

    # -- bookkeeping ---------------------------------------------------------

    def generations(self) -> List[str]:
        """Captured prefixes, oldest first."""
        return list(self._gens)

    def latest(self) -> Optional[str]:
        gens = self.generations()
        return gens[-1] if gens else None

    def gen(self, prefix: str) -> L1Generation:
        """The resident generation under ``prefix``; raises
        :class:`~repro.errors.MemoryTierError` if never captured."""
        try:
            return self._gens[prefix]
        except KeyError:
            raise MemoryTierError(
                f"generation {prefix!r} was never captured in L1"
            ) from None

    def has(self, prefix: str) -> bool:
        return prefix in self._gens

    def _copies(self) -> Iterator[Tuple[L1Piece, int]]:
        """Every ``(piece, node)`` this store's replica lists name — its
        index into node memory."""
        for gen in self._gens.values():
            for piece in gen.pieces():
                for node in piece.replicas:
                    yield piece, node

    def resident_bytes(self) -> int:
        """Bytes this store's listed copies hold in node memory
        (replicas counted)."""
        return sum(
            len(self.machine.node(node).memory.get(piece.key, b""))
            for piece, node in self._copies()
        )

    def _update_resident_gauge(self) -> None:
        get_tracer().metrics.gauge("mlck.l1.resident_bytes").set(
            self.resident_bytes()
        )

    def discard(self, prefix: str) -> None:
        """Drop a generation and free its replicas (retention/eviction)."""
        gen = self._gens.pop(prefix, None)
        if gen is None:
            return
        for piece in gen.pieces():
            for node in piece.replicas:
                self.machine.node(node).memory.pop(piece.key, None)
        self._update_resident_gauge()

    # -- node failure --------------------------------------------------------

    def drop_node(self, node_id: int) -> int:
        """A node died: its memory — and every replica of this store it
        held — is gone.  Returns the number of piece copies lost; emits
        a ``mlck_replicas_lost`` event when any were.  The node stays
        listed until a repair pass scrubs it."""
        memory = self.machine.node(node_id).memory
        lost = sum(
            memory.pop(piece.key, None) is not None
            for piece, node in self._copies()
            if node == node_id
        )
        if lost:
            emit_event(self.events, "mlck_replicas_lost", node=node_id, pieces=lost)
            get_flight().auto_blackbox(node_id, reason="l1 memory lost")
        self._update_resident_gauge()
        return lost

    def sync_with_machine(self) -> int:
        """Drop every down node this store's pieces list (see
        :meth:`drop_node`); returns the piece copies lost."""
        listed = dict.fromkeys(node for _, node in self._copies())
        return sum(
            self.drop_node(node) for node in listed
            if not self.machine.node(node).up
        )

    # -- capture -------------------------------------------------------------

    def capture_drms(
        self,
        prefix: str,
        segment: DataSegment,
        arrays: Sequence[DistributedArray],
        order: str = "F",
        nodes: Optional[Sequence[int]] = None,
        app_name: str = "",
        ntasks: Optional[int] = None,
    ) -> Tuple[L1Generation, CheckpointBreakdown]:
        """Capture a DRMS generation of a run on ``ntasks`` tasks
        (default: the arrays') into node memory:
        :func:`~repro.checkpoint.drms.capture` into an
        :class:`L1ReplicaSink` over ``nodes``.  Same content and
        manifest as :func:`~repro.checkpoint.drms.drms_checkpoint`, at
        memory/switch speed.  Returns the generation and a
        :class:`CheckpointBreakdown` of kind ``mlck-l1``."""
        sink = L1ReplicaSink(self, prefix, nodes)
        bd = capture(sink, prefix, segment, arrays, order, app_name, ntasks)
        return self.gen(prefix), bd

    # -- liveness, verification and fetch -------------------------------------

    def _live_bytes(self, piece: L1Piece, node: int):
        """``node``'s bytes of ``piece`` when the copy is live, else
        None: the node is up and holds ``piece.nbytes`` bytes under the
        piece's key (a repair or a drop left none)."""
        n = self.machine.node(node)
        data = n.memory.get(piece.key) if n.up else None
        return data if data is not None and len(data) == piece.nbytes else None

    def replica_live(self, piece: L1Piece, node: int) -> bool:
        """Liveness, O(1) — the tier's one rule of which copies count:
        node up, key present, length right."""
        return self._live_bytes(piece, node) is not None

    def _verified_bytes(self, piece: L1Piece, node: int):
        """Verification: ``node``'s bytes of ``piece`` when live and
        hashing to the capture-time SHA-1, else None — the one gate
        replica bytes leave node memory through."""
        data = self._live_bytes(piece, node)
        return data if data is not None and _hashed(data) == piece.sha1 else None

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
        gen = self._gens.get(prefix)
        if gen is None:
            report.errors.append(
                f"generation {prefix!r} was never captured in L1"
            )
            return report
        report.files = len(gen.files)
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

    def _fetch(self, gen: L1Generation) -> Dict[str, Tuple[List[bytes], List[int]]]:
        """The verifying fetch of every stored stream of ``gen``, the
        segment header first: per file, the bytes of each piece
        (references, not yet copied) and the node that served it.  Each
        piece comes from its first replica whose bytes hash to the
        capture-time digest, and the pieces must tile the stored bytes
        the manifest records — which together say what a hash of the
        concatenation would.  Raises
        :class:`~repro.errors.MemoryTierError` on a piece no replica
        can serve."""
        m = gen.manifest
        stored = [(m["segment_file"], m["segment_sha1_bytes"])] + [
            (spec["file"], spec["nbytes"])
            for spec in m["arrays"]
            if not spec["virtual"]
        ]
        metrics = get_tracer().metrics
        fetched = {}
        for file, nbytes in stored:
            pieces = gen.files[file]
            ends = list(accumulate((p.nbytes for p in pieces), initial=0))
            if [p.offset for p in pieces] != ends[:-1] or ends[-1] != nbytes:
                raise MemoryTierError(
                    f"pieces {[p.key for p in pieces]} do not tile a stream "
                    f"of {nbytes} stored bytes"
                )
            chunks, nodes = fetched[file] = [], []
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
                    metrics.counter("mlck.l1.partner_serves").inc()
        return fetched

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
        m = gen.manifest
        fetched = self._fetch(gen)
        streams = [
            StoredStream(
                name=spec["name"],
                shape=tuple(spec["shape"]),
                dtype=np.dtype(spec["dtype"]),
                distribution=spec_to_distribution(
                    spec["distribution"], ntasks=m["ntasks"]
                ),
                order=m["order"],
                stream=None if spec["virtual"]
                else memoryview(b"".join(fetched[spec["file"]][0])),
                sha1=spec["sha1"],
                span_bytes=spec["span_bytes"],
            )
            for spec in m["arrays"]
        ]
        head = b"".join(fetched[m["segment_file"]][0])
        return DataSegment.deserialize(head), streams


class L1ReplicaSink:
    """Generation sink into node memory (see
    :func:`~repro.checkpoint.drms.capture`): each stored stream is
    chunked into pieces placed round-robin over ``nodes`` (default:
    every up node) and replicated onto each owner's ``k`` partners,
    charged as memory copies and switch transfers — the segment and
    every array one round; the commit writes every piece into its
    replicas' memory and registers the generation that lists them."""

    kind = "mlck-l1"
    spans = ("l1_segment_capture", "l1_replicate")

    def __init__(
        self, store: L1Store, prefix: str, nodes: Optional[Sequence[int]]
    ):
        if store.has(prefix):
            raise CheckpointError(f"L1 generation {prefix!r} already captured")
        self.nodes = list(nodes) if nodes is not None else store.machine.up_nodes()
        if not self.nodes:
            raise CheckpointError("no up nodes to hold the L1 checkpoint")
        self.store = store
        self.files: Dict[str, List[L1Piece]] = {}
        #: each stored piece's bytes, written only by the commit, so a
        #: capture that fails leaves no unlisted bytes in node memory
        self._chunks: List[Tuple[L1Piece, memoryview]] = []
        self._partners: Dict[int, List[int]] = {}
        #: pieces placed so far: the round-robin position over ``nodes``
        self._placed = 0

    def _replicate(
        self, file: str, data, charged: int, stored: bool
    ) -> Tuple[float, List[L1Piece], str]:
        """One round: cut ``data`` into replicated pieces, one per
        ``target_bytes`` span, each recording its span digest (kept in
        :attr:`files` when ``stored``); the sized bytes beyond
        ``len(data)`` (pad, virtual payload) are charged to the last
        piece's owner.  Returns the round's seconds, its pieces and the
        stream digest — the one hash pass over ``data``."""
        store, acct = self.store, _Accounting(self.store.machine)
        spans = stream_spans(len(data), store.target_bytes)
        _counted(len(data))
        sha1, digests = stream_sha1(data, store.target_bytes)
        extra = max(0, charged - len(data))
        # views of the one captured buffer: a replica is charged, not copied
        data = memoryview(data).toreadonly()
        pieces = []
        for i, ((off, n), digest) in enumerate(zip(spans, digests)):
            owner = self.nodes[(self._placed + i) % len(self.nodes)]
            if owner not in self._partners:
                self._partners[owner] = select_partners(
                    store.machine, owner, k=store.k, events=store.events
                )
            partners = self._partners[owner]
            chunk = data[off : off + n]
            piece = L1Piece(f"{file}#{i:06d}", off, n, digest, [owner, *partners])
            if stored:
                self._chunks.append((piece, chunk))
            nbytes = n + (extra if i == len(spans) - 1 else 0)
            acct.copy(owner, nbytes)
            for partner in partners:
                acct.send(owner, partner, nbytes)
            pieces.append(piece)
        for p in pieces:
            emit_event(
                None, "replica_placed", node=p.owner,
                key=p.key, nbytes=p.nbytes, replicas=list(p.replicas),
            )
        self._placed += len(pieces)
        if stored:
            self.files[file] = pieces
        return acct.seconds(), pieces, sha1

    def segment(self, file: str, header: bytes, pad: int) -> Tuple[float, int, str]:
        """Replicate the exact header; the sized pad is charged.  The
        header's digest is its plain SHA-1: the digest of its one piece,
        unless it spans several."""
        nbytes = len(header) + pad
        seconds, pieces, _ = self._replicate(file, header, nbytes, True)
        return seconds, nbytes, pieces[0].sha1 if len(pieces) == 1 else _hashed(header)

    def array(
        self, a: DistributedArray, file: str, order: str
    ) -> Tuple[float, int, Optional[str], Optional[int], Dict[str, int]]:
        """Replicate ``a``'s canonical stream, gathered in ``order``; a
        virtual array's sized payload is charged, nothing stored."""
        stream = stream_u8(a, order=order) if a.store_data else b""
        nbytes = len(stream) if a.store_data else int(a.nbytes_global)
        seconds, pieces, sha1 = self._replicate(file, stream, nbytes, a.store_data)
        if not a.store_data:
            return seconds, nbytes, None, None, {"pieces": len(pieces)}
        return seconds, nbytes, sha1, self.store.target_bytes, {"pieces": len(pieces)}

    def commit(self, manifest: Dict, bd: CheckpointBreakdown) -> None:
        """Write and register the generation; publish the tier's
        accounting."""
        store = self.store
        m = get_tracer().metrics
        m.counter("mlck.l1.captures").inc()
        m.counter("mlck.l1.capture.bytes").inc(bd.total_bytes)
        emit_event(
            None, "l1_captured", prefix=bd.prefix,
            nbytes=bd.total_bytes, seconds=bd.total_seconds,
        )
        for piece, chunk in self._chunks:
            for node in piece.replicas:
                store.machine.node(node).memory[piece.key] = chunk
        store._gens[bd.prefix] = L1Generation(
            bd.prefix, manifest, self.files, now()
        )
        store._update_resident_gauge()


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

    def segment(
        self, acct: _Accounting, manifest: Dict, chunks: Sequence[bytes], nodes
    ) -> None:
        """Every restarting task needs the segment; the replicas that
        served its pieces (``nodes``) serve the tasks in parallel."""
        requesters = self.requesters
        acct.fetch(chunks, nodes, requesters[0])
        servers = sorted(set(nodes)) or [requesters[0]]
        # remaining tasks pull the same (sized) segment bytes
        for i, task_node in enumerate(requesters[1:], start=1):
            acct.send(servers[i % len(servers)], task_node, manifest["segment_bytes"])
        # the sized pad rides the first fetch too
        acct.send(
            servers[0], requesters[0],
            max(0, manifest["segment_bytes"] - manifest["segment_sha1_bytes"]),
        )

    def array(
        self, acct: _Accounting, index: int, spec: Dict, chunks, nodes
    ) -> Dict[str, int]:
        """Arrays go round-robin to the requesters, each pulling its
        whole stream from ``nodes``.  Returns the span's extra attributes."""
        requesters = self.requesters
        if spec["virtual"]:
            # sized virtual payload: charged over one link
            acct.send(requesters[0], requesters[-1], spec["nbytes"])
        else:
            acct.fetch(chunks, nodes, requesters[index % len(requesters)])
        return {}


class L1ReplicaSource:
    """Generation source over the surviving replicas of one L1
    generation (see :func:`~repro.checkpoint.drms.restore`): its
    ``manifest`` is the one the capture assembled, marked ``tier``
    ``"l1"``.

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
    charges, from the bytes the fetch served per piece and the node
    that served each, in ``segment(acct, manifest, chunks, nodes)`` /
    ``array(acct, index, spec, chunks, nodes)``."""

    def __init__(
        self, store: L1Store, prefix: str, accountant, init_seconds: float
    ):
        gen = store.gen(prefix)
        self.store = store
        self.prefix = prefix
        self.accountant = accountant
        self.kind = accountant.kind
        self.spans = ("l1_segment_fetch", accountant.array_span)
        self.init_seconds = float(init_seconds)
        self.manifest = dict(gen.manifest, tier="l1")
        self._index = {s["name"]: i for i, s in enumerate(self.manifest["arrays"])}
        # liveness first: a piece with no live replica costs no hashing
        for piece in gen.pieces():
            if not any(store.replica_live(piece, n) for n in piece.replicas):
                raise MemoryTierError(
                    f"piece {piece.key!r}: no surviving valid replica "
                    f"(replicas {piece.replicas})"
                )
        #: file -> (bytes of each piece, node that served it), for the
        #: segment and every stored array: the open
        self._fetched = store._fetch(gen)
        get_tracer().metrics.counter("mlck.l1.hits").inc(
            sum(len(nodes) for _, nodes in self._fetched.values())
        )

    def fetch_segment(self, ntasks: int) -> Tuple[bytes, float, int]:
        """The segment header as fetched; every task is charged the
        whole (sized) segment as the accountant sees fit."""
        self.accountant.begin(self, ntasks)
        acct = _Accounting(self.store.machine)
        m = self.manifest
        chunks, nodes = self._fetched[m["segment_file"]]
        self.accountant.segment(acct, m, chunks, nodes)
        return b"".join(chunks), acct.seconds(), m["segment_bytes"] * ntasks

    def load_array(
        self, arr: DistributedArray, spec: Dict, order: str
    ) -> Tuple[float, int, Dict[str, int]]:
        """Copy one array's verified pieces into one stream buffer and
        scatter it into ``arr`` under its (new) distribution."""
        chunks, nodes = self._fetched.get(spec["file"], ([], []))
        acct = _Accounting(self.store.machine)
        attrs = self.accountant.array(
            acct, self._index[spec["name"]], spec, chunks, nodes
        )
        if not spec["virtual"]:
            flat = np.empty(arr.size, arr.dtype)
            stream, pos = flat.view(np.uint8), 0
            for chunk in chunks:
                stream[pos:pos + len(chunk)] = np.frombuffer(chunk, np.uint8)
                pos += len(chunk)
            scatter_section_flat(arr, Slice.full(arr.shape), flat, order)
        return acct.seconds(), spec["nbytes"], attrs
