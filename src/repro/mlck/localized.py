"""Localized recovery: rebuild only what the dead nodes took with them.

The full-restart protocol (paper Section 4) kills the whole application
and restores every task's state, even though the multi-level store's L1
replicas mean most of that state never left surviving memory.  This
module implements the localized alternative (Fohry-style, cf. ReStore's
in-memory replicas): on a node-failure event the survivors quiesce at
the next synchronization point, the recovery protocol computes the
*rebuild scope* — exactly the stream bytes whose assigned owner rank
was placed on a dead node — rebuilds only those sections from surviving
L1 replicas (zero PFS reads on the happy path), re-places the lost
replicas outside the replacement node's failure domain, and resumes.

Semantics are unchanged: all tasks roll back to the same checkpoint
generation, so the post-recovery state is byte-identical to a full
restart from the same generation (the :mod:`repro.verify` oracle's
``localized`` mode proves this differentially).  What changes is the
*cost model*: survivors reload their own sections from node-local
replica memory at ``mem_copy_mbps``, only the lost ranks' bytes cross
the switch, and no whole-pool TC restart happens — which is why
localized L1 recovery beats the full restart's latency
(``benchmarks/bench_localized_recovery.py``).

When the chosen generation cannot be served from L1 (e.g. every replica
of some piece sat inside one failed frame), the survivors' own copies
of that generation are gone too, so localized recovery degrades to the
newest byte-valid PFS generation — a full read, correctly charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.slices import Slice
from repro.checkpoint.drms import (
    RestartBreakdown,
    RestoredState,
    drms_restart,
    open_generation,
    restart_distribution,
    restore,
)
from repro.mlck.placement import ranked_nodes
from repro.mlck.store import (
    L1Piece, L1ReplicaSource, L1Store, SwitchFetch, _Accounting,
)
from repro.obs import emit_event, get_tracer
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine
from repro.streaming.order import check_order
from repro.streaming.vectorized import _cached_index_plan

__all__ = [
    "ArrayScope",
    "RebuildScope",
    "compute_rebuild_scope",
    "SurvivorLocal",
    "localized_opener",
    "localized_restore_drms",
    "localized_restart",
    "rereplicate_after_failure",
]


@dataclass(frozen=True)
class ArrayScope:
    """One array's share of a rebuild scope."""

    name: str
    #: logical stream bytes of the whole array
    nbytes: int
    #: stream bytes whose assigned owner rank was lost
    lost_bytes: int
    #: merged, sorted ``(start, stop)`` byte intervals of the lost
    #: stream positions — the only intervals a localized rebuild moves
    lost_intervals: Tuple[Tuple[int, int], ...]
    #: stream bytes assigned per rank (partial-INDEXED holes excluded)
    rank_bytes: Dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RebuildScope:
    """What a localized recovery must rebuild, and for whom.

    ``lost_ranks`` are the ranks whose placement node died;
    ``replacements`` maps each lost rank to the node taking it over.
    Byte accounting comes from the checkpoint's "assigned" section
    index plans (:mod:`repro.streaming.vectorized`), so the scope is
    exact down to partial-INDEXED holes.
    """

    prefix: str
    ntasks: int
    failed_nodes: Tuple[int, ...]
    lost_ranks: Tuple[int, ...]
    survivor_ranks: Tuple[int, ...]
    #: lost rank -> replacement node id
    replacements: Dict[int, int]
    #: surviving rank -> node id (unchanged placement)
    placement: Dict[int, int]
    segment_bytes: int
    arrays: Tuple[ArrayScope, ...]

    @property
    def lost_bytes(self) -> int:
        return sum(a.lost_bytes for a in self.arrays)

    @property
    def total_bytes(self) -> int:
        return sum(a.nbytes for a in self.arrays)

    @property
    def lost_fraction(self) -> float:
        total = self.total_bytes
        return self.lost_bytes / total if total else 0.0

    def describe(self) -> Dict:
        """Event/flight detail payload summarizing the scope."""
        return {
            "prefix": self.prefix,
            "ntasks": self.ntasks,
            "failed_nodes": list(self.failed_nodes),
            "lost_ranks": list(self.lost_ranks),
            "survivor_ranks": list(self.survivor_ranks),
            "replacements": {int(r): int(n) for r, n in self.replacements.items()},
            "lost_bytes": self.lost_bytes,
            "total_bytes": self.total_bytes,
        }


def _merge_intervals(intervals: List[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def compute_rebuild_scope(
    manifest: Dict,
    ntasks: int,
    placement: Dict[int, int],
    failed_nodes: Sequence[int],
    replacements: Optional[Dict[int, int]] = None,
    order: str = "F",
    distribution_overrides: Optional[Dict[str, object]] = None,
) -> RebuildScope:
    """The rebuild scope of a failure: which ranks died with
    ``failed_nodes`` under ``placement`` (rank -> node), and exactly
    which stream byte intervals of each checkpointed array they owned
    under the restart distributions.

    ``manifest`` is the manifest-shaped metadata of the generation
    (every generation source exposes one; a ``"prefix"`` key names the
    scope).  ``replacements`` maps lost ranks to their replacement
    nodes; lost ranks without an entry fall back to their old
    (repaired-later) node id, which only affects accounting
    attribution, never bytes.
    """
    check_order(order)
    failed = set(int(n) for n in failed_nodes)
    lost = tuple(sorted(r for r, nd in placement.items() if nd in failed))
    survivors = tuple(sorted(r for r in placement if r not in lost))
    repl = {int(r): int(n) for r, n in (replacements or {}).items()}
    for r in lost:
        repl.setdefault(r, placement[r])
    overrides = distribution_overrides or {}
    lost_set = set(lost)
    scopes: List[ArrayScope] = []
    for spec in manifest.get("arrays", []):
        dist = restart_distribution(spec, ntasks, overrides)
        itemsize = np.dtype(spec["dtype"]).itemsize
        section = Slice.full(spec["shape"])
        plan = _cached_index_plan(dist, section, order, "assigned")
        rank_bytes: Dict[int, int] = {}
        intervals: List[Tuple[int, int]] = []
        lost_bytes = 0
        for entry in plan.entries:
            nb = entry.size * itemsize
            rank_bytes[entry.task] = nb
            if entry.task in lost_set:
                lost_bytes += nb
                intervals.extend(
                    (lo * itemsize, hi * itemsize) for lo, hi in entry.runs()
                )
        scopes.append(
            ArrayScope(
                name=spec["name"],
                nbytes=int(spec["nbytes"]),
                lost_bytes=lost_bytes,
                lost_intervals=_merge_intervals(intervals),
                rank_bytes=rank_bytes,
            )
        )
    return RebuildScope(
        prefix=manifest.get("prefix", ""),
        ntasks=ntasks,
        failed_nodes=tuple(sorted(failed)),
        lost_ranks=lost,
        survivor_ranks=survivors,
        replacements=repl,
        placement={int(r): int(n) for r, n in placement.items()},
        segment_bytes=int(manifest.get("segment_bytes", 0)),
        arrays=tuple(scopes),
    )


class SurvivorLocal(SwitchFetch):
    """Accountant of a localized restart (an
    :class:`~repro.mlck.store.L1ReplicaSource` accountant): every rank
    rolls back to the generation, but each surviving rank reloads its
    assigned section from its own node's replica memory
    (``mem_copy_mbps`` local copies, zero switch traffic) and only the
    lost ranks' sections are served over the switch, from the replicas
    that served the source's verifying fetch, to their replacement
    nodes.  The :class:`RebuildScope` in ``scope`` (set by
    :func:`localized_restore_drms` once the source is open) says who
    pays what."""

    kind = "mlck-l1-localized"
    array_span = "l1_localized_fetch"
    scope: Optional[RebuildScope] = None

    def _charge(self, acct: _Accounting, servers: List[int], nbytes_of) -> None:
        """Survivors copy ``nbytes_of(rank)`` locally; lost ranks'
        replacements pull theirs from ``servers`` over the switch."""
        scope = self.scope
        servers = servers or self.requesters[:1]
        for r in scope.survivor_ranks:
            acct.copy(scope.placement[r], nbytes_of(r))
        for i, r in enumerate(scope.lost_ranks):
            nb = nbytes_of(r)
            if nb:
                acct.send(servers[i % len(servers)], scope.replacements[r], nb)

    def segment(self, acct: _Accounting, manifest: Dict, chunks, nodes) -> None:
        """Every rank reloads the whole (sized) segment; ``nodes``
        served its pieces."""
        self._charge(acct, sorted(set(nodes)), lambda r: manifest["segment_bytes"])

    def array(
        self, acct: _Accounting, index: int, spec: Dict, chunks, nodes
    ) -> Dict[str, int]:
        """Every rank reloads its assigned section of the array; a
        virtual array's sized payload is served by the survivors."""
        scope = self.scope
        ascope = scope.arrays[index]
        servers = (
            [scope.placement[r] for r in scope.survivor_ranks]
            if spec["virtual"]
            else sorted(set(nodes))
        )
        self._charge(acct, servers, lambda r: ascope.rank_bytes.get(r, 0))
        return {"lost_bytes": ascope.lost_bytes}


def localized_restore_drms(
    store: L1Store,
    prefix: str,
    ntasks: int,
    placement: Dict[int, int],
    failed_nodes: Sequence[int],
    replacements: Optional[Dict[int, int]] = None,
    order: Optional[str] = None,
    distribution_overrides: Optional[Dict[str, object]] = None,
    init_seconds: float = 0.0,
) -> Tuple[RestoredState, RestartBreakdown, RebuildScope]:
    """Restore a DRMS generation with localized cost accounting.

    The restored state is byte-identical to
    :meth:`~repro.mlck.store.L1Store.restore_drms` of the same
    generation — the same :func:`~repro.checkpoint.drms.restore` over
    the same replica source; only the accountant differs
    (:class:`SurvivorLocal`), and ``init_seconds`` (program-text load)
    is charged only when there is a replacement task to initialize.
    Raises
    :class:`~repro.errors.MemoryTierError` when any piece has lost
    every valid replica — the caller then falls back to the PFS tier.
    """
    failed = set(int(n) for n in failed_nodes)
    # Survivors never reload program text; only replacement tasks do.
    if not any(nd in failed for nd in placement.values()):
        init_seconds = 0.0
    accountant = SurvivorLocal(store)
    source = L1ReplicaSource(store, prefix, accountant, init_seconds)
    accountant.scope = scope = compute_rebuild_scope(
        dict(source.manifest, prefix=prefix), ntasks, placement, failed_nodes,
        replacements=replacements,
        order=order or source.manifest["order"],
        distribution_overrides=distribution_overrides,
    )
    state, bd = restore(source, ntasks, order, distribution_overrides)
    m = get_tracer().metrics
    m.counter("mlck.localized.restores").inc()
    m.counter("mlck.localized.lost.bytes").inc(scope.lost_bytes)
    m.counter("mlck.localized.survivor.bytes").inc(
        max(0, scope.total_bytes - scope.lost_bytes)
    )
    m.counter("mlck.restore.localized.seconds").inc(bd.total_seconds)
    emit_event(
        None, "localized_rebuilt", prefix=prefix,
        lost_ranks=list(scope.lost_ranks),
        lost_bytes=scope.lost_bytes, seconds=bd.total_seconds,
    )
    return state, bd, scope


@dataclass
class ReplicationRepair:
    """What re-replication after a failure copied where."""

    copies: int = 0
    nbytes: int = 0
    seconds: float = 0.0
    #: piece keys that could not reach full replication (no candidate)
    short: List[str] = field(default_factory=list)


def _unlist(machine: Machine, piece: L1Piece, nodes: Sequence[int]) -> None:
    """Take ``nodes`` off ``piece``'s replica list, and its key out of
    their memory."""
    for n in nodes:
        piece.replicas.remove(n)
        machine.node(n).memory.pop(piece.key, None)


def rereplicate_after_failure(
    store: L1Store,
    failed_nodes: Sequence[int],
    avoid_domains: Sequence[int] = (),
) -> ReplicationRepair:
    """Restore the replication factor of every resident generation
    after ``failed_nodes`` died: dead nodes are scrubbed from each
    piece's replica list and fresh copies are placed on up nodes
    outside ``avoid_domains`` (the replacement node's failure domain,
    so a repeat of the same correlated failure cannot take both the
    replacement task and its recovery data).  Byte copies are charged
    as switch transfers; returns the repair accounting.  The scrub and
    the count against ``k + 1`` ask about *liveness* only; bytes are
    hashed where they are handed on — the source of a piece that gets a
    new copy — so the cost follows the pieces whose count dropped."""
    failed = set(int(n) for n in failed_nodes)
    machine = store.machine
    acct = _Accounting(machine)
    repair = ReplicationRepair()
    for gen in store._gens.values():
        for piece in gen.pieces():
            # Scrub every unservable entry, not just this
            # incident's victims: nodes that died in earlier
            # incidents (or were repaired empty) still linger
            # in replica lists until a repair pass cleans them.
            _unlist(machine, piece, [
                n for n in piece.replicas
                if n in failed or not store.replica_live(piece, n)
            ])
            if len(piece.replicas) > store.k:
                continue
            # a source that decayed is no replica: unlist it, try the
            # next (none left: validation rejects the generation)
            data = None
            while piece.replicas and data is None:
                source = piece.replicas[0]
                data = store._verified_bytes(piece, source)
                if data is None:
                    _unlist(machine, piece, [source])
            if data is None:
                continue
            need = (store.k + 1) - len(piece.replicas)
            placed = ranked_nodes(
                machine, source, piece.replicas, avoid_domains
            )[:need]
            if len(placed) < need:
                repair.short.append(piece.key)
            for new in placed:
                machine.node(new).memory[piece.key] = data
                piece.replicas.append(new)
                acct.send(source, new, piece.nbytes)
                repair.copies += 1
                repair.nbytes += piece.nbytes
                emit_event(
                    None, "replica_replaced", node=new,
                    key=piece.key, source=source,
                    nbytes=piece.nbytes,
                )
    repair.seconds = acct.seconds()
    m = get_tracer().metrics
    m.counter("mlck.localized.rereplicate.copies").inc(repair.copies)
    m.counter("mlck.localized.rereplicate.bytes").inc(repair.nbytes)
    store._update_resident_gauge()
    return repair


def localized_opener(
    pfs: PIOFS, ntasks: int, placement: Dict[int, int],
    failed_nodes: Sequence[int], replacements: Optional[Dict[int, int]] = None,
    l1: Optional[L1Store] = None, order: Optional[str] = None, io_tasks: Optional[int] = None,
    target_bytes: int = 1 << 20,
    distribution_overrides: Optional[Dict[str, object]] = None,
):
    """``open_one(prefix, tier)`` of a localized recovery
    (:func:`~repro.checkpoint.recover.open_latest_valid`), returning
    ``(state, breakdown, scope)``: an ``"l1"`` candidate restores
    survivor-locally from ``l1`` (:func:`localized_restore_drms`), then
    the dead nodes' replicas are re-placed outside the replacement
    nodes' failure domains; any other — its L1 copy gone, and with it
    the survivors' own state of that generation — degrades to a full,
    metered PFS read whose scope still names every rank lost."""

    def open_one(prefix: str, tier: Optional[str]):
        if tier == "l1":
            opened = localized_restore_drms(
                l1, prefix, ntasks, placement, failed_nodes, replacements,
                order, distribution_overrides,
                init_seconds=pfs.params.restart_init_s,
            )
            machine = l1.machine
            avoid = {
                machine.domain_of(n) for n in (replacements or {}).values()
                if 0 <= n < machine.num_nodes
            }
            rereplicate_after_failure(l1, failed_nodes, sorted(avoid))
            return opened
        state, bd = drms_restart(
            pfs, prefix, ntasks, order, io_tasks, target_bytes,
            distribution_overrides,
        )
        scope = compute_rebuild_scope(
            dict(state.manifest, prefix=prefix), ntasks, placement,
            failed_nodes, replacements,
            order or state.manifest.get("order", "F"), distribution_overrides,
        )
        get_tracer().metrics.counter("mlck.localized.pfs_fallbacks").inc()
        return state, bd, scope

    return open_one


def localized_restart(
    pfs: PIOFS,
    prefix: str,
    ntasks: int,
    placement: Dict[int, int],
    failed_nodes: Sequence[int],
    replacements: Optional[Dict[int, int]] = None,
    l1: Optional[L1Store] = None,
    order: Optional[str] = None,
    io_tasks: Optional[int] = None,
    target_bytes: int = 1 << 20,
    distribution_overrides: Optional[Dict[str, object]] = None,
) -> Tuple[RestoredState, RestartBreakdown, RebuildScope]:
    """Localized recovery of the generation under ``prefix`` from
    whichever tier serves it: :func:`localized_opener` over the L1
    replicas of ``l1``, then the PFS copy
    (:func:`~repro.checkpoint.drms.open_generation`)."""
    opened = open_generation(
        pfs, prefix, l1,
        localized_opener(
            pfs, ntasks, placement, failed_nodes, replacements, l1,
            order, io_tasks, target_bytes, distribution_overrides,
        ),
    )
    return opened.state, opened.breakdown, opened.scope
